"""MOT-style comma-separated text formats, plus non-maximum suppression.

Three formats, one record per line, `#` starts a comment, blank lines are
ignored, LF or CRLF both accepted. Malformed lines raise ParseError with the
1-based line number; nothing is silently skipped. The parsers check only the
layout of a line (field count, numeric text) and the embedding key; the field
rules, non-finite numbers included, belong to the record types in `core`,
whose ValueError the parsers re-raise as a ParseError for the line.

    detections:  frame,-1,x,y,w,h,score,class,-1
    embeddings:  frame,index,v1,...,vd      (index = 0-based per-frame file order)
    results/gt:  frame,id,x,y,w,h,score,class,flag

Results are written with 6-decimal reals; detection and ground-truth writers
use repr floats so a write/parse round trip is lossless.
"""

import os
from dataclasses import dataclass

import numpy as np

from .core import BBox, Detection, FrameInput, GtEntry, group_by_frame, iou_matrix, normalize_embedding
from .errors import (
    ConfigError,
    DuplicateEntryError,
    MissingEmbeddingError,
    OrphanEmbeddingError,
    ParseError,
)


@dataclass(frozen=True)
class SequenceBundle:
    """One sequence ready to track: per-frame inputs plus optional ground truth."""

    name: str
    frames: tuple[FrameInput, ...]
    gt: tuple[GtEntry, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        if self.gt is not None:
            object.__setattr__(self, "gt", tuple(self.gt))


def _lines(source):
    """Yield (line_no, stripped payload) for every non-blank, non-comment line."""
    if isinstance(source, str):
        raw = source.splitlines()
    else:
        raw = source
    for line_no, line in enumerate(raw, start=1):
        text = line.rstrip("\r\n").strip()
        if not text or text.startswith("#"):
            continue
        yield line_no, text


def _field_float(fields, idx, line_no, what) -> float:
    try:
        return float(fields[idx])
    except ValueError:
        raise ParseError(line_no, f"non-numeric {what}: {fields[idx]!r}") from None


def _field_int(fields, idx, line_no, what) -> int:
    try:
        return int(fields[idx])
    except ValueError:
        raise ParseError(line_no, f"non-integer {what}: {fields[idx]!r}") from None


def parse_detections(source) -> list[Detection]:
    """Parse a detection file; returns detections sorted by frame.

    Within a frame the original file order is preserved: that order is the
    0-based per-frame index used to join embeddings.
    """
    dets = []
    for line_no, text in _lines(source):
        fields = text.split(",")
        if len(fields) != 9:
            raise ParseError(line_no, f"expected 9 fields, got {len(fields)}")
        frame = _field_int(fields, 0, line_no, "frame")
        x = _field_float(fields, 2, line_no, "x")
        y = _field_float(fields, 3, line_no, "y")
        w = _field_float(fields, 4, line_no, "w")
        h = _field_float(fields, 5, line_no, "h")
        score = _field_float(fields, 6, line_no, "score")
        class_id = _field_int(fields, 7, line_no, "class")
        try:
            dets.append(Detection(frame=frame, bbox=BBox(x, y, w, h),
                                  score=score, class_id=class_id))
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
    dets.sort(key=lambda d: d.frame)  # stable: per-frame file order survives
    return dets


def parse_embeddings(source, expected_dim: int | None = None) -> dict:
    """Parse an embedding file into {(frame, index): unit vector}.

    The dimension is fixed by `expected_dim` or, failing that, by the first
    record; every vector is L2-normalized on load.
    """
    emb = {}
    dim = expected_dim
    for line_no, text in _lines(source):
        fields = text.split(",")
        if len(fields) < 3:
            raise ParseError(line_no, f"expected at least 3 fields, got {len(fields)}")
        frame = _field_int(fields, 0, line_no, "frame")
        index = _field_int(fields, 1, line_no, "index")
        if frame < 1:
            raise ParseError(line_no, f"frame must be >= 1, got {frame}")
        if index < 0:
            raise ParseError(line_no, f"index must be >= 0, got {index}")
        if (frame, index) in emb:
            raise ParseError(line_no, f"duplicate embedding key ({frame}, {index})")
        try:
            vec = np.array([float(v) for v in fields[2:]], dtype=np.float64)
        except ValueError:
            raise ParseError(line_no, "non-numeric embedding component") from None
        if dim is None:
            dim = vec.shape[0]
        try:
            emb[(frame, index)] = normalize_embedding(vec, dim)
        except ValueError as exc:  # a non-finite component
            raise ParseError(line_no, str(exc)) from None
    return emb


def attach_embeddings(detections, embeddings) -> list[FrameInput]:
    """Join detections with their embeddings into per-frame inputs.

    The join key is (frame, 0-based position of the detection within its
    frame), and the two inputs must line up both ways: MissingEmbeddingError
    names the first detection without an embedding; failing that,
    OrphanEmbeddingError names the smallest key that matches no detection.
    The detections' own field rules were already checked by their types.
    """
    frames = []
    for frame, dets in group_by_frame(detections).items():
        enriched = []
        for index, det in enumerate(dets):
            key = (frame, index)
            if key not in embeddings:
                raise MissingEmbeddingError(frame, index)
            enriched.append(det.with_embedding(embeddings[key]))
        frames.append(FrameInput(frame=frame, detections=tuple(enriched)))
    # Every detection used a distinct key, so any surplus key is an orphan.
    if len(embeddings) > sum(len(fi.detections) for fi in frames):
        used = {(fi.frame, i) for fi in frames for i in range(len(fi.detections))}
        raise OrphanEmbeddingError(*min(set(embeddings) - used))
    return frames


def parse_gt(source) -> list[GtEntry]:
    """Parse ground truth (or a results file; the id column reads as identity).

    Entries come back sorted by (frame, identity); a repeated (frame,
    identity) pair raises DuplicateEntryError.
    """
    entries = []
    seen = set()
    for line_no, text in _lines(source):
        fields = text.split(",")
        if len(fields) != 9:
            raise ParseError(line_no, f"expected 9 fields, got {len(fields)}")
        frame = _field_int(fields, 0, line_no, "frame")
        identity = _field_int(fields, 1, line_no, "identity")
        x = _field_float(fields, 2, line_no, "x")
        y = _field_float(fields, 3, line_no, "y")
        w = _field_float(fields, 4, line_no, "w")
        h = _field_float(fields, 5, line_no, "h")
        _field_float(fields, 6, line_no, "score")
        class_id = _field_int(fields, 7, line_no, "class")
        _field_float(fields, 8, line_no, "visibility")
        try:
            entry = GtEntry(frame=frame, identity=identity,
                            bbox=BBox(x, y, w, h), class_id=class_id)
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
        if (frame, identity) in seen:
            raise DuplicateEntryError(
                f"line {line_no}: duplicate entry for frame {frame}, identity {identity}"
            )
        seen.add((frame, identity))
        entries.append(entry)
    entries.sort(key=lambda e: (e.frame, e.identity))
    return entries


def write_detections(detections) -> str:
    """Detection lines with repr floats (lossless round trip)."""
    lines = []
    for d in detections:
        b = d.bbox
        lines.append(
            f"{d.frame},-1,{float(b.x)!r},{float(b.y)!r},{float(b.w)!r},"
            f"{float(b.h)!r},{float(d.score)!r},{d.class_id},-1"
        )
    return "".join(line + "\n" for line in lines)


def write_embeddings(frames) -> str:
    """Embedding lines (6-decimal components) for every detection that has one."""
    lines = []
    for fi in frames:
        for index, det in enumerate(fi.detections):
            if det.embedding is None:
                raise MissingEmbeddingError(fi.frame, index)
            vec = ",".join(f"{v:.6f}" for v in det.embedding)
            lines.append(f"{fi.frame},{index},{vec}")
    return "".join(line + "\n" for line in lines)


def write_results(outputs) -> str:
    """Tracker output lines, 6-decimal reals, LF endings. Parseable by parse_gt."""
    lines = []
    for o in outputs:
        b = o.bbox
        lines.append(
            f"{o.frame},{o.track_id},{b.x:.6f},{b.y:.6f},{b.w:.6f},{b.h:.6f},"
            f"{o.score:.6f},{o.class_id},-1"
        )
    return "".join(line + "\n" for line in lines)


def write_gt(entries) -> str:
    """Ground-truth lines with repr floats; score and visibility fixed at 1."""
    lines = []
    for e in entries:
        b = e.bbox
        lines.append(
            f"{e.frame},{e.identity},{float(b.x)!r},{float(b.y)!r},{float(b.w)!r},"
            f"{float(b.h)!r},1,{e.class_id},1"
        )
    return "".join(line + "\n" for line in lines)


def _check_iou_thresh(iou_thresh: float):
    if not (0.0 <= iou_thresh <= 1.0):
        raise ConfigError(f"iou_thresh must be in [0, 1], got {iou_thresh}")


def nms(detections, iou_thresh: float) -> list[Detection]:
    """Greedy per-class non-maximum suppression of one frame's detections.

    Candidates are visited in descending score order (ties: earlier file
    order first); a candidate is kept iff its IoU with every already-kept box
    of the same class is <= iou_thresh, so keeping a box suppresses every box
    of its class that overlaps it by more. The frame's IoU matrix is built
    once. Returns kept detections in visit order, so the result is
    score-sorted.
    """
    _check_iou_thresh(iou_thresh)
    boxes = [d.bbox for d in detections]
    classes = np.array([d.class_id for d in detections])
    # overlaps[i, j]: keeping i suppresses j
    overlaps = (iou_matrix(boxes, boxes) > iou_thresh) & (classes[:, None] == classes)
    suppressed = np.zeros(len(detections), dtype=bool)
    kept: list[Detection] = []
    for i in sorted(range(len(detections)), key=lambda i: -detections[i].score):
        if not suppressed[i]:
            kept.append(detections[i])
            suppressed |= overlaps[i]
    return kept


def nms_frames(frame_groups, iou_thresh: float) -> list[list[Detection]]:
    """nms of each frame's detections in `frame_groups`, in the same order.

    The threshold is checked before the first frame, so a bad one is
    rejected even when there are no frames at all.
    """
    _check_iou_thresh(iou_thresh)
    return [nms(dets, iou_thresh) for dets in frame_groups]


def load_text(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def save_text(path, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return os.fspath(path)
