"""MOT-style comma-separated text formats, plus non-maximum suppression.

Three formats, one record per line, `#` starts a comment, blank lines are
ignored, LF or CRLF both accepted. Each parser takes the whole text of a
file, one str, as load_text returns it: UTF-8 (a byte that is not raises
ParseError for its line), CR and CRLF read as LF. Lines end at LF only, so
a form feed or U+2028 in a line moves no line number. Malformed lines raise
ParseError with the 1-based line number; nothing is silently skipped. The
parsers check only the layout of a line (field count, numeric text: every
field of the two 9-field formats, through one row reader) and the
embedding key; the field rules, non-finite numbers included, belong to the
record types in `core`, whose ValueError the parsers re-raise as a
ParseError for the line.

    detections:  frame,-1,x,y,w,h,score,class,-1
    embeddings:  frame,index,v1,...,vd      (index = 0-based per-frame file order)
    results/gt:  frame,id,x,y,w,h,score,class,flag

Results are written with 6-decimal reals; detection and ground-truth writers
use repr floats so a write/parse round trip is lossless. Embeddings are
written with 6-decimal components: one numpy kernel formats every row whose
"%.6f" text it can prove (_format_rows, a block of rows at a time), and the
one row template, ",".join(["%.6f"] * d), formats the rest, so both give
the same bytes. Each writer has a column form that `reidmot synth` writes
with (_detection_text, _embedding_text, _gt_text), through the same row
template or kernel.

Embedding texts, the detection texts `reidmot track` reads, and the
gt/results texts `reidmot eval` scores, are first read in one columnar
np.loadtxt pass (_loadtxt) over the lines _lines keeps, the one rule for
which lines are data; nothing is retried. Anything unusual goes to the line
parser, the one home of the rules and their line-numbered messages, so both
paths give the same values and the same errors. For embeddings that is
_parse_embedding_lines, which also names the line of a wrong length or a
zero vector (DimensionMismatchError, ZeroNormError) and gives the same
(keys, vecs) block; parse_embeddings is the dict over that block. For
detections it is parse_detections, and for gt/results parse_gt, whose
records then become the same frame-sorted columns
(_parse_detection_columns, _parse_box_table) that a clean text gives.

`reidmot track` stays on columns to the end: it joins the detections to the
embedding block by position (_embedding_rows: the keys, of any size, sorted
once and compared in one pass with each detection's frame and rank within
it, attach_embeddings raising on a mismatch), suppresses with the
keep-mask kernel nms runs (_nms_keep), and formats its results with the
one row template of write_results (_results_text).
"""

import os
import warnings
from dataclasses import dataclass
from itertools import compress, repeat
from typing import NamedTuple

import numpy as np

from .core import (
    BBox,
    BoxTable,
    Detection,
    FrameInput,
    GtEntry,
    _box_columns,
    _exact_column,
    _FrameColumns,
    _frame_rows,
    embedding_dim,
    group_by_frame,
    iou_columns,
    normalize_embedding,
    unit_rows,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    DuplicateEntryError,
    MissingEmbeddingError,
    OrphanEmbeddingError,
    ParseError,
    ZeroNormError,
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


def _lines(text: str):
    """Yield (line_no, stripped payload) for every non-blank, non-comment line."""
    for line_no, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        yield line_no, line


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


# The fields of a detection, gt or results line, in file order, each with
# its reader. A detection file's id and last columns hold -1.
_NINE_FIELDS = (("frame", _field_int), ("identity", _field_int), ("x", _field_float),
                ("y", _field_float), ("w", _field_float), ("h", _field_float),
                ("score", _field_float), ("class", _field_int), ("visibility", _field_float))


def _nine_field_rows(text: str):
    """Yield (line_no, values) for every data line of a 9-field file.

    The values are the nine fields as numbers, int or float as _NINE_FIELDS
    reads them. A line without 9 fields raises ParseError, and so does the
    first field that is not a number of its kind, by its reader's message.
    """
    for line_no, line in _lines(text):
        fields = line.split(",")
        if len(fields) != 9:
            raise ParseError(line_no, f"expected 9 fields, got {len(fields)}")
        frame, identity, x, y, w, h, score, class_id, flag = fields
        # Inline conversions are the fast path; on a failure the readers
        # find the first bad field and raise its message.
        try:
            values = (int(frame), int(identity), float(x), float(y), float(w), float(h),
                      float(score), int(class_id), float(flag))
        except ValueError:
            for k, (what, read) in enumerate(_NINE_FIELDS):
                read(fields, k, line_no, what)  # raises for the first bad field
            raise
        yield line_no, values


def parse_detections(text: str) -> list[Detection]:
    """Parse a detection file; returns detections sorted by frame.

    Within a frame the original file order is preserved: that order is the
    0-based per-frame index used to join embeddings.
    """
    dets = []
    for line_no, (frame, _, x, y, w, h, score, class_id, _) in _nine_field_rows(text):
        try:
            dets.append(Detection(frame=frame, bbox=BBox(x, y, w, h),
                                  score=score, class_id=class_id))
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
    dets.sort(key=lambda d: d.frame)  # stable: per-frame file order survives
    return dets


class _DetectionColumns(NamedTuple):
    """parse_detections as columns: frame (N,), boxes (4, N) float64 (x, y,
    w, h rows), scores (N,) float64 and class_id (N,), in its order.

    The frame and class columns are object arrays where a value does not
    fit int64, as BoxTable's are.
    """

    frame: np.ndarray
    boxes: np.ndarray
    scores: np.ndarray
    class_id: np.ndarray


def _parse_detection_columns(text: str) -> _DetectionColumns:
    """parse_detections as _DetectionColumns, with the same errors.

    The data lines are read by _loadtxt's one pass into columns, checked
    as a whole and stable-sorted by frame; anything parse_detections might
    reject or read differently (no rows, a frame below 1, a score outside
    [0, 1] or NaN, a class below 0, a non-finite box, a side of 0 or less)
    defers to parse_detections, the one home of the field rules and the
    line-numbered messages, whose records then become the columns.
    """
    block = _loadtxt(text, lambda first_line: _BOX_ROW)
    if block is not None:
        block = block[np.argsort(block["key"][:, 0], kind="stable")]
        frame, boxes, scores, class_id = (block["key"][:, 0], block["box"].T, block["score"],
                                          block["class_id"])
        if ((frame >= 1).all() and (class_id >= 0).all() and np.isfinite(boxes).all()
                and (boxes[2:] > 0).all() and ((scores >= 0) & (scores <= 1)).all()):
            return _DetectionColumns(frame, boxes, scores, class_id)
    dets = parse_detections(text)
    return _DetectionColumns(_exact_column([d.frame for d in dets]),
                             _box_columns([d.bbox for d in dets]),
                             np.array([d.score for d in dets], dtype=np.float64),
                             _exact_column([d.class_id for d in dets]))


def _detection_records(columns: _DetectionColumns) -> list[Detection]:
    """The Detection of each row of `columns`, as parse_detections gives them."""
    frame, boxes, scores, class_id = columns
    return [Detection(f, BBox(x, y, w, h), s, c) for f, x, y, w, h, s, c in
            zip(frame.tolist(), *boxes.tolist(), scores.tolist(), class_id.tolist())]


def parse_embeddings(text: str, expected_dim: int | None = None) -> dict:
    """Parse an embedding file into {(frame, index): unit vector}.

    The dimension is fixed by `expected_dim` or, failing that, by the first
    record; every vector is L2-normalized on load. The dict is built over
    _parse_embedding_columns, so its vectors are rows of one block.
    """
    keys, vecs = _parse_embedding_columns(text, expected_dim)
    return dict(zip(map(tuple, keys.tolist()), vecs))


def _parse_embedding_columns(text: str, expected_dim: int | None) -> tuple:
    """parse_embeddings as (keys, vecs): an (M, 2) key array and the (M, d)
    block of unit rows, in file order. A clean text is read in one columnar
    pass (_parse_embedding_block), anything else by the line parser."""
    return (_parse_embedding_block(text, expected_dim)
            or _parse_embedding_lines(text, expected_dim))


def _loadtxt(text: str, row_dtype) -> np.ndarray | None:
    """The data lines of `text` in one np.loadtxt pass, or None to defer.

    The lines are the ones _lines keeps, stripped, so blank, whitespace-only
    and comment lines never reach loadtxt, and there is one pass with no
    retry. `row_dtype(first data line)` gives the structured dtype of a row,
    or None to defer. Text loadtxt does not take or warns about (a wrong
    field count, a ragged row, a number int()/float() would read
    differently) also defers. A caller that defers re-reads the original
    text with its line parser, so the messages keep their line numbers.
    """
    lines = [line for _, line in _lines(text)]
    dtype = row_dtype(lines[0]) if lines else None  # loadtxt warns on no lines
    # loadtxt reads a number beside \x1c-\x1f, which int() and float() refuse.
    if dtype is None or any(sep in text for sep in "\x1c\x1d\x1e\x1f"):
        return None
    try:
        # Integer fields, so that a key such as "1.0" or "1e0" is refused, as
        # int() refuses it; float fields would take it. Older numpy read
        # such a field through a float (1.9 -> 1) with only a
        # DeprecationWarning, so every warning here is an error that defers.
        # max_rows sizes the block once; growing it raises the peak RSS.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(lines, delimiter=",", comments=None, ndmin=1,
                              max_rows=len(lines), dtype=dtype)
    except (ValueError, Warning):
        return None


def _parse_embedding_block(text: str, expected_dim: int | None) -> tuple | None:
    """The data lines read by _loadtxt's one pass as (keys, vecs), or None to defer.

    Returns None for anything the line parser might reject or read
    differently: whatever _loadtxt defers, a key out of range or repeated,
    a wrong dimension, or a row core.unit_rows rejects (a non-finite
    component, a zero, tiny or overflowed norm). The vectors are row views
    of the loadtxt block, normalized in place: a contiguous copy would raise
    the peak RSS by the block's size.
    """
    def row_dtype(first_line):
        dim = first_line.count(",") - 1
        if dim < 1 or (expected_dim is not None and expected_dim != dim):
            return None
        return [("key", np.int64, (2,)), ("vec", np.float64, (dim,))]

    block = _loadtxt(text, row_dtype)
    if block is None:
        return None
    keys, vecs = block["key"], block["vec"]
    if (keys[:, 0] < 1).any() or (keys[:, 1] < 0).any():
        return None
    ordered = keys[np.lexsort(keys.T[::-1])]
    if (ordered[1:] == ordered[:-1]).all(axis=1).any():  # a repeated key
        return None
    try:
        unit_rows(vecs, out=vecs)
    except (ValueError, ZeroNormError):  # the line parser names the line
        return None
    return keys, vecs


def _parse_embedding_lines(text: str, expected_dim: int | None) -> tuple:
    """_parse_embedding_columns one line at a time: the rules and their
    messages. The keys are an object array where one does not fit int64."""
    keys, vecs, seen = [], [], set()
    dim = expected_dim
    for line_no, line in _lines(text):
        fields = line.split(",")
        if len(fields) < 3:
            raise ParseError(line_no, f"expected at least 3 fields, got {len(fields)}")
        frame = _field_int(fields, 0, line_no, "frame")
        index = _field_int(fields, 1, line_no, "index")
        if frame < 1:
            raise ParseError(line_no, f"frame must be >= 1, got {frame}")
        if index < 0:
            raise ParseError(line_no, f"index must be >= 0, got {index}")
        if (frame, index) in seen:
            raise ParseError(line_no, f"duplicate embedding key ({frame}, {index})")
        seen.add((frame, index))
        try:
            vec = np.array([float(v) for v in fields[2:]], dtype=np.float64)
        except ValueError:
            raise ParseError(line_no, "non-numeric embedding component") from None
        if dim is None:
            dim = vec.shape[0]
        try:
            vecs.append(normalize_embedding(vec, dim))
        except (DimensionMismatchError, ZeroNormError) as exc:
            raise type(exc)(f"line {line_no}: {exc}") from None
        except ValueError as exc:  # a non-finite component
            raise ParseError(line_no, str(exc)) from None
        keys.append((frame, index))
    return (_exact_column(keys).reshape(-1, 2),
            np.array(vecs) if vecs else np.empty((0, 0)))


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
            enriched.append(Detection(det.frame, det.bbox, det.score, det.class_id,
                                      embeddings[key]))
        frames.append(FrameInput(frame=frame, detections=tuple(enriched)))
    # Every detection used a distinct key, so any surplus key is an orphan.
    if len(embeddings) > sum(len(fi.detections) for fi in frames):
        used = {(fi.frame, i) for fi in frames for i in range(len(fi.detections))}
        raise OrphanEmbeddingError(*min(set(embeddings) - used))
    return frames


def _embedding_rows(detections: _DetectionColumns, frame_rows: dict, keys: np.ndarray,
                    vecs: np.ndarray) -> np.ndarray:
    """The row of `keys` and `vecs` that holds each detection's embedding;
    `frame_rows` is _frame_rows of the detections' frames.

    attach_embeddings' join by position: detection k of a frame takes the
    key (frame, k). The keys are sorted once and compared with each
    detection's (frame, rank within its frame) in one pass; np.lexsort and
    == take the object columns of keys past int64 as they take int64 ones.
    On any mismatch attach_embeddings of the same records raises the
    MissingEmbeddingError or OrphanEmbeddingError that names it.
    """
    frame = detections.frame
    starts = np.zeros(len(frame), dtype=np.intp)
    for take in frame_rows.values():
        starts[take] = take.start
    rank = np.arange(len(frame)) - starts
    if len(keys) == len(frame):
        order = np.lexsort(keys.T[::-1])
        if (keys[order, 0] == frame).all() and (keys[order, 1] == rank).all():
            return order
    # The keys do not line up, so the record join raises the error naming how.
    attach_embeddings(_detection_records(detections),
                      dict(zip(map(tuple, keys.tolist()), vecs)))
    raise AssertionError("attach_embeddings joined keys that the positional join refused")


def _track_frames(detections: _DetectionColumns, keys: np.ndarray, vecs: np.ndarray,
                  nms_thresh: float | None):
    """The _FrameColumns of each frame of `detections` joined to its
    embeddings: attach_embeddings, then nms_frames when `nms_thresh` is
    given, on columns.

    The join (_embedding_rows) and the threshold are checked at once, in
    that order; the frames are then built one at a time, each with its
    own copy of its embedding rows, so the block is never copied whole.
    """
    frame_rows = _frame_rows(detections.frame)
    rows = _embedding_rows(detections, frame_rows, keys, vecs)
    if nms_thresh is not None:
        _check_iou_thresh(nms_thresh)
    return (_frame_columns(detections, vecs, rows, frame, take, nms_thresh)
            for frame, take in frame_rows.items())


def _frame_columns(detections: _DetectionColumns, vecs: np.ndarray, rows: np.ndarray,
                   frame: int, take: slice, nms_thresh: float | None) -> _FrameColumns:
    boxes, scores, class_id = (detections.boxes[:, take], detections.scores[take],
                               detections.class_id[take])
    if nms_thresh is not None:
        keep = np.flatnonzero(_nms_keep(boxes, scores, class_id, nms_thresh))
        boxes, scores, class_id = boxes[:, keep], scores[keep], class_id[keep]
        take = keep + take.start
    return _FrameColumns(frame, boxes, scores, class_id, vecs[rows[take]])


def parse_gt(text: str) -> list[GtEntry]:
    """Parse ground truth (or a results file; the id column reads as identity).

    Entries come back sorted by (frame, identity); a repeated (frame,
    identity) pair raises DuplicateEntryError.
    """
    entries = []
    seen = set()
    for line_no, (frame, identity, x, y, w, h, _, class_id, _) in _nine_field_rows(text):
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


_BOX_ROW = np.dtype([("key", np.int64, (2,)), ("box", np.float64, (4,)), ("score", np.float64),
                     ("class_id", np.int64), ("flag", np.float64)])


def _parse_box_table(text: str) -> BoxTable:
    """parse_gt as a BoxTable sorted by (frame, id), with the same errors.

    The data lines are read by _loadtxt's one pass into columns and
    checked as a whole; anything parse_gt might reject or read differently
    (no rows, an identity or frame below 1, a class below 0, a non-finite
    box, a side of 0 or less, a repeated (frame, id)) defers to parse_gt,
    the one home of the field rules and the line-numbered messages, whose
    entries then become the table.
    """
    block = _loadtxt(text, lambda first_line: _BOX_ROW)
    if block is not None:
        block = block[np.lexsort(block["key"].T[::-1])]  # by frame, then id
        (frame, ids), boxes, class_id = block["key"].T, block["box"].T, block["class_id"]
        valid = ((frame >= 1) & (ids >= 1) & (class_id >= 0)
                 & np.isfinite(boxes).all(axis=0) & (boxes[2] > 0) & (boxes[3] > 0))
        repeated = (frame[1:] == frame[:-1]) & (ids[1:] == ids[:-1])
        if valid.all() and not repeated.any():
            return BoxTable(frame, ids, boxes, class_id)
    entries = parse_gt(text)
    return BoxTable.from_records(entries, [e.identity for e in entries])


# One detection line and one ground-truth line, reals as repr (a lossless
# round trip): the templates of write_detections and _detection_text, and
# of write_gt and _gt_text. A real must be a float, whose %r is its repr.
_DETECTION_ROW = "%s,-1,%r,%r,%r,%r,%r,%s,-1\n"
_GT_ROW = "%s,%s,%r,%r,%r,%r,1,%s,1\n"


def write_detections(detections) -> str:
    """Detection lines with repr floats (lossless round trip)."""
    return "".join([_DETECTION_ROW % (d.frame, float(d.bbox.x), float(d.bbox.y),
                                      float(d.bbox.w), float(d.bbox.h), float(d.score),
                                      d.class_id) for d in detections])


def _detection_text(columns: _DetectionColumns) -> str:
    """write_detections of the records that `columns` hold, as
    _detection_records gives them."""
    frame, boxes, scores, class_id = columns
    return "".join(map(_DETECTION_ROW.__mod__, zip(frame.tolist(), *boxes.tolist(),
                                                   scores.tolist(), class_id.tolist())))


def write_embeddings(frames) -> str:
    """Embedding lines (6-decimal components) for every detection that has one.

    Every row is formatted as one template would format it, so every
    detection must have an embedding that core.embedding_dim accepts (1-D,
    non-empty, as long as the first one) rather than write a file that
    parse_embeddings rejects.
    """
    keys, embs = [], []
    dim = None
    for fi in frames:
        dim = embedding_dim(fi.frame, fi.detections, dim)
        keys += [(fi.frame, index) for index in range(len(fi.detections))]
        embs += [det.embedding for det in fi.detections]
    if not embs:
        return ""
    nan_row = np.full(dim, np.nan)  # a row the kernel leaves to the template
    block = np.array([e if e.dtype.kind in "biuf" else nan_row for e in embs], np.float64)
    return _embedding_text(keys, block, embs)


def _embedding_text(keys, block: np.ndarray, rows=None) -> str:
    """Embedding lines: the k-th (frame, index) pair of `keys`, then row k
    of the (N, d) float64 `block` as _format_rows writes it, `rows` as there."""
    return "".join([f"{frame},{index},{row}\n"
                    for (frame, index), row in zip(keys, _format_rows(block, rows))])


# A component as the kernel writes it: 10 bytes, a sign byte (0, a pad, for
# a value that is not negative) and the integer digit as one 16-bit word,
# then ".", the six fraction digits and the separator as one 64-bit word.
_COMPONENT = np.dtype([("head", "<u2"), ("tail", "<u8")])
# The tail word's bytes, by the value of the digits they hold: "." and the
# first three fraction digits (bytes 0-3), then the last three (bytes 4-6).
# The separator is byte 7.
_FRACTION_HIGH = np.frombuffer("".join(f".{i:03d}" for i in range(1000)).encode(),
                               "<u4").astype(np.uint64)
_FRACTION_LOW = np.frombuffer("".join(f"{i:03d}\0" for i in range(1000)).encode(),
                              "<u4").astype(np.uint64) << np.uint64(32)


# Rows per block of _format_rows: each of its temporaries holds about
# 8 bytes a component, so at dimension 128 it stays near 256 KiB, within a
# core's cache.
_FORMAT_BLOCK_ROWS = 256


def _format_rows(block: np.ndarray, rows=None) -> list[str]:
    """Each row of the (N, d) float64 `block` as ",".join(["%.6f"] * d)
    formats it, without its line end.

    One kernel formats, _FORMAT_BLOCK_ROWS rows at a time, every row it can
    prove: k = rint(v * 1e6), the sign byte from a signbit view (so -0.0
    and -4e-7 give "-0.000000"), the digits of |k| as byte words, the pad
    bytes dropped from the block's bytes and the text decoded once. A row
    with a component that is not finite (a row whose dtype is not real
    comes as nan), rounds to 10 or more, or whose product v * 1e6 lies
    exactly halfway between two integers, goes through the template
    instead, with row k of `rows` (the block's own rows by default).

    "%.6f" rounds the exact v * 10**6 to the nearest integer. The float64
    product is correctly rounded, so it is monotone in the exact one, and
    k - 0.5 and k + 0.5 are doubles (|k| < 1e7): a product strictly within
    0.5 of k means the exact one is too, and rounds to k. Only a product
    on a tie leaves the exact one's side unknown.
    """
    rows = block if rows is None else rows
    dim = block.shape[1]
    row_fmt = ",".join(["%.6f"] * dim)
    separators = np.full(dim, ord(",") << 56, np.uint64)
    separators[-1] = ord("\n") << 56
    text = []
    for start in range(0, len(block), _FORMAT_BLOCK_ROWS):
        matrix = block[start:start + _FORMAT_BLOCK_ROWS]
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan fall back
            scaled = matrix * 1e6
            k = np.rint(scaled)
            provable = ((np.abs(scaled - k) < 0.5) & (np.abs(k) < 1e7)).all(axis=1)
        if not provable.all():
            matrix, k = matrix[provable], k[provable]
        magnitude = np.abs(k).astype(np.int32)
        thousands = magnitude // 1000
        integer = thousands // 1000
        plane = np.empty(k.shape, _COMPONENT)
        plane["head"] = ((integer.astype(np.uint16) + ord("0")) << 8
                         | np.signbit(matrix).view(np.uint8) * np.uint8(ord("-")))
        plane["tail"] = (_FRACTION_HIGH[thousands - integer * 1000]
                         | _FRACTION_LOW[magnitude - thousands * 1000] | separators)
        kernel_rows = iter(plane.tobytes().replace(b"\0", b"").decode("ascii").split("\n"))
        text += [next(kernel_rows) if proved else row_fmt % tuple(rows[row].tolist())
                 for row, proved in enumerate(provable.tolist(), start=start)]
    return text


# One results line: frame, track id, x, y, w, h, score, class id. The one
# template, for write_results and _results_text.
_RESULT_ROW = "%s,%s,%.6f,%.6f,%.6f,%.6f,%.6f,%s,-1\n"


def write_results(outputs) -> str:
    """Tracker output lines, 6-decimal reals, LF endings. Parseable by parse_gt."""
    return "".join([_RESULT_ROW % (o.frame, o.track_id, o.bbox.x, o.bbox.y, o.bbox.w,
                                   o.bbox.h, o.score, o.class_id) for o in outputs])


def _results_text(frames) -> str:
    """write_results of `reidmot track`'s columns: per frame, its number and
    the track ids, class ids, (4, k) boxes and scores of its k outputs."""
    rows = []
    for frame, track_ids, class_ids, boxes, scores in frames:
        rows += zip(repeat(frame), track_ids.tolist(), *boxes.tolist(), scores.tolist(),
                    class_ids.tolist())
    return "".join(map(_RESULT_ROW.__mod__, rows))


def write_gt(entries) -> str:
    """Ground-truth lines with repr floats; score and visibility fixed at 1."""
    return "".join([_GT_ROW % (e.frame, e.identity, float(e.bbox.x), float(e.bbox.y),
                               float(e.bbox.w), float(e.bbox.h), e.class_id)
                    for e in entries])


def _gt_text(table: BoxTable) -> str:
    """write_gt of the entries whose columns `table` holds."""
    return "".join(map(_GT_ROW.__mod__, zip(table.frame.tolist(), table.ids.tolist(),
                                            *table.boxes.tolist(), table.class_id.tolist())))


def _check_iou_thresh(iou_thresh: float):
    if not (0.0 <= iou_thresh <= 1.0):
        raise ConfigError(f"iou_thresh must be in [0, 1], got {iou_thresh}")


def nms(detections, iou_thresh: float) -> list[Detection]:
    """Greedy per-class non-maximum suppression of one frame's detections.

    Candidates are visited in descending score order (ties: earlier file
    order first); a candidate is kept iff its IoU with every already-kept box
    of the same class is <= iou_thresh, so keeping a box suppresses every box
    of its class that overlaps it by more. The frame's IoU matrix is built
    once. NMS drops boxes and never reorders them: the kept detections are
    returned in their input order.
    """
    _check_iou_thresh(iou_thresh)
    keep = _nms_keep(_box_columns([d.bbox for d in detections]),
                     np.array([d.score for d in detections], dtype=np.float64),
                     np.array([d.class_id for d in detections]), iou_thresh)
    return list(compress(detections, keep.tolist()))


def _nms_keep(boxes: np.ndarray, scores: np.ndarray, class_ids: np.ndarray,
              iou_thresh: float) -> np.ndarray:
    """nms' keep mask over one frame's columns: the one NMS kernel, for nms
    and `reidmot track`. `boxes` is (4, n): x, y, w, h rows."""
    # overlaps[i, j]: keeping i suppresses j
    overlaps = (iou_columns(boxes, boxes) > iou_thresh) & (class_ids[:, None] == class_ids)
    suppressed = np.zeros(len(scores), dtype=bool)
    keep = np.zeros(len(scores), dtype=bool)
    for i in np.argsort(-scores, kind="stable").tolist():  # ties: earlier row first
        if not suppressed[i]:
            keep[i] = True
            suppressed |= overlaps[i]
    return keep


def nms_frames(frame_groups, iou_thresh: float) -> list[list[Detection]]:
    """nms of each frame's detections in `frame_groups`, in the same order.

    The threshold is checked before the first frame, so a bad one is
    rejected even when there are no frames at all.
    """
    _check_iou_thresh(iou_thresh)
    return [nms(dets, iou_thresh) for dets in frame_groups]


def load_text(path) -> str:
    """The text of a UTF-8 file, CR and CRLF line ends read as LF. A byte
    that is not UTF-8 raises ParseError naming its line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:  # read() decodes all the bytes at once
        head, bad = exc.object[:exc.start], exc.object[exc.start]
        line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ParseError(line_no, f"not UTF-8: byte {bad:#04x} ({exc.reason})") from None


def save_text(path, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return os.fspath(path)
