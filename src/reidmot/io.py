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
written with 6-decimal components: one numpy kernel writes the line of
every row whose "%.6f" text it can prove, key included (_embedding_text, a
block of rows at a time), and the one row template, ",".join(["%.6f"] * d),
formats the rest, so both give the same bytes. Each writer has a column
form that `reidmot synth` writes with (_detection_text, _embedding_text,
_gt_text), through the same row template or kernel.

Embedding files are read in up to three tiers, each deferring to the next.
The first is the writer's mirror, a byte reader (_parse_embedding_bytes):
a file whose every line is one the kernel writes, integer keys and
[-]D.DDDDDD components, is read from its bytes by word operations, with
no text decoded; `reidmot track` hands it the file's bytes. Anything else
is decoded by load_text's rule and goes on as the other texts do.

Embedding texts, the detection texts `reidmot track` reads, and the
gt/results texts `reidmot eval` scores, are read in one columnar
np.loadtxt pass (_loadtxt) over the lines _lines keeps, the one rule for
which lines are data; nothing is retried. Anything unusual goes to the line
parser, the one home of the rules and their line-numbered messages, so all
paths give the same values and the same errors. For embeddings that is
_parse_embedding_lines, which also names the line of a wrong length or a
zero vector (DimensionMismatchError, ZeroNormError) and gives the same
(keys, vecs) block; the two columnar embedding readers share its key and
norm checks (_checked_embeddings), and parse_embeddings is the dict over
that block. For detections it is parse_detections, and for gt/results
parse_gt, whose records then become the same frame-sorted columns
(_parse_detection_columns, _parse_box_table) that a clean text gives.

`reidmot track` and `reidmot nms` stay on columns to the end, with no
record per row on clean input. Both suppress with one driver, which nms
runs too (_nms_rows: a keep mask over the detection columns from one
overlap sweep over the whole file, core._overlap_pairs, with the greedy
loop run only over the boxes that have a same-class neighbour above the
threshold). `reidmot nms` writes the kept rows (_detection_text); `reidmot
track` joins the detections to the embedding block by position
(_embedding_rows: the keys sorted once and compared in one pass with each
detection's frame and rank within it, attach_embeddings raising on a
mismatch) and writes with write_results' row template (_results_text).
"""

import os
import warnings
from dataclasses import dataclass
from itertools import compress, repeat
from pathlib import Path
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
    _frame_codes,
    _FrameColumns,
    _frame_rows,
    _overlap_pairs,
    embedding_dim,
    group_by_frame,
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


def _parse_embedding_columns(source: str | bytes, expected_dim: int | None) -> tuple:
    """parse_embeddings as (keys, vecs): an (M, 2) key array and the (M, d)
    block of unit rows, in file order.

    `source` is the file's text, or its bytes as `reidmot track` reads them.
    The byte reader (_parse_embedding_bytes) reads the lines _embedding_text
    writes; whatever it defers is decoded by load_text's rule, read in one
    columnar pass (_parse_embedding_block) if it is clean, and by the line
    parser otherwise.
    """
    if isinstance(source, bytes):
        data = source
    else:  # an ASCII str's UTF-8 bytes are a copy of it; any other defers
        data = source.encode() if source.isascii() else b""
    columns = _parse_embedding_bytes(data, expected_dim)
    if columns is None:
        text = source if isinstance(source, str) else _decoded_text(source)
        columns = (_parse_embedding_block(text, expected_dim)
                   or _parse_embedding_lines(text, expected_dim))
    return columns


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

    Returns None for whatever _loadtxt or _checked_embeddings defers, or a
    wrong dimension. The vectors are row views of the loadtxt block,
    normalized in place: a contiguous copy would raise the peak RSS by the
    block's size.
    """
    def row_dtype(first_line):
        dim = first_line.count(",") - 1
        if dim < 1 or (expected_dim is not None and expected_dim != dim):
            return None
        return [("key", np.int64, (2,)), ("vec", np.float64, (dim,))]

    block = _loadtxt(text, row_dtype)
    return None if block is None else _checked_embeddings(block["key"], block["vec"])


def _checked_embeddings(keys: np.ndarray, vecs: np.ndarray) -> tuple | None:
    """(keys, vecs), the rows of `vecs` made unit in place, or None to defer.

    The checks of both columnar readers: returns None for anything the line
    parser might reject, a frame below 1 or an index below 0, a repeated
    key, or a row core.unit_rows rejects (a non-finite component, a zero,
    tiny or overflowed norm); the line parser then names the line.
    """
    if (keys[:, 0] < 1).any() or (keys[:, 1] < 0).any():
        return None
    ordered = keys[np.lexsort(keys.T[::-1])]
    if (ordered[1:] == ordered[:-1]).all(axis=1).any():  # a repeated key
        return None
    try:
        unit_rows(vecs, out=vecs)
    except (ValueError, ZeroNormError):
        return None
    return keys, vecs


# The words of _parse_embedding_bytes. A component's last 8 bytes, "D.DDDDDD"
# as one little-endian word, XOR _COMPONENT_ZEROS hold the values of the
# digits in bytes 0 and 2-7, and 0 in byte 1 for the "."; a key's digits,
# XOR _KEY_ZEROS, likewise. Adding the _LIMIT word then sets the high bit of
# each byte that held more than its limit (9, or 0 for the "."), and a byte
# past 0x7f has it already: a word is valid iff no byte of (w + limit) | w
# has it.
_COMPONENT_ZEROS = np.uint64(0x3030303030302E30)
_COMPONENT_LIMIT = np.uint64(0x7676767676767F76)
_KEY_ZEROS = np.uint64(0x3030303030303030)
_KEY_LIMIT = np.uint64(0x7676767676767676)
_HIGH_BITS = np.uint64(0x8080808080808080)
_ALL_BITS = np.uint64(0xFFFFFFFFFFFFFFFF)


def _eight_digits(words: np.ndarray) -> np.ndarray:
    """The number each uint64 word spells, in place: its bytes hold digit
    values, byte 0 the most significant. Three multiply/shift/mask rounds
    join digits to pairs, pairs to fours and fours to eights (Lemire,
    "Number Parsing at a Gigabyte per Second", arXiv:2101.11408)."""
    for shift, mask in ((8, 0x00FF00FF00FF00FF), (16, 0x0000FFFF0000FFFF), (32, None)):
        words *= np.uint64(10 ** (shift // 8) << shift | 1)
        words >>= np.uint64(shift)
        if mask is not None:  # the last shift leaves only the number
            words &= np.uint64(mask)
    return words


def _parse_embedding_bytes(data: bytes, expected_dim: int | None) -> tuple | None:
    """A file's bytes as (keys, vecs), when every line is one that
    _embedding_text's kernel writes; else None to defer.

    Every line must be "F,I,c1,...,cd" and an LF, with d >= 1 (the first
    line's, and `expected_dim` if given), F and I 1-8 ASCII digits, and each
    component "D.DDDDDD" or "-D.DDDDDD"; _checked_embeddings then applies
    the rules of the values. No text is decoded. The reader takes
    _BLOCK_ROWS lines at a time: one flatnonzero finds every byte up to ","
    (every separator, and any space, CR, "#", "+", NUL or control byte),
    and they must be d + 1 commas and an LF per line. A component's last 8
    bytes, and the 8 that end a key, are read as one unaligned uint64 from
    a stride-1 view of the bytes, checked and joined into an integer k by
    word operations. A component is k / 1e6: k and 1e6 are exact doubles
    and the division is correctly rounded, so its bits are float()'s of the
    text. A sign byte sets the sign bit, so "-0.000000" reads as -0.0.
    """
    size = len(data)
    dim = data.count(b",", 0, data.find(b"\n")) - 1
    if size < 8 or data[-1:] != b"\n" or dim < 1 or expected_dim not in (None, dim):
        return None
    fields = dim + 2
    bound = size // (4 + 9 * dim)  # lines of "F,I," and d "D.DDDDDD,"
    keys, vecs = np.empty((bound, 2), np.int64), np.empty((bound, dim))
    text = np.frombuffer(data, np.uint8)
    words = np.ndarray((size - 7,), "<u8", data, 0, (1,))  # words[i]: the bytes at i
    span = _BLOCK_ROWS * (18 + 10 * dim)  # the bytes of that many of the longest lines
    start = row = 0
    while start < size:
        block = text[start:start + span]
        seps = np.flatnonzero(block <= ord(","))[:_BLOCK_ROWS * fields]
        rows = len(seps) // fields
        if not rows or len(seps) != rows * fields or row + rows > bound:
            return None
        seps = seps.reshape(rows, fields)
        block = block[:seps[-1, -1] + 1]
        # Every separator is a comma but an LF at the end of each line.
        if (np.count_nonzero(block < ord(",")) != rows
                or (block[seps[:, -1]] != ord("\n")).any()):
            return None
        seps += start
        # 1 where a component has a byte before its last 8; every such byte
        # must be a "-", and no other byte of the block may be one.
        sign = seps[:, 2:] - seps[:, 1:-1]
        sign -= 9
        if (sign.min() < 0 or sign.max() > 1
                or sign.sum() != np.count_nonzero(block == ord("-"))):
            return None
        values = words[seps[:, 2:] - 8]
        values ^= _COMPONENT_ZEROS
        if np.bitwise_or.reduce((values + _COMPONENT_LIMIT) | values, axis=None) & _HIGH_BITS:
            return None
        # The integer digit moves from byte 0 to byte 1, the "."'s: the
        # word's 8 digits spell k.
        values += (values & np.uint64(0xFF)) * np.uint64(255)
        out = vecs[row:row + rows]
        np.divide(_eight_digits(values).view(np.int64), 1e6, out=out)
        bits = out.view(np.int64)
        bits |= sign << 63
        # Each key ends at its separator and starts after the one before
        # (a line, after the LF that ends the last, or the block's start).
        lengths = seps[:, :2] - np.column_stack(
            (np.r_[start, seps[:-1, -1] + 1], seps[:, 0] + 1))
        if lengths.min() < 1 or lengths.max() > 8:
            return None
        at = np.maximum(seps[:, :2] - 8, 0)  # the file's first line may start closer
        digits = words[at] << (np.uint64(8) * (8 - seps[:, :2] + at).astype(np.uint64))
        digits ^= _KEY_ZEROS
        digits &= _ALL_BITS << (np.uint64(8) * (8 - lengths).astype(np.uint64))
        if np.bitwise_or.reduce((digits + _KEY_LIMIT) | digits, axis=None) & _HIGH_BITS:
            return None
        keys[row:row + rows] = _eight_digits(digits).view(np.int64)
        row += rows
        start = int(seps[-1, -1]) + 1
    return _checked_embeddings(keys[:row], vecs[:row])


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
    embeddings: attach_embeddings, then nms of each frame when `nms_thresh`
    is given, on columns.

    The join (_embedding_rows) and the suppression (_nms_rows) run at once,
    in that order; the frames are then built one at a time from their kept
    rows, each with its own copy of its embedding rows, never of the whole block.
    """
    frame_rows = _frame_rows(detections.frame)
    rows = _embedding_rows(detections, frame_rows, keys, vecs)
    if nms_thresh is not None:
        keep = _nms_rows(detections, frame_rows, nms_thresh)
        frame_rows = {f: take.start + np.flatnonzero(keep[take]) for f, take in frame_rows.items()}
    boxes, scores, class_id = detections.boxes, detections.scores, detections.class_id
    return (_FrameColumns(frame, boxes[:, take], scores[take], class_id[take], vecs[rows[take]])
            for frame, take in frame_rows.items())


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


# Rows per block of the embedding writer (_embedding_text) and reader
# (_parse_embedding_bytes): each of their temporaries holds about 8 bytes a
# component, so at dimension 128 it stays near 256 KiB, within a core's
# cache.
_BLOCK_ROWS = 256


def _embedding_text(keys, block: np.ndarray, rows=None) -> str:
    """Embedding lines: the k-th (frame, index) pair of `keys`, then row k
    of the (N, d) float64 `block` as ",".join(["%.6f"] * d) formats it.

    One kernel writes, _BLOCK_ROWS rows at a time, the line of every row
    whose text it can prove: the key's text, null-padded to one width, then
    per component k = rint(v * 1e6), the sign byte from a signbit view (so
    -0.0 and -4e-7 give "-0.000000") and the digits of |k| as byte words;
    the pad bytes are dropped from the block's bytes and its lines decoded
    at once. A row with a component that is not finite (a row whose dtype
    is not real comes as nan), rounds to 10 or more, or whose product
    v * 1e6 lies exactly halfway between two integers, goes through the
    template instead, with row k of `rows` (the block's own rows by default).

    "%.6f" rounds the exact v * 10**6 to the nearest integer. The float64
    product is correctly rounded, so it is monotone in the exact one, and
    k - 0.5 and k + 0.5 are doubles (|k| < 1e7): a product strictly within
    0.5 of k means the exact one is too, and rounds to k. Only a product
    on a tie leaves the exact one's side unknown.
    """
    rows = block if rows is None else rows
    dim = block.shape[1]
    row_fmt = ",".join(["%.6f"] * dim)
    key_text = np.array([f"{frame},{index},".encode() for frame, index in keys], dtype=bytes)
    line = np.dtype([("key", key_text.dtype), ("value", _COMPONENT, (dim,))])
    separators = np.full(dim, ord(",") << 56, np.uint64)
    separators[-1] = ord("\n") << 56
    text = []
    for start in range(0, len(block), _BLOCK_ROWS):
        matrix, key = block[start:start + _BLOCK_ROWS], key_text[start:start + _BLOCK_ROWS]
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan fall back
            scaled = matrix * 1e6
            k = np.rint(scaled)
            provable = ((np.abs(scaled - k) < 0.5) & (np.abs(k) < 1e7)).all(axis=1)
        if not provable.all():
            matrix, k, key = matrix[provable], k[provable], key[provable]
        magnitude = np.abs(k).astype(np.int32)
        thousands = magnitude // 1000
        integer = thousands // 1000
        plane = np.empty(len(k), line)
        plane["key"] = key
        value = plane["value"]
        value["head"] = ((integer.astype(np.uint16) + ord("0")) << 8
                         | np.signbit(matrix).view(np.uint8) * np.uint8(ord("-")))
        value["tail"] = (_FRACTION_HIGH[thousands - integer * 1000]
                         | _FRACTION_LOW[magnitude - thousands * 1000] | separators)
        lines = plane.tobytes().replace(b"\0", b"").decode()
        if len(k) == len(provable):
            text.append(lines)
            continue
        kernel_lines = iter(lines.split("\n"))
        text += [(next(kernel_lines) if proved
                  else key_text[row].decode() + row_fmt % tuple(rows[row].tolist())) + "\n"
                 for row, proved in enumerate(provable.tolist(), start=start)]
    return "".join(text)


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
    of its class that overlaps it by more. The detections are suppressed as
    one frame by _nms_rows, whose overlaps come as pairs, not as a matrix.
    NMS drops boxes and never reorders them: the kept detections are
    returned in their input order.
    """
    columns = _DetectionColumns(np.zeros(len(detections), dtype=np.intp),
                                _box_columns([d.bbox for d in detections]),
                                np.array([d.score for d in detections], dtype=np.float64),
                                np.array([d.class_id for d in detections]))
    keep = _nms_rows(columns, {0: slice(0, len(detections))}, iou_thresh)
    return list(compress(detections, keep.tolist()))


def _nms_rows(detections: _DetectionColumns, frame_rows: dict, iou_thresh: float) -> np.ndarray:
    """The keep mask of nms run on each frame of `detections` (`frame_rows`
    is _frame_rows of their frames, which covers every row): the one NMS
    driver, for nms, `reidmot nms` and `reidmot track`. The threshold is
    checked before anything else, so a bad one is rejected even when there
    are no frames at all.

    One overlap sweep over the whole file (core._overlap_pairs) gives the
    same-frame pairs; those of one class with IoU above the threshold are
    the edges. A box with no edge is kept, and only the boxes with one go
    through the greedy loop, in (frame, -score, row) order.
    """
    _check_iou_thresh(iou_thresh)
    boxes, scores, class_id = detections.boxes, detections.scores, detections.class_id
    frame = _frame_codes(frame_rows, dict(zip(frame_rows, range(len(frame_rows)))), len(scores))
    i, j, ious = _overlap_pairs(frame, boxes, frame, boxes)
    edge = (ious > iou_thresh) & (i != j)
    i, j = i[edge], j[edge]
    same = class_id[i] == class_id[j]
    i, j = i[same], j[same]
    # The pairs come in order of i, so i's neighbours are j[near[i]:near[i + 1]].
    near = np.searchsorted(i, np.arange(len(scores) + 1))
    conflict = np.unique(i)
    keep = np.ones(len(scores), dtype=bool)
    keep[conflict] = False
    suppressed = np.zeros(len(scores), dtype=bool)
    for k in conflict[np.lexsort((conflict, -scores[conflict], frame[conflict]))].tolist():
        if not suppressed[k]:  # ties: earlier row first
            keep[k] = True
            suppressed[j[near[k]:near[k + 1]]] = True
    return keep


def load_text(path) -> str:
    """The text of a UTF-8 file, CR and CRLF line ends read as LF. A byte
    that is not UTF-8 raises ParseError naming its line."""
    return _decoded_text(Path(path).read_bytes())


def _decoded_text(data: bytes) -> str:
    """load_text's rule for a file's bytes: UTF-8, CR and CRLF read as LF."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:  # decode() takes all the bytes at once
        head, bad = data[:exc.start], data[exc.start]
        line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ParseError(line_no, f"not UTF-8: byte {bad:#04x} ({exc.reason})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def save_text(path, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return os.fspath(path)
