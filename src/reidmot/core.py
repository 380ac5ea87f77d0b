"""Domain value types and the numeric primitives everything else builds on.

Embeddings are plain 1-D float64 numpy arrays. They are L2-normalized once at
ingestion; after that, similarity between two of them is just a dot product.

Each record's field rules live only in its type's __post_init__; the file
parsers rely on them instead of repeating them.
"""

from dataclasses import dataclass, field
from math import isfinite
from numbers import Real
from operator import index
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DimensionMismatchError, MissingEmbeddingError, ZeroNormError

# Norms below this are treated as zero; normalizing such a vector is an error.
ZERO_NORM_EPS = 1e-12


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box: top-left corner plus width/height, in pixels."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        if not (isfinite(self.x) and isfinite(self.y)
                and isfinite(self.w) and isfinite(self.h)):
            raise ValueError(
                f"box values must be finite, got x={self.x} y={self.y} "
                f"w={self.w} h={self.h}"
            )
        if not (self.w > 0 and self.h > 0):
            raise ValueError(f"box sides must be positive, got w={self.w} h={self.h}")

    @property
    def area(self) -> float:
        return self.w * self.h

    def shifted(self, dx: float, dy: float) -> "BBox":
        return BBox(self.x + dx, self.y + dy, self.w, self.h)


def _box_columns(boxes) -> np.ndarray:
    """The x, y, w, h of `boxes` as four float64 rows."""
    return np.array([(b.x, b.y, b.w, b.h) for b in boxes], dtype=np.float64).reshape(-1, 4).T


def _iou_of(ax, ay, aw, ah, bx, by, bw, bh) -> np.ndarray:
    """The IoU formula, element by element over broadcast x, y, w, h arrays:
    the one home of its bits, for iou_columns and _overlap_pairs."""
    # Overflowing boxes (sides near 1e308) stay quiet: their entries clamp to
    # 1.0 or read 0.0, as the one-pair float formula gives.
    with np.errstate(over="ignore", invalid="ignore"):
        ix = np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx)
        iy = np.minimum(ay + ah, by + bh) - np.maximum(ay, by)
        inter = np.where((ix > 0) & (iy > 0), ix * iy, 0.0)
        union = aw * ah + bw * bh - inter
        # A union that rounds to 0 under a positive intersection (a far-off
        # box whose x + w rounds up) reads 0.0, like no overlap.
        out = np.zeros(inter.shape)
        np.divide(inter, union, out=out, where=(inter > 0) & (union != 0))
        # (x + w) - x can exceed w in floats, pushing identical boxes past
        # 1.0; fmin, unlike minimum, also clamps an overflow's nan to 1.0.
        return np.fmin(1.0, out, out=out)


def iou_columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection-over-union of every box in `a` with every box in `b`.

    `a` and `b` are (4, n) float64 arrays of x, y, w, h rows, such as column
    slices of a BoxTable. Returns a (n_a, n_b) float64 array, each entry in
    [0, 1]. Boxes that only share an edge, or do not touch, have IoU exactly
    0.0.
    """
    return _iou_of(*a[:, :, None], *b)


# Candidate pairs _overlap_pairs takes through the formula at a time, so
# its temporaries stay a few hundred kB whatever the file's size.
_PAIR_BLOCK = 8192


def _overlap_windows(seg_a: np.ndarray, a: np.ndarray, seg_b: np.ndarray, b: np.ndarray):
    """(order, lo, hi): the rows of `b` sorted by (segment, x), and for each
    box k of `a` the window order[lo[k]:hi[k]] holding every box of b in
    k's segment whose x extent can meet k's (none when hi[k] <= lo[k]).

    Segments are int64 codes. A box j of b meets k only if x_j < x_k + w_k
    and x_j + w_j > x_k; the window takes the first bound as it stands and
    the second as x_j + (the widest w of j's segment) > x_k, which holds
    whenever it does and, like x_j, grows along the sorted rows. Both are
    searched on exact int64 keys, segment * R + a float's rank among the R
    distinct bound values, so no float is ever offset by a segment.
    """
    bx, bw = b[0], b[2]
    order = np.lexsort((bx, seg_b))
    seg, x = seg_b[order], bx[order]
    starts = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]]) if len(seg) else seg
    widest = np.repeat(np.maximum.reduceat(bw[order], starts), np.diff(np.r_[starts, len(seg)]))
    with np.errstate(over="ignore"):  # an overflowed bound is +inf, still in order
        bounds = (x, x + widest, a[0] + a[2], a[0])
    flat, rank = np.unique(np.concatenate(bounds), return_inverse=True)
    r_x, r_reach, r_right, r_left = np.split(rank, np.cumsum([len(x), len(x), len(seg_a)]))
    span = np.int64(len(flat))
    hi = np.searchsorted(seg * span + r_x, seg_a * span + r_right, "left")
    lo = np.searchsorted(seg * span + r_reach, seg_a * span + r_left, "right")
    return order, lo, hi


def _overlap_pairs(seg_a: np.ndarray, a: np.ndarray, seg_b: np.ndarray, b: np.ndarray):
    """(i, j, iou) of every box i of `a` and j of `b` in the same segment
    whose IoU is above 0, in one sweep over all segments.

    `a` and `b` are (4, n) x, y, w, h rows of finite boxes with positive
    sides, `seg_a` and `seg_b` their int64 segment codes (frames, say). The
    IoUs have iou_columns' bits, from the same formula; the pairs come in
    order of i, and they are exactly the non-zero cells among same-segment
    pairs. Only the candidates of _overlap_windows are tested, _PAIR_BLOCK
    at a time, so no (n_a, n_b) matrix is made.
    """
    order, lo, hi = _overlap_windows(seg_a, a, seg_b, b)
    width = np.maximum(hi - lo, 0)
    ends = np.cumsum(width)
    first = ends - width  # candidate number of each window's first box
    total = int(ends[-1]) if len(ends) else 0
    found = []
    for start in range(0, total, _PAIR_BLOCK):
        cand = np.arange(start, min(start + _PAIR_BLOCK, total))
        i = np.searchsorted(ends, cand, "right")
        j = order[lo[i] + (cand - first[i])]
        ax, ay, aw, ah = a[:, i]
        bx, by, bw, bh = b[:, j]
        with np.errstate(over="ignore"):
            # Candidates meet on x from the left by their window; the rest
            # of the overlap test, on the edges the formula computes.
            meet = (bx + bw > ax) & (ay + ah > by) & (by + bh > ay)
        i, j = i[meet], j[meet]
        ious = _iou_of(*a[:, i], *b[:, j])
        hit = ious > 0
        found.append((i[hit], j[hit], ious[hit]))
    if not found:
        return np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0)
    return tuple(map(np.concatenate, zip(*found)))


def iou_matrix(a, b) -> np.ndarray:
    """iou_columns of two sequences of boxes: a (len(a), len(b)) float64 array."""
    return iou_columns(_box_columns(a), _box_columns(b))


def iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two boxes. Always in [0, 1]."""
    return float(iou_matrix([a], [b])[0, 0])


def embedding_length(shape: tuple, dim: int | None = None, where: str = "") -> int:
    """The length of an embedding of `shape`: the one home of the shape rule.

    DimensionMismatchError, its message led by `where`, unless 1-D,
    non-empty and `dim` long (when given).
    """
    if len(shape) != 1 or shape[0] == 0:
        raise DimensionMismatchError(
            f"{where}embedding must be 1-D and non-empty, got shape {shape}")
    if dim is not None and shape[0] != dim:
        raise DimensionMismatchError(f"{where}embedding has length {shape[0]}, expected {dim}")
    return shape[0]


def embedding_dim(frame: int, detections, dim: int | None) -> int | None:
    """`dim`, or else the length of the first embedding in `detections` of `frame`.

    Each detection needs an embedding (else MissingEmbeddingError) that
    passes embedding_length, whose errors then start `frame F, index I: `.
    An embedding already of shape (dim,) skips the rule.
    """
    shape = (dim,)
    for index, det in enumerate(detections):
        emb = det.embedding
        if emb is None:
            raise MissingEmbeddingError(frame, index)
        if emb.shape != shape:
            dim = embedding_length(emb.shape, dim, f"frame {frame}, index {index}: ")
            shape = (dim,)
    return dim


def normalize_embedding(raw, dim: int | None = None) -> np.ndarray:
    """Return `raw` scaled to unit L2 norm as a float64 array.

    Raises DimensionMismatchError unless `raw` passes embedding_length,
    ValueError if an entry is not finite or the norm overflows (as entries
    near 1e200 make it), ZeroNormError if the norm is below ZERO_NORM_EPS.
    """
    arr = np.asarray(raw, dtype=np.float64)
    embedding_length(arr.shape, dim)
    if not np.all(np.isfinite(arr)):
        raise ValueError("embedding entries must be finite")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(arr))
    if not isfinite(norm):
        raise ValueError(f"embedding norm must be finite, got {norm!r}")
    if norm < ZERO_NORM_EPS:
        raise ZeroNormError(f"cannot normalize vector with norm {norm!r}")
    return arr / norm


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """The L2 norm of each row of a 2-D float64 array by one row-by-row
    matmul, which gives a row the bits np.linalg.norm gives it alone,
    whatever else is in the array; norm(axis=1) or einsum would not."""
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def unit_rows(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each row of a 2-D float64 array divided by its L2 norm (into `out`, if given).

    The norms are _row_norms', so a row comes out as normalize_embedding
    scales it. A zero, tiny or non-finite norm, one that overflowed to inf
    included, goes to normalize_embedding, which raises its error for the
    first such row before anything is written.
    """
    with np.errstate(over="ignore"):  # an overflowed norm raises below
        norms = _row_norms(rows)
    for k in np.flatnonzero(~(np.isfinite(norms) & (norms >= ZERO_NORM_EPS))):
        normalize_embedding(rows[k])
    return np.divide(rows, norms[:, None], out=out)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product of two unit vectors, clamped to [-1, 1] against float drift."""
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(min(1.0, max(-1.0, float(np.dot(a, b)))))


@dataclass(frozen=True)
class Detection:
    """One detector output: box, confidence score, class, optional embedding.

    The embedding, when present, should be unit-norm (see normalize_embedding):
    nothing here checks it, and Tracker.step uses it as given. It is excluded
    from equality so parsed detections compare by their file fields.
    """

    frame: int
    bbox: BBox
    score: float
    class_id: int = 0
    embedding: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.frame < 1:
            raise ValueError(f"frame index must be >= 1, got {self.frame}")
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score must be in [0, 1], got {self.score}")
        if self.class_id < 0:
            raise ValueError(f"class_id must be non-negative, got {self.class_id}")


@dataclass(frozen=True)
class FrameInput:
    """All detections of one frame, in their original (file) order."""

    frame: int
    detections: tuple[Detection, ...]

    def __post_init__(self):
        object.__setattr__(self, "detections", tuple(self.detections))
        for det in self.detections:
            if det.frame != self.frame:
                raise ValueError(
                    f"detection frame {det.frame} != frame input {self.frame}"
                )


def _frame_rows(frame: np.ndarray) -> dict:
    """{frame: slice of its rows} for a column whose equal frames are adjacent."""
    if not len(frame):
        return {}
    cuts = (np.flatnonzero(frame[1:] != frame[:-1]) + 1).tolist()
    starts, ends = [0, *cuts], [*cuts, len(frame)]
    return dict(zip(frame[starts].tolist(), map(slice, starts, ends)))


def _frame_codes(frame_rows: dict, code: dict, n: int) -> np.ndarray:
    """The int64 `code` of each of `n` rows' frame, from _frame_rows' slices."""
    seg = np.empty(n, dtype=np.intp)
    for frame, take in frame_rows.items():
        seg[take] = code[frame]
    return seg


class _FrameColumns(NamedTuple):
    """One frame's detections as columns, in file order: what Tracker.step works on.

    `boxes` is (4, n) float64 (x, y, w, h rows), `scores` (n,) float64,
    `class_ids` (n,) integers (an object array where they do not fit
    int64) and `embs` (n, d), one embedding per detection. `reidmot track`
    builds them from its file columns; `of` stacks a FrameInput.
    """

    frame: int
    boxes: np.ndarray
    scores: np.ndarray
    class_ids: np.ndarray
    embs: np.ndarray

    @classmethod
    def of(cls, frame_input: FrameInput) -> "_FrameColumns":
        """The columns of a FrameInput, class ids kept as given."""
        dets = frame_input.detections
        return cls(frame_input.frame, _box_columns([d.bbox for d in dets]),
                   np.array([d.score for d in dets], dtype=np.float64),
                   np.array([d.class_id for d in dets], dtype=object),
                   np.array([d.embedding for d in dets]) if dets else np.empty((0, 0)))


def group_by_frame(records) -> dict[int, list]:
    """Map each frame to its records, frames ascending, input order kept within."""
    groups: dict[int, list] = {}
    for record in records:
        groups.setdefault(record.frame, []).append(record)
    return dict(sorted(groups.items()))


@dataclass(frozen=True)
class TrackOutput:
    """One emitted track observation: where track_id was seen in a frame."""

    frame: int
    track_id: int
    bbox: BBox
    score: float
    class_id: int = 0


@dataclass(frozen=True)
class GtEntry:
    """One ground-truth box: which identity is where in a frame."""

    frame: int
    identity: int
    bbox: BBox
    class_id: int = 0

    def __post_init__(self):
        if self.frame < 1:
            raise ValueError(f"frame index must be >= 1, got {self.frame}")
        if self.identity < 1:
            raise ValueError(f"identity must be >= 1, got {self.identity}")
        if self.class_id < 0:
            raise ValueError(f"class_id must be non-negative, got {self.class_id}")


def _exact_column(values) -> np.ndarray:
    """`values` as an integer array when numpy holds them exactly, else as objects.

    Frames and ids past int64 (or ones that are not integers at all) keep
    their Python values, so they compare and hash as they did in the records.
    """
    column = np.array(values)
    return column if column.dtype.kind in "iu" else np.array(values, dtype=object)


@dataclass(frozen=True)
class BoxTable:
    """Boxes keyed by (frame, id), one array per field, rows grouped by frame.

    `frame`, `ids` and `class_id` are integer arrays, or object arrays where
    the values do not fit one; `boxes` is (4, N) float64: x, y, w, h rows.
    len() is the number of rows.
    """

    frame: np.ndarray
    ids: np.ndarray
    boxes: np.ndarray
    class_id: np.ndarray

    def __len__(self) -> int:
        return len(self.frame)

    @classmethod
    def from_records(cls, records, ids) -> "BoxTable":
        """The table of `records` (GtEntry or TrackOutput) in their order, with `ids`."""
        return cls(_exact_column([r.frame for r in records]), _exact_column(ids),
                   _box_columns([r.bbox for r in records]),
                   _exact_column([r.class_id for r in records]))


def check_integer(name: str, value) -> None:
    """Raise ConfigError unless operator.index takes value: numpy ints and
    bools pass, floats, strings and None do not."""
    try:
        index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def check_real(name: str, value) -> None:
    """Raise ConfigError unless value is a real number (numbers.Real): numpy
    floats and ints and bools pass, strings and None do not. NaN passes;
    the range checks that follow refuse it."""
    if not isinstance(value, Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")


# Largest history window. The tracker's store keeps tau + 1 scores and
# tau + 1 embedding rows per live track, so its memory grows with tau.
MAX_TAU = 10_000


@dataclass(frozen=True)
class TrackerConfig:
    """Tracker tuning knobs.

    Score bands: a detection is high-band when score >= high_thresh, low-band
    when low_thresh <= score < high_thresh, and discarded below low_thresh.
    Similarity gates are cosine floors: a pairing is admissible in a stage
    only when cos(track feature, detection embedding) >= the stage's gate.
    min_init_score defaults to high_thresh when left unset.
    """

    high_thresh: float = 0.84
    low_thresh: float = 0.3
    sim_gate_high: float = 0.5
    sim_gate_low: float = 0.5
    tau: int = 30
    max_lost_age: int = 30
    min_init_score: float | None = None
    per_class: bool = True
    embedding_dim: int | None = None
    bytetrack_stage2: bool = False

    def __post_init__(self):
        for name in ("high_thresh", "low_thresh", "sim_gate_high", "sim_gate_low"):
            check_real(name, getattr(self, name))
        for name in ("per_class", "bytetrack_stage2"):
            flag = getattr(self, name)
            if not isinstance(flag, (bool, np.bool_)):
                raise ConfigError(f"{name} must be True or False, got {flag!r}")
        if not (0.0 <= self.low_thresh <= self.high_thresh <= 1.0):
            raise ConfigError(
                "need 0 <= low_thresh <= high_thresh <= 1, got "
                f"low={self.low_thresh} high={self.high_thresh}"
            )
        for name in ("tau", "max_lost_age"):
            check_integer(name, getattr(self, name))
        if not 1 <= self.tau <= MAX_TAU:
            raise ConfigError(f"tau must be in [1, {MAX_TAU}], got {self.tau}")
        if self.max_lost_age < 0:
            raise ConfigError(f"max_lost_age must be >= 0, got {self.max_lost_age}")
        for name in ("sim_gate_high", "sim_gate_low"):
            v = getattr(self, name)
            if not (-1.0 <= v <= 1.0):
                raise ConfigError(f"{name} must be in [-1, 1], got {v}")
        if self.min_init_score is None:
            object.__setattr__(self, "min_init_score", self.high_thresh)
        check_real("min_init_score", self.min_init_score)
        if not (0.0 <= self.min_init_score <= 1.0):
            raise ConfigError(
                f"min_init_score must be in [0, 1], got {self.min_init_score}"
            )
        if self.embedding_dim is not None:
            check_integer("embedding_dim", self.embedding_dim)
            if self.embedding_dim < 1:
                raise ConfigError(f"embedding_dim must be >= 1, got {self.embedding_dim}")
