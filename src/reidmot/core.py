"""Domain value types and the numeric primitives everything else builds on.

Embeddings are plain 1-D float64 numpy arrays. They are L2-normalized once at
ingestion; after that, similarity between two of them is just a dot product.

Each record's field rules live only in its type's __post_init__; the file
parsers rely on them instead of repeating them.
"""

from dataclasses import dataclass, field, replace
from math import isfinite

import numpy as np

from .errors import ConfigError, DimensionMismatchError, ZeroNormError

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


def iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two boxes. Always in [0, 1]."""
    ix = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    if ix <= 0:
        return 0.0
    iy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if iy <= 0:
        return 0.0
    inter = ix * iy
    # (x + w) - x can exceed w in floats, pushing identical boxes past 1.0
    return min(1.0, inter / (a.area + b.area - inter))


def normalize_embedding(raw, dim: int | None = None) -> np.ndarray:
    """Return `raw` scaled to unit L2 norm as a float64 array.

    Raises DimensionMismatchError if `raw` is not 1-D of length `dim` (when
    given), ZeroNormError if its norm is below ZERO_NORM_EPS.
    """
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"embedding must be 1-D, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(
            f"embedding has length {arr.shape[0]}, expected {dim}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError("embedding entries must be finite")
    norm = float(np.linalg.norm(arr))
    if norm < ZERO_NORM_EPS:
        raise ZeroNormError(f"cannot normalize vector with norm {norm!r}")
    return arr / norm


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product of two unit vectors, clamped to [-1, 1] against float drift."""
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(min(1.0, max(-1.0, float(np.dot(a, b)))))


@dataclass(frozen=True)
class Detection:
    """One detector output: box, confidence score, class, optional embedding.

    The embedding, when present, is unit-norm (see normalize_embedding) and is
    excluded from equality so parsed detections compare by their file fields.
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

    def with_embedding(self, emb: np.ndarray) -> "Detection":
        return replace(self, embedding=emb)


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
        if not (0.0 <= self.low_thresh <= self.high_thresh <= 1.0):
            raise ConfigError(
                "need 0 <= low_thresh <= high_thresh <= 1, got "
                f"low={self.low_thresh} high={self.high_thresh}"
            )
        if self.tau < 1:
            raise ConfigError(f"tau must be >= 1, got {self.tau}")
        if self.max_lost_age < 0:
            raise ConfigError(f"max_lost_age must be >= 0, got {self.max_lost_age}")
        for name in ("sim_gate_high", "sim_gate_low"):
            v = getattr(self, name)
            if not (-1.0 <= v <= 1.0):
                raise ConfigError(f"{name} must be in [-1, 1], got {v}")
        if self.min_init_score is None:
            object.__setattr__(self, "min_init_score", self.high_thresh)
        if not (0.0 <= self.min_init_score <= 1.0):
            raise ConfigError(
                f"min_init_score must be in [0, 1], got {self.min_init_score}"
            )
        if self.embedding_dim is not None and self.embedding_dim < 1:
            raise ConfigError(f"embedding_dim must be >= 1, got {self.embedding_dim}")
