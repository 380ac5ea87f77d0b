"""Appearance-only multi-object tracking.

Detections carry unit-norm appearance embeddings; tracks are matched to them
purely by cosine similarity against a score-weighted history mean, in two
score-banded association stages. No motion model, no IoU in the association
cost. Ships with an assignment solver, CLEAR-MOT/IDF1 evaluation, MOT-style
file I/O, a seeded synthetic scenario generator, and a CLI (`reidmot`).
"""

from .assign import FORBIDDEN, AssignmentResult, gate_costs, solve_assignment
from .core import (
    BBox,
    Detection,
    FrameInput,
    GtEntry,
    TrackerConfig,
    TrackOutput,
    cosine_similarity,
    iou,
    normalize_embedding,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    DuplicateEntryError,
    EmptyGtError,
    EmptyHistoryError,
    MissingEmbeddingError,
    NonMonotonicFrameError,
    OrphanEmbeddingError,
    ParseError,
    SeparationInfeasibleError,
    TrackingError,
    ZeroNormError,
    ZeroWeightError,
)
from .io import SequenceBundle, attach_embeddings, nms, parse_detections, parse_embeddings, parse_gt, write_results
from .metrics import EvalReport, clear_mot, evaluate, idf1
from .synth import ScenarioSpec, export, generate
from .tracker import (
    Track,
    Tracker,
    TrackState,
    build_cost_matrix,
    run_sequence,
    split_by_score,
    weighted_feature,
)

__version__ = "0.1.0"

__all__ = [
    "AssignmentResult",
    "BBox",
    "ConfigError",
    "Detection",
    "DimensionMismatchError",
    "DuplicateEntryError",
    "EmptyGtError",
    "EmptyHistoryError",
    "EvalReport",
    "FORBIDDEN",
    "FrameInput",
    "GtEntry",
    "MissingEmbeddingError",
    "NonMonotonicFrameError",
    "OrphanEmbeddingError",
    "ParseError",
    "ScenarioSpec",
    "SeparationInfeasibleError",
    "SequenceBundle",
    "Track",
    "TrackOutput",
    "TrackState",
    "Tracker",
    "TrackerConfig",
    "TrackingError",
    "ZeroNormError",
    "ZeroWeightError",
    "attach_embeddings",
    "build_cost_matrix",
    "clear_mot",
    "cosine_similarity",
    "evaluate",
    "export",
    "gate_costs",
    "generate",
    "idf1",
    "iou",
    "nms",
    "normalize_embedding",
    "parse_detections",
    "parse_embeddings",
    "parse_gt",
    "run_sequence",
    "solve_assignment",
    "split_by_score",
    "weighted_feature",
    "write_results",
]
