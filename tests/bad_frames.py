"""Frames that break the embedding shape rule, shared by the tracker and writer tests.

Tracker.step and write_embeddings check a frame with one rule
(core.embedding_dim), so each case here must raise the same class and the
same message from both. A case's `dim` is the embedding length already
established when the frame arrives: TrackerConfig.embedding_dim for the
tracker, a frame 1 holding one `dim`-long embedding for the writer.
"""

from typing import NamedTuple

import numpy as np

from reidmot import BBox, Detection, DimensionMismatchError, FrameInput, MissingEmbeddingError


def embedded_frame(*embeddings, frame=1, score=0.9):
    """A frame with one detection per embedding, in order (score 0.9: high band)."""
    return FrameInput(frame=frame, detections=tuple(
        Detection(frame=frame, bbox=BBox(0, 0, 10, 10), score=score, embedding=e)
        for e in embeddings))


class BadFrame(NamedTuple):
    dim: int | None
    frame: FrameInput
    error: type
    message: str | None  # the pattern a DimensionMismatchError's message matches


def writer_input(dim, frame):
    """The frames that bring write_embeddings to `frame` with `dim` established."""
    return ([embedded_frame(np.eye(dim)[0])] if dim else []) + [frame]


def _mismatch(message, *embeddings, dim=None, frame=1, score=0.9):
    return BadFrame(dim, embedded_frame(*embeddings, frame=frame, score=score),
                    DimensionMismatchError, message)


BAD_FRAMES = [
    BadFrame(None, embedded_frame(None), MissingEmbeddingError, None),
    _mismatch(r"^frame 2, index 0: embedding has length 3, expected 2$",
              np.array([1.0, 0.0, 0.0]), dim=2, frame=2),
    _mismatch(r"^frame 1, index 1: embedding must be 1-D and non-empty, got shape \(1, 2\)$",
              np.array([1.0, 0.0]), np.array([[1.0, 0.0]])),
    _mismatch(r"^frame 1, index 0: .* got shape \(2, 1\)$", np.array([[1.0], [0.0]])),
    _mismatch(r"^frame 1, index 0: .* got shape \(\)$", np.array(1.0)),
    # a zero-length embedding in the high band is a shape error, not a zero norm
    _mismatch(r"^frame 1, index 0: .* got shape \(0,\)$", np.array([])),
    # ... and in the low band, it fixes no length of 0
    _mismatch(r"^frame 1, index 0: embedding must be 1-D and non-empty, got shape \(0,\)$",
              np.zeros(0), score=0.5),
    _mismatch(r"^frame 2, index 0: embedding has length 2, expected 3$",
              np.array([1.0, 0.0]), dim=3, frame=2),
    # a frame whose own embeddings disagree fixes no length
    _mismatch(r"^frame 1, index 1: embedding has length 2, expected 3$",
              np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0])),
    _mismatch(r"^frame 1, index 0: embedding must be 1-D and non-empty, got shape \(3, 1\)$",
              np.array([[1.0], [0.0], [0.0]])),
]
