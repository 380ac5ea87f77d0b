"""Appearance-only multi-object tracker.

No motion model anywhere: no velocity, no IoU in the association cost. A track
is represented purely by a score-weighted running mean of its recent appearance
embeddings, and detections are associated to tracks in two score-banded stages:
confident detections first against every live track, then the leftovers pooled
with low-confidence detections against whatever tracks remain. Low-confidence
detections can keep an existing track alive but never start a new one.
"""

import enum
from collections import deque
from dataclasses import dataclass

import numpy as np

from .assign import FORBIDDEN, gate_costs, solve_assignment
from .core import (
    ZERO_NORM_EPS,
    Detection,
    FrameInput,
    TrackerConfig,
    TrackOutput,
    normalize_embedding,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    EmptyHistoryError,
    MissingEmbeddingError,
    NonMonotonicFrameError,
    ZeroWeightError,
)

ZERO_WEIGHT_EPS = 1e-12
# Most histories one temporary feature block holds, so that a frame matching
# hundreds of tracks never gathers all their embeddings at once.
FEATURE_BATCH = 64


class TrackState(enum.Enum):
    ACTIVE = "active"
    LOST = "lost"
    REMOVED = "removed"


def weighted_feature(history, tau: int) -> np.ndarray:
    """Score-weighted mean of the most recent min(len(history), tau) embeddings.

    history is a sequence of (embedding, score) pairs, oldest first. Each
    embedding is weighted by its detection score (a confident sighting should
    pull the representation harder than a dubious one), the weighted mean is
    renormalized to unit length. Raises ConfigError when tau < 1.
    """
    if tau < 1:
        raise ConfigError(f"tau must be >= 1, got {tau}")
    return _weighted_means([list(history)[-tau:]])[0]


def _weighted_means(histories) -> list[np.ndarray]:
    """weighted_feature of each whole history, computed a batch at a time.

    Histories of one length n go through numpy together, at most
    FEATURE_BATCH of them at once: an (m, n) score block and an (m, n, d)
    embedding block gathered from the histories themselves. The batched
    matmuls give each row the same bits as the one-history forms
    `embs.T @ scores / total` and `np.linalg.norm`; padding histories to a
    common length, `einsum` or `norm(axis=1)` would not. A history whose
    scores sum below ZERO_WEIGHT_EPS raises ZeroWeightError, a mean that
    normalize_embedding would reject raises its error; when several
    histories fail, the first failing one of the first failing batch raises.
    """
    by_length: dict[int, list[int]] = {}
    for i, history in enumerate(histories):
        if len(history) == 0:
            raise EmptyHistoryError("cannot compute a feature from an empty history")
        by_length.setdefault(len(history), []).append(i)
    features: list = [None] * len(histories)
    for n, rows in by_length.items():
        for start in range(0, len(rows), FEATURE_BATCH):
            batch = rows[start:start + FEATURE_BATCH]
            m = len(batch)
            # np.array, unlike np.concatenate, rejects embeddings of unequal length.
            embs = np.array([e for i in batch for e, _ in histories[i]]).reshape(m, n, -1)
            scores = np.array([s for i in batch for _, s in histories[i]],
                              dtype=np.float64).reshape(m, n)
            totals = scores.sum(axis=1)
            light = np.flatnonzero(totals < ZERO_WEIGHT_EPS)
            if light.size:
                raise ZeroWeightError(f"history scores sum to {float(totals[light[0]])!r}")
            means = np.matmul(scores[:, None, :], embs)[:, 0, :] / totals[:, None]
            norms = np.sqrt(np.matmul(means[:, None, :], means[:, :, None])[:, 0, 0])
            # A zero, tiny or non-finite norm goes to normalize_embedding, which
            # raises for it what it always raised; the one it lets through, a
            # norm that overflowed to inf, gives the same zeros as the division.
            for k in np.flatnonzero(~(np.isfinite(norms) & (norms >= ZERO_NORM_EPS))):
                normalize_embedding(means[k])
            unit = means / norms[:, None]
            for k, i in enumerate(batch):
                features[i] = unit[k]
    return features


def _refresh_features(tracks):
    """Recompute the feature of every track in `tracks` in one batched pass."""
    for track, feature in zip(tracks, _weighted_means([t.history for t in tracks])):
        track.feature = feature


def split_by_score(detections, config: TrackerConfig):
    """Partition detections into (high, low, discarded) score bands.

    Boundaries are inclusive on the left: score >= high_thresh is high band,
    low_thresh <= score < high_thresh is low band, the rest is discarded.
    Original order is preserved within each band.
    """
    high, low, discarded = [], [], []
    for det in detections:
        if det.score >= config.high_thresh:
            high.append(det)
        elif det.score >= config.low_thresh:
            low.append(det)
        else:
            discarded.append(det)
    return high, low, discarded


class Track:
    """State of one tracked object.

    Keeps a bounded ring of the last `tau` (embedding, score) observations;
    `feature` is the score-weighted mean of that ring (see weighted_feature).
    Tracker.step is its whole lifecycle: it founds a track on a detection
    and records each later match with `_record`, both leaving `feature` as
    it was (None for a new track), then refreshes the features of every
    track it matched or founded that frame in one batched pass
    (_refresh_features). While a track is lost the ring is not touched, so
    the feature stays frozen at its last matched appearance. Only the tracks
    in `Tracker.tracks` are usable: a `Track(...)` built elsewhere keeps
    `feature` None and cannot go into build_cost_matrix.
    """

    def __init__(self, track_id: int, detection: Detection, frame: int, tau: int):
        self.track_id = track_id
        self.class_id = detection.class_id
        self.history: deque = deque(maxlen=tau)
        self.feature: np.ndarray | None = None
        self._record(detection, frame)

    def _record(self, detection: Detection, frame: int):
        """The bookkeeping of a match; the feature is left as it was."""
        self.history.append((detection.embedding, detection.score))
        self.state = TrackState.ACTIVE
        self.frames_since_match = 0
        self.last_bbox = detection.bbox
        self.last_frame = frame

    def _miss(self, max_lost_age: int):
        """An unmatched frame of a live track: lost, or removed once too old."""
        self.frames_since_match += 1
        self.state = (TrackState.REMOVED if self.frames_since_match > max_lost_age
                      else TrackState.LOST)

    def __repr__(self):
        return (
            f"Track(id={self.track_id}, state={self.state.value}, "
            f"cls={self.class_id}, hist={len(self.history)}, "
            f"since_match={self.frames_since_match})"
        )


def build_cost_matrix(tracks, detections, per_class: bool = False) -> np.ndarray:
    """Appearance cost matrix: entry (i, j) = 1 - cos(track_i, det_j) in [0, 2].

    With per_class, pairs whose class ids differ are FORBIDDEN outright.
    `tracks` must come from `Tracker.tracks`: their features are set by the
    refresh at the end of each `Tracker.step`.
    """
    costs = np.empty((len(tracks), len(detections)), dtype=np.float64)
    if costs.size == 0:
        return costs
    for j, det in enumerate(detections):
        if det.embedding is None:
            raise MissingEmbeddingError(det.frame, j)
    feats = np.stack([t.feature for t in tracks])
    embs = np.stack([d.embedding for d in detections])
    sims = np.clip(feats @ embs.T, -1.0, 1.0)
    costs = 1.0 - sims
    if per_class:
        track_cls = np.array([t.class_id for t in tracks]).reshape(-1, 1)
        det_cls = np.array([d.class_id for d in detections]).reshape(1, -1)
        costs = np.where(track_cls != det_cls, FORBIDDEN, costs)
    return costs


@dataclass
class StepStats:
    """Association tallies of one frame, kept as Tracker.last_stats."""

    frame: int
    matched_stage1: int = 0
    matched_stage2: int = 0
    spawned: int = 0
    removed: int = 0


class Tracker:
    """Stateful frame-by-frame tracker; see `step` for the per-frame protocol."""

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.tracks: list[Track] = []
        self._next_id = 1
        self._last_frame: int | None = None
        # The embedding length every detection must have: config.embedding_dim,
        # else the length of the first embedding a step accepted.
        self._dim: int | None = self.config.embedding_dim
        self.last_stats: StepStats | None = None

    @property
    def live_tracks(self) -> list[Track]:
        return [t for t in self.tracks if t.state is not TrackState.REMOVED]

    def step(self, frame_input: FrameInput) -> list[TrackOutput]:
        """Advance one frame; return the outputs of every matched or founded track.

        Per frame: split detections into score bands; stage 1 assigns
        high-band detections to all live (active or lost) tracks under the
        high similarity gate; stage 2 assigns the pool of leftover high-band
        plus low-band detections to the remaining tracks under the low gate
        (with bytetrack_stage2 the pool is the low band only). Matched tracks
        absorb their detection; unmatched tracks age and eventually drop off;
        unmatched high-band detections above min_init_score found new tracks.
        Low-band detections never found tracks. This is the one place a
        track is founded, recorded and refreshed: matching and founding only
        record the detection, then the features of all matched and founded
        tracks are refreshed in one batched pass (see _weighted_means), and
        the outputs are built in track-id order.

        The embeddings are used as given, so they should be unit-norm (see
        normalize_embedding). The whole frame is checked before any state
        changes: a frame that raises NonMonotonicFrameError,
        MissingEmbeddingError or DimensionMismatchError leaves the tracker
        as it was.
        """
        cfg = self.config
        frame = frame_input.frame
        if self._last_frame is not None and frame <= self._last_frame:
            raise NonMonotonicFrameError(
                f"frame {frame} after frame {self._last_frame}"
            )
        dim = self._dim
        for j, det in enumerate(frame_input.detections):
            if det.embedding is None:
                raise MissingEmbeddingError(frame, j)
            shape = det.embedding.shape
            if len(shape) != 1:
                raise DimensionMismatchError(
                    f"frame {frame}: embedding must be 1-D, got shape {shape}"
                )
            if dim is None:
                dim = shape[0]
            if shape[0] != dim:
                raise DimensionMismatchError(
                    f"frame {frame}: embedding length {shape[0]}, expected {dim}"
                )
        self._last_frame = frame
        self._dim = dim

        high, low, _ = split_by_score(frame_input.detections, cfg)
        live = self.live_tracks

        # Stage 1: confident detections against every live track. Lost tracks
        # compete on equal footing, their feature frozen from the last match.
        res1 = solve_assignment(
            gate_costs(build_cost_matrix(live, high, cfg.per_class),
                       1.0 - cfg.sim_gate_high)
        )
        matched = [(live[i], high[j]) for i, j in res1.matches]
        remaining = [live[i] for i in res1.unmatched_rows]
        unmatched_high = [high[j] for j in res1.unmatched_cols]

        # Stage 2: the leftovers. Pooling the unmatched confident detections
        # with the low band gives them a second chance under the looser gate.
        pool = list(low) if cfg.bytetrack_stage2 else unmatched_high + list(low)
        res2 = solve_assignment(
            gate_costs(build_cost_matrix(remaining, pool, cfg.per_class),
                       1.0 - cfg.sim_gate_low)
        )
        matched += [(remaining[i], pool[j]) for i, j in res2.matches]
        stats = StepStats(frame=frame, matched_stage1=len(res1.matches),
                          matched_stage2=len(res2.matches))

        for track, det in matched:
            track._record(det, frame)
        for i in res2.unmatched_rows:
            remaining[i]._miss(cfg.max_lost_age)
            stats.removed += remaining[i].state is TrackState.REMOVED

        # Founding: only confident leftovers above the init floor. The low
        # band can sustain tracks but never create them. Without
        # bytetrack_stage2 the confident leftovers head the pool.
        if cfg.bytetrack_stage2:
            leftovers = unmatched_high
        else:
            leftovers = [pool[j] for j in res2.unmatched_cols if j < len(unmatched_high)]
        new_tracks = []
        for det in leftovers:
            if det.score >= cfg.min_init_score:
                new_tracks.append(Track(self._next_id, det, frame, cfg.tau))
                self._next_id += 1

        emitting = [t for t, _ in matched] + new_tracks
        _refresh_features(emitting)
        self.tracks.extend(new_tracks)
        stats.spawned = len(new_tracks)
        # Stage-2 matches can hold lower ids than stage-1 ones.
        emitting.sort(key=lambda t: t.track_id)
        outputs = []
        for track in emitting:
            emb, score = track.history[-1]
            outputs.append(
                TrackOutput(
                    frame=frame,
                    track_id=track.track_id,
                    bbox=track.last_bbox,
                    score=score,
                    class_id=track.class_id,
                )
            )
        self.last_stats = stats
        return outputs


def run_sequence(frames, config: TrackerConfig | None = None) -> list[TrackOutput]:
    """Track a whole sequence from scratch; outputs sorted by (frame, track_id)."""
    tracker = Tracker(config)
    outputs: list[TrackOutput] = []
    for frame_input in frames:
        outputs.extend(tracker.step(frame_input))
    return outputs
