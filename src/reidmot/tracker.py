"""Appearance-only multi-object tracker.

No motion model anywhere: no velocity, no IoU in the association cost. A track
is represented purely by a score-weighted running mean of its recent appearance
embeddings, and detections are associated to tracks in two score-banded stages:
confident detections first against every live track, then the leftovers pooled
with low-confidence detections against whatever tracks remain. Low-confidence
detections can keep an existing track alive but never start a new one.
"""

import enum
import mmap
from dataclasses import dataclass

import numpy as np

from .assign import FORBIDDEN, gate_costs, solve_assignment
from .core import (
    ZERO_NORM_EPS,
    Detection,
    FrameInput,
    TrackerConfig,
    TrackOutput,
    embedding_dim,
    normalize_embedding,
)
from .errors import (
    ConfigError,
    EmptyHistoryError,
    MissingEmbeddingError,
    NonMonotonicFrameError,
    ZeroWeightError,
)

ZERO_WEIGHT_EPS = 1e-12
# Most histories one temporary feature block holds, so that a frame matching
# hundreds of tracks never gathers all their embeddings at once.
FEATURE_BATCH = 64
# The flags of a private anonymous map, which can grow; a shared one, the
# POSIX default, cannot. Windows maps take no flags and are private.
_PRIVATE_MAP = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}


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
    """weighted_feature of each whole history, by the tracker's own feature path.

    The histories are written into a _HistoryStore one position at a time,
    the way Tracker.step writes observations, and their features come from
    _HistoryStore.features, so they have the bits a track with the same
    history gets. An empty history raises EmptyHistoryError before anything
    is computed; a history whose scores sum below ZERO_WEIGHT_EPS raises
    ZeroWeightError and a mean that normalize_embedding would reject raises
    its error; when several histories fail, the first failing one of the
    first failing batch raises.
    """
    histories = [list(history) for history in histories]
    if any(len(history) == 0 for history in histories):
        raise EmptyHistoryError("cannot compute a feature from an empty history")
    if not histories:
        return []
    lengths = np.array([len(history) for history in histories])
    store = _HistoryStore(int(lengths.max()))
    slots = store.open(len(histories))
    for k in range(store.tau):
        have = np.flatnonzero(lengths > k)
        store.stage(slots[have], [histories[i][k][0] for i in have],
                    [histories[i][k][1] for i in have])
        store.advance(slots[have])
    return store.features(slots)


def _unit_means(embs: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """The unit score-weighted means of an (m, n, d) block of m histories.

    The batched matmuls give each row the same bits as the one-history forms
    `embs.T @ scores / total` and `np.linalg.norm`; padding histories to a
    common length, `einsum` or `norm(axis=1)` would not. A history whose
    scores sum below ZERO_WEIGHT_EPS raises ZeroWeightError, a mean that
    normalize_embedding would reject raises its error, the first such row
    raising.
    """
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
    return means / norms[:, None]


class _HistoryStore:
    """The recent observations of many tracks, in a few arrays.

    Each track owns a slot: a ring of tau + 1 row numbers into one (P, d)
    pool of embeddings, a ring of the matching scores, and the count of
    observations the slot has taken. Observation k sits at ring position
    k % (tau + 1), so the window of the last min(count, tau) observations
    leaves one spare position, count % (tau + 1): stage writes a new
    observation there without changing the window, and advance makes it
    part of the window. A ring position holds -1 until its slot first
    writes there: a slot takes a fresh row for each of its first tau + 1
    observations and from then on overwrites the row that left its window.
    Rows are handed out in the order they are first needed; a released slot
    gives its rows back, and later slots take those before the pool grows,
    so the store holds at most tau + 1 rows per open slot. No view of the
    pool leaves the store: history and features return copies, which lets
    the pool be resized in place.
    """

    def __init__(self, tau: int):
        self.tau = tau
        self._pool: np.ndarray | None = None  # a view of _map; see _grow
        self._map: mmap.mmap | None = None
        self._top = 0  # rows handed out so far; the pool past them is untouched
        self._free_rows: list[int] = []
        self._ring = np.empty((0, tau + 1), dtype=np.intp)
        self._scores = np.empty((0, tau + 1), dtype=np.float64)
        self._count = np.empty(0, dtype=np.intp)
        self._free_slots: list[int] = []

    @property
    def held_rows(self) -> int:
        """Pool rows that open slots hold."""
        return self._top - len(self._free_rows)

    def open(self, k: int) -> np.ndarray:
        """k empty slots, released ones first."""
        while len(self._free_slots) < k:
            n = len(self._count)
            more = max(n, 8)
            self._ring = np.concatenate([self._ring, np.empty((more, self.tau + 1), np.intp)])
            self._scores = np.concatenate([self._scores, np.empty((more, self.tau + 1))])
            self._count = np.concatenate([self._count, np.zeros(more, np.intp)])
            self._free_slots.extend(range(n + more - 1, n - 1, -1))
        slots = np.array([self._free_slots.pop() for _ in range(k)], dtype=np.intp)
        self._ring[slots] = -1  # no row yet
        self._count[slots] = 0
        return slots

    def stage(self, slots: np.ndarray, embeddings, scores):
        """Write one observation per slot into its spare position."""
        if not len(slots):
            return
        pos = self._count[slots] % (self.tau + 1)
        rows = self._ring[slots, pos]
        fresh = np.flatnonzero(rows < 0)
        if fresh.size:
            rows[fresh] = self._take_rows(fresh.size, len(embeddings[0]))
            self._ring[slots[fresh], pos[fresh]] = rows[fresh]
        self._pool[rows] = embeddings
        self._scores[slots, pos] = scores

    def unstage(self, slots: np.ndarray):
        """Undo stage: give back the rows it took; the windows never changed.

        A store left holding no rows forgets its pool, so that the embedding
        length of a frame that failed is not kept.
        """
        count = self._count[slots]
        pos = count % (self.tau + 1)
        rows = self._ring[slots, pos]
        taken = np.flatnonzero((count <= self.tau) & (rows >= 0))
        self._free_rows.extend(rows[taken].tolist())
        self._ring[slots[taken], pos[taken]] = -1
        if self.held_rows == 0:
            self._pool, self._map, self._top, self._free_rows = None, None, 0, []

    def advance(self, slots: np.ndarray):
        """Make each slot's staged observation the newest of its window."""
        self._count[slots] += 1

    def release(self, slots: np.ndarray):
        """Close the slots and give their rows back."""
        for slot in slots.tolist():
            ring = self._ring[slot]
            self._free_rows.extend(ring[ring >= 0].tolist())
            self._free_slots.append(slot)

    def history(self, slot: int) -> list:
        """The slot's window as (embedding, score) pairs, oldest first, copied."""
        pos = self._window(self._count[[slot]])[0]
        return list(zip(self._pool[self._ring[slot, pos]], self._scores[slot, pos].tolist()))

    def features(self, slots: np.ndarray, staged: bool = False) -> list[np.ndarray]:
        """The feature of each slot's window, its staged observation included if staged.

        Windows of one length go through _unit_means together, at most
        FEATURE_BATCH of them at once, each batch gathered from the pool
        with one indexed copy; lengths are taken in order of first
        appearance.
        """
        ends = self._count[slots] + staged
        lengths = np.minimum(ends, self.tau)
        features: list = [None] * len(slots)
        for n in dict.fromkeys(lengths.tolist()):
            members = np.flatnonzero(lengths == n)
            for start in range(0, len(members), FEATURE_BATCH):
                batch = members[start:start + FEATURE_BATCH]
                rows = slots[batch, None]
                pos = self._window(ends[batch])
                unit = _unit_means(self._pool[self._ring[rows, pos]], self._scores[rows, pos])
                for k, i in enumerate(batch.tolist()):
                    features[i] = unit[k]
        return features

    def _window(self, ends: np.ndarray) -> np.ndarray:
        """Per end, the ring positions of the last min(end, tau) observations
        before it, oldest first; the windows must have one length."""
        n = min(int(ends[0]), self.tau)
        return (ends[:, None] - n + np.arange(n)) % (self.tau + 1)

    def _take_rows(self, k: int, dim: int) -> list[int]:
        """k rows for new observations: given-back rows first, then fresh ones."""
        fresh = max(k - len(self._free_rows), 0)
        if self._pool is None or self._top + fresh > len(self._pool):
            self._grow(max(self._top + fresh, 0 if self._pool is None else 2 * len(self._pool)),
                       dim)
        reused = self._free_rows[len(self._free_rows) - (k - fresh):]
        del self._free_rows[len(self._free_rows) - (k - fresh):]
        self._top += fresh
        return reused + list(range(self._top - fresh, self._top))

    def _grow(self, rows: int, dim: int):
        """Make room for at least `rows` pool rows, keeping the ones handed out.

        The pool is a view of a private anonymous memory map. The kernel
        zero-fills its pages on first write, so rows not yet handed out take
        no memory, and where it has mremap a resize moves the pages instead
        of copying them; elsewhere the rows handed out are copied into a new
        map. A map cannot be resized while an array views it, and the pool
        is the only view the store keeps.
        """
        nbytes = rows * dim * np.dtype(np.float64).itemsize
        if self._map is None:
            self._map = mmap.mmap(-1, nbytes, **_PRIVATE_MAP)
            self._pool = np.frombuffer(self._map).reshape(-1, dim)
            return
        self._pool = None
        try:
            self._map.resize(nbytes)
        except (SystemError, OSError):  # no mremap, as on macOS
            held = np.frombuffer(self._map).reshape(-1, dim)[:self._top]
            grown = mmap.mmap(-1, nbytes, **_PRIVATE_MAP)
            np.frombuffer(grown).reshape(-1, dim)[:self._top] = held
            self._map = grown
        finally:
            self._pool = np.frombuffer(self._map).reshape(-1, dim)


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
    """The record of one tracked object, read-only outside Tracker.step.

    `history` is the window of its last `tau` (embedding, score)
    observations, oldest first, read from the tracker's _HistoryStore (a
    copy each time); `feature` is the score-weighted mean of that window
    (see weighted_feature). Tracker.step is its whole lifecycle: it writes
    the frame's observations into the store, computes the features of every
    window the frame would leave in one batched pass, and only then records
    the matches, founds new tracks and assigns the features. While a track
    is lost its window is not touched, so the feature stays frozen at its
    last matched appearance. A removed track gives its rows back to the
    store: its history is empty and its feature None, while `track_id`,
    `class_id`, `state`, `frames_since_match`, `last_bbox` and `last_frame`
    stay. A `Track(...)` built by hand has a store of its own, which
    `_record` appends to; its `feature` stays None, so it cannot go into
    build_cost_matrix.
    """

    def __init__(self, track_id: int, detection: Detection, frame: int, tau: int):
        store = _HistoryStore(tau)
        self._open(track_id, detection, store, int(store.open(1)[0]))
        self._record(detection, frame)

    def _open(self, track_id: int, detection: Detection, store: _HistoryStore, slot: int):
        self.track_id = track_id
        self.class_id = detection.class_id
        self.feature: np.ndarray | None = None
        self._store = store
        self._slot: int | None = slot

    @property
    def history(self) -> list:
        return [] if self._slot is None else self._store.history(self._slot)

    def _record(self, detection: Detection, frame: int):
        """A match of a hand-built track; the feature is left as it was."""
        slot = np.array([self._slot])
        self._store.stage(slot, [detection.embedding], [detection.score])
        self._store.advance(slot)
        self._matched(detection, frame)

    def _matched(self, detection: Detection, frame: int):
        """The bookkeeping of a match whose observation the store has taken."""
        self.state = TrackState.ACTIVE
        self.frames_since_match = 0
        self.last_bbox = detection.bbox
        self.last_frame = frame

    def _miss(self, max_lost_age: int):
        """An unmatched frame of a live track: lost, or removed once too old."""
        self.frames_since_match += 1
        if self.frames_since_match <= max_lost_age:
            self.state = TrackState.LOST
            return
        self.state = TrackState.REMOVED
        self._store.release(np.array([self._slot]))
        self._slot = None
        self.feature = None

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
    """Stateful frame-by-frame tracker; see `step` for the per-frame protocol.

    `tracks` holds every track founded so far, in founding order, and
    `live_tracks` the ones not removed, in the same order; `step` keeps both.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.tracks: list[Track] = []
        self.live_tracks: list[Track] = []
        self._store = _HistoryStore(self.config.tau)
        self._next_id = 1
        self._last_frame: int | None = None
        # The embedding length every detection must have: config.embedding_dim,
        # else the length of the first embedding a step accepted.
        self._dim: int | None = self.config.embedding_dim
        self.last_stats: StepStats | None = None

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
        track is founded, recorded and refreshed: each matched or founding
        detection is written into its track's spare ring position in the
        store, the features of all those windows are computed in one batched
        pass (see _HistoryStore.features), and only then are the windows
        advanced, tracks recorded, aged and founded and the features
        assigned; a removed track gives its rows back. The outputs are built
        in track-id order. The work is proportional to the live tracks, not
        to every track ever founded.

        The embeddings are used as given, so they should be unit-norm (see
        normalize_embedding); core.embedding_dim checks their shapes. The
        whole frame is checked and its features computed before any state
        changes: a frame that raises NonMonotonicFrameError,
        MissingEmbeddingError, DimensionMismatchError, ZeroNormError (a mean
        that cancels out) or ZeroWeightError (a window whose scores sum to
        zero) leaves the tracker as it was, its store included.
        """
        cfg = self.config
        frame = frame_input.frame
        if self._last_frame is not None and frame <= self._last_frame:
            raise NonMonotonicFrameError(
                f"frame {frame} after frame {self._last_frame}"
            )
        dim = embedding_dim(frame, frame_input.detections, self._dim)

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

        # Founding: only confident leftovers above the init floor. The low
        # band can sustain tracks but never create them. Without
        # bytetrack_stage2 the confident leftovers head the pool.
        if cfg.bytetrack_stage2:
            leftovers = unmatched_high
        else:
            leftovers = [pool[j] for j in res2.unmatched_cols if j < len(unmatched_high)]
        founders = [det for det in leftovers if det.score >= cfg.min_init_score]

        # The features of the windows this frame would leave, computed from
        # the staged observations before any state changes: a raise here
        # undoes the staging and leaves the tracker as it was.
        store = self._store
        fresh = store.open(len(founders))
        slots = np.concatenate([np.array([t._slot for t, _ in matched], dtype=np.intp), fresh])
        observed = [det for _, det in matched] + founders
        try:
            store.stage(slots, [det.embedding for det in observed],
                        [det.score for det in observed])
            features = store.features(slots, staged=True)
        except BaseException:
            store.unstage(slots)
            store.release(fresh)
            raise
        store.advance(slots)
        self._last_frame = frame
        self._dim = dim
        stats = StepStats(frame=frame, matched_stage1=len(res1.matches),
                          matched_stage2=len(res2.matches), spawned=len(founders))
        for track, det in matched:
            track._matched(det, frame)
        for i in res2.unmatched_rows:
            remaining[i]._miss(cfg.max_lost_age)
            stats.removed += remaining[i].state is TrackState.REMOVED
        new_tracks = []
        for slot, det in zip(fresh.tolist(), founders):
            track = Track.__new__(Track)
            track._open(self._next_id, det, store, slot)
            track._matched(det, frame)
            new_tracks.append(track)
            self._next_id += 1

        emitting = matched + list(zip(new_tracks, founders))
        for (track, _), feature in zip(emitting, features):
            track.feature = feature
        self.tracks.extend(new_tracks)
        if stats.removed:
            live = [t for t in live if t.state is not TrackState.REMOVED]
        self.live_tracks = live + new_tracks
        # Stage-2 matches can hold lower ids than stage-1 ones.
        emitting.sort(key=lambda pair: pair[0].track_id)
        outputs = [
            TrackOutput(frame=frame, track_id=track.track_id, bbox=det.bbox,
                        score=det.score, class_id=track.class_id)
            for track, det in emitting
        ]
        self.last_stats = stats
        return outputs


def run_sequence(frames, config: TrackerConfig | None = None) -> list[TrackOutput]:
    """Track a whole sequence from scratch; outputs sorted by (frame, track_id)."""
    tracker = Tracker(config)
    outputs: list[TrackOutput] = []
    for frame_input in frames:
        outputs.extend(tracker.step(frame_input))
    return outputs
