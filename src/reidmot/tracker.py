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
    BBox,
    FrameInput,
    TrackerConfig,
    TrackOutput,
    _FrameColumns,
    embedding_dim,
    embedding_length,
    unit_rows,
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
    renormalized to unit length: _unit_means on the one window, the kernel
    Tracker.step runs on every window, so the bits are a track's. Raises
    ConfigError when tau < 1, EmptyHistoryError for an empty history,
    DimensionMismatchError led by `history[i]: ` unless each embedding of the
    window passes core.embedding_length at the first one's length, and the
    errors of _unit_means.
    """
    if tau < 1:
        raise ConfigError(f"tau must be >= 1, got {tau}")
    history = list(history)
    if not history:
        raise EmptyHistoryError("cannot compute a feature from an empty history")
    window = history[-tau:]
    first = len(history) - len(window)
    embs = [np.asarray(emb, dtype=np.float64) for emb, _ in window]
    dim = None
    for i, emb in enumerate(embs, start=first):
        dim = embedding_length(emb.shape, dim, f"history[{i}]: ")
    scores = np.array([score for _, score in window], dtype=np.float64)
    return _unit_means(np.stack(embs)[None], scores[None])[0]


def _unit_means(embs: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """The unit score-weighted means of an (m, n, d) block of m histories.

    The one feature kernel: weighted_feature runs it on one window and
    _HistoryStore.features on batches of the step's windows. The batched
    matmul gives each row the same bits as the one-history form
    `embs.T @ scores / total`, whatever else is in the block; padding
    histories to a common length or `einsum` would not. core.unit_rows
    scales the means. A history whose scores sum below ZERO_WEIGHT_EPS
    raises ZeroWeightError, a mean that normalize_embedding would reject
    raises its error, the first such row raising.
    """
    totals = scores.sum(axis=1)
    light = np.flatnonzero(totals < ZERO_WEIGHT_EPS)
    if light.size:
        raise ZeroWeightError(f"history scores sum to {float(totals[light[0]])!r}")
    means = np.matmul(scores[:, None, :], embs)[:, 0, :] / totals[:, None]
    return unit_rows(means)


class _HistoryStore:
    """The state of many tracks, one slot per track, in a few arrays.

    Per slot: the track's id, class id, frames since its last match
    (`since`), the frame and box of its last match (`frame`, a row of the
    (S, 4) `box` matrix), its feature (a row
    of the (S, d) `feat` matrix) and its recent observations: a block of
    tau + 1 positions in one (S, tau + 1, d) pool of embeddings, the
    matching tau + 1 scores, and the count of observations the slot has
    taken. Observation k sits at position k % (tau + 1) of its slot, so the
    window of the last min(count, tau) observations leaves one spare
    position, count % (tau + 1): stage writes a new observation there
    without changing the window, features reads the window that
    observation would leave, and advance makes it part of the window and
    records its feature, frame and box. A count of 0 marks a free slot, and
    open takes the lowest free ones: a released slot is reused before a new
    one is taken, so the store writes to no more slots than were ever open
    at once. No view of the pool leaves the store: history and
    features return copies, which lets the pool be resized in place.
    """

    def __init__(self, tau: int):
        self.tau = tau
        self._pool: np.ndarray | None = None  # a view of _map; see _grow
        self._map: mmap.mmap | None = None
        self._scores = np.empty((0, tau + 1), dtype=np.float64)
        self._count = np.empty(0, dtype=np.intp)  # 0 for a free slot
        self.feat = np.empty((0, 0), dtype=np.float64)  # grown with the pool
        self.track_id = np.empty(0, dtype=np.int64)
        self.class_id = np.empty(0, dtype=object)  # as the founding detection gave it
        self.class_code = np.empty(0, dtype=np.intp)  # what the class gate compares
        self.since = np.empty(0, dtype=np.intp)
        self.frame = np.empty(0, dtype=object)  # frames are any ints
        self.box = np.empty((0, 4), dtype=np.float64)

    def open(self, track_ids: np.ndarray, class_ids: list,
             class_codes: np.ndarray) -> np.ndarray:
        """The lowest free slots (count 0) for new tracks of these ids and classes:
        released ones lie below the never-opened ones the arrays grow by."""
        k = len(track_ids)
        free = np.flatnonzero(self._count == 0)
        while len(free) < k:
            more = max(len(self._count), 8)
            for name in ("_scores", "_count", "track_id", "class_id", "class_code",
                         "since", "frame", "box"):
                held = getattr(self, name)
                setattr(self, name, np.concatenate(
                    [held, np.zeros((more, *held.shape[1:]), held.dtype)]))
            free = np.flatnonzero(self._count == 0)
        slots = free[:k]
        self.track_id[slots] = track_ids
        self.class_id[slots] = class_ids
        self.class_code[slots] = class_codes
        return slots

    def stage(self, slots: np.ndarray, embeddings: np.ndarray, scores: np.ndarray):
        """Write one observation per slot into its spare position."""
        if not len(slots):
            return
        if self._pool is None or len(self._pool) < len(self._count):
            self._grow(len(self._count), embeddings.shape[1])
        pos = self._count[slots] % (self.tau + 1)
        self._pool[slots, pos] = embeddings
        self._scores[slots, pos] = scores

    def advance(self, slots: np.ndarray, features: np.ndarray, frame: int, boxes: np.ndarray):
        """Make each slot's staged observation the newest of its window, and
        record the window's feature and the frame and (k, 4) box it came from."""
        if not len(slots):
            return
        self._count[slots] += 1
        self.feat[slots] = features
        self.since[slots] = 0
        self.frame[slots] = frame
        self.box[slots] = boxes

    def release(self, slots: np.ndarray):
        """Close the slots: a count of 0 marks a slot free."""
        self._count[slots] = 0

    def history(self, slot: int) -> list:
        """The slot's window as (embedding, score) pairs, oldest first, copied."""
        pos = self._window(self._count[[slot]])[0]
        return list(zip(self._pool[slot, pos], self._scores[slot, pos].tolist()))

    def features(self, slots: np.ndarray) -> np.ndarray:
        """The feature of each slot's window with its staged observation as
        the newest, one row per slot.

        Windows of one length go through _unit_means together, at most
        FEATURE_BATCH of them at once, each batch gathered from the pool
        with one indexed copy and put in place with one indexed assignment;
        lengths are taken in order of first appearance.
        """
        ends = self._count[slots] + 1
        lengths = np.minimum(ends, self.tau)
        features = np.empty((len(slots), self.feat.shape[1]), dtype=np.float64)
        for n in dict.fromkeys(lengths.tolist()):
            members = np.flatnonzero(lengths == n)
            for start in range(0, len(members), FEATURE_BATCH):
                batch = members[start:start + FEATURE_BATCH]
                rows = slots[batch, None]
                pos = self._window(ends[batch])
                features[batch] = _unit_means(self._pool[rows, pos], self._scores[rows, pos])
        return features

    def _window(self, ends: np.ndarray) -> np.ndarray:
        """Per end, the positions of the last min(end, tau) observations
        before it, oldest first; the windows must have one length."""
        n = min(int(ends[0]), self.tau)
        return (ends[:, None] - n + np.arange(n)) % (self.tau + 1)

    def _grow(self, slots: int, dim: int):
        """Make room for `slots` slots of `dim`-long embeddings, keeping those held.

        The pool is a view of a private anonymous memory map. The kernel
        zero-fills its pages on first write, so slots never opened take no
        memory, and where it has mremap a resize moves the pages instead
        of copying them; elsewhere the pool is copied into a new map. A map
        cannot be resized while an array views it, and the pool is the only
        view the store keeps. The feature matrix grows with the pool.
        """
        nbytes = slots * (self.tau + 1) * dim * np.dtype(np.float64).itemsize
        shape = (-1, self.tau + 1, dim)
        if self._map is None:
            self._map = mmap.mmap(-1, nbytes, **_PRIVATE_MAP)
            self._pool = np.frombuffer(self._map).reshape(shape)
            self.feat = np.empty((slots, dim), dtype=np.float64)
            return
        self.feat = np.concatenate([self.feat, np.empty((slots - len(self.feat), dim))])
        self._pool = None
        try:
            self._map.resize(nbytes)
        except (SystemError, OSError):  # no mremap, as on macOS
            grown = mmap.mmap(-1, nbytes, **_PRIVATE_MAP)
            grown[:len(self._map)] = self._map
            self._map = grown
        finally:
            self._pool = np.frombuffer(self._map).reshape(shape)


def _bands(scores: np.ndarray, config: TrackerConfig):
    """The score-band partition: indices of the high, low and discarded bands.

    The one band rule, for split_by_score and Tracker.step: score >=
    high_thresh is high, low_thresh <= score < high_thresh is low, the rest
    is discarded. Each band is in ascending order.
    """
    high = scores >= config.high_thresh
    kept = scores >= config.low_thresh
    return np.flatnonzero(high), np.flatnonzero(kept & ~high), np.flatnonzero(~kept)


def split_by_score(detections, config: TrackerConfig):
    """Partition detections into (high, low, discarded) score bands.

    Boundaries are inclusive on the left: score >= high_thresh is high band,
    low_thresh <= score < high_thresh is low band, the rest is discarded.
    Original order is preserved within each band.
    """
    detections = list(detections)
    scores = np.array([det.score for det in detections], dtype=np.float64)
    return tuple([detections[i] for i in band.tolist()] for band in _bands(scores, config))


class Track:
    """One tracked object: a read-only view of its slot in the tracker's _HistoryStore.

    `track_id`, `class_id`, `frames_since_match`, `last_bbox`, `last_frame`
    and `feature` are read from the slot's arrays (`feature` as a copy),
    and `history`, the window of its last `tau` (embedding, score)
    observations, oldest first, is copied out of the pool on each read.
    `feature` is weighted_feature of that window, bit for bit, since both
    come from _unit_means. The state is derived, not stored: ACTIVE when
    matched this frame (frames_since_match 0), LOST while unmatched, and
    REMOVED once the track has no slot. While a track is lost its window
    is not touched, so the feature stays frozen at its last matched
    appearance. Removal copies the track's fields into its own small
    record and gives the slot back: its history is then empty and its
    feature None, while `track_id`, `class_id`, `state`,
    `frames_since_match`, `last_bbox` and `last_frame` stay. Only
    Tracker.step builds tracks.
    """

    def __init__(self, store: _HistoryStore, slot: int):
        self._store = store
        self._slot: int | None = slot
        self._record: tuple | None = None  # the fields, once removed

    def _fields(self) -> tuple:
        """(track_id, class_id, frames_since_match, last_bbox, last_frame)."""
        if self._slot is None:
            return self._record
        store, slot = self._store, self._slot
        return (int(store.track_id[slot]), store.class_id[slot], int(store.since[slot]),
                BBox(*store.box[slot].tolist()), store.frame[slot])

    def _remove(self):
        """Keep the fields in the track's own record and let the slot go."""
        self._record = self._fields()
        self._slot = None

    track_id = property(lambda self: self._fields()[0])
    class_id = property(lambda self: self._fields()[1])
    frames_since_match = property(lambda self: self._fields()[2])
    last_bbox = property(lambda self: self._fields()[3])
    last_frame = property(lambda self: self._fields()[4])

    @property
    def state(self) -> TrackState:
        if self._slot is None:
            return TrackState.REMOVED
        return TrackState.LOST if self._store.since[self._slot] else TrackState.ACTIVE

    @property
    def feature(self) -> np.ndarray | None:
        return None if self._slot is None else self._store.feat[self._slot].copy()

    @property
    def history(self) -> list:
        return [] if self._slot is None else self._store.history(self._slot)

    def __repr__(self):
        return (
            f"Track(id={self.track_id}, state={self.state.value}, "
            f"cls={self.class_id}, hist={len(self.history)}, "
            f"since_match={self.frames_since_match})"
        )


def _appearance_costs(feats: np.ndarray, embs: np.ndarray,
                      track_cls=None, det_cls=None) -> np.ndarray:
    """Entry (i, j) = 1 - cos(feats[i], embs[j]), clipped to [0, 2].

    The one cost kernel, for build_cost_matrix and Tracker.step. Given the
    class ids of the rows and columns, pairs whose classes differ are
    FORBIDDEN.
    """
    if not (len(feats) and len(embs)):
        return np.empty((len(feats), len(embs)), dtype=np.float64)
    costs = feats @ embs.T
    np.clip(costs, -1.0, 1.0, out=costs)
    np.subtract(1.0, costs, out=costs)
    if track_cls is not None:
        differ = track_cls[:, None] != det_cls
        if differ.any():
            costs[differ] = FORBIDDEN
    return costs


def build_cost_matrix(tracks, detections, per_class: bool = False) -> np.ndarray:
    """Appearance cost matrix: entry (i, j) = 1 - cos(track_i, det_j) in [0, 2].

    With per_class, pairs whose class ids differ are FORBIDDEN outright.
    `tracks` must be live tracks of a `Tracker`, whose features the store
    holds. Tracker.step runs the same kernel on its store's feature rows
    and the frame's embedding block.
    """
    tracks, detections = list(tracks), list(detections)
    if not (tracks and detections):
        return np.empty((len(tracks), len(detections)), dtype=np.float64)
    for j, det in enumerate(detections):
        if det.embedding is None:
            raise MissingEmbeddingError(det.frame, j)
    feats = np.stack([t.feature for t in tracks])
    embs = np.stack([d.embedding for d in detections])
    if not per_class:
        return _appearance_costs(feats, embs)
    return _appearance_costs(feats, embs, np.array([t.class_id for t in tracks]),
                             np.array([d.class_id for d in detections]))


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

    `tracks` holds every track founded so far, in founding order, which is
    track-id order: ids run 1, 2, ... `step` keeps it and `_live_slots`,
    the store slots of the tracks not removed, in the same order;
    `live_tracks` reads those tracks through their ids.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.tracks: list[Track] = []
        self._store = _HistoryStore(self.config.tau)
        self._live_slots = np.empty(0, dtype=np.intp)
        self._next_id = 1
        self._last_frame: int | None = None
        # The embedding length every detection must have: config.embedding_dim,
        # else the length of the first embedding a step accepted.
        self._dim: int | None = self.config.embedding_dim
        self.last_stats: StepStats | None = None
        # The code of each class id seen so far, in order of first sight:
        # class ids are any ints, and the class gate compares their codes.
        # Codes only ever compare, so one a rejected frame added is harmless.
        self._class_codes: dict = {}

    @property
    def live_tracks(self) -> list[Track]:
        """The tracks not removed, in founding order."""
        return [self.tracks[i - 1] for i in self._store.track_id[self._live_slots].tolist()]

    def _stage(self, slots: np.ndarray, cols: np.ndarray, gate: float, embs: np.ndarray,
               class_codes: np.ndarray):
        """One association stage: the tracks on `slots` against the frame's rows `cols`.

        The slots' feature rows are costed against the rows' embeddings
        (class-gated with per_class), costs above 1 - gate are FORBIDDEN,
        and solve_assignment matches them. Returns (matched slots, their
        rows, unmatched slots, unmatched rows) as intp arrays.
        """
        store = self._store
        classes = (store.class_code[slots], class_codes[cols]) if self.config.per_class else ()
        res = solve_assignment(gate_costs(
            _appearance_costs(store.feat[slots], embs[cols], *classes), 1.0 - gate))
        # The dtype keeps an empty tuple from indexing everything.
        pairs = np.array(res.matches, dtype=np.intp).reshape(-1, 2)
        return (slots[pairs[:, 0]], cols[pairs[:, 1]],
                slots[np.array(res.unmatched_rows, dtype=np.intp)],
                cols[np.array(res.unmatched_cols, dtype=np.intp)])

    def step(self, frame_input: FrameInput) -> list[TrackOutput]:
        """Advance one frame; return the outputs of every matched or founded track.

        Per frame: split detections into score bands, then apply one stage
        rule (_stage) twice. Stage 1 assigns the high band to all live
        (active or lost) tracks under the high similarity gate. Stage 2
        assigns the high-band rows stage 1 left (none with bytetrack_stage2)
        plus the low band to the tracks stage 1 left, under the low gate.
        Matched tracks absorb their detection; unmatched tracks age and
        eventually drop off. The founders are the confident rows no stage
        claimed: high-band detections at or above min_init_score, in frame
        order. Low-band detections never found tracks.

        This is the one place a track is founded, updated and aged, and its
        body (_advance) works on one frame's columns: boxes, scores, class
        ids and embedding rows, with the bands and stages holding index
        arrays into them. A FrameInput is stacked into those columns
        (_FrameColumns.of) and the outputs are wrapped in TrackOutputs;
        `reidmot track` passes a _FrameColumns of its file columns and gets
        back the arrays _advance returns. Each matched detection is written
        into the spare position of its track's slot, the features of those
        windows are computed in one batched pass (see
        _HistoryStore.features) and a founder's from its one detection, and
        only then are the windows advanced, the feature rows, frames and
        boxes written and the unmatched tracks aged; a removed track gives
        its slot back, and the founders take slots last, so the store never
        holds more slots than the most tracks live after a step. The outputs
        are in track-id order. The work is proportional to the live tracks,
        not to every track ever founded.

        The embeddings are used as given, so they should be unit-norm (see
        normalize_embedding); core.embedding_dim checks their shapes. The
        whole frame is checked and its features computed before any state
        changes: a frame that raises NonMonotonicFrameError,
        MissingEmbeddingError, DimensionMismatchError, ZeroNormError (a mean
        that cancels out) or ZeroWeightError (a window whose scores sum to
        zero) leaves the tracker as it was, since only the matched tracks'
        spare positions, outside every window, were written.
        """
        frame = frame_input.frame
        if self._last_frame is not None and frame <= self._last_frame:
            raise NonMonotonicFrameError(
                f"frame {frame} after frame {self._last_frame}"
            )
        if isinstance(frame_input, _FrameColumns):
            embs = frame_input.embs
            dim = embedding_length(embs.shape[1:], self._dim) if len(embs) else self._dim
            return self._advance(frame_input, dim)
        dets = frame_input.detections
        dim = embedding_dim(frame, dets, self._dim)
        track_ids, class_ids, rows = self._advance(_FrameColumns.of(frame_input), dim)
        return [TrackOutput(frame, track_id, dets[row].bbox, dets[row].score, class_id)
                for track_id, class_id, row in zip(track_ids.tolist(), class_ids.tolist(),
                                                   rows.tolist())]

    def _advance(self, columns: _FrameColumns, dim: int | None):
        """The body of step on a frame's checked columns.

        Returns the (track ids, track class ids, rows of `columns`) of every
        matched or founded track, in track-id order: the class is the
        track's, fixed when it was founded.
        """
        cfg = self.config
        frame, boxes, scores, class_ids, embs = columns
        known = self._class_codes
        class_codes = np.array([known.setdefault(c, len(known)) for c in class_ids.tolist()],
                               dtype=np.intp)
        high, low, _ = _bands(scores, cfg)
        store, live = self._store, self._live_slots

        # Stage 1: confident detections against every live track. Lost tracks
        # compete on equal footing, their feature frozen from the last match.
        slots1, cols1, remaining, unmatched_high = self._stage(
            live, high, cfg.sim_gate_high, embs, class_codes)
        # Stage 2: the tracks left, under the looser gate. Unmatched confident
        # detections are carried to it; bytetrack_stage2 carries none.
        carried = unmatched_high[:0] if cfg.bytetrack_stage2 else unmatched_high
        slots2, cols2, unmatched, _ = self._stage(
            remaining, np.concatenate([carried, low]), cfg.sim_gate_low, embs, class_codes)
        slots = np.concatenate([slots1, slots2])
        cols = np.concatenate([cols1, cols2])

        # Founding: the confident rows no stage claimed, above the init floor.
        # The low band can sustain tracks but never create them.
        unclaimed = np.ones(len(scores), dtype=bool)
        unclaimed[cols] = False
        founders = high[unclaimed[high] & (scores[high] >= cfg.min_init_score)]

        # The features of the windows this frame would leave, computed before
        # any state changes: a matched track's observation is staged outside
        # its window, and a founder's feature is that of its one observation.
        store.stage(slots, embs[cols], scores[cols])
        features = store.features(slots)
        founder_features = (_unit_means(embs[founders][:, None, :], scores[founders][:, None])
                            if len(founders) else None)
        self._last_frame = frame
        self._dim = dim
        store.advance(slots, features, frame, boxes[:, cols].T)
        store.since[unmatched] += 1
        # The removal mask is taken before the founders open slots, which
        # may be the ones the removed tracks give back.
        gone = store.since[live] > cfg.max_lost_age
        if gone.any():
            for track_id in store.track_id[live[gone]].tolist():
                self.tracks[track_id - 1]._remove()
            store.release(live[gone])
            live = live[~gone]
        if len(founders):
            fresh = store.open(np.arange(self._next_id, self._next_id + len(founders)),
                               class_ids[founders].tolist(), class_codes[founders])
            store.stage(fresh, embs[founders], scores[founders])
            store.advance(fresh, founder_features, frame, boxes[:, founders].T)
            self._next_id += len(founders)
            self.tracks.extend(Track(store, slot) for slot in fresh.tolist())
            live = np.concatenate([live, fresh])
            slots = np.concatenate([slots, fresh])
            cols = np.concatenate([cols, founders])
        self._live_slots = live
        self.last_stats = StepStats(frame=frame, matched_stage1=len(slots1),
                                    matched_stage2=len(slots2), spawned=len(founders),
                                    removed=int(gone.sum()))

        # Stage-2 matches can hold lower ids than stage-1 ones.
        order = np.argsort(store.track_id[slots])
        slots = slots[order]
        return store.track_id[slots], store.class_id[slots], cols[order]


def run_sequence(frames, config: TrackerConfig | None = None) -> list[TrackOutput]:
    """Track a whole sequence from scratch; outputs sorted by (frame, track_id)."""
    tracker = Tracker(config)
    outputs: list[TrackOutput] = []
    for frame_input in frames:
        outputs.extend(tracker.step(frame_input))
    return outputs
