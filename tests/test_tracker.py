import mmap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reidmot import (
    FORBIDDEN,
    BBox,
    ConfigError,
    Detection,
    DimensionMismatchError,
    EmptyHistoryError,
    FrameInput,
    MissingEmbeddingError,
    NonMonotonicFrameError,
    Tracker,
    TrackerConfig,
    TrackState,
    ZeroNormError,
    ZeroWeightError,
    build_cost_matrix,
    run_sequence,
    split_by_score,
    weighted_feature,
)

from reidmot.io import write_embeddings
from reidmot.synth import ScenarioSpec, generate
from reidmot.tracker import FEATURE_BATCH

from bad_frames import BAD_FRAMES, writer_input
from oracles import direct_weighted_feature, one_history_numpy_feature, reference_tracker

BOX = BBox(0, 0, 10, 10)


def det(frame, score, emb, class_id=0, box=BOX):
    return Detection(frame=frame, bbox=box, score=score, class_id=class_id,
                     embedding=np.asarray(emb, dtype=np.float64))


def unit(*values):
    v = np.asarray(values, dtype=np.float64)
    return v / np.linalg.norm(v)


def test_weighted_feature_hand_value():
    history = [(np.array([1.0, 0.0]), 0.9), (np.array([0.0, 1.0]), 0.3)]
    feat = weighted_feature(history, tau=30)
    # weighted mean (0.75, 0.25) renormalized
    assert abs(feat[0] - 0.9486832980505138) < 1e-9
    assert abs(feat[1] - 0.31622776601683794) < 1e-9


def test_weighted_feature_window_uses_most_recent_tau():
    old = [(np.array([1.0, 0.0]), 0.9)] * 4
    recent = [(np.array([0.0, 1.0]), 0.5), (np.array([0.0, 1.0]), 0.7)]
    feat = weighted_feature(old + recent, tau=2)
    assert np.allclose(feat, [0.0, 1.0], atol=1e-12)


def test_weighted_feature_single_entry_is_identity():
    e = unit(3.0, 4.0)
    assert np.allclose(weighted_feature([(e, 0.42)], tau=5), e, atol=1e-12)


def test_weighted_feature_score_scale_invariant():
    rng = np.random.default_rng(5)
    history = [(unit(*rng.normal(size=8)), float(s))
               for s in rng.uniform(0.1, 1.0, 6)]
    base = weighted_feature(history, tau=10)
    scaled = weighted_feature([(e, 3.0 * s) for e, s in history], tau=10)
    assert np.allclose(base, scaled, atol=1e-12)


def test_weighted_feature_errors():
    with pytest.raises(EmptyHistoryError):
        weighted_feature([], tau=5)
    with pytest.raises(ZeroWeightError):
        weighted_feature([(np.array([1.0, 0.0]), 0.0)], tau=5)
    history = [(np.array([1.0, 0.0]), 1.0), (np.array([0.0, 1.0]), 1.0)]
    for tau in (0, -1):
        with pytest.raises(ConfigError, match=f"tau must be >= 1, got {tau}"):
            weighted_feature(history, tau)


def test_weighted_feature_matches_oracle_on_random_histories():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        length = int(rng.integers(1, 31))
        history = []
        for _ in range(length):
            e = rng.normal(size=16)
            history.append((e / np.linalg.norm(e), float(rng.uniform(0.05, 1.0))))
        tau = int(rng.integers(1, 31))
        got = weighted_feature(history, tau)
        want = direct_weighted_feature(history, tau)
        assert np.max(np.abs(got - np.array(want))) < 1e-9
        assert np.array_equal(got, one_history_numpy_feature(history[-tau:]))


@pytest.mark.parametrize("bad, message", [
    (np.empty(0), r"history\[2\]: embedding must be 1-D and non-empty, got shape \(0,\)"),
    (np.array(1.0), r"history\[2\]: embedding must be 1-D and non-empty, got shape \(\)"),
    (np.ones((1, 2)), r"history\[2\]: embedding must be 1-D and non-empty, got shape \(1, 2\)"),
    (unit(1, 2, 2), r"history\[2\]: embedding has length 3, expected 2"),
], ids=["empty", "0-d", "2-D", "mixed-length"])
def test_weighted_feature_names_an_embedding_of_the_wrong_shape(bad, message):
    # The window is history[1:]: the observation is named by its place in
    # the history.
    e = unit(3.0, 4.0)
    history = [(e, 0.5), (e, 0.5), (bad, 0.5)]
    with pytest.raises(DimensionMismatchError, match=message):
        weighted_feature(history, tau=2)


def test_track_stores_oracle_feature():
    rng = np.random.default_rng(77)
    histories = []
    for _ in range(100):
        length = int(rng.integers(1, 31))
        history = []
        for _ in range(length):
            e = rng.normal(size=16)
            history.append((e / np.linalg.norm(e), float(rng.uniform(0.05, 1.0))))
        histories.append(history)
    for history in histories:
        feature = weighted_feature(history, 30)
        want = direct_weighted_feature(history, 30)
        assert np.max(np.abs(feature - np.array(want))) < 1e-9


def test_track_history_is_bounded_by_tau():
    tracker = Tracker(TrackerConfig(tau=3))
    for f in range(1, 11):
        tracker.step(FrameInput(frame=f, detections=(det(f, 0.9, unit(1, 0)),)))
    [track] = tracker.tracks
    assert len(track.history) == 3


def test_split_by_score_boundaries():
    cfg = TrackerConfig()
    e = unit(1, 0)
    d_high = det(1, 0.84, e)
    d_mid = det(1, 0.3, e)
    d_low = det(1, 0.29, e)
    d_top = det(1, 0.99, e)
    high, low, discarded = split_by_score([d_mid, d_high, d_low, d_top], cfg)
    assert high == [d_high, d_top]  # order preserved
    assert low == [d_mid]
    assert discarded == [d_low]


def test_split_by_score_edges_are_the_steps_band_edges():
    # On each threshold, and one ulp below it. The step splits with the same
    # rule: only the detection exactly on high_thresh founds a track.
    cfg = TrackerConfig(high_thresh=0.8, low_thresh=0.4, per_class=False)
    scores = [0.8, float(np.nextafter(0.8, 0.0)), 0.4, float(np.nextafter(0.4, 0.0))]
    dets = [det(1, s, unit(*np.eye(4)[k])) for k, s in enumerate(scores)]
    high, low, discarded = split_by_score(dets, cfg)
    assert (high, low, discarded) == ([dets[0]], [dets[1], dets[2]], [dets[3]])
    tracker = Tracker(cfg)
    out = tracker.step(FrameInput(frame=1, detections=tuple(dets)))
    assert [(o.track_id, o.score) for o in out] == [(1, 0.8)]


def test_build_cost_matrix_values_and_classes():
    tracker = Tracker(TrackerConfig(per_class=False))
    tracker.step(FrameInput(frame=1, detections=(
        det(1, 0.9, unit(1, 0)), det(1, 0.9, unit(0, 1), class_id=3))))
    t1, t2 = tracker.tracks
    dets = [det(2, 0.9, unit(1, 0)), det(2, 0.9, unit(0, 1), class_id=3)]
    costs = build_cost_matrix([t1, t2], dets)
    assert costs[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert costs[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert costs[1, 1] == pytest.approx(0.0, abs=1e-12)
    gated = build_cost_matrix([t1, t2], dets, per_class=True)
    assert gated[0, 1] == FORBIDDEN
    assert gated[1, 0] == FORBIDDEN
    assert gated[0, 0] == pytest.approx(0.0, abs=1e-12)

    with pytest.raises(MissingEmbeddingError):
        build_cost_matrix([t1], [Detection(frame=2, bbox=BOX, score=0.9)])
    # No tracks or no detections: an empty matrix of the right shape.
    for rows, cols, shape in (([], dets, (0, 2)), ([t1, t2], [], (2, 0))):
        empty = build_cost_matrix(rows, cols)
        assert (empty.shape, empty.dtype) == (shape, np.float64)


def test_first_frame_spawns_tracks_in_order():
    tracker = Tracker(TrackerConfig(per_class=False))
    dets = tuple(det(1, 0.9, unit(*np.eye(4)[k])) for k in range(3))
    outputs = tracker.step(FrameInput(frame=1, detections=dets))
    assert [o.track_id for o in outputs] == [1, 2, 3]
    assert all(o.frame == 1 for o in outputs)
    assert all(t.state is TrackState.ACTIVE for t in tracker.tracks)


def test_stable_ids_across_frames():
    e1, e2 = unit(1, 0, 0), unit(0, 1, 0)
    frames = [
        FrameInput(frame=f, detections=(det(f, 0.9, e1), det(f, 0.9, e2)))
        for f in range(1, 6)
    ]
    outputs = run_sequence(frames)
    by_frame = {}
    for o in outputs:
        by_frame.setdefault(o.frame, []).append(o.track_id)
    assert all(sorted(ids) == [1, 2] for ids in by_frame.values())


def test_low_score_detection_keeps_track_alive_without_spawning():
    e = unit(1, 0)
    tracker = Tracker()
    tracker.step(FrameInput(frame=1, detections=(det(1, 0.9, e),)))
    out = tracker.step(FrameInput(frame=2, detections=(det(2, 0.5, e),)))
    assert len(out) == 1 and out[0].track_id == 1
    assert tracker.tracks[0].state is TrackState.ACTIVE
    assert tracker.tracks[0].history[-1][1] == 0.5  # low det entered the history

    # a low-band detection alone never founds a track
    fresh = Tracker()
    out = fresh.step(FrameInput(frame=1, detections=(det(1, 0.5, e),)))
    assert out == [] and fresh.tracks == []


def test_unmatched_track_ages_to_lost_then_removed():
    cfg = TrackerConfig(max_lost_age=2)
    tracker = Tracker(cfg)
    tracker.step(FrameInput(frame=1, detections=(det(1, 0.9, unit(1, 0)),)))
    track = tracker.tracks[0]
    assert repr(track) == "Track(id=1, state=active, cls=0, hist=1, since_match=0)"
    tracker.step(FrameInput(frame=2, detections=()))
    assert track.state is TrackState.LOST and track.frames_since_match == 1
    tracker.step(FrameInput(frame=3, detections=()))
    assert track.state is TrackState.LOST and track.frames_since_match == 2
    tracker.step(FrameInput(frame=4, detections=()))
    assert track.state is TrackState.REMOVED
    # A removed track keeps its ids and age but gives its history back.
    assert repr(track) == "Track(id=1, state=removed, cls=0, hist=0, since_match=3)"


def test_lost_track_recovers_same_id():
    e = unit(1, 0)
    tracker = Tracker()
    tracker.step(FrameInput(frame=1, detections=(det(1, 0.9, e),)))
    for f in range(2, 5):
        tracker.step(FrameInput(frame=f, detections=()))
    assert tracker.tracks[0].state is TrackState.LOST
    out = tracker.step(FrameInput(frame=5, detections=(det(5, 0.9, e),)))
    assert [o.track_id for o in out] == [1]
    assert tracker.tracks[0].state is TrackState.ACTIVE
    assert len(tracker.tracks) == 1  # no spurious new track


def test_removed_track_never_returns():
    e = unit(1, 0)
    cfg = TrackerConfig(max_lost_age=1)
    tracker = Tracker(cfg)
    tracker.step(FrameInput(frame=1, detections=(det(1, 0.9, e),)))
    tracker.step(FrameInput(frame=2, detections=()))
    tracker.step(FrameInput(frame=3, detections=()))
    assert tracker.tracks[0].state is TrackState.REMOVED
    out = tracker.step(FrameInput(frame=4, detections=(det(4, 0.9, e),)))
    assert [o.track_id for o in out] == [2]


def test_per_class_never_crosses():
    e = unit(1, 0)
    tracker = Tracker(TrackerConfig(per_class=True))
    tracker.step(FrameInput(frame=1, detections=(det(1, 0.9, e, class_id=0),)))
    out = tracker.step(FrameInput(frame=2, detections=(det(2, 0.9, e, class_id=1),)))
    # same appearance, different class: old track is not matched, a new one is born
    assert [o.track_id for o in out] == [2]
    assert tracker.tracks[0].state is TrackState.LOST


def test_class_ids_past_int64_are_kept_and_gated():
    # Class ids are any non-negative ints, as the detection parser reads
    # them: tracks keep theirs as given, and the class gate still holds.
    big = 2**70
    e = unit(1, 0)
    tracker = Tracker(TrackerConfig(per_class=True))
    out = tracker.step(FrameInput(frame=1, detections=(det(1, 0.9, e, class_id=big),)))
    assert [(o.track_id, o.class_id) for o in out] == [(1, big)]
    out = tracker.step(FrameInput(frame=2, detections=(det(2, 0.9, e, class_id=big + 1),)))
    assert [(o.track_id, o.class_id) for o in out] == [(2, big + 1)]
    assert [t.class_id for t in tracker.tracks] == [big, big + 1]


def test_min_init_score_blocks_spawning():
    e = unit(1, 0)
    cfg = TrackerConfig(min_init_score=0.95)
    tracker = Tracker(cfg)
    out = tracker.step(FrameInput(frame=1, detections=(det(1, 0.9, e),)))
    assert out == [] and tracker.tracks == []
    out = tracker.step(FrameInput(frame=2, detections=(det(2, 0.96, e),)))
    assert [o.track_id for o in out] == [1]


def test_non_monotonic_frame_rejected():
    tracker = Tracker()
    tracker.step(FrameInput(frame=5, detections=()))
    with pytest.raises(NonMonotonicFrameError):
        tracker.step(FrameInput(frame=5, detections=()))
    with pytest.raises(NonMonotonicFrameError):
        tracker.step(FrameInput(frame=4, detections=()))


def test_missing_embedding_rejected():
    tracker = Tracker()
    bare = Detection(frame=1, bbox=BOX, score=0.9)
    with pytest.raises(MissingEmbeddingError):
        tracker.step(FrameInput(frame=1, detections=(bare,)))


@pytest.mark.parametrize("cfg, bad_frame, error", [
    (TrackerConfig(embedding_dim=case.dim), case.frame, case.error) for case in BAD_FRAMES
])
def test_rejected_frame_leaves_tracker_unchanged(cfg, bad_frame, error):
    # The tracker and the writer refuse the frame by one rule, in one message.
    with pytest.raises(error) as written:
        write_embeddings(writer_input(cfg.embedding_dim, bad_frame))
    tracker = Tracker(cfg)
    with pytest.raises(error) as stepped:
        tracker.step(bad_frame)
    assert str(stepped.value) == str(written.value)
    assert (tracker._dim, tracker._last_frame, tracker.tracks) == (cfg.embedding_dim, None, [])
    good = det(bad_frame.frame, 0.9, np.eye(cfg.embedding_dim or 2)[0])
    out = tracker.step(FrameInput(frame=bad_frame.frame, detections=(good,)))
    assert [(o.frame, o.track_id) for o in out] == [(bad_frame.frame, 1)]


def test_embedding_length_is_fixed_by_the_first_accepted_embedding():
    tracker = Tracker()
    tracker.step(FrameInput(frame=1, detections=(det(1, 0.9, unit(1, 0, 0)),)))
    with pytest.raises(DimensionMismatchError, match="length 2, expected 3"):
        tracker.step(FrameInput(frame=2, detections=(det(2, 0.9, unit(1, 0)),)))
    out = tracker.step(FrameInput(frame=2, detections=(det(2, 0.9, unit(1, 0, 0)),)))
    assert [o.track_id for o in out] == [1]


def test_stage1_high_band_takes_precedence_over_better_low_match():
    e = unit(1, 0)
    near = unit(1, 0.05)  # very similar to e
    tracker = Tracker()
    tracker.step(FrameInput(frame=1, detections=(det(1, 0.9, e),)))
    # the low-band detection is the closer match, but stage 1 runs first
    high_det = det(2, 0.9, near)
    low_det = det(2, 0.5, e)
    out = tracker.step(FrameInput(frame=2, detections=(low_det, high_det)))
    assert [o.track_id for o in out] == [1]
    assert tracker.tracks[0].history[-1][1] == 0.9
    assert len(tracker.tracks) == 1  # leftover low det discarded, not spawned


def test_unmatched_high_gets_second_chance_in_stage2():
    # gates chosen so the detection misses stage 1 but clears stage 2
    cfg = TrackerConfig(sim_gate_high=0.9, sim_gate_low=0.3, per_class=False)
    e = unit(1, 0)
    tilted = unit(1, 1)  # cos = 0.707: below 0.9, above 0.3
    tracker = Tracker(cfg)
    tracker.step(FrameInput(frame=1, detections=(det(1, 0.9, e),)))
    out = tracker.step(FrameInput(frame=2, detections=(det(2, 0.9, tilted),)))
    assert [o.track_id for o in out] == [1]
    assert len(tracker.tracks) == 1

    # with the restricted stage-2 pool the same detection founds a new track
    cfg2 = TrackerConfig(sim_gate_high=0.9, sim_gate_low=0.3, per_class=False,
                         bytetrack_stage2=True)
    tracker2 = Tracker(cfg2)
    tracker2.step(FrameInput(frame=1, detections=(det(1, 0.9, e),)))
    out2 = tracker2.step(FrameInput(frame=2, detections=(det(2, 0.9, tilted),)))
    assert [o.track_id for o in out2] == [2]
    assert len(tracker2.tracks) == 2


def test_similarity_gate_boundary_is_inclusive():
    # cos(track, det) exactly at the gate must still match
    cfg = TrackerConfig(sim_gate_high=0.6, per_class=False)
    e = unit(1, 0)
    tilted = np.array([0.6, float(np.sqrt(1 - 0.36))])
    tracker = Tracker(cfg)
    tracker.step(FrameInput(frame=1, detections=(det(1, 0.9, e),)))
    out = tracker.step(FrameInput(frame=2, detections=(det(2, 0.9, tilted),)))
    assert [o.track_id for o in out] == [1]


def test_outputs_carry_detection_box_and_score():
    e = unit(1, 0)
    moved = BBox(5, 6, 10, 10)
    tracker = Tracker()
    tracker.step(FrameInput(frame=1, detections=(det(1, 0.9, e),)))
    out = tracker.step(FrameInput(frame=2, detections=(det(2, 0.87, e, box=moved),)))
    assert out[0].bbox == moved
    assert out[0].score == 0.87
    assert tracker.tracks[0].last_bbox == moved


def test_run_sequence_empty():
    assert run_sequence([]) == []


def test_run_sequence_sorted_and_deterministic():
    rng = np.random.default_rng(31)
    frames = []
    for f in range(1, 20):
        dets = []
        for _ in range(int(rng.integers(0, 4))):
            e = rng.normal(size=8)
            dets.append(det(f, float(rng.uniform(0.2, 1.0)), e / np.linalg.norm(e)))
        frames.append(FrameInput(frame=f, detections=tuple(dets)))
    out1 = run_sequence(frames)
    out2 = run_sequence(frames)
    assert out1 == out2
    keys = [(o.frame, o.track_id) for o in out1]
    assert keys == sorted(keys)


def test_feature_invariant_holds_after_every_step():
    rng = np.random.default_rng(8)
    cfg = TrackerConfig(tau=4, per_class=False)
    tracker = Tracker(cfg)
    for f in range(1, 30):
        dets = []
        for _ in range(int(rng.integers(0, 4))):
            e = rng.normal(size=8)
            dets.append(det(f, float(rng.uniform(0.3, 1.0)), e / np.linalg.norm(e)))
        tracker.step(FrameInput(frame=f, detections=tuple(dets)))
        for track in tracker.live_tracks:
            want = direct_weighted_feature(list(track.history), cfg.tau)
            assert np.max(np.abs(track.feature - np.array(want))) < 1e-9


def test_batched_features_equal_single_history_features_bit_for_bit():
    # Identities are born over the first seven frames and drop out at random,
    # so one frame mixes histories shorter than tau with full ones; once all
    # are full, a frame matches more same-length tracks than one batch holds.
    # The longer runs at tau 1 and 3 wrap those tracks' rings ten times over.
    n_ids = FEATURE_BATCH + 16
    for tau, n_frames, seed in ((5, 15, 12), (1, 30, 13), (3, 60, 14)):
        rng = np.random.default_rng(seed)
        cfg = TrackerConfig(tau=tau, per_class=False)
        base = rng.normal(size=(n_ids, 128))
        tracker = Tracker(cfg)
        mixed_frames = 0
        widest_group = 0
        matches = {}
        for f in range(1, n_frames + 1):
            dets = []
            for k in range(n_ids):
                born = f == k % 7 + 1
                if f < k % 7 + 1 or (not born and rng.uniform() < 0.05):
                    continue
                score = 0.95 if born else float(rng.uniform(0.3, 1.0))
                e = base[k] + rng.normal(scale=0.05, size=128)
                dets.append(det(f, score, e / np.linalg.norm(e)))
            out = tracker.step(FrameInput(frame=f, detections=tuple(dets)))
            lengths = [len(t.history) for t in tracker.tracks if t.last_frame == f]
            mixed_frames += len(set(lengths)) > 1 and cfg.tau in lengths
            widest_group = max(widest_group, lengths.count(cfg.tau))
            assert len(out) == len(lengths)
            for o in out:
                matches[o.track_id] = matches.get(o.track_id, 0) + 1
            for track in tracker.live_tracks:
                want = weighted_feature(list(track.history), cfg.tau)
                assert np.array_equal(track.feature, want)
                assert np.array_equal(track.feature, one_history_numpy_feature(track.history))
        assert mixed_frames > 0 or tau == 1
        assert widest_group > FEATURE_BATCH
        if tau < 5:
            # Observation k sits at ring position k % (tau + 1), so more
            # than 10 (tau + 1) observations wrap a ring ten times.
            wrapped = [n for n in matches.values() if n > 10 * (tau + 1)]
            assert len(wrapped) > FEATURE_BATCH


def test_step_raises_zero_norm_for_a_mean_that_cancels():
    e = unit(1, 0, 0)
    tracker = Tracker(TrackerConfig(sim_gate_high=-1.0, per_class=False))
    tracker.step(FrameInput(frame=1, detections=(det(1, 0.9, e),)))
    with pytest.raises(ZeroNormError):
        tracker.step(FrameInput(frame=2, detections=(det(2, 0.9, -e),)))


def test_step_raises_for_a_founder_whose_norm_overflows():
    # Embeddings are used as given; this one's finite entries overflow the
    # norm, which would scale its feature to zeros.
    tracker = Tracker()
    with pytest.raises(ValueError, match="norm must be finite"):
        tracker.step(FrameInput(frame=1, detections=(det(1, 0.9, [1e200, 0.0]),)))
    assert (tracker.tracks, tracker._last_frame) == ([], None)


def test_step_raises_zero_weight_for_a_track_founded_at_score_zero():
    tracker = Tracker(TrackerConfig(high_thresh=0.0, low_thresh=0.0))
    with pytest.raises(ZeroWeightError):
        tracker.step(FrameInput(frame=1, detections=(det(1, 0.0, unit(1, 0)),)))


def _open_slots(store):
    return int(np.count_nonzero(store._count))


def _tracker_state(tracker):
    """Everything a step may change, in a form that compares by value."""
    return (tracker._last_frame, tracker._dim, tracker._next_id, [
        (t.track_id, t.state, t.frames_since_match, t.last_frame, t.last_bbox,
         [(e.tobytes(), s) for e, s in t.history], t.feature.tobytes())
        for t in tracker.tracks
    ])


def test_zero_norm_refresh_leaves_the_tracker_as_it_was():
    e = unit(1, 0, 0)
    tracker = Tracker(TrackerConfig(sim_gate_high=-1.0, per_class=False))
    tracker.step(FrameInput(frame=1, detections=(det(1, 0.9, e),)))
    before = _tracker_state(tracker)
    cancelling = FrameInput(frame=2, detections=(det(2, 0.9, -e),))
    with pytest.raises(ZeroNormError):
        tracker.step(cancelling)
    assert _tracker_state(tracker) == before
    assert len(tracker.tracks[0].history) == 1 and tracker._last_frame == 1
    with pytest.raises(ZeroNormError):  # not NonMonotonicFrameError
        tracker.step(cancelling)
    out = tracker.step(FrameInput(frame=2, detections=(det(2, 0.9, unit(0, 1, 0)),)))
    assert [(o.frame, o.track_id) for o in out] == [(2, 1)]
    assert len(tracker.tracks[0].history) == 2

    # The same past a wrapped slot, where the staged observation overwrites
    # one that left the window: for a mean that cancels and for a window
    # whose scores sum to zero. No slot of the store is leaked either.
    cfg = TrackerConfig(tau=2, high_thresh=0.5, low_thresh=0.0, sim_gate_high=-1.0,
                        sim_gate_low=-1.0, per_class=False)
    for lead_in, (emb, score), error in (
        ([0.9] * 5, (-e, 0.9), ZeroNormError),
        ([0.9] * 5 + [0.0], (e, 0.0), ZeroWeightError),
    ):
        tracker = Tracker(cfg)
        for f, lead_score in enumerate(lead_in, start=1):
            tracker.step(FrameInput(frame=f, detections=(det(f, lead_score, e),)))
        before = _tracker_state(tracker)
        assert _open_slots(tracker._store) == 1
        frame = len(lead_in) + 1
        with pytest.raises(error):
            tracker.step(FrameInput(frame=frame, detections=(det(frame, score, emb),)))
        assert _tracker_state(tracker) == before
        assert _open_slots(tracker._store) == 1
        out = tracker.step(FrameInput(frame=frame, detections=(det(frame, 0.9, unit(0, 1, 0)),)))
        assert [(o.frame, o.track_id) for o in out] == [(frame, 1)]
        assert [s for _, s in tracker.tracks[0].history] == [lead_in[-1], 0.9]


def test_zero_weight_founding_leaves_the_tracker_as_it_was():
    tracker = Tracker(TrackerConfig(high_thresh=0.0, low_thresh=0.0, min_init_score=0.0))
    before = _tracker_state(tracker)
    with pytest.raises(ZeroWeightError):
        tracker.step(FrameInput(frame=1, detections=(det(1, 0.0, unit(1, 0)),)))
    assert _tracker_state(tracker) == before
    # Neither the frame nor the length 2 was taken: frame 1 of length 3 steps.
    out = tracker.step(FrameInput(frame=1, detections=(det(1, 0.9, unit(1, 0, 0)),)))
    assert [(o.frame, o.track_id) for o in out] == [(1, 1)]


@pytest.mark.parametrize("live, score", [
    (False, 0.1), (False, 0.5), (False, 0.9), (True, 0.5), (True, 0.9),
], ids=["discarded", "low-no-track", "high-founder", "low-live-track", "high-live-track"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_embedding_fails_the_step_whatever_the_band(live, score, bad):
    # One rule for every band and tracker state: before, a NaN in the low
    # or discarded band with no live track was accepted, a founder raised
    # normalize_embedding's error and a costed one the solver's.
    tracker = Tracker(TrackerConfig(per_class=False))
    if live:
        tracker.step(FrameInput(frame=1, detections=(det(1, 0.9, unit(0, 1, 0)),)))
    before = _tracker_state(tracker)
    frame = FrameInput(frame=2, detections=(det(2, 0.9, unit(1, 0, 0)),
                                            det(2, score, [0.0, bad, 1.0])))
    with pytest.raises(ValueError, match=r"^frame 2, index 1: embedding entries must be finite$"):
        tracker.step(frame)
    assert _tracker_state(tracker) == before
    out = tracker.step(FrameInput(frame=2, detections=(det(2, 0.9, unit(1, 0, 0)),)))
    assert [o.frame for o in out] == [2]


def test_store_holds_the_rows_of_live_tracks_only():
    # Churn: three identities persist while every frame founds tracks on
    # fresh random appearances that never match again and are removed two
    # frames later. The store gives their slots back, so the slots it holds,
    # each tau + 1 rows, and the slots it ever used follow the live tracks,
    # not every track ever founded. A step opens its founders' slots after
    # its removed tracks give theirs back, so no more slots are used than
    # the most tracks live after a step.
    rng = np.random.default_rng(21)
    cfg = TrackerConfig(tau=3, max_lost_age=2, per_class=False)
    base = rng.normal(size=(3, 16))
    tracker = Tracker(cfg)
    most_live = used = 0
    for f in range(1, 201):
        vectors = np.concatenate([base + rng.normal(scale=0.05, size=base.shape),
                                  rng.normal(size=(4, 16))])
        tracker.step(FrameInput(frame=f, detections=tuple(
            det(f, 0.9, v / np.linalg.norm(v)) for v in vectors)))
        most_live = max(most_live, len(tracker.live_tracks))
        used = max([used] + [t._slot + 1 for t in tracker.live_tracks])
        assert _open_slots(tracker._store) <= len(tracker.live_tracks)
        assert tracker._live_slots.tolist() == [t._slot for t in tracker.live_tracks]
    assert used <= most_live
    assert len(tracker.tracks) > 10 * most_live
    removed = [t for t in tracker.tracks if t.state is TrackState.REMOVED]
    assert len(removed) == len(tracker.tracks) - len(tracker.live_tracks)
    assert all(t.history == [] and t.feature is None for t in removed)


def test_a_founder_takes_the_slot_its_frame_frees_from_a_removed_track():
    # Frame 2 removes track 1 at max_lost_age 0 and founds track 2, which
    # opens the slot track 1 gave back in the same step. The removed track
    # keeps its own fields, not the founder's.
    cfg = TrackerConfig(max_lost_age=0, per_class=False)
    tracker = Tracker(cfg)
    first, second = BBox(1, 2, 10, 10), BBox(30, 40, 10, 10)
    tracker.step(FrameInput(frame=1, detections=(det(1, 0.9, unit(1, 0), box=first),)))
    [old] = tracker.tracks
    slot = old._slot
    out = tracker.step(FrameInput(frame=2, detections=(
        det(2, 0.95, unit(0, 1), class_id=4, box=second),)))
    assert [(o.track_id, o.bbox, o.class_id) for o in out] == [(2, second, 4)]
    assert tracker.last_stats.removed == 1 and tracker.last_stats.spawned == 1
    removed, founder = tracker.tracks
    assert removed is old
    assert (removed.track_id, removed.class_id, removed.state, removed.frames_since_match,
            removed.last_bbox, removed.last_frame) == (1, 0, TrackState.REMOVED, 1, first, 1)
    assert (removed.history, removed.feature) == ([], None)
    assert founder._slot == slot
    assert (founder.track_id, founder.class_id, founder.state, founder.frames_since_match,
            founder.last_bbox, founder.last_frame) == (2, 4, TrackState.ACTIVE, 0, second, 2)
    assert [(e.tolist(), s) for e, s in founder.history] == [([0.0, 1.0], 0.95)]
    assert founder.feature.tolist() == [0.0, 1.0]
    assert tracker.live_tracks == [founder]
    assert tracker._live_slots.tolist() == [slot]


def test_last_stats_counts_each_frames_matches_founders_and_removals():
    # Four orthogonal appearances a, b, c, d. A track's feature is the one
    # appearance it is seen with, so every cosine is 0 or 1 except the
    # blend of a and d on frame 5 (0.78: under the high gate, over the low).
    cfg = TrackerConfig(high_thresh=0.8, low_thresh=0.4, sim_gate_high=0.8,
                        sim_gate_low=0.3, max_lost_age=1, tau=3, per_class=False)
    a, b, c, d = np.eye(4)
    blend = a + 0.8 * d
    frames = [
        [(0.9, a), (0.9, b)],  # founds tracks 1 and 2
        [(0.9, a), (0.5, b), (0.9, c)],  # 1 in stage 1, 2 in stage 2 (low band), founds 3
        [(0.9, a)],  # 2 and 3 lost
        [(0.9, a), (0.9, b)],  # 1 and lost 2 in stage 1; 3 removed
        [(0.9, blend), (0.9, c), (0.5, d), (0.2, b)],  # blend carried to 1; c founds 4
    ]
    want = [(0, 0, 2, 0), (1, 1, 1, 0), (1, 0, 0, 0), (2, 0, 0, 1), (0, 1, 1, 0)]
    want_outputs = [[1, 2], [1, 2, 3], [1], [1, 2], [1, 4]]
    tracker = Tracker(cfg)
    for f, (sightings, counts, ids) in enumerate(zip(frames, want, want_outputs), start=1):
        out = tracker.step(FrameInput(frame=f, detections=tuple(
            det(f, score, emb / np.linalg.norm(emb)) for score, emb in sightings)))
        stats = tracker.last_stats
        assert stats.frame == f
        assert (stats.matched_stage1, stats.matched_stage2, stats.spawned,
                stats.removed) == counts
        assert [o.track_id for o in out] == ids


def test_store_grows_by_copying_where_a_map_cannot_be_resized(monkeypatch):
    # Without mremap, as on macOS, mmap.resize raises SystemError; the store
    # then copies its rows into a larger map, with the same results.
    class Unresizable(mmap.mmap):
        def resize(self, newsize):
            raise SystemError("mmap: resizing not available--no mremap()")

    rng = np.random.default_rng(5)
    base = rng.normal(size=(12, 8))
    frames = [FrameInput(frame=f, detections=tuple(
        det(f, float(rng.uniform(0.3, 1.0)), v / np.linalg.norm(v))
        for v in base[:f] + rng.normal(scale=0.05, size=base[:f].shape)))
        for f in range(1, 31)]
    cfg = TrackerConfig(tau=4, per_class=False)

    def run():
        tracker = Tracker(cfg)
        outputs = [tracker.step(frame_input) for frame_input in frames]
        return outputs, _tracker_state(tracker), tracker

    want_outputs, want_state, _ = run()
    monkeypatch.setattr(mmap, "mmap", Unresizable)
    outputs, state, tracker = run()
    assert isinstance(tracker._store._map, Unresizable)
    assert len(tracker._store._pool) >= 12  # it grew from 8 slots
    assert (outputs, state) == (want_outputs, want_state)


def test_no_view_of_the_pool_leaves_the_store():
    # mmap.resize raises BufferError while an array views the map, so the
    # histories and features read after frame 1 must be copies for the
    # pool to grow under them, and they keep the values they were read with.
    rng = np.random.default_rng(9)
    base = rng.normal(size=(40, 8))

    def frame(f, k):
        vectors = base[:k] + rng.normal(scale=0.05, size=(k, 8))
        return FrameInput(frame=f, detections=tuple(
            det(f, 0.9, v / np.linalg.norm(v)) for v in vectors))

    tracker = Tracker(TrackerConfig(tau=4, per_class=False))
    tracker.step(frame(1, 2))
    held = [(t.history, t.feature) for t in tracker.live_tracks]
    copies = [([(e.copy(), s) for e, s in history], feature.copy())
              for history, feature in held]
    slots = len(tracker._store._pool)
    for f in range(2, 5):
        tracker.step(frame(f, 10 * f))
    assert len(tracker._store._pool) > slots
    for (history, feature), (want_history, want_feature) in zip(held, copies):
        assert np.array_equal(feature, want_feature)
        assert [(e.tobytes(), s) for e, s in history] == [
            (e.tobytes(), s) for e, s in want_history]


@pytest.mark.parametrize("bytetrack_stage2", [False, True])
def test_each_step_solves_stage_1_then_stage_2(monkeypatch, bytetrack_stage2):
    # Each step makes exactly two solves, empty matrices included: stage 1
    # of the live tracks against the high band, then stage 2 of the tracks
    # stage 1 left against the carried high-band rows plus the low band.
    import reidmot.tracker as tracker_module

    shapes = []
    match = tracker_module._match
    monkeypatch.setattr(tracker_module, "_match",
                        lambda costs, allowed: shapes.append(costs.shape) or match(costs, allowed))
    cfg = TrackerConfig(high_thresh=0.8, low_thresh=0.4, sim_gate_high=0.8,
                        sim_gate_low=0.3, max_lost_age=1, per_class=False,
                        bytetrack_stage2=bytetrack_stage2)
    a, b, c, d = np.eye(4)
    frames = [
        [],
        [(0.9, a), (0.9, b)],
        [(0.9, a), (0.5, b), (0.9, c), (0.9, a + 0.8 * d)],
        [],
        [(0.5, a), (0.9, b + c), (0.9, d), (0.2, c)],
        [(0.9, a), (0.9, b), (0.9, c), (0.5, d)],
    ]
    tracker = Tracker(cfg)
    for f, sightings in enumerate(frames, start=1):
        high = sum(score >= cfg.high_thresh for score, _ in sightings)
        low = sum(cfg.low_thresh <= score < cfg.high_thresh for score, _ in sightings)
        live = len(tracker.live_tracks)
        shapes.clear()
        tracker.step(FrameInput(frame=f, detections=tuple(
            det(f, score, emb / np.linalg.norm(emb)) for score, emb in sightings)))
        matched = tracker.last_stats.matched_stage1
        carried = 0 if bytetrack_stage2 else high - matched
        assert shapes == [(live, high), (live - matched, carried + low)], f"frame {f}"


def test_stationary_scenario_solves_take_the_forced_exit(monkeypatch):
    # Well-separated identities under low noise admit at most one pairing per
    # track and per detection, so every stage solve is forced and scipy's
    # solver never runs, as on the bench workloads.
    import reidmot.assign as assign
    import reidmot.tracker as tracker_module

    calls = {"stage": 0, "solver": 0}
    stage_match, solve = tracker_module._match, assign._solve

    def count_stage(costs, allowed):
        calls["stage"] += 1
        return stage_match(costs, allowed)

    def count_solver(costs, allowed):
        calls["solver"] += 1
        return solve(costs, allowed)

    monkeypatch.setattr(tracker_module, "_match", count_stage)
    monkeypatch.setattr(assign, "_solve", count_solver)
    spec = ScenarioSpec(num_identities=20, num_frames=40, embedding_dim=32,
                        embed_noise_sigma=0.02, dropout_prob=0.05, clutter_rate=2.0, seed=3)
    outputs = run_sequence(generate(spec).frames, TrackerConfig())
    assert len({out.track_id for out in outputs}) == spec.num_identities
    assert calls == {"stage": 2 * spec.num_frames, "solver": 0}


# Scores on and either side of both band edges (low 0.4, high 0.8) and of the
# 0.9 init floor some scenarios set.
SCENARIO_SCORES = [0.1, 0.4, 0.6, 0.8, 0.9, 1.0]
SCENARIO_DIM = 6


@st.composite
def tracking_scenarios(draw):
    """A few frames of at most 5 detections of up to 4 identities or clutter.

    Each sighting is its identity's base vector plus fresh noise, or clutter;
    the continuous parts come from a numpy generator seeded by hypothesis.
    A frame may repeat one of its detections, bit for bit: the copies tie
    exactly, and when both found tracks so do those tracks' features.
    """
    cfg = TrackerConfig(
        high_thresh=0.8, low_thresh=0.4,
        sim_gate_high=draw(st.sampled_from([0.5, 0.8])),
        sim_gate_low=draw(st.sampled_from([0.3, 0.6])),
        tau=draw(st.integers(1, 3)),
        max_lost_age=draw(st.integers(0, 2)),
        min_init_score=draw(st.sampled_from([None, 0.9])),
        per_class=draw(st.booleans()),
        bytetrack_stage2=draw(st.booleans()),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_ids = draw(st.integers(1, 4))
    bases = rng.normal(size=(n_ids, SCENARIO_DIM))
    classes = draw(st.lists(st.integers(0, 1), min_size=n_ids + 1, max_size=n_ids + 1))
    noise = draw(st.sampled_from([0.1, 0.3, 0.6]))
    frames = []
    for f in range(1, draw(st.integers(1, 8)) + 1):
        dets = []
        for k in draw(st.lists(st.integers(0, n_ids), max_size=5)):
            e = (bases[k] + rng.normal(scale=noise, size=SCENARIO_DIM) if k < n_ids
                 else rng.normal(size=SCENARIO_DIM))
            box = BBox(*rng.uniform(0, 50, 2).tolist(), 10, 10)
            dets.append(det(f, draw(st.sampled_from(SCENARIO_SCORES)),
                            e / np.linalg.norm(e), classes[k], box))
        if 0 < len(dets) < 5 and draw(st.booleans()):
            dets.append(dets[draw(st.integers(0, len(dets) - 1))])
        frames.append(FrameInput(frame=f, detections=tuple(dets)))
    return frames, cfg


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(tracking_scenarios())
def test_step_matches_reference_tracker(scenario):
    # Features are compared to criterion 2's bound, not bit for bit: the
    # oracle sums with fsum. A scenario stops early once more than 5 tracks
    # are live, so the oracle's brute-force assignment stays cheap.
    frames, cfg = scenario
    tracker = Tracker(cfg)
    for frame_input, (want_out, want_tracks) in zip(frames, reference_tracker(frames, cfg)):
        out = tracker.step(frame_input)
        assert [(o.frame, o.track_id, o.bbox, o.score, o.class_id) for o in out] == want_out
        assert len(tracker.tracks) == len(want_tracks)
        assert tracker.live_tracks == [t for t in tracker.tracks
                                       if t.state is not TrackState.REMOVED]
        for track, want in zip(tracker.tracks, want_tracks):
            assert (track.track_id, track.class_id, track.state.value,
                    track.frames_since_match, track.last_bbox) == (
                want["track_id"], want["class_id"], want["state"],
                want["frames_since_match"], want["last_bbox"])
            if track.state is TrackState.REMOVED:
                # A removed track has given its history and feature back.
                assert (track.history, track.feature) == ([], None)
                continue
            assert [s for _, s in track.history] == want["scores"]
            assert np.max(np.abs(track.feature - np.array(want["feature"]))) <= 1e-9
        if len(tracker.live_tracks) > 5:
            break
