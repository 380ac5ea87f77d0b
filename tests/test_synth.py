import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reidmot import (
    ConfigError,
    ScenarioSpec,
    SeparationInfeasibleError,
    attach_embeddings,
    cosine_similarity,
    export,
    generate,
    parse_detections,
    parse_embeddings,
    parse_gt,
)
from reidmot import cli, synth
from reidmot.io import load_text
from reidmot.synth import (
    BASE_SCORE,
    BOX_SIZE,
    MAX_BASES_CELLS,
    MAX_CLUTTER_RATE,
    MAX_EMBED_NOISE_SIGMA,
    MAX_EMBEDDING_CELLS,
    MAX_EMBEDDING_DIM,
    MAX_FRAMES,
    MAX_RECORD_CELLS,
    MAX_SAMPLING_ATTEMPTS,
    MAX_SPEED,
)

from oracles import (
    loop_reflect,
    loop_sample_bases,
    reference_generate,
    scan_dipped_score,
    scan_dropped,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_generation_is_deterministic():
    spec = ScenarioSpec(num_identities=4, num_frames=30, embed_noise_sigma=0.1,
                        dropout_prob=0.2, clutter_rate=1.5, seed=9)
    a = generate(spec)
    b = generate(spec)
    assert len(a.frames) == len(b.frames) == 30
    for fa, fb in zip(a.frames, b.frames):
        assert len(fa.detections) == len(fb.detections)
        for da, db in zip(fa.detections, fb.detections):
            assert da == db
            assert np.array_equal(da.embedding, db.embedding)
    assert a.gt == b.gt
    # a different seed changes the scenario
    c = generate(ScenarioSpec(num_identities=4, num_frames=30,
                              embed_noise_sigma=0.1, dropout_prob=0.2,
                              clutter_rate=1.5, seed=10))
    assert any(
        not np.array_equal(da.embedding, dc.embedding)
        for fa, fc in zip(a.frames, c.frames)
        for da, dc in zip(fa.detections, fc.detections)
    )


def test_identity_embeddings_respect_separation():
    spec = ScenarioSpec(num_identities=6, num_frames=1,
                        min_identity_separation=0.8, seed=3)
    bundle = generate(spec)
    embs = [d.embedding for d in bundle.frames[0].detections]
    assert len(embs) == 6
    for i in range(6):
        for j in range(i + 1, 6):
            assert cosine_similarity(embs[i], embs[j]) <= 1.0 - 0.8 + 1e-12


def test_separation_can_be_infeasible():
    # far too many mutually repelled identities for two dimensions
    spec = ScenarioSpec(num_identities=50, num_frames=1, embedding_dim=2,
                        min_identity_separation=1.5, seed=0)
    with pytest.raises(SeparationInfeasibleError):
        generate(spec)


def test_noise_free_embeddings_are_exact_and_constant():
    spec = ScenarioSpec(num_identities=3, num_frames=10, embed_noise_sigma=0.0, seed=1)
    bundle = generate(spec)
    first = bundle.frames[0].detections
    for fi in bundle.frames[1:]:
        for k, det in enumerate(fi.detections):
            assert np.array_equal(det.embedding, first[k].embedding)
            assert abs(float(np.linalg.norm(det.embedding)) - 1.0) < 1e-12


def test_score_dips_apply_to_window():
    spec = ScenarioSpec(num_identities=2, num_frames=20,
                        score_dips=((5, 8, 1, 0.45),), seed=2)
    bundle = generate(spec)
    for fi in bundle.frames:
        scores = [d.score for d in fi.detections]
        if 5 <= fi.frame <= 8:
            assert scores == [0.45, BASE_SCORE]
        else:
            assert scores == [BASE_SCORE, BASE_SCORE]


def test_dropout_window_hides_identity_but_not_gt():
    spec = ScenarioSpec(num_identities=2, num_frames=15,
                        dropout_windows=((6, 9, 2),), seed=4)
    bundle = generate(spec)
    for fi in bundle.frames:
        if 6 <= fi.frame <= 9:
            assert len(fi.detections) == 1
        else:
            assert len(fi.detections) == 2
    assert sum(1 for e in bundle.gt if e.identity == 2) == 15


def test_full_dropout_probability():
    spec = ScenarioSpec(num_identities=3, num_frames=10, dropout_prob=1.0, seed=5)
    bundle = generate(spec)
    assert all(len(fi.detections) == 0 for fi in bundle.frames)
    assert len(bundle.gt) == 30


def test_clutter_scores_sit_in_the_low_band():
    spec = ScenarioSpec(num_identities=1, num_frames=50, clutter_rate=3.0, seed=6)
    bundle = generate(spec)
    clutter_scores = [
        d.score for fi in bundle.frames for d in fi.detections if d.score != BASE_SCORE
    ]
    assert len(clutter_scores) > 50  # Poisson(3) over 50 frames
    assert all(spec.low_thresh <= s < spec.high_thresh for s in clutter_scores)
    # ground truth never contains clutter
    assert len(bundle.gt) == 50


def test_boxes_stay_inside_arena():
    spec = ScenarioSpec(num_identities=5, num_frames=300, arena=(200.0, 120.0), seed=7)
    bundle = generate(spec)
    for e in bundle.gt:
        assert 0.0 <= e.bbox.x <= 200.0 - BOX_SIZE + 1e-9
        assert 0.0 <= e.bbox.y <= 120.0 - BOX_SIZE + 1e-9
        assert e.bbox.w == BOX_SIZE and e.bbox.h == BOX_SIZE


def test_arena_must_leave_room_for_one_step():
    # A narrower arena would need several bounces per step.
    for arena in ((43.99, 100.0), (100.0, 43.99)):
        with pytest.raises(ConfigError, match="at least 44.0px"):
            ScenarioSpec(arena=arena)
    bundle = generate(ScenarioSpec(num_identities=5, num_frames=300, arena=(44.0, 44.0),
                                   seed=7))
    assert len(bundle.gt) == 5 * 300
    for e in bundle.gt:
        assert 0.0 <= e.bbox.x <= MAX_SPEED and 0.0 <= e.bbox.y <= MAX_SPEED


def test_boxes_actually_move():
    spec = ScenarioSpec(num_identities=1, num_frames=5, seed=8)
    bundle = generate(spec)
    xs = {e.bbox.x for e in bundle.gt}
    assert len(xs) > 1


def test_empty_scenario_exports_empty_files(tmp_path):
    spec = ScenarioSpec(num_identities=0, num_frames=0, seed=0)
    bundle = generate(spec)
    assert bundle.frames == () and bundle.gt == ()
    paths = export(bundle, tmp_path)
    for key in ("det", "emb", "gt"):
        assert load_text(paths[key]) == ""


def test_spec_validation():
    with pytest.raises(ConfigError):
        ScenarioSpec(score_dips=((1, 5, 1, 0.9),))  # dip outside the low band
    with pytest.raises(ConfigError):
        ScenarioSpec(score_dips=((1, 5, 3, 0.5),), num_identities=2)
    with pytest.raises(ConfigError, match="dip window 5..1 is empty"):
        ScenarioSpec(score_dips=((5, 1, 1, 0.5),))
    with pytest.raises(ConfigError):
        ScenarioSpec(dropout_windows=((5, 1, 1),))
    for identity in (0, 3):
        with pytest.raises(ConfigError, match=f"dropout identity {identity} out of range"):
            ScenarioSpec(dropout_windows=((1, 5, identity),), num_identities=2)
    # Window fields are whole frames and identities: numpy ints and True pass.
    for dips, windows in ((((1, 2.5, 1, 0.5),), ()), ((), ((1.5, 3, 1),)),
                          ((), ((1, 3, 1.0),))):
        with pytest.raises(ConfigError, match="window fields must be integers"):
            ScenarioSpec(score_dips=dips, dropout_windows=windows)
    ScenarioSpec(score_dips=((True, np.int64(3), np.int32(1), 0.5),),
                 dropout_windows=((np.int64(2), 4, True),))
    # A window of the wrong shape is refused before it is unpacked.
    for dips, windows, message in (
            ((), ((1, 2),), r"dropout window \(1, 2\) must have 3 fields"),
            ((), ((1, 2, 3, 4),), r"dropout window \(1, 2, 3, 4\) must have 3 fields"),
            ((), (1,), "dropout window 1 must have 3 fields"),
            (((1, 2, 1),), (), r"dip window \(1, 2, 1\) must have 4 fields"),
            (((1, 2, 1, 0.5, 0),), (), r"dip window \(1, 2, 1, 0.5, 0\) must have 4 fields")):
        with pytest.raises(ConfigError, match=message):
            ScenarioSpec(score_dips=dips, dropout_windows=windows)
    for separation in (-0.1, 2.1):
        with pytest.raises(ConfigError, match=r"min_identity_separation must be in \[0, 2\]"):
            ScenarioSpec(min_identity_separation=separation)
    with pytest.raises(ConfigError):
        ScenarioSpec(dropout_prob=1.5)
    with pytest.raises(ConfigError):
        ScenarioSpec(arena=(30.0, 100.0))
    with pytest.raises(ConfigError):
        ScenarioSpec(low_thresh=0.9, high_thresh=0.8)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="embed_noise_sigma must be finite"):
            ScenarioSpec(embed_noise_sigma=bad)
        with pytest.raises(ConfigError, match="clutter_rate must be finite"):
            ScenarioSpec(clutter_rate=bad)
        for arena in ((bad, 720.0), (1280.0, bad)):
            with pytest.raises(ConfigError, match="arena sides must be finite"):
                ScenarioSpec(arena=arena)
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        ScenarioSpec(seed=-1)
    # Past these, numpy's Poisson draw raises and a noisy norm overflows.
    with pytest.raises(ConfigError, match="clutter_rate must be"):
        ScenarioSpec(clutter_rate=1e300)
    with pytest.raises(ConfigError, match="embed_noise_sigma must be"):
        ScenarioSpec(embed_noise_sigma=1e300)
    ScenarioSpec(clutter_rate=MAX_CLUTTER_RATE, embed_noise_sigma=MAX_EMBED_NOISE_SIGMA,
                 num_frames=0)
    # Sizes and the seed are integers as operator.index takes them: numpy
    # ints and True pass, a float is refused before generate sees it.
    for name, bad in (("num_frames", 2.5), ("num_identities", 2.5), ("embedding_dim", 2.5),
                      ("seed", 1.5), ("num_frames", "3"), ("seed", None)):
        with pytest.raises(ConfigError, match=f"{name} must be an integer, got {bad!r}"):
            ScenarioSpec(**{name: bad})
    ScenarioSpec(num_frames=np.int64(3), num_identities=np.int32(2), embedding_dim=True,
                 seed=np.uint64(4))
    # The real-valued fields take numbers only: a string or None is refused
    # before a comparison could raise a bare TypeError.
    for name, bad in (("dropout_prob", "x"), ("clutter_rate", None), ("embed_noise_sigma", "0"),
                      ("min_identity_separation", None), ("low_thresh", "0.3"),
                      ("high_thresh", None)):
        with pytest.raises(ConfigError, match=f"{name} must be a real number, got {bad!r}"):
            ScenarioSpec(**{name: bad})
    for arena in (("a", "b"), (1280.0, None)):
        with pytest.raises(ConfigError, match="arena side must be a real number"):
            ScenarioSpec(arena=arena)
    with pytest.raises(ConfigError, match="dipped score must be a real number, got 'x'"):
        ScenarioSpec(score_dips=((1, 5, 1, "x"),))
    ScenarioSpec(dropout_prob=np.float32(0.5), clutter_rate=np.int64(1), arena=(1280, 720),
                 score_dips=((1, 5, 1, np.float64(0.5)),))
    # The arena is a (width, height) pair.
    for arena in ((100.0,), (100.0, 100.0, 100.0), (), 100.0):
        with pytest.raises(ConfigError, match=r"arena must be \(width, height\)"):
            ScenarioSpec(arena=arena)
    # A window list that is no sequence at all is refused too.
    for kind, windows in (("dip", {"score_dips": 5}), ("dropout", {"dropout_windows": 5})):
        with pytest.raises(ConfigError, match=f"{kind} windows must be a sequence of"):
            ScenarioSpec(**windows)
    # The sizes are bounded before generate allocates anything.
    for name, top in (("num_identities", MAX_SAMPLING_ATTEMPTS), ("num_frames", MAX_FRAMES),
                      ("embedding_dim", MAX_EMBEDDING_DIM)):
        ScenarioSpec(**{name: top})
        with pytest.raises(ConfigError, match=rf"{name} must be in \[\d, {top}\]"):
            ScenarioSpec(**{name: top + 1})
    # So are the products that size the bases matrix, the records and their
    # embeddings: each at its bound passes, and one identity more is refused.
    for sizes, top, product in (
            ({"num_identities": 4096, "embedding_dim": 4096, "num_frames": 1}, MAX_BASES_CELLS,
             r"num_identities \* embedding_dim"),
            ({"num_identities": 100, "num_frames": 100_000}, MAX_RECORD_CELLS,
             r"num_frames \* num_identities"),
            ({"num_identities": 1000, "num_frames": 5000, "embedding_dim": 32},
             MAX_EMBEDDING_CELLS, r"num_frames \* num_identities \* embedding_dim")):
        ScenarioSpec(**sizes)
        sizes["num_identities"] += 1
        with pytest.raises(ConfigError, match=rf"{product} must be at most {top}"):
            ScenarioSpec(**sizes)
    # Clutter detections count as identities in the record and embedding
    # products: each at its bound passes, and one more clutter draw per
    # frame is refused, without a frame generated.
    for sizes, top, product in (
            ({"num_identities": 40, "clutter_rate": 60.0, "num_frames": 100_000},
             MAX_RECORD_CELLS, r"num_frames \* num_identities"),
            ({"num_identities": 500, "clutter_rate": 500.0, "num_frames": 5000,
              "embedding_dim": 32}, MAX_EMBEDDING_CELLS,
             r"num_frames \* num_identities \* embedding_dim")):
        ScenarioSpec(**sizes)
        sizes["clutter_rate"] += 1
        with pytest.raises(ConfigError, match=rf"{product} must be at most {top}, "
                                              "counting clutter_rate as identities"):
            ScenarioSpec(**sizes)
    with pytest.raises(ConfigError, match=r"num_frames \* num_identities must be at most"):
        ScenarioSpec(clutter_rate=1e9)


def test_noise_free_bundle_tracks_perfectly():
    from reidmot import Tracker, TrackerConfig, evaluate

    spec = ScenarioSpec(num_identities=3, num_frames=50, embed_noise_sigma=0.0,
                        dropout_prob=0.0, clutter_rate=0.0, seed=7)
    bundle = generate(spec)
    tracker = Tracker(TrackerConfig())
    outs = []
    for fi in bundle.frames:
        outs.extend(tracker.step(fi))
    report = evaluate(list(bundle.gt), outs)
    assert report.idf1 == 1.0
    assert report.idsw == 0


def test_export_reimports_losslessly(tmp_path):
    spec = ScenarioSpec(num_identities=3, num_frames=12, embed_noise_sigma=0.05,
                        clutter_rate=0.5, seed=11)
    bundle = generate(spec)
    paths = export(bundle, tmp_path)

    dets = parse_detections(load_text(paths["det"]))
    flat = [d for fi in bundle.frames for d in fi.detections]
    assert dets == flat  # frames, boxes, scores, classes all exact

    back_gt = parse_gt(load_text(paths["gt"]))
    assert back_gt == sorted(bundle.gt, key=lambda e: (e.frame, e.identity))

    frames = attach_embeddings(dets, parse_embeddings(load_text(paths["emb"])))
    originals = {(fi.frame, k): d.embedding
                 for fi in bundle.frames for k, d in enumerate(fi.detections)}
    for fi in frames:
        for k, d in enumerate(fi.detections):
            sim = cosine_similarity(d.embedding, originals[(fi.frame, k)])
            assert sim > 1.0 - 1e-5


def _sampled(sample, seed):
    """sample(rng) as (bases bytes, None) or (None, error message), and the
    state of rng after it."""
    rng = np.random.Generator(np.random.PCG64(seed))
    try:
        outcome = sample(rng).tobytes(), None
    except SeparationInfeasibleError as exc:
        outcome = None, str(exc)
    return outcome, rng.bit_generator.state


def _check_sampler(seed, dim, count, separation, cap):
    spec = ScenarioSpec(num_identities=count, num_frames=0, embedding_dim=dim,
                        min_identity_separation=separation, seed=seed)
    with mock.patch.object(synth, "MAX_SAMPLING_ATTEMPTS", cap):
        got = _sampled(lambda rng: synth._sample_bases(rng, spec), seed)
    want = _sampled(lambda rng: loop_sample_bases(rng, count, dim, separation, cap), seed)
    assert got == want


# Caps below MAX_SAMPLING_ATTEMPTS keep infeasible examples quick; the
# @example runs one at the full cap.
@settings(derandomize=True, max_examples=100, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 32), count=st.integers(0, 60),
       separation=st.one_of(st.sampled_from([0.0, 0.8, 1.0, 1.2]), st.floats(0.0, 1.2)),
       cap=st.sampled_from([1, 50, 2000]))
@example(seed=0, dim=2, count=5, separation=1.2, cap=MAX_SAMPLING_ATTEMPTS)
def test_sample_bases_equals_the_pairwise_loop(seed, dim, count, separation, cap):
    _check_sampler(seed, dim, count, separation, cap)


@settings(derandomize=True, max_examples=100, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 8), count=st.integers(2, 8),
       offset=st.sampled_from([-1e-3, -1e-13, -1e-16, 0.0, 1e-16, 1e-13, 1e-3]))
def test_sample_bases_equals_the_pairwise_loop_at_the_bound(seed, dim, count, offset):
    # The bound sits at, or just off, the similarity of the first two
    # candidates, so the second one is judged right at it.
    first, second = loop_sample_bases(np.random.Generator(np.random.PCG64(seed)),
                                      2, dim, 0.0, 2)
    separation = 1.0 - (float(np.dot(first, second)) + offset)
    assume(0.0 <= separation <= 2.0)
    _check_sampler(seed, dim, count, separation, 2000)


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 6),
       width=st.floats(BOX_SIZE + MAX_SPEED, 1280.0),
       height=st.floats(BOX_SIZE + MAX_SPEED, 1280.0), steps=st.integers(1, 40))
# The narrowest arenas ScenarioSpec accepts: a box bounces off a wall in
# most steps.
@example(seed=0, count=6, width=BOX_SIZE + MAX_SPEED, height=BOX_SIZE + MAX_SPEED + 0.05,
         steps=40)
def test_reflection_equals_the_per_identity_loop(seed, count, width, height, steps):
    rng = np.random.Generator(np.random.PCG64(seed))
    max_x, max_y = width - BOX_SIZE, height - BOX_SIZE
    pos = rng.uniform((0.0, 0.0), (max_x, max_y), size=(count, 2))
    vel = rng.uniform(-4.0, 4.0, size=(count, 2))
    want = pos, vel
    for _ in range(steps):
        pos, vel = synth._advance(pos, vel, np.array([max_x, max_y]))
        want = loop_reflect(*want, max_x, max_y)
        assert (pos.tobytes(), vel.tobytes()) == (want[0].tobytes(), want[1].tobytes())


@st.composite
def windowed_specs(draw):
    """Specs whose dip and dropout windows overlap, repeat, and start before
    frame 1 or end past the last frame."""
    num_frames, num_identities = draw(st.integers(0, 12)), draw(st.integers(1, 4))
    window = st.tuples(st.integers(-6, 16), st.integers(0, 8), st.integers(1, num_identities))
    dips = draw(st.lists(st.tuples(window, st.sampled_from([0.3, 0.45, 0.6, 0.8])),
                         max_size=6))
    windows = draw(st.lists(window, max_size=6))
    return ScenarioSpec(
        num_identities=num_identities, num_frames=num_frames,
        score_dips=[(start, start + span, identity, score)
                    for (start, span, identity), score in dips + dips[:1]],
        dropout_windows=[(start, start + span, identity)
                         for start, span, identity in windows + windows[:1]])


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(windowed_specs())
@example(ScenarioSpec(num_identities=2, num_frames=10,
                      score_dips=((3, 6, 1, 0.5), (5, 9, 1, 0.4), (-8, -2, 2, 0.6),
                                  (-3, 2, 2, 0.7), (9, 30, 2, 0.35), (3, 6, 1, 0.45)),
                      dropout_windows=((-5, -1, 1), (-1, 1, 2), (4, 5, 1), (4, 5, 1),
                                       (5, 8, 1), (10, 12, 2), (11, 14, 1))))
def test_generate_applies_the_window_scans(spec):
    # With no random dropout or clutter, the windows alone decide each
    # frame's detections.
    spec = dataclasses.replace(spec, dropout_prob=0.0, clutter_rate=0.0)
    bundle = generate(spec)
    boxes = {(e.frame, e.identity): e.bbox for e in bundle.gt}
    assert [fi.frame for fi in bundle.frames] == list(range(1, spec.num_frames + 1))
    for fi in bundle.frames:
        want = [(boxes[fi.frame, i], scan_dipped_score(spec, fi.frame, i))
                for i in range(1, spec.num_identities + 1) if not scan_dropped(spec, fi.frame, i)]
        assert [(d.bbox, d.score) for d in fi.detections] == want


@st.composite
def scenario_specs(draw):
    """Small specs over every path of the draw: no noise, noise and a noise
    that swamps the bases; one dimension; no, some and full random
    dropout; clutter or none; dip and dropout windows; no identities or no
    frames."""
    num_identities, dim = draw(st.integers(0, 4)), draw(st.sampled_from([1, 2, 5, 16, 64]))
    window = st.tuples(st.integers(-2, 8), st.integers(0, 4), st.integers(1, num_identities))
    windows = st.lists(window, max_size=3) if num_identities else st.just([])
    return ScenarioSpec(
        num_identities=num_identities, num_frames=draw(st.integers(0, 8)), embedding_dim=dim,
        embed_noise_sigma=draw(st.sampled_from([0.0, 0.02, 0.3, 1e50])),
        # One dimension has two unit vectors, so three identities need separation 0.
        min_identity_separation=0.0 if dim == 1 else 0.5,
        dropout_prob=draw(st.sampled_from([0.0, 0.3, 1.0])),
        score_dips=[(start, start + span, identity, draw(st.sampled_from([0.3, 0.45, 0.8])))
                    for start, span, identity in draw(windows)],
        dropout_windows=[(start, start + span, identity)
                         for start, span, identity in draw(windows)],
        clutter_rate=draw(st.sampled_from([0.0, 1.5])),
        arena=draw(st.sampled_from([(1280.0, 720.0), (BOX_SIZE + MAX_SPEED, 50.5)])),
        seed=draw(st.integers(0, 2**32 - 1)))


def _synth_argv(spec, out_dir):
    """`reidmot synth` arguments for `spec`, every real as its repr."""
    argv = ["synth", out_dir, "--num-identities", str(spec.num_identities),
            "--num-frames", str(spec.num_frames), "--embedding-dim", str(spec.embedding_dim),
            "--embed-noise-sigma", repr(spec.embed_noise_sigma),
            "--min-separation", repr(spec.min_identity_separation),
            "--dropout-prob", repr(spec.dropout_prob), "--clutter-rate", repr(spec.clutter_rate),
            "--arena-width", repr(spec.arena[0]), "--arena-height", repr(spec.arena[1]),
            "--low-thresh", repr(spec.low_thresh), "--high-thresh", repr(spec.high_thresh),
            "--seed", str(spec.seed)]
    for start, end, identity, score in spec.score_dips:
        argv.append(f"--score-dip={start}:{end}:{identity}:{score!r}")  # = takes "-1:..."
    for start, end, identity in spec.dropout_windows:
        argv.append(f"--dropout-window={start}:{end}:{identity}")
    return argv


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(scenario_specs())
@example(ScenarioSpec(num_identities=0, num_frames=0))
# No noise: the bases are written as sampled, not divided by their norms again.
@example(ScenarioSpec(num_identities=4, num_frames=3, embedding_dim=16,
                      min_identity_separation=0.5, dropout_prob=0.3, clutter_rate=1.5,
                      score_dips=((-1, 1, 2, 0.45),), dropout_windows=((2, 9, 3),), seed=5))
@example(ScenarioSpec(num_identities=0, num_frames=5, clutter_rate=1.5, embedding_dim=1))
@example(ScenarioSpec(num_identities=2, num_frames=6, embedding_dim=1, embed_noise_sigma=1e50,
                      min_identity_separation=0.0, dropout_prob=1.0, clutter_rate=1.5, seed=7))
def test_generate_and_synth_equal_the_reference_generator(spec):
    want = reference_generate(spec)
    got = generate(spec)
    assert (got.name, got.frames, got.gt) == (want.name, want.frames, want.gt)
    for got_frame, want_frame in zip(got.frames, want.frames):
        assert ([d.embedding.tobytes() for d in got_frame.detections]
                == [d.embedding.tobytes() for d in want_frame.detections])
    # `reidmot synth` writes the bytes export writes from the reference
    # records, and says what it wrote.
    with tempfile.TemporaryDirectory() as tmp:
        out, ref = Path(tmp, "out"), Path(tmp, "ref")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            assert cli.main(_synth_argv(spec, str(out))) == 0
        export(want, ref)
        for name in ("det", "emb", "gt"):
            assert (out / f"{name}.txt").read_bytes() == (ref / f"{name}.txt").read_bytes()
    detections = sum(len(fi.detections) for fi in want.frames)
    assert stderr.getvalue().startswith(
        f"generated {spec.num_identities} identities over {spec.num_frames} frames "
        f"(seed {spec.seed}): {detections} detections, {len(want.gt)} gt boxes -> ")


def _bench_run():
    """bench/run.py as a module (its WORKLOADS and parse_scores), without running it."""
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", ["3", "11"])
@pytest.mark.parametrize("workload", ["sparse_long", "dense_crowd"])
def test_synth_writes_the_pinned_bench_inputs(workload, seed, tmp_path, capsys):
    # The benchmark checks these pins too, but only in its own runs.
    bench = _bench_run()
    flags = bench.WORKLOADS[workload]
    pins = json.loads((BENCH / "pins.json").read_text())[workload][seed]
    assert cli.main(["synth", str(tmp_path), *flags["synth"], "--seed", seed]) == 0
    path = {name: tmp_path / f"{name}.txt" for name in ("det", "emb", "gt", "res")}
    for name in ("det", "emb", "gt"):
        assert hashlib.sha256(path[name].read_bytes()).hexdigest() == pins[name], name
    # Tracking and scoring them, as the benchmark does, gives the pinned
    # results bytes and scores.
    track = ["track", str(path["det"]), str(path["emb"]), str(path["res"]), *flags["track"]]
    assert cli.main(track) == 0
    assert hashlib.sha256(path["res"].read_bytes()).hexdigest() == pins["results"]
    capsys.readouterr()
    assert cli.main(["eval", str(path["gt"]), str(path["res"]), "--csv"]) == 0
    scores = bench.parse_scores(capsys.readouterr().out)
    assert scores == {k: pins[k] for k in ("mota", "idf1", "idsw", "fp", "fn")}
