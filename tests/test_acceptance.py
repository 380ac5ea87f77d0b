"""Acceptance suite: nine numbered criteria, one printed verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines inline.
Every criterion states its tolerance next to the assertion; scenario seeds
are frozen so each run is deterministic.
"""

import dataclasses
import time

import numpy as np

from reidmot import (
    BBox,
    Detection,
    FrameInput,
    GtEntry,
    ScenarioSpec,
    Tracker,
    TrackerConfig,
    TrackOutput,
    clear_mot,
    evaluate,
    generate,
    idf1,
    solve_assignment,
)
from reidmot.assign import FORBIDDEN
from reidmot.cli import main
from reidmot.io import (
    load_text,
    nms,
    parse_detections,
    parse_embeddings,
    parse_gt,
    write_detections,
    write_embeddings,
    write_gt,
    write_results,
)
from reidmot.tracker import Track, _refresh_features

from oracles import brute_force_assignment, direct_weighted_feature


def _report(n: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")


def _run_tracker(bundle, **cfg_kw):
    tracker = Tracker(TrackerConfig(**cfg_kw))
    outs = []
    for fi in bundle.frames:
        outs.extend(tracker.step(fi))
    return outs


def test_criterion_1_assignment_optimality():
    """1,000 random cost matrices up to 6x6: exact oracle agreement, < 5 s."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        costs = rng.uniform(0.0, 10.0, (rows, cols))
        costs[rng.random((rows, cols)) < 0.15] = FORBIDDEN
        res = solve_assignment(costs)
        card, total, _ = brute_force_assignment(costs)
        if len(res.matches) != card or res.total_cost != total:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5.0
    _report(1, ok, f"1000 matrices, {mismatches} oracle mismatches, {elapsed:.2f}s")
    assert mismatches == 0
    assert elapsed < 5.0


def test_criterion_2_weighted_feature_equivalence():
    """10,000 random histories: stored feature within 1e-9/coordinate of oracle."""
    rng = np.random.default_rng(202)
    tau, d = 30, 16
    tracks, histories = [], []
    for case in range(10_000):
        length = int(rng.integers(1, tau + 1))
        track = None
        history = []
        for t in range(length):
            emb = rng.normal(size=d)
            emb /= np.linalg.norm(emb)
            score = float(rng.uniform(0.05, 1.0))
            history.append((emb, score))
            det = Detection(frame=t + 1, bbox=BBox(0, 0, 1, 1), score=score,
                            embedding=emb)
            if track is None:
                track = Track(track_id=1, detection=det, frame=t + 1, tau=tau)
            else:
                track._record(det, t + 1)
        tracks.append(track)
        histories.append(history)
    _refresh_features(tracks)
    worst = 0.0
    for track, history in zip(tracks, histories):
        expected = np.array(direct_weighted_feature(history, tau))
        worst = max(worst, float(np.max(np.abs(track.feature - expected))))
    ok = worst <= 1e-9
    _report(2, ok, f"10000 histories, worst coordinate error {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_3_noise_free_perfection():
    """Clean 5-identity scenario: IDF1 = 1.0, MOTA = 1.0, IDSW = 0, < 1 s."""
    spec = ScenarioSpec(num_identities=5, num_frames=200, embedding_dim=16,
                        embed_noise_sigma=0.0, min_identity_separation=0.8,
                        dropout_prob=0.0, clutter_rate=0.0, seed=0)
    start = time.perf_counter()
    bundle = generate(spec)
    outs = _run_tracker(bundle)
    report = evaluate(list(bundle.gt), outs)
    elapsed = time.perf_counter() - start
    ok = (report.idf1 == 1.0 and report.mota == 1.0 and report.idsw == 0
          and elapsed < 1.0)
    _report(3, ok, f"idf1={report.idf1} mota={report.mota} idsw={report.idsw} "
                   f"in {elapsed:.2f}s")
    assert report.idf1 == 1.0
    assert report.mota == 1.0
    assert report.idsw == 0
    assert elapsed < 1.0


def test_criterion_4_low_score_recovery():
    """Score dip to 0.5 for frames 50-80: the low band rescues the identity.

    Defaults must give IDSW = 0 and IDF1 >= 0.99; raising low_thresh to 0.84
    (no low band) must give strictly more FN. All 10 seeds.
    """
    bad = []
    for seed in range(10):
        spec = ScenarioSpec(num_identities=5, num_frames=100, embedding_dim=16,
                            embed_noise_sigma=0.05, min_identity_separation=0.8,
                            score_dips=((50, 80, 1, 0.5),), seed=seed)
        bundle = generate(spec)
        full = evaluate(list(bundle.gt), _run_tracker(bundle))
        nolow = evaluate(list(bundle.gt), _run_tracker(bundle, low_thresh=0.84))
        if not (full.idsw == 0 and full.idf1 >= 0.99 and nolow.fn > full.fn):
            bad.append((seed, full.idsw, full.idf1, full.fn, nolow.fn))
    ok = not bad
    _report(4, ok, "10/10 seeds recovered via low band" if ok
            else f"failing seeds {bad}")
    assert not bad, bad


def test_criterion_5_occlusion_buffering():
    """10-frame full dropout: tau=30 clean on >= 9/10 seeds, never worse in sum.

    Both runs use max_lost_age=30 so survival time is equal; only the feature
    window tau differs. Noise sigma=0.15 makes a single-embedding feature
    unreliable while the tau=30 average stays stable.
    """
    idsw30, idsw1 = [], []
    for seed in range(10):
        spec = ScenarioSpec(num_identities=3, num_frames=120, embedding_dim=16,
                            embed_noise_sigma=0.15, min_identity_separation=0.8,
                            score_dips=((45, 54, 2, 0.5),),
                            dropout_windows=((60, 69, 1),), seed=seed)
        bundle = generate(spec)
        gt = list(bundle.gt)
        idsw30.append(evaluate(gt, _run_tracker(bundle, tau=30, max_lost_age=30)).idsw)
        idsw1.append(evaluate(gt, _run_tracker(bundle, tau=1, max_lost_age=30)).idsw)
    clean = sum(1 for v in idsw30 if v == 0)
    ok = clean >= 9 and sum(idsw30) <= sum(idsw1)
    _report(5, ok, f"tau=30 clean on {clean}/10 seeds, "
                   f"sum IDSW {sum(idsw30)} vs tau=1 {sum(idsw1)}")
    assert clean >= 9, idsw30
    assert sum(idsw30) <= sum(idsw1), (idsw30, idsw1)


def test_criterion_6_translation_invariance():
    """Shifting every box by (+500, +300) leaves ID assignments identical."""
    spec = ScenarioSpec(num_identities=3, num_frames=120, embedding_dim=16,
                        embed_noise_sigma=0.15, min_identity_separation=0.8,
                        score_dips=((45, 54, 2, 0.5),),
                        dropout_windows=((60, 69, 1),), seed=2)
    bundle = generate(spec)
    shifted_frames = [
        FrameInput(fi.frame, tuple(
            dataclasses.replace(d, bbox=d.bbox.shifted(500.0, 300.0))
            for d in fi.detections
        ))
        for fi in bundle.frames
    ]
    outs = _run_tracker(bundle)
    outs_shifted = []
    tracker = Tracker(TrackerConfig())
    for fi in shifted_frames:
        outs_shifted.extend(tracker.step(fi))
    same_ids = (
        [(o.frame, o.track_id, o.score, o.class_id) for o in outs]
        == [(o.frame, o.track_id, o.score, o.class_id) for o in outs_shifted]
    )
    boxes_shifted = all(
        b.bbox == a.bbox.shifted(500.0, 300.0)
        for a, b in zip(outs, outs_shifted)
    )
    ok = same_ids and boxes_shifted and len(outs) > 0
    _report(6, ok, f"{len(outs)} outputs, id sequences identical: {same_ids}")
    assert same_ids
    assert boxes_shifted


def test_criterion_7_metrics_fixtures():
    """Hand-traced fixtures: MOTA 0.75 / IDSW 1, and half-split IDF1 0.5. Exact."""
    box = BBox(0, 0, 10, 10)
    # one identity over 4 frames; the track id flips once at frame 3
    gt4 = [GtEntry(frame=f, identity=1, bbox=box) for f in range(1, 5)]
    pred4 = [TrackOutput(frame=f, track_id=(1 if f <= 2 else 2), bbox=box,
                         score=1.0) for f in range(1, 5)]
    cm = clear_mot(gt4, pred4)
    first = cm.mota == 0.75 and cm.idsw == 1

    # one identity over 10 frames; ids split 5/5, so idtp = 5 of 10
    gt10 = [GtEntry(frame=f, identity=1, bbox=box) for f in range(1, 11)]
    pred10 = [TrackOutput(frame=f, track_id=(1 if f <= 5 else 2), bbox=box,
                          score=1.0) for f in range(1, 11)]
    second = idf1(gt10, pred10) == (0.5, 0.5, 0.5)

    ok = first and second
    _report(7, ok, f"mota={cm.mota} idsw={cm.idsw}, half-split idf1={idf1(gt10, pred10)[0]}")
    assert first
    assert second


def test_criterion_8_roundtrips_and_nms():
    """parse(write(x)) identity for all three formats; NMS properties at scale.

    Detections and gt round-trip exactly (repr floats); results and embeddings
    round-trip within their 6-decimal quantization (similarity drift < 1e-5).
    NMS must be idempotent and output a subset over 10,000 random frames.
    """
    rng = np.random.default_rng(808)

    dets = [
        Detection(frame=int(rng.integers(1, 50)),
                  bbox=BBox(*rng.uniform(0.5, 100, 2), *rng.uniform(0.5, 50, 2)),
                  score=float(rng.uniform(0, 1)), class_id=int(rng.integers(0, 3)))
        for _ in range(300)
    ]
    dets.sort(key=lambda d: d.frame)
    det_ok = parse_detections(write_detections(dets)) == dets

    gts = [GtEntry(frame=f, identity=i,
                   bbox=BBox(*rng.uniform(0.5, 100, 2), *rng.uniform(0.5, 50, 2)))
           for f in range(1, 40) for i in (1, 2, 3)]
    gt_ok = parse_gt(write_gt(gts)) == gts

    outs = [TrackOutput(frame=f, track_id=i,
                        bbox=BBox(*rng.uniform(0.5, 100, 2), *rng.uniform(0.5, 50, 2)),
                        score=float(rng.uniform(0, 1)))
            for f in range(1, 40) for i in (1, 2)]
    back = parse_gt(write_results(outs))
    res_ok = len(back) == len(outs) and all(
        e.frame == o.frame and e.identity == o.track_id
        and abs(e.bbox.x - o.bbox.x) < 5e-7 and abs(e.bbox.w - o.bbox.w) < 5e-7
        for e, o in zip(back, outs)
    )

    frames = []
    for f in range(1, 6):
        ds = []
        for k in range(4):
            emb = rng.normal(size=16)
            ds.append(Detection(frame=f, bbox=BBox(0, 0, 1, 1), score=0.9,
                                embedding=emb / np.linalg.norm(emb)))
        frames.append(FrameInput(f, tuple(ds)))
    parsed = parse_embeddings(write_embeddings(frames))
    emb_ok = all(
        float(parsed[(fi.frame, k)] @ d.embedding) > 1.0 - 1e-5
        for fi in frames for k, d in enumerate(fi.detections)
    )

    violations = 0
    for _ in range(10_000):
        n = int(rng.integers(0, 9))
        frame_dets = [
            Detection(frame=1, bbox=BBox(*rng.uniform(0, 30, 2), *rng.uniform(1, 20, 2)),
                      score=float(rng.uniform(0, 1)), class_id=int(rng.integers(0, 2)))
            for _ in range(n)
        ]
        kept = nms(frame_dets, 0.5)
        if nms(kept, 0.5) != kept or not set(kept) <= set(frame_dets):
            violations += 1
    nms_ok = violations == 0

    ok = det_ok and gt_ok and res_ok and emb_ok and nms_ok
    _report(8, ok, f"det={det_ok} gt={gt_ok} results={res_ok} emb={emb_ok} "
                   f"nms violations={violations}/10000")
    assert det_ok and gt_ok and res_ok and emb_ok
    assert violations == 0


def test_criterion_9_pipeline_determinism(tmp_path, capsys):
    """Two synth -> track -> eval runs with one seed: byte-identical files."""
    reports = []
    trees = []
    for run in ("a", "b"):
        root = tmp_path / run
        scenario = root / "scenario"
        results = root / "results.txt"
        assert main(["synth", str(scenario), "--num-frames", "80",
                     "--embed-noise-sigma", "0.05", "--clutter-rate", "0.5",
                     "--seed", "7"]) == 0
        assert main(["track", str(scenario / "det.txt"), str(scenario / "emb.txt"),
                     str(results)]) == 0
        capsys.readouterr()
        assert main(["eval", str(scenario / "gt.txt"), str(results), "--csv"]) == 0
        reports.append(capsys.readouterr().out)
        trees.append({
            name: (root / path).read_bytes()
            for name, path in (("det", "scenario/det.txt"), ("emb", "scenario/emb.txt"),
                               ("gt", "scenario/gt.txt"), ("results", "results.txt"))
        })
    ok = trees[0] == trees[1] and reports[0] == reports[1]
    sizes = {k: len(v) for k, v in trees[0].items()}
    _report(9, ok, f"bytes identical across runs: {ok} (sizes {sizes})")
    assert trees[0] == trees[1]
    assert reports[0] == reports[1]
