import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reidmot import (
    BBox,
    DuplicateEntryError,
    EmptyGtError,
    GtEntry,
    TrackOutput,
    clear_mot,
    evaluate,
    idf1,
    iou,
    parse_gt,
)
from reidmot.io import _parse_box_table, load_text
import reidmot.core as core
import reidmot.metrics as metrics
from reidmot.metrics import _evaluate_tables
from reidmot.synth import ScenarioSpec, generate

from field_texts import EDGE_PADS, INT_TEXTS, REAL_TEXTS
from oracles import brute_force_assignment, reference_evaluate

DATA = os.path.join(os.path.dirname(__file__), "data")
BOX = BBox(0, 0, 10, 10)


def gt(frame, identity, box=BOX):
    return GtEntry(frame=frame, identity=identity, bbox=box)


def out(frame, tid, box=BOX):
    return TrackOutput(frame=frame, track_id=tid, bbox=box, score=0.9)


def test_perfect_tracking():
    g = [gt(f, 1) for f in range(1, 5)]
    p = [out(f, 7) for f in range(1, 5)]
    rep = evaluate(g, p)
    assert (rep.mota, rep.motp) == (1.0, 0.0)
    assert (rep.fp, rep.fn, rep.idsw) == (0, 0, 0)
    assert rep.idf1 == 1.0 and rep.idp == 1.0 and rep.idr == 1.0
    assert rep.num_gt == 4


def test_single_identity_switch_hand_trace():
    # one identity, four frames; the track id changes after frame 2
    g = [gt(f, 1) for f in range(1, 5)]
    p = [out(1, 1), out(2, 1), out(3, 2), out(4, 2)]
    r = clear_mot(g, p)
    assert (r.fp, r.fn, r.idsw) == (0, 0, 1)
    assert r.mota == pytest.approx(0.75, abs=1e-12)
    assert r.motp == 0.0


def test_half_split_gives_idf1_half():
    g = [gt(f, 1) for f in range(1, 11)]
    p = [out(f, 1) for f in range(1, 6)] + [out(f, 2) for f in range(6, 11)]
    f1, idp, idr = idf1(g, p)
    assert f1 == pytest.approx(0.5, abs=1e-12)
    assert idp == pytest.approx(0.5, abs=1e-12)
    assert idr == pytest.approx(0.5, abs=1e-12)
    # the same split costs exactly one switch under CLEAR
    r = clear_mot(g, p)
    assert r.idsw == 1
    assert r.mota == pytest.approx(0.9, abs=1e-12)


def test_empty_predictions_conventions():
    g = [gt(f, 1) for f in range(1, 4)]
    rep = evaluate(g, [])
    assert rep.mota == 0.0
    assert rep.fn == 3 and rep.fp == 0 and rep.idsw == 0
    assert rep.idf1 == 0.0 and rep.idp == 0.0 and rep.idr == 0.0
    assert rep.motp == 0.0


def test_empty_gt_raises():
    with pytest.raises(EmptyGtError):
        evaluate([], [out(1, 1)])
    with pytest.raises(EmptyGtError):
        clear_mot([], [])
    with pytest.raises(EmptyGtError):
        idf1([], [])


def test_motp_is_mean_matched_distance():
    g = [gt(1, 1), gt(1, 2, BBox(100, 0, 10, 10))]
    p = [out(1, 1), out(1, 2, BBox(100, 0, 10, 5))]  # IoU 1.0 and 0.5
    r = clear_mot(g, p)
    assert r.motp == pytest.approx(0.25, abs=1e-12)
    assert r.mota == 1.0  # both matched at the gate


def test_gate_excludes_weak_overlap():
    g = [gt(1, 1)]
    p = [out(1, 1, BBox(6, 0, 10, 10))]  # IoU = 40/160 = 0.25 < 0.5
    r = clear_mot(g, p)
    assert (r.fp, r.fn, r.idsw) == (1, 1, 0)
    assert r.mota == pytest.approx(-1.0)
    # a looser gate accepts it
    r = clear_mot(g, p, iou_gate=0.2)
    assert (r.fp, r.fn) == (0, 0)


def test_persistent_match_preferred_over_cheaper_newcomer():
    # frame 2 offers a perfect-overlap impostor; the standing pairing
    # (IoU 7/13, still above the gate) must win, so no switch is counted.
    g = [gt(1, 1), gt(2, 1)]
    p = [
        out(1, 1),
        out(2, 1, BBox(3, 0, 10, 10)),
        out(2, 2, BBox(0, 0, 10, 10)),
    ]
    r = clear_mot(g, p)
    assert r.idsw == 0
    assert r.fp == 1  # the impostor goes unmatched


def test_switch_detected_across_gap():
    # identity 1 is matched to track 1, unseen for two frames, then to track 2
    g = [gt(f, 1) for f in (1, 2, 5, 6)]
    p = [out(1, 1), out(2, 1), out(5, 2), out(6, 2)]
    r = clear_mot(g, p)
    assert r.idsw == 1
    assert (r.fp, r.fn) == (0, 0)


def test_idsw_requires_actual_change():
    # track vanishes and the same track id returns: no switch
    g = [gt(f, 1) for f in (1, 2, 3)]
    p = [out(1, 1), out(3, 1)]
    r = clear_mot(g, p)
    assert r.idsw == 0
    assert r.fn == 1


def test_full_report_hand_fixture_from_files():
    g = parse_gt(load_text(os.path.join(DATA, "handcase_gt.txt")))
    pred_rows = parse_gt(load_text(os.path.join(DATA, "handcase_results.txt")))
    p = [TrackOutput(frame=e.frame, track_id=e.identity, bbox=e.bbox,
                     score=1.0, class_id=e.class_id) for e in pred_rows]
    rep = evaluate(g, p)
    assert rep.num_gt == 6
    assert (rep.fp, rep.fn, rep.idsw) == (1, 1, 1)
    assert rep.mota == pytest.approx(0.5, abs=1e-9)
    assert rep.motp == pytest.approx(0.1, abs=1e-9)
    assert rep.idf1 == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert rep.idp == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert rep.idr == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_frame_matching_cardinality_equals_brute_force():
    rng = np.random.default_rng(606)
    for _ in range(200):
        n_g = int(rng.integers(1, 6))
        n_p = int(rng.integers(0, 6))
        gts = [gt(1, k + 1, BBox(float(rng.uniform(0, 15)), float(rng.uniform(0, 15)),
                                 10, 10)) for k in range(n_g)]
        preds = [out(1, k + 1, BBox(float(rng.uniform(0, 15)), float(rng.uniform(0, 15)),
                                    10, 10)) for k in range(n_p)]
        r = clear_mot(gts, preds)
        costs = [[1.0 - iou(g_.bbox, p_.bbox) if iou(g_.bbox, p_.bbox) >= 0.5
                  else float("inf") for p_ in preds] for g_ in gts]
        card, _, _ = brute_force_assignment(costs)
        matched = n_g - r.fn
        assert matched == card
        assert r.fp == n_p - card


def test_idf1_assignment_is_globally_optimal():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n_ids = int(rng.integers(1, 5))
        n_tids = int(rng.integers(1, 5))
        frames = int(rng.integers(1, 7))
        g, p = [], []
        positions = {i: float(rng.uniform(0, 40)) for i in range(1, n_ids + 1)}
        for f in range(1, frames + 1):
            for i in range(1, n_ids + 1):
                g.append(gt(f, i, BBox(positions[i], 0, 10, 10)))
            for t in range(1, n_tids + 1):
                # park each track near a random identity (or nowhere)
                target = int(rng.integers(0, n_ids + 1))
                x = positions.get(target, 500.0) + float(rng.uniform(-2, 2))
                p.append(out(f, t, BBox(x, 0, 10, 10)))
        f1, _, _ = idf1(g, p)
        # brute force the best identity->track overlap assignment
        weights = {}
        p_by_frame = {}
        for o in p:
            p_by_frame.setdefault(o.frame, []).append(o)
        for e in g:
            for o in p_by_frame.get(e.frame, []):
                if iou(e.bbox, o.bbox) >= 0.5:
                    weights[(e.identity, o.track_id)] = weights.get(
                        (e.identity, o.track_id), 0) + 1
        ids = sorted({i for i, _ in weights}) or [1]
        tids = sorted({t for _, t in weights}) or [1]
        wmax = max(weights.values(), default=0)
        costs = [[float(wmax - weights.get((i, t), 0)) for t in tids] for i in ids]
        _, total, _ = brute_force_assignment(costs)
        idtp = wmax * min(len(ids), len(tids)) - total
        want = 2.0 * idtp / (2.0 * idtp + (len(p) - idtp) + (len(g) - idtp))
        assert f1 == pytest.approx(want, abs=1e-9)


def test_injected_switch_count_is_recovered_exactly():
    # perfect boxes from a clean scenario, then three permanent id flips
    from reidmot import ScenarioSpec, generate

    bundle = generate(ScenarioSpec(num_identities=4, num_frames=60, seed=13))
    flips = {(1, 20): 101, (2, 30): 102, (1, 45): 103}  # (identity, frame) -> new id
    current = {i: i for i in range(1, 5)}
    pred = []
    for e in sorted(bundle.gt, key=lambda e: (e.frame, e.identity)):
        if (e.identity, e.frame) in flips:
            current[e.identity] = flips[(e.identity, e.frame)]
        pred.append(TrackOutput(frame=e.frame, track_id=current[e.identity],
                                bbox=e.bbox, score=1.0))
    cm = clear_mot(list(bundle.gt), pred)
    assert cm.idsw == 3
    assert cm.fp == 0 and cm.fn == 0
    assert cm.mota == pytest.approx(1.0 - 3 / 240, abs=1e-12)


def test_evaluation_builds_no_dense_iou_matrix(monkeypatch):
    # evaluate's one walk (`_evaluate_tables`) takes the gt x pred overlaps
    # as pairs from one sweep over all frames: it never calls iou_columns,
    # and each fresh solve's matrix spans only its frame's free rows x free
    # cols, not the frame's gt x pred.
    frames = 40
    g = [gt(f, i, BBox(20 * i, f, 10, 10)) for f in range(1, frames + 1) for i in (1, 2, 3)]
    p = [out(f, i + 10 * (f > 20), BBox(20 * i + 1, f, 10, 10))
         for f in range(1, frames + 1) for i in (1, 2, 3)]

    def refused(a, b):
        raise AssertionError("evaluation built a dense IoU matrix")

    monkeypatch.setattr(core, "iou_columns", refused)
    monkeypatch.setattr(metrics, "iou_columns", refused, raising=False)
    solved = []
    match = metrics._match

    def recorded(costs, allowed):
        solved.append(costs.shape)
        return match(costs, allowed)

    monkeypatch.setattr(metrics, "_match", recorded)
    report = evaluate(g, p)
    assert solved == [(3, 3), (3, 3)]  # frame 1, and frame 21 where every track id changes
    assert (report.idsw, report.fp, report.fn) == (3, 0, 0)
    # Only identity 2 changes track at frame 21: its row and column alone are free.
    solved.clear()
    p = [out(f, i + 10 * (f > 20 and i == 2), BBox(20 * i + 1, f, 10, 10))
         for f in range(1, frames + 1) for i in (1, 2, 3)]
    report = evaluate(g, p)
    assert solved == [(3, 3), (1, 1)]
    assert (report.idsw, report.fp, report.fn) == (1, 0, 0)


def test_overlap_candidates_stay_a_small_share_of_the_dense_cells(monkeypatch):
    # Counted, not timed: on a seeded 250-identity crowd, the sweep's
    # candidate pairs (the sum of its window widths) stay under 10% of the
    # gt x pred cells, so a silent fall back to dense work fails here.
    bundle = generate(ScenarioSpec(num_identities=250, num_frames=3, embedding_dim=4,
                                   min_identity_separation=0.0, embed_noise_sigma=0.05,
                                   clutter_rate=5, seed=3))
    g = list(bundle.gt)
    p = [out(fi.frame, k, d.bbox) for fi in bundle.frames for k, d in enumerate(fi.detections)]
    widths = []
    windows = core._overlap_windows

    def counted(seg_a, a, seg_b, b):
        order, lo, hi = windows(seg_a, a, seg_b, b)
        widths.append(int(np.maximum(hi - lo, 0).sum()))
        return order, lo, hi

    monkeypatch.setattr(core, "_overlap_windows", counted)
    evaluate(g, p)
    cells = sum(sum(e.frame == fi.frame for e in g) * len(fi.detections) for fi in bundle.frames)
    assert cells > 3 * 250 * 250 and len(widths) == 1
    assert widths[0] < 0.1 * cells


def test_a_pair_below_the_gate_never_matches():
    # 1 - iou_gate rounds to 1.0 for a gate below about 1.1e-16; gated on
    # 1 - IoU, the frame-1 pair of IoU 0 was a match, and its track's change
    # at frame 2 a switch. The gate admits iou >= iou_gate only.
    g = [gt(1, 1), gt(2, 1)]
    p = [out(1, 7, BBox(100, 100, 10, 10)), out(2, 8)]
    for gate in (1e-17, 5e-324, 1e-9):
        rep = evaluate(g, p, gate)
        assert (rep.fp, rep.fn, rep.idsw, rep.motp) == (1, 1, 0, 0.0)
        assert dataclasses.asdict(rep) == reference_evaluate(g, p, gate)


def test_iou_gate_validation():
    g = [gt(1, 1)]
    with pytest.raises(ValueError):
        clear_mot(g, [], iou_gate=0.0)
    with pytest.raises(ValueError):
        idf1(g, [], iou_gate=1.5)


def test_repeated_frame_and_id_raises():
    b = BBox(0, 0, 10, 10)
    g = [GtEntry(1, 1, b), GtEntry(2, 1, b)]
    # unchecked, the stray box is neither a match nor an FP: MOTA 1.0, FP 0
    p = [TrackOutput(1, 7, b, 1.0), TrackOutput(2, 7, BBox(50, 50, 10, 10), 1.0),
         TrackOutput(2, 7, b, 1.0)]
    for fn in (evaluate, clear_mot, idf1):
        with pytest.raises(DuplicateEntryError, match="frame 2, track id 7"):
            fn(g, p)
        with pytest.raises(DuplicateEntryError, match="frame 2, identity 1"):
            fn(g + [GtEntry(2, 1, BBox(50, 50, 10, 10))], p[:2])


@st.composite
def sequences(draw):
    """gt and pred over 1-4 frames, at most 5 boxes a side per frame.

    Boxes sit on a small grid so IoUs tie, repeat and land on the gate;
    predictions copy, shift or miss the frame's gt boxes, and their track
    ids are redrawn every frame so pairings persist, switch and break.
    """
    grid = st.integers(0, 8).map(float)
    box = st.builds(BBox, grid, grid, st.sampled_from([2.0, 3.0, 4.0]),
                    st.sampled_from([2.0, 3.0, 4.0]))
    gt, pred = [], []
    for frame in range(1, draw(st.integers(1, 4)) + 1):
        ids = draw(st.lists(st.integers(1, 4), unique=True, max_size=5))
        gts = [GtEntry(frame, i, draw(box)) for i in ids]
        gt += gts
        tids = draw(st.lists(st.integers(1, 5), unique=True, max_size=5))
        for t in tids:
            if gts and not draw(st.booleans()):
                b = draw(st.sampled_from(gts)).bbox
                b = b.shifted(draw(st.sampled_from([0, 0, 1])), draw(st.sampled_from([0, 1])))
            else:
                b = draw(box)
            pred.append(TrackOutput(frame, t, b, 1.0))
    if not gt:
        gt = [GtEntry(1, 1, draw(box))]
    if draw(st.integers(0, 5)) == 5:
        pred = []
    return gt, pred


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(sequences(), st.one_of(st.sampled_from([1.0, 0.5, 1 / 3, 1 / 7, 1e-9]),
                              st.floats(0.0, 1.0, exclude_min=True)))
def test_evaluate_equals_pairwise_reference(seq, gate):
    g, p = seq
    want = reference_evaluate(g, p, gate)
    assert dataclasses.asdict(evaluate(g, p, gate)) == want  # MOTP to the bit
    cm = clear_mot(g, p, gate)
    assert (cm.mota, cm.motp, cm.fp, cm.fn, cm.idsw) == tuple(
        want[k] for k in ("mota", "motp", "fp", "fn", "idsw"))
    assert idf1(g, p, gate) == (want["idf1"], want["idp"], want["idr"])


def test_frames_and_ids_past_int64():
    big = 2**70
    g = [gt(big, big), gt(big + 1, big), gt(big + 1, 1, BBox(50, 0, 10, 10))]
    p = [out(big, 2**64), out(big + 1, 2**64), out(big + 1, -big, BBox(50, 0, 10, 10))]
    rep = evaluate(g, p)
    assert (rep.mota, rep.motp, rep.idf1, rep.idsw) == (1.0, 0.0, 1.0, 0)


# (column, text) of a number parse_gt reads but its record types reject.
OUT_OF_RANGE = [(0, "0"), (0, "-1"), (1, "0"), (1, "-2"), (4, "0"), (4, "-2"),
                (5, "-0.0"), (5, "1e-400"), (7, "-1")]


@st.composite
def box_files(draw):
    """gt/results texts: rows like "1,2,0,1,3,3,1,0,1" on a small grid, some
    mutated, with repeated keys, ragged rows, comment and blank lines, LF or
    CRLF endings, and empty files."""
    keys = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), unique=True,
                         min_size=draw(st.sampled_from([0, 1, 1, 1])), max_size=8))
    grid, side = st.integers(0, 3), st.sampled_from([2, 3, 4.5])
    rows = [",".join(map(str, [f, i, draw(grid), draw(grid), draw(side), draw(side), 1,
                               draw(st.integers(0, 1)), draw(st.sampled_from([1, -1]))]))
            for f, i in keys]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3])) if rows else 0):
        at = draw(st.integers(0, len(rows) - 1))
        fields = rows[at].split(",")
        kind = draw(st.sampled_from(["field", "field", "range", "range", "repeat", "short", "long",
                                     "pad"]))
        if kind == "pad":  # edge whitespace of the whole line
            lead, trail = draw(st.sampled_from(EDGE_PADS))
            fields[0], fields[-1] = lead + fields[0], fields[-1] + trail
        elif kind == "field":
            col = draw(st.integers(0, len(fields) - 1))
            fields[col] = draw(st.sampled_from(INT_TEXTS if col in (0, 1, 7) else REAL_TEXTS))
        elif kind == "range":
            col, text = draw(st.sampled_from(OUT_OF_RANGE))
            fields[col] = text
        elif kind == "repeat":
            fields[:2] = draw(st.sampled_from(rows)).split(",")[:2]
        else:
            fields = fields[:-1] if kind == "short" else fields + ["1"]
        rows[at] = ",".join(fields)
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))),
                    draw(st.sampled_from(["", "# frame,id,x,y,w,h,score,class,flag", "  #1", "\t"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(rows) + draw(st.sampled_from(["", newline]))


def _outcome(run):
    try:
        return repr(run())  # float reprs: equal strings are equal bits
    except Exception as exc:
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=500, database=None, deadline=None)
@given(box_files(), box_files(), st.sampled_from([0.5, 1 / 3, 1.0, 1e-9, 0.0]))
def test_table_path_equals_the_record_path(gt_text, res_text, gate):
    def records():
        g, r = parse_gt(gt_text), parse_gt(res_text)
        return evaluate(g, [TrackOutput(e.frame, e.identity, e.bbox, 1.0, e.class_id)
                            for e in r], gate)

    def tables():
        return _evaluate_tables(_parse_box_table(gt_text), _parse_box_table(res_text), gate)

    assert _outcome(tables) == _outcome(records)
