"""Tracking evaluation: CLEAR-MOT counts plus identity-level IDF1.

Frame-level matching follows the CLEAR protocol: a ground-truth identity keeps
the predicted track it was last paired with as long as their boxes still
overlap at the gate, and only the leftovers go through a fresh Hungarian match
on 1 - IoU. MOTP here is the mean matched *distance* (1 - IoU), so 0.0 is
perfect and lower is better.

Every gate rule is `IoU >= iou_gate`: the persistence check, the fresh
match (which admits exactly those pairs, at cost 1 - IoU) and the IDF1
overlap counter.

One core scores two BoxTables (`core`) with no gt x pred IoU matrix. One
sweep over all frames (`core._overlap_pairs`) gives every same-frame
gt x pred pair with IoU above 0; the IDF1 overlap counter is one mask over
those pairs, and the walk over the frames reads them for the persistence
check, MOTP, and each fresh solve, whose matrix spans only that frame's
free rows x free cols. The identity-to-track assignment of IDF1 runs once,
after the walk. `evaluate` checks its records and turns them into tables,
gt sorted by (frame, identity) and predictions stably by frame, so input
order is kept within a frame; `clear_mot` and `idf1` return their fields of
`evaluate`.
`reidmot eval` reads its two files straight into tables (`io`) and calls the
same core.
"""

from collections import Counter
from dataclasses import dataclass, fields

import numpy as np
from scipy.optimize import linear_sum_assignment

from .assign import FORBIDDEN, gate_costs, solve_assignment
# Nothing here calls `iou`; it is imported so that callers which patch
# `metrics.iou`, such as the benchmark's call counter, still find it.
from .core import BoxTable, _frame_codes, _frame_rows, _overlap_pairs, iou  # noqa: F401
from .errors import ConfigError, DuplicateEntryError, EmptyGtError


@dataclass(frozen=True)
class ClearMotResult:
    mota: float
    motp: float
    fp: int
    fn: int
    idsw: int
    num_gt: int


@dataclass(frozen=True)
class EvalReport:
    """Everything the evaluator produces for one sequence."""

    mota: float
    motp: float
    fp: int
    fn: int
    idsw: int
    idf1: float
    idp: float
    idr: float
    num_gt: int


def _check_gate(iou_gate: float, num_gt: int):
    if not (0.0 < iou_gate <= 1.0):
        raise ConfigError(f"iou_gate must be in (0, 1], got {iou_gate}")
    if not num_gt:
        raise EmptyGtError("ground truth is empty")


def _check_inputs(gt, pred, iou_gate: float):
    _check_gate(iou_gate, len(gt))
    _check_unique(((e.frame, e.identity) for e in gt), "ground truth", "identity")
    _check_unique(((o.frame, o.track_id) for o in pred), "predictions", "track id")


def _check_unique(keys, what: str, id_name: str):
    """Raise DuplicateEntryError for the first (frame, id) that repeats."""
    seen = set()
    for key in keys:
        if key in seen:
            raise DuplicateEntryError(
                f"{what}: duplicate entry for frame {key[0]}, {id_name} {key[1]}"
            )
        seen.add(key)


def _tables(gt, pred) -> tuple[BoxTable, BoxTable]:
    """Checked records as tables: gt by (frame, identity), pred stably by frame."""
    gt = sorted(gt, key=lambda e: (e.frame, e.identity))
    pred = sorted(pred, key=lambda o: o.frame)
    return (BoxTable.from_records(gt, [e.identity for e in gt]),
            BoxTable.from_records(pred, [o.track_id for o in pred]))


def clear_mot(gt, pred, iou_gate: float = 0.5) -> ClearMotResult:
    """The CLEAR-MOT fields of `evaluate(gt, pred, iou_gate)`.

    gt is a list of GtEntry, pred a list of TrackOutput; a (frame, identity)
    or (frame, track id) that repeats raises DuplicateEntryError. An identity
    switch is counted whenever a matched ground-truth identity is paired with
    a track id different from the one of its most recent earlier pairing.
    """
    report = evaluate(gt, pred, iou_gate)
    return ClearMotResult(**{f.name: getattr(report, f.name) for f in fields(ClearMotResult)})


def idf1(gt, pred, iou_gate: float = 0.5) -> tuple[float, float, float]:
    """(idf1, idp, idr) of `evaluate(gt, pred, iou_gate)`.

    They come from a single global identity-to-track assignment. Edge weight
    between a ground-truth identity and a track id is the number of frames in
    which both appear with box IoU >= iou_gate; the assignment maximizes total
    overlap. Conventions: empty predictions give idp = 0.
    """
    report = evaluate(gt, pred, iou_gate)
    return report.idf1, report.idp, report.idr


def evaluate(gt, pred, iou_gate: float = 0.5) -> EvalReport:
    """Full report: CLEAR-MOT counts plus IDF1 at the same gate.

    The overlapping pairs are found once and read by both.
    """
    _check_inputs(gt, pred, iou_gate)
    return _evaluate_tables(*_tables(gt, pred), iou_gate)


def _evaluate_tables(gt: BoxTable, pred: BoxTable, iou_gate: float) -> EvalReport:
    """evaluate on two tables whose (frame, id) keys do not repeat.

    Rows of a frame must be adjacent; within a frame, gt rows are in
    identity order and pred rows in the order matching should see them.
    """
    _check_gate(iou_gate, len(gt))
    gt_rows, pred_rows = _frame_rows(gt.frame), _frame_rows(pred.frame)
    frames = sorted(gt_rows.keys() | pred_rows.keys())
    # Every same-frame gt x pred pair with IoU above 0, in order of gt row,
    # from one sweep over all frames (coded 0, 1, ... in frame order).
    code = {frame: k for k, frame in enumerate(frames)}
    pi, pj, piou = _overlap_pairs(_frame_codes(gt_rows, code, len(gt)), gt.boxes,
                                  _frame_codes(pred_rows, code, len(pred)), pred.boxes)
    gt_ids, pred_ids = gt.ids.tolist(), pred.ids.tolist()
    at_gate = piou >= iou_gate
    # (gt identity, track id) -> frames they overlap at the gate
    overlap = Counter(zip(gt.ids[pi[at_gate]].tolist(), pred.ids[pj[at_gate]].tolist()))
    last_pairing: dict[int, int] = {}  # gt identity -> track id of last match
    fp = fn = idsw = 0
    dist_sum = 0.0
    n_matches = 0

    no_rows = slice(0, 0)
    for frame in frames:
        g, p = gt_rows.get(frame, no_rows), pred_rows.get(frame, no_rows)
        lo, hi = np.searchsorted(pi, (g.start, g.stop)).tolist()
        fi, fj, fiou = pi[lo:hi], pj[lo:hi], piou[lo:hi]
        iou_of = dict(zip(zip(fi.tolist(), fj.tolist()), fiou.tolist()))
        col_of = {pred_ids[j]: j for j in range(p.start, p.stop)}
        pairs = []  # (gt row, pred row, 1 - IoU)
        free_rows = []
        taken = set()
        # Keep last-known pairings that still hold up at the gate.
        for i in range(g.start, g.stop):
            j = col_of.get(last_pairing.get(gt_ids[i]))
            kept = iou_of.get((i, j), 0.0)  # 0.0 when j is None
            if j not in taken and kept >= iou_gate:
                pairs.append((i, j, 1.0 - kept))
                taken.add(j)
            else:
                free_rows.append(i)
        free_cols = [j for j in range(p.start, p.stop) if j not in taken]

        # Fresh Hungarian match on whatever is left, admitting the pairs at the gate.
        if free_rows and free_cols:
            row_at = np.full(g.stop - g.start, -1)
            row_at[np.array(free_rows) - g.start] = np.arange(len(free_rows))
            col_at = np.full(p.stop - p.start, -1)
            col_at[np.array(free_cols) - p.start] = np.arange(len(free_cols))
            admit = fiou >= iou_gate
            r, c = row_at[fi[admit] - g.start], col_at[fj[admit] - p.start]
            free = (r >= 0) & (c >= 0)
            costs = np.full((len(free_rows), len(free_cols)), FORBIDDEN)
            costs[r[free], c[free]] = 1.0 - fiou[admit][free]
            res = solve_assignment(gate_costs(costs, 1.0 - iou_gate))
            pairs += [(free_rows[a], free_cols[b], float(costs[a, b])) for a, b in res.matches]
            fn += len(res.unmatched_rows)
            fp += len(res.unmatched_cols)
        else:
            fn += len(free_rows)
            fp += len(free_cols)

        for i, j, dist in pairs:
            identity, tid = gt_ids[i], pred_ids[j]
            prev = last_pairing.get(identity)
            if prev is not None and prev != tid:
                idsw += 1
            last_pairing[identity] = tid
            dist_sum += dist
            n_matches += 1

    # IDF1: the identity-to-track assignment of most total overlap.
    idtp = 0
    if overlap:
        identities = sorted({i for i, _ in overlap})
        tids = sorted({t for _, t in overlap})
        irow = {i: k for k, i in enumerate(identities)}
        tcol = {t: k for k, t in enumerate(tids)}
        weights = np.zeros((len(identities), len(tids)))
        for (i, t), w in overlap.items():
            weights[irow[i], tcol[t]] = w
        r, c = linear_sum_assignment(weights, maximize=True)
        idtp = int(weights[r, c].sum())

    num_gt, num_pred = len(gt), len(pred)
    idfp, idfn = num_pred - idtp, num_gt - idtp
    return EvalReport(
        mota=1.0 - (fp + fn + idsw) / num_gt,
        motp=dist_sum / n_matches if n_matches else 0.0,
        fp=fp,
        fn=fn,
        idsw=idsw,
        idf1=2.0 * idtp / (2.0 * idtp + idfp + idfn) if (idtp or idfp or idfn) else 0.0,
        idp=idtp / num_pred if num_pred else 0.0,
        idr=idtp / num_gt,
        num_gt=num_gt,
    )
