"""Tracking evaluation: CLEAR-MOT counts plus identity-level IDF1.

Frame-level matching follows the CLEAR protocol: a ground-truth identity keeps
the predicted track it was last paired with as long as their boxes still
overlap at the gate, and only the leftovers go through a fresh Hungarian match
on 1 - IoU. MOTP here is the mean matched *distance* (1 - IoU), so 0.0 is
perfect and lower is better. Each frame's gt x pred IoU matrix is built once
(`core.iou_matrix`); `evaluate` shares it between CLEAR-MOT and IDF1.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .assign import gate_costs, solve_assignment
# Nothing here calls `iou`; it is imported so that callers which patch
# `metrics.iou`, such as the benchmark's call counter, still find it.
from .core import group_by_frame, iou, iou_matrix  # noqa: F401
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


def _check_inputs(gt, pred, iou_gate: float):
    if not (0.0 < iou_gate <= 1.0):
        raise ConfigError(f"iou_gate must be in (0, 1], got {iou_gate}")
    if not gt:
        raise EmptyGtError("ground truth is empty")
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


def _frame_ious(gt, pred):
    """Yield (gts, preds, ious) for every frame either side has, ascending.

    gts are sorted by identity, preds keep their input order, and ious is
    their (len(gts), len(preds)) IoU matrix.
    """
    gt_frames = group_by_frame(gt)
    pred_frames = group_by_frame(pred)
    for frame in sorted(set(gt_frames) | set(pred_frames)):
        gts = sorted(gt_frames.get(frame, []), key=lambda e: e.identity)
        preds = pred_frames.get(frame, [])
        yield gts, preds, iou_matrix([g.bbox for g in gts], [p.bbox for p in preds])


def clear_mot(gt, pred, iou_gate: float = 0.5) -> ClearMotResult:
    """CLEAR-MOT counts for one sequence.

    gt is a list of GtEntry, pred a list of TrackOutput; a (frame, identity)
    or (frame, track id) that repeats raises DuplicateEntryError. An identity
    switch is counted whenever a matched ground-truth identity is paired with
    a track id different from the one of its most recent earlier pairing.
    """
    _check_inputs(gt, pred, iou_gate)
    return _clear_mot(_frame_ious(gt, pred), len(gt), iou_gate)


def _clear_mot(frames, num_gt: int, iou_gate: float) -> ClearMotResult:
    last_pairing: dict[int, int] = {}  # gt identity -> track id of last match
    fp = fn = idsw = 0
    dist_sum = 0.0
    n_matches = 0

    for gts, preds, ious in frames:
        col_of = {p.track_id: j for j, p in enumerate(preds)}
        pairs = []  # (gt row, pred column)
        free_rows = []
        taken = set()
        # Keep last-known pairings that still hold up at the gate.
        for i, g in enumerate(gts):
            j = col_of.get(last_pairing.get(g.identity))
            if j is not None and j not in taken and ious[i, j] >= iou_gate:
                pairs.append((i, j))
                taken.add(j)
            else:
                free_rows.append(i)
        free_cols = [j for j in range(len(preds)) if j not in taken]

        # Fresh Hungarian match on whatever is left.
        if free_rows and free_cols:
            costs = 1.0 - ious[free_rows][:, free_cols]
            res = solve_assignment(gate_costs(costs, 1.0 - iou_gate))
            pairs += [(free_rows[r], free_cols[c]) for r, c in res.matches]
            fn += len(res.unmatched_rows)
            fp += len(res.unmatched_cols)
        else:
            fn += len(free_rows)
            fp += len(free_cols)

        for i, j in pairs:
            identity, tid = gts[i].identity, preds[j].track_id
            prev = last_pairing.get(identity)
            if prev is not None and prev != tid:
                idsw += 1
            last_pairing[identity] = tid
            dist_sum += 1.0 - float(ious[i, j])
            n_matches += 1

    motp = dist_sum / n_matches if n_matches else 0.0
    mota = 1.0 - (fp + fn + idsw) / num_gt
    return ClearMotResult(mota=mota, motp=motp, fp=fp, fn=fn, idsw=idsw, num_gt=num_gt)


def idf1(gt, pred, iou_gate: float = 0.5) -> tuple[float, float, float]:
    """(idf1, idp, idr) under a single global identity-to-track assignment.

    Edge weight between a ground-truth identity and a track id is the number
    of frames in which both appear with box IoU >= iou_gate; the assignment
    maximizes total overlap. Conventions: empty predictions give idp = 0.
    """
    _check_inputs(gt, pred, iou_gate)
    return _idf1(_frame_ious(gt, pred), len(gt), len(pred), iou_gate)


def _idf1(frames, total_gt: int, total_pred: int, iou_gate: float):
    overlap = Counter()
    for gts, preds, ious in frames:
        for i, j in zip(*np.nonzero(ious >= iou_gate)):
            overlap[(gts[i].identity, preds[j].track_id)] += 1

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

    idfp = total_pred - idtp
    idfn = total_gt - idtp
    f1 = 2.0 * idtp / (2.0 * idtp + idfp + idfn) if (idtp or idfp or idfn) else 0.0
    idp = idtp / total_pred if total_pred else 0.0
    idr = idtp / total_gt
    return f1, idp, idr


def evaluate(gt, pred, iou_gate: float = 0.5) -> EvalReport:
    """Full report: CLEAR-MOT counts plus IDF1 at the same gate.

    Each frame's IoU matrix is built once and read by both.
    """
    _check_inputs(gt, pred, iou_gate)
    frames = list(_frame_ious(gt, pred))
    cm = _clear_mot(frames, len(gt), iou_gate)
    f1, idp, idr = _idf1(frames, len(gt), len(pred), iou_gate)
    return EvalReport(
        mota=cm.mota,
        motp=cm.motp,
        fp=cm.fp,
        fn=cm.fn,
        idsw=cm.idsw,
        idf1=f1,
        idp=idp,
        idr=idr,
        num_gt=cm.num_gt,
    )
