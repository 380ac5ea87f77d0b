"""Tracking evaluation: CLEAR-MOT counts plus identity-level IDF1.

Frame-level matching follows the CLEAR protocol: a ground-truth identity keeps
the predicted track it was last paired with as long as their boxes still
overlap at the gate, and only the leftovers go through a fresh Hungarian match
on 1 - IoU. MOTP here is the mean matched *distance* (1 - IoU), so 0.0 is
perfect and lower is better.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .assign import gate_costs, solve_assignment
from .core import group_by_frame, iou
from .errors import ConfigError, EmptyGtError


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


def _check_inputs(gt, iou_gate: float):
    if not (0.0 < iou_gate <= 1.0):
        raise ConfigError(f"iou_gate must be in (0, 1], got {iou_gate}")
    if not gt:
        raise EmptyGtError("ground truth is empty")


def clear_mot(gt, pred, iou_gate: float = 0.5) -> ClearMotResult:
    """CLEAR-MOT counts for one sequence.

    gt is a list of GtEntry, pred a list of TrackOutput. An identity switch is
    counted whenever a matched ground-truth identity is paired with a track id
    different from the one of its most recent earlier pairing.
    """
    _check_inputs(gt, iou_gate)
    num_gt = len(gt)

    gt_frames = group_by_frame(gt)
    pred_frames = group_by_frame(pred)
    all_frames = sorted(set(gt_frames) | set(pred_frames))

    last_pairing: dict[int, int] = {}  # gt identity -> track id of last match
    fp = fn = idsw = 0
    dist_sum = 0.0
    n_matches = 0

    for frame in all_frames:
        gts = gt_frames.get(frame, [])
        preds = pred_frames.get(frame, [])
        preds_by_id = {p.track_id: p for p in preds}

        pairs = []  # (gt entry, pred output)
        free_gts = []
        taken_tids = set()
        # Keep last-known pairings that still hold up at the gate.
        for g in sorted(gts, key=lambda e: e.identity):
            tid = last_pairing.get(g.identity)
            if tid is not None and tid in preds_by_id and tid not in taken_tids \
                    and iou(g.bbox, preds_by_id[tid].bbox) >= iou_gate:
                pairs.append((g, preds_by_id[tid]))
                taken_tids.add(tid)
            else:
                free_gts.append(g)
        free_preds = [p for p in preds if p.track_id not in taken_tids]

        # Fresh Hungarian match on whatever is left.
        if free_gts and free_preds:
            costs = np.array(
                [[1.0 - iou(g.bbox, p.bbox) for p in free_preds] for g in free_gts]
            )
            res = solve_assignment(gate_costs(costs, 1.0 - iou_gate))
            for gi, pj in res.matches:
                pairs.append((free_gts[gi], free_preds[pj]))
            fn += len(res.unmatched_rows)
            fp += len(res.unmatched_cols)
        else:
            fn += len(free_gts)
            fp += len(free_preds)

        for g, p in pairs:
            prev = last_pairing.get(g.identity)
            if prev is not None and prev != p.track_id:
                idsw += 1
            last_pairing[g.identity] = p.track_id
            dist_sum += 1.0 - iou(g.bbox, p.bbox)
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
    _check_inputs(gt, iou_gate)
    total_gt = len(gt)
    total_pred = len(pred)

    overlap = Counter()
    pred_frames = group_by_frame(pred)
    for frame, gts in group_by_frame(gt).items():
        for g in gts:
            for p in pred_frames.get(frame, []):
                if iou(g.bbox, p.bbox) >= iou_gate:
                    overlap[(g.identity, p.track_id)] += 1

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
    """Full report: CLEAR-MOT counts plus IDF1 at the same gate."""
    cm = clear_mot(gt, pred, iou_gate)
    f1, idp, idr = idf1(gt, pred, iou_gate)
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
