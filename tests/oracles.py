"""Independent reference implementations used only by the tests.

These deliberately share no code with the package: the assignment oracle is
an exhaustive permutation search, the feature oracle is a plain-Python
re-derivation with fsum accumulation, the tracker oracle is a per-track loop
over those two, and the box-overlap oracles (IoU, CLEAR-MOT, IDF1, NMS) are
the one-pair-at-a-time forms the package used before it built IoU matrices.
If the fast paths drift, these catch it.
"""

import itertools
import math

from scipy.optimize import linear_sum_assignment


def brute_force_assignment(costs):
    """Exhaustive maximum-cardinality minimum-cost matching.

    costs: list of row lists; float('inf') marks a forbidden pairing.
    Returns (cardinality, total_cost, pairs): pairs is the lexicographically
    smallest row-sorted pair list among the optima, whose totals are compared
    exactly with math.fsum, and total_cost is its sum accumulated in
    ascending row order. Only sensible up to ~7x7.
    """
    rows = len(costs)
    cols = len(costs[0]) if rows else 0
    best = None
    for perm in itertools.permutations(range(max(rows, cols))):
        pairs = [
            (i, perm[i]) for i in range(rows)
            if perm[i] < cols and math.isfinite(costs[i][perm[i]])
        ]
        key = (-len(pairs), math.fsum(costs[i][j] for i, j in pairs), pairs)
        if best is None or key < best:
            best = key
    pairs = best[2]
    total = 0.0
    for i, j in pairs:
        total += costs[i][j]
    return len(pairs), total, pairs


def direct_weighted_feature(history, tau):
    """Straight re-derivation of the score-weighted history feature.

    history: sequence of (embedding, score) pairs, oldest first; embeddings
    may be any indexable of floats. Uses only the most recent min(len, tau)
    entries: sum of score-scaled embeddings over the sum of scores, then
    scaled to unit length. Returns a plain list of floats.
    """
    recent = list(history)[-tau:]
    if not recent:
        raise ValueError("empty history")
    dim = len(recent[0][0])
    denom = math.fsum(float(s) for _, s in recent)
    mean = [
        math.fsum(float(e[k]) * float(s) for e, s in recent) / denom
        for k in range(dim)
    ]
    norm = math.sqrt(math.fsum(v * v for v in mean))
    return [v / norm for v in mean]


def _stage_costs(tracks, dets, gate, per_class):
    """1 - cos(feature, embedding) per (track, det), inf past the gate or class."""
    rows = []
    for t in tracks:
        row = []
        for d in dets:
            sim = math.fsum(float(a) * float(b) for a, b in zip(t["feature"], d.embedding))
            cost = 1.0 - min(1.0, max(-1.0, sim))
            if cost > 1.0 - gate or (per_class and t["class_id"] != d.class_id):
                cost = math.inf
            row.append(cost)
        rows.append(row)
    return rows


def reference_tracker(frames, config):
    """The documented two-stage tracker, one track and one pairing at a time.

    frames: FrameInput-like objects (frame, detections with bbox, score,
    class_id and a unit embedding), frames strictly increasing; config: a
    TrackerConfig-like object. A generator: after each frame it yields
    (outputs, tracks). outputs are (frame, track_id, bbox, score, class_id)
    tuples in track-id order, one per track matched or founded that frame;
    tracks are dicts (track_id, class_id, state, frames_since_match, scores,
    last_bbox, feature) for every track founded so far, removed ones too, in
    founding order. Being lazy, it does no work for frames it is not asked
    for.

    Per frame: score >= high_thresh is the high band, low_thresh <= score <
    high_thresh the low band, the rest is dropped. Stage 1 matches the high
    band to every live (active or lost) track, pairs below sim_gate_high
    forbidden; stage 2 matches the pool (the stage-1 leftovers of the high
    band, then the low band; only the low band with bytetrack_stage2) to the
    live tracks stage 1 left, pairs below sim_gate_low forbidden. per_class
    forbids pairs of different classes in both stages. A matched track
    appends (embedding, score) to its last tau observations, becomes active
    and resets its miss count; a live track left unmatched counts one more
    miss and is removed once the count exceeds max_lost_age, lost until
    then. High-band detections no stage matched found new tracks, in pool
    order, when their score is >= min_init_score. Every matched or founded
    track then takes direct_weighted_feature of its observations.
    """
    tracks = []
    for frame_input in frames:
        frame = frame_input.frame
        dets = frame_input.detections
        high = [d for d in dets if d.score >= config.high_thresh]
        low = [d for d in dets if config.low_thresh <= d.score < config.high_thresh]
        live = [t for t in tracks if t["state"] != "removed"]

        _, _, pairs1 = brute_force_assignment(
            _stage_costs(live, high, config.sim_gate_high, config.per_class))
        matched = [(live[i], high[j]) for i, j in pairs1]
        rows1 = {i for i, _ in pairs1}
        cols1 = {j for _, j in pairs1}
        remaining = [t for i, t in enumerate(live) if i not in rows1]
        unmatched_high = [d for j, d in enumerate(high) if j not in cols1]

        pool = low if config.bytetrack_stage2 else unmatched_high + low
        _, _, pairs2 = brute_force_assignment(
            _stage_costs(remaining, pool, config.sim_gate_low, config.per_class))
        matched += [(remaining[i], pool[j]) for i, j in pairs2]
        cols2 = {j for _, j in pairs2}

        for t, d in matched:
            t["history"] = (t["history"] + [(d.embedding, d.score)])[-config.tau:]
            t["state"] = "active"
            t["frames_since_match"] = 0
            t["last_bbox"] = d.bbox
        matched_ids = {t["track_id"] for t, _ in matched}
        for t in live:
            if t["track_id"] not in matched_ids:
                t["frames_since_match"] += 1
                t["state"] = ("removed" if t["frames_since_match"] > config.max_lost_age
                              else "lost")

        if config.bytetrack_stage2:
            leftovers = unmatched_high
        else:
            leftovers = [d for j, d in enumerate(unmatched_high) if j not in cols2]
        founded = []
        for d in leftovers:
            if d.score >= config.min_init_score:
                founded.append({
                    "track_id": len(tracks) + len(founded) + 1,
                    "class_id": d.class_id,
                    "history": [(d.embedding, d.score)],
                    "state": "active",
                    "frames_since_match": 0,
                    "last_bbox": d.bbox,
                })
        tracks += founded

        emitting = [t for t, _ in matched] + founded
        for t in emitting:
            t["feature"] = direct_weighted_feature(t["history"], config.tau)
        outputs = sorted(
            ((frame, t["track_id"], t["last_bbox"], t["history"][-1][1], t["class_id"])
             for t in emitting),
            key=lambda o: o[1])
        yield outputs, [
            {"track_id": t["track_id"], "class_id": t["class_id"], "state": t["state"],
             "frames_since_match": t["frames_since_match"],
             "scores": [s for _, s in t["history"]], "last_bbox": t["last_bbox"],
             "feature": list(t["feature"])}
            for t in tracks
        ]


def scalar_iou(a, b):
    """Intersection-over-union of two boxes (x, y, w, h attributes), one pair."""
    ix = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    if ix <= 0:
        return 0.0
    iy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if iy <= 0:
        return 0.0
    inter = ix * iy
    # (x + w) - x can exceed w in floats, pushing identical boxes past 1.0
    return min(1.0, inter / (a.w * a.h + b.w * b.h - inter))


def _by_frame(records):
    frames = {}
    for r in records:
        frames.setdefault(r.frame, []).append(r)
    return frames


def reference_evaluate(gt, pred, iou_gate):
    """CLEAR-MOT and IDF1 of one sequence, every IoU taken pair by pair.

    Frames ascend; a gt identity keeps its last track when their IoU still
    clears the gate (identities visited in ascending order), the rest go to
    brute_force_assignment on 1 - IoU with pairs past 1 - iou_gate forbidden.
    IDF1 counts per-frame (identity, track) overlaps at the gate and takes
    scipy's maximum-weight assignment. Returns a dict with EvalReport's fields.
    """
    gt_frames, pred_frames = _by_frame(gt), _by_frame(pred)
    last_pairing = {}
    fp = fn = idsw = 0
    dist_sum = 0.0
    n_matches = 0
    for frame in sorted(set(gt_frames) | set(pred_frames)):
        gts = gt_frames.get(frame, [])
        preds = pred_frames.get(frame, [])
        preds_by_id = {p.track_id: p for p in preds}
        pairs = []
        free_gts = []
        taken_tids = set()
        for g in sorted(gts, key=lambda e: e.identity):
            tid = last_pairing.get(g.identity)
            if tid is not None and tid in preds_by_id and tid not in taken_tids \
                    and scalar_iou(g.bbox, preds_by_id[tid].bbox) >= iou_gate:
                pairs.append((g, preds_by_id[tid]))
                taken_tids.add(tid)
            else:
                free_gts.append(g)
        free_preds = [p for p in preds if p.track_id not in taken_tids]
        if free_gts and free_preds:
            costs = []
            for g in free_gts:
                row = [1.0 - scalar_iou(g.bbox, p.bbox) for p in free_preds]
                costs.append([c if c <= 1.0 - iou_gate else float("inf") for c in row])
            card, _, matches = brute_force_assignment(costs)
            pairs += [(free_gts[gi], free_preds[pj]) for gi, pj in matches]
            fn += len(free_gts) - card
            fp += len(free_preds) - card
        else:
            fn += len(free_gts)
            fp += len(free_preds)
        for g, p in pairs:
            prev = last_pairing.get(g.identity)
            if prev is not None and prev != p.track_id:
                idsw += 1
            last_pairing[g.identity] = p.track_id
            dist_sum += 1.0 - scalar_iou(g.bbox, p.bbox)
            n_matches += 1

    overlap = {}
    for frame, gts in gt_frames.items():
        for g in gts:
            for p in pred_frames.get(frame, []):
                if scalar_iou(g.bbox, p.bbox) >= iou_gate:
                    key = (g.identity, p.track_id)
                    overlap[key] = overlap.get(key, 0) + 1
    idtp = 0
    if overlap:
        identities = sorted({i for i, _ in overlap})
        tids = sorted({t for _, t in overlap})
        weights = [[overlap.get((i, t), 0) for t in tids] for i in identities]
        rows, cols = linear_sum_assignment(weights, maximize=True)
        idtp = sum(weights[r][c] for r, c in zip(rows, cols))
    idfp, idfn = len(pred) - idtp, len(gt) - idtp
    return {
        "mota": 1.0 - (fp + fn + idsw) / len(gt),
        "motp": dist_sum / n_matches if n_matches else 0.0,
        "fp": fp,
        "fn": fn,
        "idsw": idsw,
        "idf1": 2.0 * idtp / (2.0 * idtp + idfp + idfn) if (idtp or idfp or idfn) else 0.0,
        "idp": idtp / len(pred) if pred else 0.0,
        "idr": idtp / len(gt),
        "num_gt": len(gt),
    }


def greedy_nms(detections, iou_thresh):
    """Per-class greedy NMS: visit by descending score (ties: input order),
    keep a box iff its IoU with every kept box of its class is <= iou_thresh."""
    order = sorted(range(len(detections)), key=lambda i: -detections[i].score)
    kept = []
    for i in order:
        cand = detections[i]
        if all(scalar_iou(cand.bbox, k.bbox) <= iou_thresh
               for k in kept if k.class_id == cand.class_id):
            kept.append(cand)
    return kept
