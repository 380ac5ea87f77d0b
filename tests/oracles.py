"""Independent reference implementations used only by the tests.

These deliberately share no code with the package: the assignment oracle is
an exhaustive permutation search, the feature oracles are a plain-Python
re-derivation with fsum accumulation and the numpy forms of one history,
which fix its bits, the tracker oracle is a per-track loop over the first
feature oracle and the assignment oracle, and the box-overlap oracles
(IoU, CLEAR-MOT, IDF1, NMS) are the one-pair-at-a-time forms the package
used before it built IoU matrices,
the embedding writer formats one component at a time, as the package did
before it formatted each row with one template, and the identity-base
sampler checks a candidate against one placed base at a time with np.dot,
as the package did before it checked all of them with one product (it
raises the package's error class, whose message the tests compare), and
the wall reflection of synthetic motion goes one identity and one axis at
a time, as the package did before it reflected every coordinate at once,
and the synthetic score dips and dropout windows are scanned for each
(frame, identity), as the package did before it built them into tables,
and the synthetic scenario is generated one record at a time, each
embedding divided by its own np.linalg.norm, as the package did before it
drew the scenario into columns.
If the fast paths drift, these catch it.
"""

import itertools
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from reidmot.core import BBox, Detection, FrameInput, GtEntry
from reidmot.errors import SeparationInfeasibleError
from reidmot.io import SequenceBundle
from reidmot.synth import BASE_SCORE, BOX_SIZE, MAX_SAMPLING_ATTEMPTS, MAX_SPEED


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


def one_history_numpy_feature(history):
    """The feature by one history's own numpy forms, which fix its bits."""
    embs = np.stack([e for e, _ in history])
    scores = np.array([s for _, s in history], dtype=np.float64)
    mean = embs.T @ scores / float(scores.sum())
    return mean / float(np.linalg.norm(mean))


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
    brute_force_assignment on 1 - IoU with pairs below iou_gate forbidden.
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
                row = [scalar_iou(g.bbox, p.bbox) for p in free_preds]
                costs.append([1.0 - v if v >= iou_gate else float("inf") for v in row])
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


def component_format_embeddings(frames):
    """Embedding file text written one component at a time with f"{v:.6f}"."""
    lines = []
    for fi in frames:
        for index, det in enumerate(fi.detections):
            vec = ",".join(f"{v:.6f}" for v in det.embedding)
            lines.append(f"{fi.frame},{index},{vec}")
    return "".join(line + "\n" for line in lines)


def loop_sample_bases(rng, num_identities, dim, separation, max_attempts):
    """Unit vectors with pairwise cosine similarity <= 1 - separation, by
    rejection sampling from `rng` with one np.dot per (candidate, base) pair.

    Raises SeparationInfeasibleError after `max_attempts` candidates.
    """
    max_sim = 1.0 - separation
    bases = []
    attempts = 0
    while len(bases) < num_identities:
        attempts += 1
        if attempts > max_attempts:
            raise SeparationInfeasibleError(
                f"placed {len(bases)} of {num_identities} identities in "
                f"{max_attempts} attempts at separation {separation}"
            )
        cand = rng.normal(size=dim)
        norm = np.linalg.norm(cand)
        if norm < 1e-9:
            continue
        cand /= norm
        if all(float(np.dot(cand, b)) <= max_sim for b in bases):
            bases.append(cand)
    return np.array(bases).reshape(len(bases), dim)


def loop_reflect(pos, vel, max_x, max_y):
    """One frame of synthetic motion: (pos + vel, vel) reflected off the walls
    0 and max_x / max_y with one Python while loop per identity and axis."""
    pos, vel = pos + vel, vel.copy()
    for i in range(len(pos)):
        for axis, limit in ((0, max_x), (1, max_y)):
            while pos[i, axis] < 0.0 or pos[i, axis] > limit:
                if pos[i, axis] < 0.0:
                    pos[i, axis] = -pos[i, axis]
                else:
                    pos[i, axis] = 2.0 * limit - pos[i, axis]
                vel[i, axis] = -vel[i, axis]
    return pos, vel


def scan_dipped_score(spec, frame, identity):
    """The synthetic score of `identity` in `frame`: that of the first listed
    score dip whose window covers the frame, else BASE_SCORE."""
    for start, end, dip_id, score in spec.score_dips:
        if dip_id == identity and start <= frame <= end:
            return float(score)
    return BASE_SCORE


def scan_dropped(spec, frame, identity):
    """Whether a dropout window of `spec` hides `identity` in `frame`."""
    return any(
        win_id == identity and start <= frame <= end
        for start, end, win_id in spec.dropout_windows
    )


def reference_generate(spec):
    """The scenario of `spec` built one (frame, identity) record at a time.

    The bases come from loop_sample_bases and the motion from loop_reflect;
    every noisy or clutter embedding is divided by its own np.linalg.norm.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    bases = loop_sample_bases(rng, spec.num_identities, spec.embedding_dim,
                              spec.min_identity_separation, MAX_SAMPLING_ATTEMPTS)

    width, height = spec.arena
    max_x, max_y = width - BOX_SIZE, height - BOX_SIZE
    pos = rng.uniform((0.0, 0.0), (max_x, max_y), size=(spec.num_identities, 2))
    vel = rng.uniform(-MAX_SPEED, MAX_SPEED, size=(spec.num_identities, 2))

    frames = []
    gt = []
    for frame in range(1, spec.num_frames + 1):
        dets = []
        for i in range(spec.num_identities):
            identity = i + 1
            bbox = BBox(float(pos[i, 0]), float(pos[i, 1]), BOX_SIZE, BOX_SIZE)
            gt.append(GtEntry(frame=frame, identity=identity, bbox=bbox, class_id=0))
            observed = not scan_dropped(spec, frame, identity)
            if spec.dropout_prob > 0.0 and rng.random() < spec.dropout_prob:
                observed = False
            if not observed:
                continue
            if spec.embed_noise_sigma > 0.0:
                emb = bases[i] + rng.normal(0.0, spec.embed_noise_sigma,
                                            size=spec.embedding_dim)
                emb /= np.linalg.norm(emb)
            else:
                emb = bases[i].copy()
            dets.append(Detection(frame=frame, bbox=bbox,
                                  score=scan_dipped_score(spec, frame, identity),
                                  class_id=0, embedding=emb))
        if spec.clutter_rate > 0.0:
            for _ in range(int(rng.poisson(spec.clutter_rate))):
                cx = float(rng.uniform(0.0, max_x))
                cy = float(rng.uniform(0.0, max_y))
                cemb = rng.normal(size=spec.embedding_dim)
                cemb /= np.linalg.norm(cemb)
                cscore = float(rng.uniform(spec.low_thresh, spec.high_thresh))
                dets.append(Detection(frame=frame, bbox=BBox(cx, cy, BOX_SIZE, BOX_SIZE),
                                      score=cscore, class_id=0, embedding=cemb))
        frames.append(FrameInput(frame=frame, detections=tuple(dets)))
        pos, vel = loop_reflect(pos, vel, max_x, max_y)

    return SequenceBundle(name=f"synth-{spec.seed}", frames=tuple(frames), gt=tuple(gt))
