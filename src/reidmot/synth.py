"""Seeded synthetic tracking scenarios with exact ground truth.

Identities get well-separated unit appearance vectors (rejection sampling:
one matrix-vector product checks each candidate against every placed
vector), move on constant-velocity paths that reflect off the arena walls,
and are observed each frame through optional embedding noise, score dips,
dropout, and Poisson background clutter. Everything is driven by one numpy
PCG64 generator, so a ScenarioSpec is a complete, reproducible description:
equal spec in, byte-equal scenario out.

_draw, the one home of the draw order, draws a scenario into columns: the
detections' frame, box and score columns, one (N, d) float64 block of
their embeddings, and the ground truth as a BoxTable. `reidmot synth`
writes its three files straight from those columns (_export_draw), with
the row templates of the record writers; generate builds the records from
them, and export writes records. The embedding writer formats the block a
fixed number of rows at a time, so its temporaries do not grow with the
scenario.
"""

import os
from dataclasses import dataclass
from math import isfinite
from operator import index
from typing import NamedTuple

import numpy as np

from .core import (
    BBox,
    BoxTable,
    Detection,
    FrameInput,
    GtEntry,
    _row_norms,
    check_integer,
    check_real,
)
from .errors import ConfigError, SeparationInfeasibleError
from .io import (
    SequenceBundle,
    _DetectionColumns,
    _detection_text,
    _embedding_text,
    _gt_text,
    save_text,
    write_detections,
    write_embeddings,
    write_gt,
)

BOX_SIZE = 40.0
# The largest speed along each axis, in px per frame. An arena side at least
# BOX_SIZE + MAX_SPEED leaves a box room to move that far, so one mirror off
# a wall always lands inside.
MAX_SPEED = 4.0
BASE_SCORE = 0.95
# Generator.poisson raises for a mean above about 9.2234e18.
MAX_CLUTTER_RATE = 1e18
# Keeps a noisy component's square far below float64's 1.8e308: norms stay finite.
MAX_EMBED_NOISE_SIGMA = 1e100
# An attempt places at most one identity, so this also bounds num_identities.
MAX_SAMPLING_ATTEMPTS = 100_000
# Every frame keeps a FrameInput, about 130 bytes even with no identities;
# this keeps an empty scenario's frames near 130 MB.
MAX_FRAMES = 1_000_000
# Far above the 128 to 2048 dimensions of re-ID embeddings.
MAX_EMBEDDING_DIM = 4096
# num_identities * embedding_dim: the float64 bases matrix stays within 128 MiB.
MAX_BASES_CELLS = 2**24
# num_frames * num_identities, with clutter_rate counted as identities: a
# (frame, identity) keeps a GtEntry and up to one Detection, about 530 bytes
# plus its embedding, and a clutter draw keeps less: 5.3 GB at embedding_dim 1.
MAX_RECORD_CELLS = 10_000_000
# num_frames * num_identities * embedding_dim, clutter_rate counted likewise:
# the one (N, d) float64 block of embeddings _draw fills, and the vectors it
# draws before it copies them there, stay within 1.28 GB each; the embedding
# writer's temporaries are bounded by its block of io._FORMAT_BLOCK_ROWS
# rows, and generate's detections hold views of the block. Every record
# still fits at the default embedding_dim of 16.
MAX_EMBEDDING_CELLS = 16 * MAX_RECORD_CELLS
# Far above the rounding gap between two sums of the d products of two unit
# vectors (about d * 1e-16), so it only widens the band that np.dot re-checks.
_SIMILARITY_SLACK = 1e-12


@dataclass(frozen=True)
class ScenarioSpec:
    """Complete description of one synthetic scenario.

    score_dips entries are (start_frame, end_frame, identity, dipped_score):
    the identity's detection score drops to dipped_score on frames
    start..end inclusive. dipped_score must sit inside [low_thresh,
    high_thresh), i.e. in the tracker's low band. dropout_windows entries are
    (start_frame, end_frame, identity): the identity goes completely
    undetected on those frames (ground truth still records it). Window
    frames and identities are integers; a window may reach outside
    1..num_frames.
    """

    num_identities: int = 5
    num_frames: int = 100
    embedding_dim: int = 16
    embed_noise_sigma: float = 0.0
    min_identity_separation: float = 0.8
    dropout_prob: float = 0.0
    score_dips: tuple = ()
    dropout_windows: tuple = ()
    clutter_rate: float = 0.0
    arena: tuple[float, float] = (1280.0, 720.0)
    low_thresh: float = 0.3
    high_thresh: float = 0.84
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "score_dips", _windows(
            "dip", self.score_dips, "(start_frame, end_frame, identity, dipped_score)"))
        object.__setattr__(self, "dropout_windows", _windows(
            "dropout", self.dropout_windows, "(start_frame, end_frame, identity)"))
        for name in ("num_identities", "num_frames", "embedding_dim", "seed"):
            check_integer(name, getattr(self, name))
        for name in ("embed_noise_sigma", "min_identity_separation", "dropout_prob",
                     "clutter_rate", "low_thresh", "high_thresh"):
            check_real(name, getattr(self, name))
        if not (0 <= self.num_identities <= MAX_SAMPLING_ATTEMPTS):
            raise ConfigError(f"num_identities must be in [0, {MAX_SAMPLING_ATTEMPTS}]")
        if not (0 <= self.num_frames <= MAX_FRAMES):
            raise ConfigError(f"num_frames must be in [0, {MAX_FRAMES}]")
        if not (1 <= self.embedding_dim <= MAX_EMBEDDING_DIM):
            raise ConfigError(f"embedding_dim must be in [1, {MAX_EMBEDDING_DIM}]")
        if not (0.0 <= self.dropout_prob <= 1.0):
            raise ConfigError("dropout_prob must be in [0, 1]")
        if not (0.0 <= self.min_identity_separation <= 2.0):
            raise ConfigError("min_identity_separation must be in [0, 2]")
        if not (0.0 <= self.embed_noise_sigma <= MAX_EMBED_NOISE_SIGMA):
            raise ConfigError("embed_noise_sigma must be finite and in "
                              f"[0, {MAX_EMBED_NOISE_SIGMA:g}]")
        if not (0.0 <= self.clutter_rate <= MAX_CLUTTER_RATE):
            raise ConfigError(f"clutter_rate must be finite and in [0, {MAX_CLUTTER_RATE:g}]")
        # The products come after their fields, so a bad field gets its own
        # message. A clutter detection costs what an identity's does.
        per_frame = self.num_identities + self.clutter_rate
        if self.num_identities * self.embedding_dim > MAX_BASES_CELLS:
            raise ConfigError(f"num_identities * embedding_dim must be at most {MAX_BASES_CELLS}")
        if self.num_frames * per_frame > MAX_RECORD_CELLS:
            raise ConfigError(f"num_frames * num_identities must be at most {MAX_RECORD_CELLS}, "
                              "counting clutter_rate as identities")
        if self.num_frames * per_frame * self.embedding_dim > MAX_EMBEDDING_CELLS:
            raise ConfigError("num_frames * num_identities * embedding_dim must be at most "
                              f"{MAX_EMBEDDING_CELLS}, counting clutter_rate as identities")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not (0.0 <= self.low_thresh < self.high_thresh <= 1.0):
            raise ConfigError("need 0 <= low_thresh < high_thresh <= 1")
        try:
            sides = len(self.arena)
        except TypeError:
            sides = None
        if sides != 2:
            raise ConfigError(f"arena must be (width, height), got {self.arena!r}")
        for side in self.arena:
            check_real("arena side", side)
        if not all(isfinite(side) for side in self.arena):
            raise ConfigError(f"arena sides must be finite, got {self.arena}")
        if min(self.arena) < BOX_SIZE + MAX_SPEED:
            raise ConfigError(
                f"arena sides must be at least {BOX_SIZE + MAX_SPEED}px: the "
                f"{BOX_SIZE}px box plus the {MAX_SPEED}px top speed"
            )
        for start, end, identity, score in self.score_dips:
            _check_window("dip", start, end, identity, self.num_identities)
            check_real("dipped score", score)
            if not (self.low_thresh <= score < self.high_thresh):
                raise ConfigError(
                    f"dipped score {score} must lie in the low band "
                    f"[{self.low_thresh}, {self.high_thresh})"
                )
        for start, end, identity in self.dropout_windows:
            _check_window("dropout", start, end, identity, self.num_identities)


def _windows(kind: str, windows, layout: str) -> tuple:
    """windows as a tuple of tuples; ConfigError for one whose fields are
    not those of layout."""
    fields = layout.count(",") + 1
    shaped = []
    try:
        windows = iter(windows)
    except TypeError:
        raise ConfigError(f"{kind} windows must be a sequence of {layout}, "
                          f"got {windows!r}") from None
    for window in windows:
        try:
            shaped.append(tuple(window))
        except TypeError:  # not a sequence at all
            shaped.append(())
        if len(shaped[-1]) != fields:
            raise ConfigError(f"{kind} window {window!r} must have {fields} fields: {layout}")
    return tuple(shaped)


def _check_window(kind: str, start, end, identity, num_identities: int) -> None:
    """Raise ConfigError unless start..end are whole frames, start <= end, and
    identity is one of 1..num_identities."""
    try:
        start, end, identity = index(start), index(end), index(identity)
    except TypeError:
        raise ConfigError(
            f"{kind} window fields must be integers, got {start}, {end}, {identity}"
        ) from None
    if start > end:
        raise ConfigError(f"{kind} window {start}..{end} is empty")
    if not (1 <= identity <= num_identities):
        raise ConfigError(f"{kind} identity {identity} out of range")


def _sample_bases(rng, spec) -> np.ndarray:
    """Unit vectors with pairwise cosine similarity <= 1 - min separation.

    A candidate is checked against every placed base with one matrix-vector
    product. The product and a per-pair np.dot may differ in the last bits,
    so a similarity within _SIMILARITY_SLACK of the bound is checked again
    with np.dot, the test the bases were always held to.
    """
    max_sim = 1.0 - spec.min_identity_separation
    bases = np.empty((spec.num_identities, spec.embedding_dim))
    placed = attempts = 0
    while placed < spec.num_identities:
        attempts += 1
        if attempts > MAX_SAMPLING_ATTEMPTS:
            raise SeparationInfeasibleError(
                f"placed {placed} of {spec.num_identities} identities in "
                f"{MAX_SAMPLING_ATTEMPTS} attempts at separation "
                f"{spec.min_identity_separation}"
            )
        cand = rng.normal(size=spec.embedding_dim)
        norm = np.linalg.norm(cand)
        if norm < 1e-9:
            continue
        cand /= norm
        sims = bases[:placed] @ cand
        if (sims > max_sim + _SIMILARITY_SLACK).any():
            continue
        near = bases[:placed][sims > max_sim - _SIMILARITY_SLACK]
        if all(float(np.dot(cand, b)) <= max_sim for b in near):
            bases[placed] = cand
            placed += 1
    return bases


def _advance(pos, vel, limit) -> tuple[np.ndarray, np.ndarray]:
    """One frame of motion: `pos` moves by `vel` and reflects inside [0, `limit`].

    Every coordinate past a wall is mirrored back and its velocity flipped.
    With |vel| <= MAX_SPEED <= limit, as ScenarioSpec ensures, one mirror
    lands inside.
    """
    pos = pos + vel
    out = (pos < 0.0) | (pos > limit)
    pos = np.where(pos < 0.0, -pos, np.where(pos > limit, 2.0 * limit - pos, pos))
    return pos, np.where(out, -vel, vel)


class _Draw(NamedTuple):
    """A scenario as columns: its detections in frame order (within a frame
    the identities' in identity order, then the clutter's), their (N, d)
    block of unit embeddings, and the ground truth by frame, then identity."""

    detections: _DetectionColumns
    embeddings: np.ndarray
    gt: BoxTable


def _draw(spec: ScenarioSpec) -> _Draw:
    """The scenario described by `spec`, drawn into columns.

    The one home of the draw order: one PCG64 stream seeded with spec.seed
    drives base sampling, motion, dropout, noise and clutter in a fixed
    order, one call per draw (batched draws would change the stream).

    Each frame reads the dip and dropout windows that cover it; the first
    listed dip wins. The dropout_prob draw is made for every identity, hidden
    or not, so windows leave the stream as it is.

    The vectors drawn become the embedding block at the end: an identity's
    is its base plus its noise, a clutter detection's is drawn as it is,
    and every drawn row is divided by its norm (core._row_norms, the bits of
    np.linalg.norm). With no noise an identity's embedding is its base.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    bases = _sample_bases(rng, spec)

    width, height = spec.arena
    # Top-left corners stay inside [0, arena - box]; velocity reflects there.
    max_x, max_y = width - BOX_SIZE, height - BOX_SIZE
    limit = np.array([max_x, max_y])
    pos = rng.uniform((0.0, 0.0), (max_x, max_y), size=(spec.num_identities, 2))
    vel = rng.uniform(-MAX_SPEED, MAX_SPEED, size=(spec.num_identities, 2))

    sigma, dim = spec.embed_noise_sigma, spec.embedding_dim
    corners = np.empty((spec.num_frames, spec.num_identities, 2))
    rows = []  # (frame, source, x, y, score) per detection; clutter's source is -1
    draws = []  # the vector each drawn row draws, in row order
    for frame in range(1, spec.num_frames + 1):
        hidden = {identity for start, end, identity in spec.dropout_windows
                  if start <= frame <= end}
        # Laid down last to first, so the first listed dip wins.
        dipped = {identity: float(score)
                  for start, end, identity, score in reversed(spec.score_dips)
                  if start <= frame <= end}
        corners[frame - 1] = pos
        xy = pos.tolist()
        for i in range(spec.num_identities):
            observed = i + 1 not in hidden
            if spec.dropout_prob > 0.0 and rng.random() < spec.dropout_prob:
                observed = False
            if not observed:
                continue
            if sigma > 0.0:
                draws.append(rng.normal(0.0, sigma, size=dim))
            rows.append((frame, i, *xy[i], dipped.get(i + 1, BASE_SCORE)))
        if spec.clutter_rate > 0.0:
            for _ in range(int(rng.poisson(spec.clutter_rate))):
                cx = float(rng.uniform(0.0, max_x))
                cy = float(rng.uniform(0.0, max_y))
                draws.append(rng.normal(size=dim))
                rows.append((frame, -1, cx, cy, float(rng.uniform(spec.low_thresh,
                                                                  spec.high_thresh))))
        pos, vel = _advance(pos, vel, limit)

    frame, source, x, y, score = np.array(rows, np.float64).reshape(-1, 5).T
    source = source.astype(np.intp)
    identity = source >= 0
    drawn = np.array(draws).reshape(-1, dim)
    del draws
    if sigma > 0.0:  # every row drew
        embeddings = drawn
        embeddings[identity] += bases[source[identity]]
        embeddings /= _row_norms(embeddings)[:, None]
    else:  # only the clutter drew
        embeddings = np.empty((len(source), dim))
        embeddings[identity] = bases[source[identity]]
        embeddings[~identity] = drawn / _row_norms(drawn)[:, None]
    sides = np.full(len(x), BOX_SIZE)
    detections = _DetectionColumns(frame.astype(np.int64), np.array([x, y, sides, sides]),
                                   score, np.zeros(len(x), np.int64))

    gt_frame = np.repeat(np.arange(1, spec.num_frames + 1), spec.num_identities)
    gt_x, gt_y = corners.reshape(-1, 2).T
    sides = np.full(len(gt_x), BOX_SIZE)
    gt = BoxTable(gt_frame, np.tile(np.arange(1, spec.num_identities + 1), spec.num_frames),
                  np.array([gt_x, gt_y, sides, sides]), np.zeros(len(gt_x), np.int64))
    return _Draw(detections, embeddings, gt)


def generate(spec: ScenarioSpec) -> SequenceBundle:
    """Generate the scenario described by `spec` (see _draw) as records.

    Deterministic: equal specs give equal scenarios, embeddings bit for bit.
    """
    (frame, boxes, scores, class_id), embeddings, gt = _draw(spec)
    dets = list(map(Detection, frame.tolist(), map(BBox, *boxes.tolist()), scores.tolist(),
                    class_id.tolist(), embeddings))
    bounds = np.searchsorted(frame, np.arange(1, spec.num_frames + 2)).tolist()
    return SequenceBundle(
        name=f"synth-{spec.seed}",
        frames=tuple(FrameInput(f, tuple(dets[bounds[f - 1]:bounds[f]]))
                     for f in range(1, spec.num_frames + 1)),
        gt=tuple(map(GtEntry, gt.frame.tolist(), gt.ids.tolist(), map(BBox, *gt.boxes.tolist()),
                     gt.class_id.tolist())),
    )


def export(bundle: SequenceBundle, out_dir) -> dict[str, str]:
    """Write det.txt / emb.txt / gt.txt under out_dir; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    dets = [d for fi in bundle.frames for d in fi.detections]
    paths = {
        "det": save_text(os.path.join(out_dir, "det.txt"), write_detections(dets)),
        "emb": save_text(os.path.join(out_dir, "emb.txt"), write_embeddings(bundle.frames)),
    }
    if bundle.gt is not None:
        paths["gt"] = save_text(os.path.join(out_dir, "gt.txt"), write_gt(bundle.gt))
    return paths


def _export_draw(draw: _Draw, out_dir) -> dict[str, str]:
    """export of the scenario `draw` holds, written from its columns."""
    os.makedirs(out_dir, exist_ok=True)
    frame = draw.detections.frame
    rank = np.arange(len(frame)) - np.searchsorted(frame, frame)  # the index in its frame
    return {
        "det": save_text(os.path.join(out_dir, "det.txt"), _detection_text(draw.detections)),
        "emb": save_text(os.path.join(out_dir, "emb.txt"),
                         _embedding_text(zip(frame.tolist(), rank.tolist()), draw.embeddings)),
        "gt": save_text(os.path.join(out_dir, "gt.txt"), _gt_text(draw.gt)),
    }
