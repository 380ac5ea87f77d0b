"""Command-line front end: track / eval / synth / nms.

Data products go to files (or stdout for eval); summaries and diagnostics go
to stderr. Every domain error class maps to its own nonzero exit code so
scripted callers can tell what went wrong without scraping messages.
"""

import argparse
import sys
import time
from dataclasses import fields
from pathlib import Path

from . import io as seqio
from . import synth as synthmod
from .core import TrackerConfig, _frame_rows
from .errors import (
    ConfigError,
    DimensionMismatchError,
    DuplicateEntryError,
    EmptyGtError,
    MissingEmbeddingError,
    NonMonotonicFrameError,
    OrphanEmbeddingError,
    ParseError,
    SeparationInfeasibleError,
    TrackingError,
    ZeroNormError,
)
from .metrics import _evaluate_tables
from .tracker import Tracker

EXIT_CODES = [
    (ParseError, 3),
    (MissingEmbeddingError, 4),
    (DimensionMismatchError, 5),
    (ZeroNormError, 6),
    (DuplicateEntryError, 7),
    (NonMonotonicFrameError, 8),
    (EmptyGtError, 9),
    (SeparationInfeasibleError, 10),
    (ConfigError, 11),
    (OrphanEmbeddingError, 14),
    (TrackingError, 12),  # any other domain error; first match wins
    (OSError, 13),
]


def _exit_code(exc) -> int:
    for cls, code in EXIT_CODES:
        if isinstance(exc, cls):
            return code
    return 1


def _add_config_flags(parser: argparse.ArgumentParser):
    defaults = TrackerConfig()
    parser.add_argument("--high-thresh", type=float, default=defaults.high_thresh,
                        help="score floor of the high band (default %(default)s)")
    parser.add_argument("--low-thresh", type=float, default=defaults.low_thresh,
                        help="score floor of the low band (default %(default)s)")
    parser.add_argument("--sim-gate-high", type=float, default=defaults.sim_gate_high,
                        help="stage-1 cosine floor (default %(default)s)")
    parser.add_argument("--sim-gate-low", type=float, default=defaults.sim_gate_low,
                        help="stage-2 cosine floor (default %(default)s)")
    parser.add_argument("--tau", type=int, default=defaults.tau,
                        help="feature history length (default %(default)s)")
    parser.add_argument("--max-lost-age", type=int, default=defaults.max_lost_age,
                        help="frames a lost track survives (default %(default)s)")
    parser.add_argument("--min-init-score", type=float, default=None,
                        help="score floor for founding tracks (default: high threshold)")
    parser.add_argument("--per-class", action=argparse.BooleanOptionalAction,
                        default=defaults.per_class,
                        help="forbid cross-class association (default on)")
    parser.add_argument("--embedding-dim", type=int, default=None,
                        help="expected embedding length (default: from first record)")
    parser.add_argument("--bytetrack-stage2", action=argparse.BooleanOptionalAction,
                        default=defaults.bytetrack_stage2,
                        help="restrict stage 2 to the low band only (default off)")


def _config_from_args(args) -> TrackerConfig:
    # The config flags' dests are the TrackerConfig field names.
    return TrackerConfig(**{f.name: getattr(args, f.name) for f in fields(TrackerConfig)})


def _cmd_track(args) -> int:
    config = _config_from_args(args)
    # Columns all the way: no record is built per detection or per output.
    # The embedding file goes in as bytes: only a file the byte reader
    # defers is decoded, and nothing holds the bytes once it is parsed.
    detections = seqio._parse_detection_columns(seqio.load_text(args.detections))
    frames = seqio._track_frames(
        detections, *seqio._parse_embedding_columns(Path(args.embeddings).read_bytes(),
                                                    args.embedding_dim),
        args.nms_thresh)

    tracker = Tracker(config)
    emitted = []
    start = time.perf_counter()
    for columns in frames:
        track_ids, class_ids, rows = tracker.step(columns)
        emitted.append((columns.frame, track_ids, class_ids, columns.boxes[:, rows],
                        columns.scores[rows]))
    elapsed = time.perf_counter() - start

    seqio.save_text(args.out, seqio._results_text(emitted))
    fps = len(emitted) / elapsed if elapsed > 0 else float("inf")
    outputs = sum(len(track_ids) for _, track_ids, _, _, _ in emitted)
    print(
        f"tracked {len(emitted)} frames: {len(tracker.tracks)} tracks created, "
        f"{outputs} outputs, {elapsed:.3f}s wall, {fps:.1f} frames/s",
        file=sys.stderr,
    )
    return 0


def _cmd_eval(args) -> int:
    gt = seqio._parse_box_table(seqio.load_text(args.gt))
    pred = seqio._parse_box_table(seqio.load_text(args.results))
    report = _evaluate_tables(gt, pred, iou_gate=args.iou_gate)
    if args.csv:
        print("mota,motp,fp,fn,idsw,idf1")
        print(f"{report.mota:.6f},{report.motp:.6f},{report.fp},{report.fn},"
              f"{report.idsw},{report.idf1:.6f}")
    else:
        header = f"{'MOTA':>7} {'MOTP':>7} {'FP':>6} {'FN':>6} {'IDSW':>5} {'IDF1':>7}"
        row = (f"{report.mota:7.3f} {report.motp:7.3f} {report.fp:6d} "
               f"{report.fn:6d} {report.idsw:5d} {report.idf1:7.3f}")
        print(header)
        print(row)
    print(
        f"evaluated {report.num_gt} gt boxes: idp={report.idp:.3f} idr={report.idr:.3f}",
        file=sys.stderr,
    )
    return 0


def _parse_windows(raw, flag: str, layout: str, types: tuple) -> tuple:
    """Parse each repeated `flag` value as colon-separated fields of `types`."""
    windows = []
    for item in raw or []:
        try:
            parts = zip(types, item.split(":"), strict=True)
            windows.append(tuple(convert(part) for convert, part in parts))
        except ValueError:  # a non-numeric part, or too few or too many parts
            raise ConfigError(f"bad {flag} {item!r}, expected {layout}") from None
    return tuple(windows)


def _cmd_synth(args) -> int:
    spec = synthmod.ScenarioSpec(
        num_identities=args.num_identities,
        num_frames=args.num_frames,
        embedding_dim=args.embedding_dim,
        embed_noise_sigma=args.embed_noise_sigma,
        min_identity_separation=args.min_separation,
        dropout_prob=args.dropout_prob,
        score_dips=_parse_windows(args.score_dip, "--score-dip",
                                  "START:END:IDENTITY:SCORE", (int, int, int, float)),
        dropout_windows=_parse_windows(args.dropout_window, "--dropout-window",
                                       "START:END:IDENTITY", (int, int, int)),
        clutter_rate=args.clutter_rate,
        arena=(args.arena_width, args.arena_height),
        low_thresh=args.low_thresh,
        high_thresh=args.high_thresh,
        seed=args.seed,
    )
    draw = synthmod._draw(spec)
    paths = synthmod._export_draw(draw, args.out_dir)
    print(
        f"generated {spec.num_identities} identities over {spec.num_frames} frames "
        f"(seed {spec.seed}): {len(draw.detections.frame)} detections, "
        f"{len(draw.gt)} gt boxes -> "
        + ", ".join(paths[k] for k in sorted(paths)),
        file=sys.stderr,
    )
    return 0


def _cmd_nms(args) -> int:
    # Columns, read and suppressed as `reidmot track` does: no record per row.
    dets = seqio._parse_detection_columns(seqio.load_text(args.detections))
    keep = seqio._nms_rows(dets, _frame_rows(dets.frame), args.nms_thresh)
    frame, boxes, scores, class_id = dets
    kept = seqio._DetectionColumns(frame[keep], boxes[:, keep], scores[keep], class_id[keep])
    seqio.save_text(args.out, seqio._detection_text(kept))
    print(f"nms at iou {args.nms_thresh}: kept {keep.sum()} of {len(keep)} detections",
          file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reidmot",
        description="Appearance-only multi-object tracking over MOT-style files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_track = sub.add_parser("track", help="run the tracker over a detection file")
    p_track.add_argument("detections", help="detection file (frame,-1,x,y,w,h,score,class,-1)")
    p_track.add_argument("embeddings", help="embedding file (frame,index,v1,...,vd)")
    p_track.add_argument("out", help="where to write the results file")
    _add_config_flags(p_track)
    p_track.add_argument("--nms-thresh", type=float, default=None,
                         help="apply per-frame NMS at this IoU before tracking "
                              "(default: no NMS)")
    p_track.set_defaults(func=_cmd_track)

    p_eval = sub.add_parser("eval", help="score a results file against ground truth")
    p_eval.add_argument("gt", help="ground-truth file")
    p_eval.add_argument("results", help="tracker results file")
    p_eval.add_argument("--iou-gate", type=float, default=0.5,
                        help="IoU floor for a valid match (default %(default)s)")
    p_eval.add_argument("--csv", action="store_true",
                        help="machine-readable CSV instead of the aligned table")
    p_eval.set_defaults(func=_cmd_eval)

    spec = synthmod.ScenarioSpec()
    p_synth = sub.add_parser("synth", help="generate a synthetic scenario")
    p_synth.add_argument("out_dir", help="directory for det.txt, emb.txt, gt.txt")
    p_synth.add_argument("--num-identities", type=int, default=spec.num_identities)
    p_synth.add_argument("--num-frames", type=int, default=spec.num_frames)
    p_synth.add_argument("--embedding-dim", type=int, default=spec.embedding_dim)
    p_synth.add_argument("--embed-noise-sigma", type=float, default=spec.embed_noise_sigma)
    p_synth.add_argument("--min-separation", type=float, default=spec.min_identity_separation)
    p_synth.add_argument("--dropout-prob", type=float, default=spec.dropout_prob)
    p_synth.add_argument("--score-dip", action="append", metavar="START:END:ID:SCORE",
                         help="dip an identity's score for a frame window; repeatable")
    p_synth.add_argument("--dropout-window", action="append", metavar="START:END:ID",
                         help="hide an identity entirely for a frame window; repeatable")
    p_synth.add_argument("--clutter-rate", type=float, default=spec.clutter_rate,
                         help="Poisson mean of clutter boxes per frame")
    p_synth.add_argument("--arena-width", type=float, default=spec.arena[0])
    p_synth.add_argument("--arena-height", type=float, default=spec.arena[1])
    p_synth.add_argument("--low-thresh", type=float, default=spec.low_thresh,
                         help="low band floor used for clutter/dip scores")
    p_synth.add_argument("--high-thresh", type=float, default=spec.high_thresh,
                         help="high band floor used for clutter/dip scores")
    p_synth.add_argument("--seed", type=int, default=spec.seed)
    p_synth.set_defaults(func=_cmd_synth)

    p_nms = sub.add_parser("nms", help="suppress overlapping detections per frame")
    p_nms.add_argument("detections", help="detection file to filter")
    p_nms.add_argument("out", help="where to write kept detections")
    p_nms.add_argument("--nms-thresh", type=float, default=0.5,
                       help="IoU above which a lower-scoring box is dropped "
                            "(default %(default)s)")
    p_nms.set_defaults(func=_cmd_nms)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TrackingError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
