"""reidmot benchmark: the seeded file pipeline, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload sparse_long --seed 3 --seconds 55 --trace 0

One run generates the workload from --seed with `reidmot synth` (the set-up),
then makes passes of `reidmot track` and `reidmot eval` over the generated
files until --seconds are used up, with another `reidmot synth` in every
second pass, so that the set-up is sampled across the run like the other
commands. Each command runs in a process of its own, forked by a server that
has imported reidmot (bench/child.py), one at a time: a closed loop with one
caller. Each time is the fastest of its repeats in the run. Every output is
checked (see README.md); a command that raises, exits non-zero or fails a
check counts as failed.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`. With --trace 0 the metrics are the end-to-end ones;
with --trace 1 they are the per-layer ones from traced commands, each traced
command paired with an untraced one to measure the cost of tracing, and
`metrics.iou_calls` from one more eval that only counts.
Human-readable lines go to stderr.
"""

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD = os.path.join(BENCH, "child.py")
PINS = os.path.join(BENCH, "pins.json")

# One BLAS thread: on a 2-core machine, more threads measure the scheduler.
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 60
RUN_DEADLINE_S = 165  # a run must end within 180 s, whatever its commands do


def _synth_flags(identities, frames, sigma, dim=128, dropout=0.05, clutter=5):
    return ["--num-identities", str(identities), "--num-frames", str(frames),
            "--embedding-dim", str(dim), "--embed-noise-sigma", str(sigma),
            "--dropout-prob", str(dropout), "--clutter-rate", str(clutter)]


# The default TrackerConfig throughout; only NMS differs between workloads.
# Each sequence is short enough for a command to take well under a second, so
# that a run repeats it often enough to find the host's fast spells.
WORKLOADS = {
    # Stable identities: I/O and feature averaging dominate, every track
    # carries a full tau=30 history from frame 30 on, the solver sees ~50x50.
    "sparse_long": {"synth": _synth_flags(50, 150, 0.02), "track": []},
    # A stationary crowd: 250 live tracks on every frame and every seed make
    # the stage-1 solve the largest part of the step; the only workload that
    # runs NMS. (A sigma 0.1 crowd has a burst of spurious tracks whose size,
    # and so its cost, varies with the seed more than the bounds allow.)
    "dense_crowd": {"synth": _synth_flags(250, 20, 0.05),
                    "track": ["--nms-thresh", "0.5"]},
    # Acceptance-suite scale, for the benchmark's own self-test.
    "smoke": {"synth": _synth_flags(5, 100, 0.02, dim=16, clutter=1),
              "track": ["--nms-thresh", "0.5"]},
}

END_TO_END = {
    "setup_s": "s",
    "track_s": "s",
    "eval_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "track_peak_rss_mb": "MB",
}

# Spans recorded by bench/child.py whose summed self time is a metric.
SELF_TIME_SPANS = [
    "io.load_text", "io.parse_detections", "io.parse_embeddings",
    "io.attach_embeddings", "io.write_results",
    "synth.generate", "io.write_detections", "io.write_embeddings",
    "io.write_gt", "io.save_text",
    "io.nms",
    "tracker.split_by_score", "tracker.build_cost_matrix", "tracker.weighted_feature",
    "assign.stage1.solve", "assign.stage2.solve", "assign.gate_costs", "assign.eval.solve",
    "metrics.clear_mot", "metrics.idf1", "io.parse_gt",
]

PER_LAYER = {
    **{span + "_s": "s" for span in SELF_TIME_SPANS},
    "io.bytes_read": "bytes",
    "io.bytes_written": "bytes",
    "io.nms.kept_frac": "ratio",
    "tracker.step.self_s": "s",
    "tracker.step_s": "s",
    "tracker.cost_cells": "count",
    "tracker.weighted_feature.calls": "count",
    "tracker.matched_stage1": "count",
    "tracker.matched_stage2": "count",
    "tracker.live_tracks.max": "count",
    "tracker.live_tracks.mean": "count",
    "tracker.tracks_created": "count",
    "assign.calls": "count",
    "assign.cells": "count",
    "assign.admissible_frac": "ratio",
    "metrics.iou_calls": "count",
    "cli.track.self_s": "s",
    "cli.eval.self_s": "s",
    "trace.track_s": "s",
    "trace.eval_s": "s",
    "trace.overhead_frac": "ratio",
}


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def fastest_trace(traces) -> dict:
    """Per-key minimum over several traced runs of one command.

    Times take the fastest repeat, as the end-to-end metrics do; counts are
    the same in every repeat.
    """
    out = {}
    for part in ("self_s", "total_s", "calls", "counts"):
        keys = set().union(*(t[part] for t in traces))
        out[part] = {k: min(t[part].get(k, 0) for t in traces) for k in keys}
    return out


def sum_traces(traces) -> dict:
    out = {}
    for part in ("self_s", "total_s", "calls", "counts"):
        out[part] = {}
        for t in traces:
            for k, v in t[part].items():
                out[part][k] = out[part].get(k, 0) + v
    return out


def layer_metrics(trace, overhead_frac, iou_calls) -> dict:
    """Per-layer metrics from one pass (synth + track + eval) of traces."""
    self_s, total_s, calls, n = (trace[p] for p in ("self_s", "total_s", "calls", "counts"))
    values = {span + "_s": self_s.get(span, 0.0) for span in SELF_TIME_SPANS}
    nms_in = n.get("io.nms.in", 0)
    steps = n.get("tracker.steps", 0)
    cells = n.get("assign.cells", 0)
    values.update({
        "io.bytes_read": n.get("io.bytes_read", 0),
        "io.bytes_written": n.get("io.bytes_written", 0),
        # Without NMS every detection reaches the tracker.
        "io.nms.kept_frac": n["io.nms.out"] / nms_in if nms_in else 1.0,
        "tracker.step.self_s": self_s.get("tracker.step", 0.0),
        "tracker.step_s": total_s.get("tracker.step", 0.0),
        "tracker.cost_cells": n.get("tracker.cost_cells", 0),
        "tracker.weighted_feature.calls": calls.get("tracker.weighted_feature", 0),
        "tracker.matched_stage1": n.get("tracker.matched_stage1", 0),
        "tracker.matched_stage2": n.get("tracker.matched_stage2", 0),
        "tracker.live_tracks.max": n.get("tracker.live_tracks.max", 0),
        "tracker.live_tracks.mean": n.get("tracker.live_tracks.sum", 0) / steps if steps else 0.0,
        "tracker.tracks_created": n.get("tracker.tracks_created", 0),
        "assign.calls": calls.get("assign.stage1.solve", 0) + calls.get("assign.stage2.solve", 0),
        "assign.cells": cells,
        "assign.admissible_frac": n.get("assign.admissible", 0) / cells if cells else 0.0,
        "metrics.iou_calls": iou_calls,
        "cli.track.self_s": self_s.get("cli.track", 0.0),
        "cli.eval.self_s": self_s.get("cli.eval", 0.0),
        "trace.track_s": total_s.get("cli.track", 0.0),
        "trace.eval_s": total_s.get("cli.eval", 0.0),
        "trace.overhead_frac": overhead_frac,
    })
    return values


def detection_keys(det_path) -> dict:
    """Per frame, a multiset of detections as a results file would print them."""
    frames = {}
    with open(det_path, encoding="utf-8") as fh:
        for line in fh:
            f = line.rstrip("\n").split(",")
            key = (*(f"{float(v):.6f}" for v in f[2:7]), f[7])
            bag = frames.setdefault(int(f[0]), {})
            bag[key] = bag.get(key, 0) + 1
    return frames


def check_results(res_path, det_frames) -> tuple[list[str], int]:
    """Structural checks on a results file; returns (problems, row count).

    The tracker never alters a box or score, so each row must be one input
    detection of its frame, each detection used at most once, and each
    (frame, track id) unique, with frames in ascending order.
    """
    problems = []
    used = set()
    rows = 0
    last_frame = 0
    with open(res_path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            f = line.rstrip("\n").split(",")
            rows += 1
            frame, tid = int(f[0]), int(f[1])
            key = (*f[2:7], f[7])
            bag = det_frames.get(frame, {})
            if frame < last_frame or (frame, tid) in used or bag.get(key, 0) < 1:
                problems.append(f"results line {line_no} is not an unused input "
                                f"detection of frame {frame} in frame order")
                break
            bag[key] -= 1
            used.add((frame, tid))
            last_frame = frame
    return problems, rows


def check_eval(scores, num_gt, num_pred) -> list[str]:
    """The printed scores must agree with each other and with the file sizes."""
    fp, fn, idsw = scores["fp"], scores["fn"], scores["idsw"]
    problems = []
    if num_gt - fn != num_pred - fp or fn > num_gt or fp > num_pred:
        problems.append(f"matches disagree: gt {num_gt} - fn {fn} != pred {num_pred} - fp {fp}")
    if f"{1.0 - (fp + fn + idsw) / num_gt:.6f}" != scores["mota"]:
        problems.append(f"MOTA {scores['mota']} does not follow from fp, fn, idsw")
    idtp = round(float(scores["idf1"]) * (num_gt + num_pred) / 2)
    if f"{2 * idtp / (num_gt + num_pred):.6f}" != scores["idf1"] or idtp > min(num_gt, num_pred):
        problems.append(f"IDF1 {scores['idf1']} matches no whole number of identity TPs")
    return problems


def parse_scores(stdout: str) -> dict:
    header, row = stdout.strip().splitlines()[-2:]
    scores = dict(zip(header.split(","), row.split(",")))
    for key in ("fp", "fn", "idsw"):
        scores[key] = int(scores[key])
    return {k: scores[k] for k in ("mota", "idf1", "idsw", "fp", "fn")}


class Run:
    """One benchmark run: its fork server (bench/child.py) and its failures."""

    def __init__(self, work):
        self.work = work
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.versions = {}
        env = dict(os.environ, PYTHONPATH="",
                   OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
                   OMP_NUM_THREADS=str(BLAS_THREADS),
                   MKL_NUM_THREADS=str(BLAS_THREADS))
        self.server_log = os.path.join(work, "server.log")
        with open(self.server_log, "wb") as log:
            # A session of its own, so that close() can end the server and
            # whatever command it has forked in one signal.
            self.server = subprocess.Popen([sys.executable, CHILD], stdin=subprocess.PIPE,
                                           stdout=subprocess.PIPE, stderr=log, text=True,
                                           env=env, cwd=ROOT, start_new_session=True)

    def close(self):
        """Kill the server and its command, if any, and wait until both are gone."""
        try:
            os.killpg(self.server.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.server.wait()
        for _ in range(500):  # a forked command is reaped by init, not by us
            try:
                os.killpg(self.server.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)

    def fail(self, what, problems):
        self.failed += 1
        for p in problems:
            print(f"FAILED {what}: {p}", file=sys.stderr)

    def command(self, mode, argv):
        """Run one reidmot command in a forked process; its report, or None if it failed."""
        self.attempted += 1
        timeout = min(CHILD_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            self.fail(argv[0], ["run deadline passed before the command could start"])
            return None
        report_path = os.path.join(self.work, "report.json")
        log_path = os.path.join(self.work, "command.log")
        if os.path.exists(report_path):
            os.remove(report_path)
        answer = ""
        if self.server.poll() is None:
            self.server.stdin.write(json.dumps({"mode": mode, "argv": argv,
                                                "report": report_path, "log": log_path,
                                                "timeout_s": timeout}) + "\n")
            self.server.stdin.flush()
            if select.select([self.server.stdout], [], [], timeout + 10)[0]:
                answer = self.server.stdout.readline()
        if not answer:
            with open(self.server_log, encoding="utf-8", errors="replace") as fh:
                self.fail(argv[0], ["the fork server stopped answering", fh.read()[-2000:]])
            return None
        answer = json.loads(answer)
        report = None
        if answer["exit"] == 0 and os.path.exists(report_path):
            with open(report_path, encoding="utf-8") as fh:
                report = json.load(fh)
        if report is None:
            with open(log_path, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            self.fail(argv[0], [f"exit {answer['exit']}"
                                + (" (timed out)" if answer["timed_out"] else ""), tail])
            return None
        report["rss_mb"] = answer["maxrss_kb"] / 1024.0
        self.versions = {"numpy": report["numpy"], "scipy": report["scipy"]}
        return report


def run(workload, seed, seconds, trace, pins) -> dict | None:
    """Run the benchmark; returns the result object, or None if nothing ran."""
    spec = WORKLOADS[workload]
    pin = pins.get(workload, {}).get(str(seed))
    work = os.path.join(BENCH, "_work", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    r = None
    try:
        r = Run(work)
        return _run(r, spec, seed, seconds, trace, pin, workload)
    finally:
        if r is not None:
            r.close()
        shutil.rmtree(work, ignore_errors=True)


def _run(r, spec, seed, seconds, trace, pin, workload):
    data = os.path.join(r.work, "data")
    paths = {k: os.path.join(data, f"{k}.txt") for k in ("det", "emb", "gt")}
    res = os.path.join(r.work, "res.txt")
    observed = {}

    # Set-up: generate the inputs. Every repeat must write the same bytes.
    setups = []

    def checked_synth(mode):
        report = r.command(mode, ["synth", data, *spec["synth"], "--seed", str(seed)])
        if report is None:
            return None
        hashes = {k: sha256(p) for k, p in paths.items()}
        problems = [f"{k}.txt sha256 {h} != pinned {pin[k]}"
                    for k, h in hashes.items() if pin and pin[k] != h]
        problems += [f"{k}.txt differs between set-up repeats"
                     for k, h in hashes.items() if observed.get(k, h) != h]
        if problems:
            r.fail("synth", problems)
        observed.update(hashes)
        setups.append(report)
        return report

    setup_mode = "trace" if trace else "plain"
    if checked_synth(setup_mode) is None:
        return None

    with open(paths["gt"], encoding="utf-8") as fh:
        num_gt = sum(1 for _ in fh)
    track_argv = ["track", paths["det"], paths["emb"], res, *spec["track"]]
    eval_argv = ["eval", paths["gt"], res, "--csv"]

    def checked_track(mode):
        report = r.command(mode, track_argv)
        if report is None:
            return None
        digest = sha256(res)
        problems = []
        if "results" not in observed:
            problems, observed["rows"] = check_results(res, detection_keys(paths["det"]))
        elif digest != observed["results"]:
            problems.append("results file differs between track runs")
        if pin and digest != pin["results"]:
            problems.append(f"results sha256 {digest} != pinned {pin['results']}")
        observed.setdefault("results", digest)
        if problems:
            r.fail("track", problems)
        return report

    def checked_eval(mode):
        report = r.command(mode, eval_argv)
        if report is None:
            return None
        try:
            scores = parse_scores(report["stdout"])
        except (ValueError, KeyError) as exc:
            r.fail("eval", [f"unreadable scores: {exc!r}"])
            return report
        problems = []
        if "scores" not in observed and "rows" in observed:
            problems = check_eval(scores, num_gt, observed["rows"])
        elif observed.get("scores", scores) != scores:
            problems.append(f"scores {scores} differ between eval runs")
        if pin:
            problems += [f"{k} {scores[k]} != pinned {pin[k]}"
                         for k in scores if scores[k] != pin[k]]
        observed.setdefault("scores", scores)
        if problems:
            r.fail("eval", problems)
        return report

    # Measurement: track+eval passes while the longest pass so far still fits
    # in --seconds, with a synth in every second pass. The synths sample the
    # set-up across the run, in the same spells of host speed as track and
    # eval; skipping it in half the passes leaves more repeats of the others.
    modes = ["plain", "trace"] if trace else ["steps"]
    reports = {m: {"track": [], "eval": []} for m in modes}
    start = time.perf_counter()
    passes = 0
    longest = 0.0
    while passes == 0 or (time.perf_counter() - start + longest <= seconds
                          and time.monotonic() + longest < r.deadline):
        t0 = time.perf_counter()
        if passes % 2 == 1:
            checked_synth(setup_mode)
        for mode in modes:
            for kind, fn in (("track", checked_track), ("eval", checked_eval)):
                report = fn(mode)
                if report is not None:
                    reports[mode][kind].append(report)
        passes += 1
        longest = max(longest, time.perf_counter() - t0)

    print(f"observed for {workload} seed {seed}: "
          + json.dumps({**{k: observed.get(k) for k in ("det", "emb", "gt", "results")},
                        **observed.get("scores", {})}, sort_keys=True), file=sys.stderr)
    runs = reports[modes[0]]
    if not runs["track"] or not runs["eval"]:
        return None
    if trace:
        traced = reports["trace"]
        # The iou counter runs in an eval of its own, so no timed span pays for it.
        counted = checked_eval("count")
        if not traced["track"] or not traced["eval"] or counted is None:
            return None
        plain_s = (min(t["wall_s"] for t in runs["track"])
                   + min(e["wall_s"] for e in runs["eval"]))
        traced_s = (min(t["wall_s"] for t in traced["track"])
                    + min(e["wall_s"] for e in traced["eval"]))
        one_pass = sum_traces([fastest_trace([s["trace"] for s in setups]),
                               fastest_trace([t["trace"] for t in traced["track"]]),
                               fastest_trace([e["trace"] for e in traced["eval"]])])
        values = layer_metrics(one_pass, traced_s / plain_s - 1.0, counted["iou_calls"])
        units = PER_LAYER
    else:
        # The host adds delay in spells of a few seconds and never takes any
        # away, so each time is the fastest of its repeats: the same work on
        # the same inputs, less the spells. Step latency is taken per frame
        # (its fastest pass), then p50/p90 over the frames of the sequence.
        times = {"synth": [s["wall_s"] for s in setups],
                 "track": [t["wall_s"] for t in runs["track"]],
                 "eval": [e["wall_s"] for e in runs["eval"]]}
        frames = [min(per_pass) for per_pass in zip(*(t["steps_s"] for t in runs["track"]))]
        values = {
            "setup_s": min(times["synth"]),
            "track_s": min(times["track"]),
            "eval_s": min(times["eval"]),
            "step_ms_p50": 1000.0 * statistics.median(frames),
            "step_ms_p90": 1000.0 * statistics.quantiles(frames, n=10)[-1],
            "track_peak_rss_mb": statistics.median(t["rss_mb"] for t in runs["track"]),
        }
        units = END_TO_END
        for kind, ts in times.items():
            print(f"{kind} s, each repeat: " + " ".join(f"{t:.3f}" for t in ts),
                  file=sys.stderr)
        print(f"{len(frames)} frames a track pass", file=sys.stderr)

    print(f"machine: python {platform.python_version()} numpy {r.versions['numpy']} "
          f"scipy {r.versions['scipy']} nproc {os.cpu_count()} blas_threads {BLAS_THREADS}",
          file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:32s} {values[name]:14.6f} {unit}", file=sys.stderr)
    print(f"fail_frac {r.failed}/{r.attempted}", file=sys.stderr)
    return {
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget for the track+eval passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "reidmot", "cli.py")):
        print(f"error: no reidmot sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(PINS, encoding="utf-8") as fh:
        pins = json.load(fh)
    result = run(args.workload, args.seed, args.seconds, args.trace, pins)
    if result is None:
        print("error: no command completed; no result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
