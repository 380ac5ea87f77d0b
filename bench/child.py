"""Fork server that runs reidmot commands for the benchmark, one process each.

Usage: python3 bench/child.py   (requests on stdin, responses on stdout)

bench/run.py starts one server per run. The server imports reidmot from the
checkout's `src/` once; then for each request line, a JSON object

    {"mode": ..., "argv": [...], "report": PATH, "log": PATH, "timeout_s": N}

it forks a process that times `reidmot.cli.main(argv)`, writes a report to
PATH and its stdout and stderr to the log. The server answers with one line,
{"exit": CODE, "timed_out": BOOL, "maxrss_kb": N}, the peak RSS from wait4,
so that it belongs to that command alone. Forking skips the second or so an
interpreter needs to import numpy, scipy and reidmot, which would otherwise
take most of a run.

MODE is one of
  plain  time the command only;
  steps  also time every `Tracker.step` call (about 1 us a frame);
  trace  wrap each layer's public functions where their caller looks them up
         and sum the self time of each, plus exact work counts;
  count  count the calls to the scalar `iou` in `reidmot.metrics` (no timers,
         so that the counter's cost lands in no traced span).
"""

import contextlib
import gc
import io
import itertools
import json
import os
import signal
import sys
import time
import traceback
from collections import Counter, defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MODES = ("plain", "steps", "trace", "count")


class Tracer:
    """In-memory span totals keyed by span name.

    A span's self time is its duration minus the time covered by the spans it
    encloses, including their bookkeeping, so the tracer's own work lands in
    no layer's self time.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._covered = []  # one entry per open span: child time inside it

    def wrap(self, name, fn, before=None, after=None):
        """Return `fn` recorded as span `name` (a string or a callable giving one)."""
        covered = self._covered

        def traced(*args, **kwargs):
            b0 = time.perf_counter()
            span = name() if callable(name) else name
            if before is not None:
                before(args)
            covered.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self.self_s[span] += elapsed - covered.pop()
                self.total_s[span] += elapsed
                self.calls[span] += 1
            if after is not None:
                after(args, out)
            if covered:
                covered[-1] += time.perf_counter() - b0
            return out

        return traced

    def install(self):
        """Wrap the public functions of every layer the CLI commands run."""
        import numpy as np
        import reidmot.io as rio
        import reidmot.metrics as met
        import reidmot.synth as syn
        import reidmot.tracker as trk

        counts = self.counts

        def patch(module, attr, span, **hooks):
            setattr(module, attr, self.wrap(span, getattr(module, attr), **hooks))

        def bytes_read(args):
            counts["io.bytes_read"] += os.path.getsize(args[0])

        def bytes_written(args, path):
            counts["io.bytes_written"] += os.path.getsize(path)

        def nms_kept(args, kept):
            counts["io.nms.in"] += len(args[0])
            counts["io.nms.out"] += len(kept)

        # io, looked up through the module by the CLI and by synth.
        patch(rio, "load_text", "io.load_text", before=bytes_read)
        patch(rio, "save_text", "io.save_text", after=bytes_written)
        patch(syn, "save_text", "io.save_text", after=bytes_written)
        patch(rio, "parse_detections", "io.parse_detections")
        patch(rio, "parse_embeddings", "io.parse_embeddings")
        patch(rio, "attach_embeddings", "io.attach_embeddings")
        patch(rio, "parse_gt", "io.parse_gt")
        patch(rio, "write_results", "io.write_results")
        patch(rio, "nms", "io.nms", after=nms_kept)
        patch(syn, "generate", "synth.generate")
        patch(syn, "write_detections", "io.write_detections")
        patch(syn, "write_embeddings", "io.write_embeddings")
        patch(syn, "write_gt", "io.write_gt")

        # tracker and assign. Stage 1 is the first solve in a step.
        solves_in_step = [0]

        def step_begins(args):
            tracker = args[0]
            solves_in_step[0] = 0
            live = len(tracker.live_tracks)
            counts["tracker.steps"] += 1
            counts["tracker.live_tracks.sum"] += live
            counts["tracker.live_tracks.max"] = max(counts["tracker.live_tracks.max"], live)

        def step_ends(args, outputs):
            tracker = args[0]
            counts["tracker.matched_stage1"] += tracker.last_stats.matched_stage1
            counts["tracker.matched_stage2"] += tracker.last_stats.matched_stage2
            counts["tracker.tracks_created"] = len(tracker.tracks)

        def solve_span():
            solves_in_step[0] += 1
            return "assign.stage1.solve" if solves_in_step[0] == 1 else "assign.stage2.solve"

        def solve_cells(args):
            costs = args[0]
            counts["assign.cells"] += costs.size
            counts["assign.admissible"] += int(np.isfinite(costs).sum())

        def cost_cells(args, costs):
            counts["tracker.cost_cells"] += costs.size

        patch(trk.Tracker, "step", "tracker.step", before=step_begins, after=step_ends)
        patch(trk, "split_by_score", "tracker.split_by_score")
        patch(trk, "build_cost_matrix", "tracker.build_cost_matrix", after=cost_cells)
        patch(trk, "weighted_feature", "tracker.weighted_feature")
        patch(trk, "gate_costs", "assign.gate_costs")
        patch(trk, "solve_assignment", solve_span, before=solve_cells)

        # metrics
        patch(met, "clear_mot", "metrics.clear_mot")
        patch(met, "idf1", "metrics.idf1")
        patch(met, "solve_assignment", "assign.eval.solve")

    def report(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }


def install_step_timer() -> list:
    """Time every Tracker.step call; returns the list the times go into."""
    from reidmot.tracker import Tracker

    times = []
    step = Tracker.step

    def timed_step(self, frame_input):
        t0 = time.perf_counter()
        out = step(self, frame_input)
        times.append(time.perf_counter() - t0)
        return out

    Tracker.step = timed_step
    return times


def install_iou_counter():
    """Count calls to `iou` as reidmot.metrics looks it up; next() gives the count."""
    import reidmot.metrics as met

    ticks = itertools.count()
    iou = met.iou

    def counted_iou(a, b):
        next(ticks)
        return iou(a, b)

    met.iou = counted_iou
    return ticks


def run_command(cli, mode, report_path, command) -> int:
    """Run one reidmot command as MODE asks and write its report."""
    import numpy
    import scipy

    report = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    tracer = steps = iou_ticks = None
    run = cli.main
    if mode == "steps":
        steps = install_step_timer()
    elif mode == "count":
        iou_ticks = install_iou_counter()
    elif mode == "trace":
        tracer = Tracer()
        tracer.install()
        run = tracer.wrap(f"cli.{command[0]}", cli.main)

    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = run(command)
    report["wall_s"] = time.perf_counter() - t0
    report["stdout"] = out.getvalue()
    if steps is not None:
        report["steps_s"] = steps
    if tracer is not None:
        report["trace"] = tracer.report()
    if iou_ticks is not None:
        report["iou_calls"] = next(iou_ticks)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


def forked_command(cli, request) -> int:
    """In a fresh fork: run the request with stdout and stderr in its log."""
    log = os.open(request["log"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    os.dup2(log, 1)
    os.dup2(log, 2)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        return run_command(cli, request["mode"], request["report"], request["argv"])
    except BaseException:
        traceback.print_exc()
        return 1
    finally:
        sys.stdout.flush()
        sys.stderr.flush()


def serve(requests, responses) -> int:
    """Fork one process per request line; answer each with its exit and rusage."""
    sys.path.insert(0, SRC)
    import reidmot.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"reidmot was imported from {cli.__file__}, not from {SRC}")
    # Every command starts from this one state: modules imported, nothing run.
    gc.collect()
    gc.freeze()
    for line in requests:
        request = json.loads(line)
        if request["mode"] not in MODES:
            raise SystemExit(f"unknown mode {request['mode']!r}")
        pid = os.fork()
        if pid == 0:
            os._exit(forked_command(cli, request))
        deadline = time.monotonic() + request["timeout_s"]
        timed_out = False
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                done, status, usage = os.wait4(pid, 0)
                timed_out = True
                break
            time.sleep(0.005)
        responses.write(json.dumps({"exit": os.waitstatus_to_exitcode(status),
                                    "timed_out": timed_out,
                                    "maxrss_kb": usage.ru_maxrss}) + "\n")
        responses.flush()
    return 0


if __name__ == "__main__":
    sys.exit(serve(sys.stdin, sys.stdout))
