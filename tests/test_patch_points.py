"""Names that callers patch on the package's modules must stay where they are.

The benchmark (bench/child.py) times and counts each layer by replacing
these module attributes, so renaming or moving one silently drops its layer
from the benchmark's per-layer figures.
"""

import pytest

import reidmot.io as seqio
from reidmot.core import FrameInput
import reidmot.metrics as metrics
import reidmot.synth as synth
import reidmot.tracker as tracker

PATCHED = [
    (seqio, "load_text"),
    (seqio, "save_text"),
    (seqio, "parse_detections"),
    (seqio, "parse_embeddings"),
    (seqio, "attach_embeddings"),
    (seqio, "parse_gt"),
    (seqio, "write_results"),
    (seqio, "nms"),
    (synth, "save_text"),
    (synth, "generate"),
    (synth, "write_detections"),
    (synth, "write_embeddings"),
    (synth, "write_gt"),
    (tracker.Tracker, "step"),
    (tracker, "split_by_score"),
    (tracker, "build_cost_matrix"),
    (tracker, "weighted_feature"),
    (tracker, "gate_costs"),
    (tracker, "solve_assignment"),
    (metrics, "clear_mot"),
    (metrics, "idf1"),
    (metrics, "solve_assignment"),
    (metrics, "iou"),
]


@pytest.mark.parametrize("owner, name", PATCHED,
                         ids=[f"{getattr(o, '__name__', o)}.{n}" for o, n in PATCHED])
def test_patched_name_exists(owner, name):
    assert callable(getattr(owner, name))


def test_tracker_exposes_what_the_step_hooks_read():
    t = tracker.Tracker()
    t.step(FrameInput(frame=1, detections=()))
    assert t.live_tracks == [] and len(t.tracks) == 0
    assert t.last_stats.matched_stage1 == 0 and t.last_stats.matched_stage2 == 0
