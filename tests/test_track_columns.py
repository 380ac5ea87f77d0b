"""`reidmot track` on columns gives what the record pipeline gives.

The command reads, joins, suppresses, tracks and writes columns, with no
record per detection or per output. The library route builds them:
parse_detections, parse_embeddings, attach_embeddings, nms of each frame,
run_sequence, write_results. Both must give the same bytes, and the same
exit code and message on bad input.
"""

import contextlib
import io
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reidmot.io as seqio
from reidmot import (
    FrameInput,
    Tracker,
    TrackerConfig,
    TrackState,
    attach_embeddings,
    parse_detections,
    parse_embeddings,
    parse_gt,
    run_sequence,
    write_results,
)
from reidmot.cli import _exit_code, main
from reidmot.core import _exact_column, _frame_rows


def _record_pipeline(det_text, emb_text, config, nms_thresh=None):
    """(exit code, results text or error line) of the record route."""
    try:
        frames = attach_embeddings(parse_detections(det_text), parse_embeddings(emb_text))
        if nms_thresh is not None:
            seqio._check_iou_thresh(nms_thresh)  # before the first frame, if any
            frames = [FrameInput(fi.frame, seqio.nms(fi.detections, nms_thresh))
                      for fi in frames]
        return 0, write_results(run_sequence(frames, config))
    except Exception as exc:
        return _exit_code(exc), f"error: {exc}\n"


def _track(directory, det_text, emb_text, *flags):
    """(exit code, results text or error line) of `reidmot track`."""
    det, emb, out = (pathlib.Path(directory) / name for name in ("det.txt", "emb.txt", "out.txt"))
    det.write_bytes(det_text.encode())
    emb.write_bytes(emb_text.encode())
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["track", str(det), str(emb), str(out), *flags])
    return rc, out.read_bytes().decode() if rc == 0 else err.getvalue()


DIM = 4
SCORES = [0.1, 0.3, 0.5, 0.84, 0.9, 1.0]  # discarded, low band and high band


@st.composite
def scenarios(draw):
    """Detection and embedding texts over 1-6 frames drawn from 1-12, so
    frame numbers have gaps, with 1-3 classes and 1-5 detections a frame.

    Each detection sees one of four orthogonal appearances with noise, in a
    box on a small grid (so that NMS finds overlaps), at a score from every
    band. The detection lines of the frames are interleaved, each frame's in
    its order; the embedding lines come in any order. Now and then an
    embedding line is dropped or an extra one added, so that the join fails.
    """
    classes = draw(st.integers(1, 3))
    grid, side = st.integers(0, 4).map(float), st.sampled_from([2.0, 3.0, 4.0])
    noise = st.lists(st.floats(-0.3, 0.3), min_size=DIM, max_size=DIM)
    queues, emb_lines = [], []
    for frame in sorted(draw(st.sets(st.integers(1, 12), min_size=1, max_size=6))):
        queue = []
        for index in range(draw(st.integers(1, 5))):
            box = [draw(grid), draw(grid), draw(side), draw(side)]
            queue.append(",".join(map(repr, [frame, -1, *box, draw(st.sampled_from(SCORES)),
                                             draw(st.integers(0, classes - 1)), -1])))
            vec = np.eye(DIM)[draw(st.integers(0, DIM - 1))] + draw(noise)
            emb_lines.append(",".join(map(repr, [frame, index, *vec.tolist()])))
        queues.append(queue)
    det_lines = []
    while any(queues):
        det_lines.append(draw(st.sampled_from([q for q in queues if q])).pop(0))
    emb_lines = draw(st.permutations(emb_lines))
    damage = draw(st.sampled_from(["none"] * 8 + ["drop", "extra"]))
    if damage == "drop":
        emb_lines = emb_lines[1:]
    elif damage == "extra":
        emb_lines = emb_lines + ["13,0," + ",".join(["0.5"] * DIM)]
    return "\n".join(det_lines) + "\n", "\n".join(emb_lines) + "\n"


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(scenarios(), st.sampled_from([None, 0.0, 0.3, 0.5]), st.booleans(), st.booleans())
def test_track_equals_the_record_pipeline(scenario, nms_thresh, per_class, bytetrack_stage2):
    det_text, emb_text = scenario
    config = TrackerConfig(per_class=per_class, bytetrack_stage2=bytetrack_stage2)
    flags = ["--per-class" if per_class else "--no-per-class"]
    flags += ["--bytetrack-stage2"] if bytetrack_stage2 else []
    flags += [] if nms_thresh is None else ["--nms-thresh", repr(nms_thresh)]
    with tempfile.TemporaryDirectory() as directory:
        got = _track(directory, det_text, emb_text, *flags)
    assert got == _record_pipeline(det_text, emb_text, config, nms_thresh)


BIG = 2**70


@pytest.mark.parametrize("frames, classes", [
    ((BIG, BIG + 1), (0, 0)),
    ((1, 2), (BIG, BIG + 1)),
    ((BIG, BIG + 3), (BIG, BIG + 1)),
], ids=["frames", "classes", "both"])
@pytest.mark.parametrize("per_class", [True, False])
def test_frames_and_class_ids_past_int64_track_as_the_records_do(tmp_path, frames, classes,
                                                                 per_class):
    # Such values take the route through parse_detections and the positional
    # lexsort join on object key columns, as the in-process
    # test_class_ids_past_int64_are_kept_and_gated does through the records:
    # tracks keep their class as given, and the class gate still holds.
    det_text = "".join(f"{f},-1,0,0,10,10,0.9,{c},-1\n{f},-1,50,0,10,10,0.9,0,-1\n"
                       for f, c in zip(frames, classes))
    emb_text = "".join(f"{f},1,0,1\n{f},0,1,0\n" for f in frames)
    columns = seqio._parse_detection_columns(det_text)
    assert object in (columns.frame.dtype, columns.class_id.dtype)
    flag = "--per-class" if per_class else "--no-per-class"
    rc, text = _track(tmp_path, det_text, emb_text, flag)
    assert (rc, text) == _record_pipeline(det_text, emb_text, TrackerConfig(per_class=per_class))
    rows = [(e.frame, e.identity, e.class_id) for e in parse_gt(text)]
    (f1, f2), (c1, c2) = frames, classes
    if per_class and c1 != c2:
        assert rows == [(f1, 1, c1), (f1, 2, 0), (f2, 2, 0), (f2, 3, c2)]
    else:
        assert rows == [(f1, 1, c1), (f1, 2, 0), (f2, 1, c1), (f2, 2, 0)]


def test_track_steps_once_per_frame_with_one_positional_argument(tmp_path, monkeypatch):
    # The benchmark times Tracker.step by wrapping it on the class, and its
    # trace hooks read last_stats, tracks and live_tracks around each call.
    # A run that made no call would leave its step times empty.
    scenario = tmp_path / "scenario"
    assert main(["synth", str(scenario), "--num-identities", "4", "--num-frames", "30",
                 "--embedding-dim", "8", "--clutter-rate", "1", "--dropout-window", "5:20:1",
                 "--seed", "3"]) == 0
    det, emb = scenario / "det.txt", scenario / "emb.txt"
    frames = []
    removed = 0
    step = Tracker.step

    def wrapped(*args, **kwargs):
        assert not kwargs
        tracker, frame_input = args
        live = len(tracker.live_tracks)
        out = step(tracker, frame_input)
        stats = tracker.last_stats
        assert stats.frame == frame_input.frame
        track_ids = out[0]
        assert stats.matched_stage1 + stats.matched_stage2 + stats.spawned == len(track_ids)
        assert len(tracker.live_tracks) == live + stats.spawned - stats.removed
        assert all(t.state is not TrackState.REMOVED for t in tracker.live_tracks)
        assert [t.track_id for t in tracker.tracks] == list(range(1, len(tracker.tracks) + 1))
        assert set(track_ids.tolist()) <= {t.track_id for t in tracker.live_tracks}
        nonlocal removed
        removed += stats.removed
        frames.append(frame_input.frame)
        return out

    monkeypatch.setattr(Tracker, "step", wrapped)
    rc = main(["track", str(det), str(emb), str(tmp_path / "out.txt"), "--max-lost-age", "3"])
    assert rc == 0
    assert frames == sorted({d.frame for d in parse_detections(det.read_text())})
    assert removed > 0


@pytest.mark.parametrize("emb_text, code", [
    (f"{BIG},0,1,0\n", 4),
    (f"{BIG},0,1,0\n{BIG},1,0,1\n{BIG},2,0,1\n", 14),
    (f"{BIG},0,1,0\n{BIG + 1},0,0,1\n", 4),  # as many keys as detections
], ids=["missing", "orphan", "mismatched"])
def test_embeddings_that_do_not_join_past_int64_fail_as_the_records_do(tmp_path, emb_text,
                                                                       code):
    det_text = f"{BIG},-1,0,0,10,10,0.9,0,-1\n{BIG},-1,50,0,10,10,0.9,0,-1\n"
    got = _track(tmp_path, det_text, emb_text)
    assert got == _record_pipeline(det_text, emb_text, TrackerConfig())
    assert got[0] == code


def _join_outcome(join):
    try:
        return join()
    except Exception as exc:
        return type(exc), str(exc)


# Frame values on both sides of int64's top, so the frame and key columns
# are int64 or object arrays, in every mix.
JOIN_FRAMES = [1, 2, 5, 2**63 - 1, 2**63, BIG]


@settings(derandomize=True, max_examples=400, database=None, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(JOIN_FRAMES), st.integers(0, 3)), max_size=5,
                unique_by=lambda frame_count: frame_count[0]),
       st.sampled_from(["none", "drop", "add", "both"]), st.data())
def test_the_positional_join_lines_up_or_fails_as_attach_embeddings(frame_counts, damage, data):
    # Damage drops a key, adds one that no detection takes, or both, so
    # that as many keys as detections can still fail to line up.
    frames = [frame for frame, count in sorted(frame_counts) for _ in range(count)]
    n = len(frames)
    detections = seqio._DetectionColumns(_exact_column(frames), np.ones((4, n)),
                                         np.full(n, 0.9), np.zeros(n, dtype=np.int64))
    ranks = [frames[:k].count(frame) for k, frame in enumerate(frames)]
    keys = list(zip(frames, ranks))
    if damage in ("drop", "both") and keys:
        keys.pop(data.draw(st.integers(0, n - 1)))
    if damage in ("add", "both"):
        extra = data.draw(st.tuples(st.sampled_from(JOIN_FRAMES), st.integers(0, 4)))
        keys += [] if extra in zip(frames, ranks) else [extra]
    keys = data.draw(st.permutations(keys))
    key_array = _exact_column(keys).reshape(-1, 2)
    vecs = np.arange(2.0 * len(keys)).reshape(-1, 2)

    want = _join_outcome(lambda: attach_embeddings(
        seqio._detection_records(detections), dict(zip(keys, vecs))))
    got = _join_outcome(lambda: seqio._embedding_rows(
        detections, _frame_rows(detections.frame), key_array, vecs))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert [tuple(key) for key in key_array[got].tolist()] == list(zip(frames, ranks))
        assert [d.embedding.tolist() for fi in want for d in fi.detections] \
            == vecs[got].tolist()
