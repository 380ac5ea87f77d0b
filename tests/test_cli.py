"""End-to-end command tests, run in process through main(argv)."""

import argparse
import contextlib
import hashlib
import io
import itertools
import pathlib
import re
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reidmot.core as core
import reidmot.io as seqio
from reidmot import ScenarioSpec, TrackerConfig, TrackingError, export, generate
from reidmot.cli import EXIT_CODES, _config_from_args, _exit_code, build_parser, main
from reidmot.core import group_by_frame
from reidmot.io import load_text, parse_detections, parse_gt, write_detections, write_embeddings

from field_texts import EDGE_PADS, INT_TEXTS, REAL_TEXTS

DATA = pathlib.Path(__file__).parent / "data"
README = pathlib.Path(__file__).parent.parent / "README.md"


def _synth(tmp_path, *extra):
    out = tmp_path / "scenario"
    rc = main(["synth", str(out), "--num-frames", "50", *extra])
    assert rc == 0
    return out / "det.txt", out / "emb.txt", out / "gt.txt"


def test_full_pipeline_is_perfect_on_clean_data(tmp_path, capsys):
    det, emb, gt = _synth(tmp_path)
    results = tmp_path / "results.txt"
    capsys.readouterr()

    rc = main(["track", str(det), str(emb), str(results)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == ""  # track writes data to files only
    assert "tracked 50 frames" in captured.err
    assert "5 tracks created" in captured.err

    rc = main(["eval", str(gt), str(results)])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.splitlines()
    assert lines[0].split() == ["MOTA", "MOTP", "FP", "FN", "IDSW", "IDF1"]
    assert lines[1].split() == ["1.000", "0.000", "0", "0", "0", "1.000"]
    assert "idp=1.000 idr=1.000" in captured.err


def test_eval_csv_output(tmp_path, capsys):
    rc = main(["eval", str(DATA / "handcase_gt.txt"),
               str(DATA / "handcase_results.txt"), "--csv"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.splitlines()
    assert lines[0] == "mota,motp,fp,fn,idsw,idf1"
    assert lines[1] == "0.500000,0.100000,1,1,1,0.666667"


def test_eval_table_on_hand_fixture(capsys):
    rc = main(["eval", str(DATA / "handcase_gt.txt"),
               str(DATA / "handcase_results.txt")])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.splitlines()[1].split() == \
        ["0.500", "0.100", "1", "1", "1", "0.667"]


def test_missing_input_file_exits_13(tmp_path, capsys):
    rc = main(["track", str(tmp_path / "absent.txt"),
               str(tmp_path / "absent2.txt"), str(tmp_path / "out.txt")])
    captured = capsys.readouterr()
    assert rc == 13
    assert "absent.txt" in captured.err


def test_malformed_detections_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1,-1,0,0,10,10,0.9,1,-1\nnot,a,detection\n")
    rc = main(["track", str(bad), str(bad), str(tmp_path / "out.txt")])
    captured = capsys.readouterr()
    assert rc == 3
    assert "line 2" in captured.err


def test_missing_embedding_exits_4(tmp_path, capsys):
    det = tmp_path / "det.txt"
    emb = tmp_path / "emb.txt"
    det.write_text("1,-1,0,0,10,10,0.9,1,-1\n")
    emb.write_text("1,1,1.0,0.0\n")  # index 1, but the detection is index 0
    rc = main(["track", str(det), str(emb), str(tmp_path / "out.txt")])
    assert rc == 4
    assert "frame 1" in capsys.readouterr().err


def test_duplicate_gt_exits_7(tmp_path, capsys):
    gt = tmp_path / "gt.txt"
    gt.write_text("1,1,0,0,10,10,1,1,1\n1,1,5,5,10,10,1,1,1\n")
    res = tmp_path / "res.txt"
    res.write_text("1,1,0,0,10,10,1,1,-1\n")
    rc = main(["eval", str(gt), str(res)])
    assert rc == 7
    assert "duplicate" in capsys.readouterr().err


def test_empty_gt_exits_9(tmp_path, capsys):
    gt = tmp_path / "gt.txt"
    gt.write_text("# header only\n")
    res = tmp_path / "res.txt"
    res.write_text("1,1,0,0,10,10,1,1,-1\n")
    rc = main(["eval", str(gt), str(res)])
    assert rc == 9
    capsys.readouterr()


GOOD_BOXES = "1,1,0,0,10,10,1,0,1\n"
BAD_LINE_2 = GOOD_BOXES + "1,2,0,0,10\n"  # 5 fields
DUPLICATE_LINE_2 = GOOD_BOXES + "1,1,5,5,10,10,1,0,1\n"
HEADER_ONLY = "# header only\n"


# gt file errors first, then results file errors, then --iou-gate, then empty gt.
@pytest.mark.parametrize("gt_text, res_text, gate, code, message", [
    (BAD_LINE_2, "x\n", "0", 3, "error: line 2: expected 9 fields, got 5"),
    (BAD_LINE_2, DUPLICATE_LINE_2, "0.5", 3, "error: line 2: expected 9 fields"),
    (DUPLICATE_LINE_2, "x\n", "0", 7, "error: line 2: duplicate entry"),
    (GOOD_BOXES, "x\n", "0", 3, "error: line 1: expected 9 fields, got 1"),
    (HEADER_ONLY, DUPLICATE_LINE_2, "0", 7, "error: line 2: duplicate entry"),
    (HEADER_ONLY, GOOD_BOXES, "0", 11, "error: iou_gate must be in (0, 1], got 0.0"),
    (HEADER_ONLY, GOOD_BOXES, "0.5", 9, "error: ground truth is empty"),
])
def test_eval_error_precedence(tmp_path, capsys, gt_text, res_text, gate, code, message):
    gt = tmp_path / "gt.txt"
    gt.write_text(gt_text)
    res = tmp_path / "res.txt"
    res.write_text(res_text)
    rc = main(["eval", str(gt), str(res), "--iou-gate", gate])
    assert rc == code
    assert capsys.readouterr().err.startswith(message)


def test_eval_scores_frames_and_ids_past_int64(tmp_path, capsys):
    big = 2**70
    gt = tmp_path / "gt.txt"
    gt.write_text(f"{big},{big},0,0,10,10,1,0,1\n{big + 1},{big},0,0,10,10,1,0,1\n")
    res = tmp_path / "res.txt"
    res.write_text(f"{big},{2**64},0,0,10,10,1,0,-1\n{big + 1},{2**64},0,0,10,10,1,0,-1\n")
    rc = main(["eval", str(gt), str(res), "--csv"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[1] == "1.000000,0.000000,0,0,0,1.000000"


def test_eval_reads_written_files_without_the_line_parser(tmp_path, capsys, monkeypatch):
    # A writer change that sent eval back to parse_gt, as a header comment
    # once sent the embedding parse to its line parser, would fail here.
    det, emb, gt = _synth(tmp_path, "--clutter-rate", "2", "--dropout-prob", "0.1")
    results = tmp_path / "results.txt"
    assert main(["track", str(det), str(emb), str(results)]) == 0
    capsys.readouterr()
    want = (main(["eval", str(gt), str(results)]), capsys.readouterr())

    def no_line_parser(source):
        raise AssertionError("reidmot eval read a written file with parse_gt")

    monkeypatch.setattr(seqio, "parse_gt", no_line_parser)
    assert (main(["eval", str(gt), str(results)]), capsys.readouterr()) == want


def test_bad_tracker_config_exits_11(tmp_path, capsys):
    det, emb, _ = _synth(tmp_path)
    # A tau past core.MAX_TAU is refused before any store is opened: this one
    # would ask numpy for a score array of 8e12 floats.
    for tau in ("0", "1000000000000"):
        rc = main(["track", str(det), str(emb), str(tmp_path / "out.txt"),
                   "--tau", tau])
        assert rc == 11
        assert "tau" in capsys.readouterr().err
    # ConfigError is a ValueError too; a plain one is no bad configuration
    # but a fault outside every failure class, and exits 1.
    assert _exit_code(ValueError("not a configuration error")) == 1


def test_infeasible_separation_exits_10(tmp_path, capsys):
    rc = main(["synth", str(tmp_path / "s"), "--num-identities", "50",
               "--embedding-dim", "2", "--min-separation", "1.5"])
    assert rc == 10
    capsys.readouterr()


def test_malformed_dip_flag_exits_11(tmp_path, capsys):
    rc = main(["synth", str(tmp_path / "s"), "--score-dip", "5:8:1"])
    assert rc == 11
    assert "score-dip" in capsys.readouterr().err


def test_unknown_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["track", "--no-such-flag"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_nms_subcommand_drops_the_middle_box(tmp_path, capsys):
    det = tmp_path / "det.txt"
    det.write_text(
        "1,-1,0,0,10,10,0.9,1,-1\n"
        "1,-1,2,0,10,10,0.8,1,-1\n"
        "1,-1,4,0,10,10,0.7,1,-1\n"
    )
    out = tmp_path / "kept.txt"
    rc = main(["nms", str(det), str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "kept 2 of 3" in captured.err
    kept = parse_detections(load_text(out))
    assert [d.bbox.x for d in kept] == [0.0, 4.0]


def test_nms_subcommand_keeps_file_order_so_embeddings_still_join(tmp_path, capsys):
    # A 0.5 box, then a 0.9 box that does not overlap it, each seen again in
    # frame 2. Written by score, the kept 0.9 box would take the 0.5 box's
    # embedding, [1, 0], and its track would not match it in frame 2.
    det = tmp_path / "det.txt"
    emb = tmp_path / "emb.txt"
    det.write_text("1,-1,0,0,10,10,0.5,0,-1\n1,-1,50,0,10,10,0.9,0,-1\n"
                   "2,-1,0,0,10,10,0.5,0,-1\n2,-1,50,0,10,10,0.9,0,-1\n")
    emb.write_text("1,0,1,0\n1,1,0,1\n2,0,1,0\n2,1,0,1\n")
    kept = tmp_path / "kept.txt"
    assert main(["nms", str(det), str(kept)]) == 0
    assert parse_detections(load_text(kept)) == parse_detections(load_text(det))
    results = {}
    for name, dets in (("original", det), ("kept", kept)):
        results[name] = tmp_path / f"{name}-results.txt"
        assert main(["track", str(dets), str(emb), str(results[name])]) == 0
    capsys.readouterr()
    assert results["kept"].read_text() == results["original"].read_text()
    assert {e.identity for e in parse_gt(load_text(results["kept"]))} == {1}


def test_nms_that_drops_a_box_leaves_an_orphan_embedding(tmp_path, capsys):
    det = tmp_path / "det.txt"
    emb = tmp_path / "emb.txt"
    det.write_text("1,-1,0,0,10,10,0.5,0,-1\n1,-1,1,0,10,10,0.9,0,-1\n")
    emb.write_text("1,0,1,0\n1,1,0,1\n")
    kept = tmp_path / "kept.txt"
    assert main(["nms", str(det), str(kept)]) == 0
    assert [d.score for d in parse_detections(load_text(kept))] == [0.9]
    rc = main(["track", str(kept), str(emb), str(tmp_path / "out.txt")])
    assert rc == 14
    assert "frame 1, index 1" in capsys.readouterr().err



@st.composite
def nms_texts(draw):
    """Detection texts for `reidmot nms`: up to 12 rows on a small grid, so
    that boxes overlap, in frames and classes past int64 too. Now and then a
    field becomes one of the shared field texts or a line takes edge pads,
    and comment and blank lines go in; LF or CRLF, with or without a final
    one. Zero rows and no final line end give an empty file."""
    frames = [1, 2, 3, *draw(st.sampled_from([[], [2**63 - 1], [2**63, 10**20]]))]
    classes = [0, 1, *draw(st.sampled_from([[], [2**63]]))]
    side = st.sampled_from(["2", "3.0", "4.5"])
    row = st.builds("{},-1,{},{},{},{},{},{},-1".format, st.sampled_from(frames),
                    st.integers(0, 6), st.integers(0, 6), side, side,
                    st.sampled_from(["0", "0.3", "0.5", "0.9", "1"]), st.sampled_from(classes))
    rows = draw(st.lists(row, max_size=12))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        at = draw(st.integers(0, len(rows) - 1))
        fields = rows[at].split(",")
        col = draw(st.integers(0, 8))
        if draw(st.booleans()):
            fields[col] = draw(st.sampled_from(INT_TEXTS if col in (0, 1, 7) else REAL_TEXTS))
        else:
            lead, trail = draw(st.sampled_from(EDGE_PADS))
            fields[0], fields[-1] = lead + fields[0], fields[-1] + trail
        rows[at] = ",".join(fields)
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))),
                    draw(st.sampled_from(["", "# comment", "   ", "#1,-1,0,0,2,2,1,0,-1"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(rows) + draw(st.sampled_from(["", newline]))


def _record_nms(text, thresh):
    """(exit code, output, stderr) of the record route: parse the records,
    check the threshold, then nms each frame and write what it keeps."""
    try:
        dets = parse_detections(text)
        seqio._check_iou_thresh(thresh)
    except TrackingError as exc:
        return _exit_code(exc), "", f"error: {exc}\n"
    kept = [d for group in group_by_frame(dets).values() for d in seqio.nms(group, thresh)]
    return (0, write_detections(kept),
            f"nms at iou {thresh}: kept {len(kept)} of {len(dets)} detections\n")


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(nms_texts(), st.sampled_from([0.0, 1 / 3, 0.5, 1.0, 2.0, float("nan")]))
@example(text="1,-1,0,0,2,2,0.9,0,-1\n1,-1,0,0,2,2,2,0,-1\n", thresh=2.0)  # exit 3, not 11
@example(text="", thresh=float("nan"))
def test_nms_subcommand_equals_the_record_route(tmp_path_factory, text, thresh):
    base = tmp_path_factory.mktemp("nms")
    det, out = base / "det.txt", base / "out.txt"
    det.write_bytes(text.encode())
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["nms", str(det), str(out), "--nms-thresh", repr(thresh)])
    written = out.read_text(encoding="utf-8") if rc == 0 else ""
    assert (rc, written, err.getvalue()) == _record_nms(load_text(det), thresh)

# Frame 1: a 0.9 box at x=0, a 0.95 box at x=50 and a suppressed 0.85 box
# at x=1; frame 2 repeats the first two.
HAND_DET = ("1,-1,0,0,10,10,0.9,0,-1\n1,-1,50,0,10,10,0.95,0,-1\n"
            "1,-1,1,0,10,10,0.85,0,-1\n"
            "2,-1,0,0,10,10,0.9,0,-1\n2,-1,50,0,10,10,0.95,0,-1\n")
HAND_EMB = "1,0,1,0\n1,1,0,1\n1,2,1,0\n2,0,1,0\n2,1,0,1\n"


@st.composite
def synth_texts(draw):
    """The detection and embedding texts of a small synth scenario, in an
    arena small enough that the 40 px boxes of its identities and clutter
    often overlap."""
    side = draw(st.sampled_from([48.0, 80.0, 160.0]))
    bundle = generate(ScenarioSpec(
        num_identities=draw(st.integers(1, 6)), num_frames=draw(st.integers(1, 6)),
        embedding_dim=4, embed_noise_sigma=0.1, min_identity_separation=0.5,
        clutter_rate=draw(st.sampled_from([0.0, 1.0, 3.0])), arena=(side, side),
        seed=draw(st.integers(0, 2**16))))
    return (write_detections([d for fi in bundle.frames for d in fi.detections]),
            write_embeddings(bundle.frames))


def _kept_embeddings(det_text, kept_text, emb_text):
    """The embedding lines of the detections `reidmot nms` kept, re-indexed
    within each frame. The kept detections are the frame's in file order,
    less the dropped ones, so each is the first one left that equals it."""
    kept = group_by_frame(parse_detections(kept_text))
    positions = set()
    for frame, dets in group_by_frame(parse_detections(det_text)).items():
        left = iter(enumerate(dets))
        positions |= {(frame, next(i for i, d in left if d == k)) for k in kept.get(frame, [])}
    rows = [line.split(",", 2) for line in emb_text.splitlines()]
    rows = sorted((int(f), int(i), vec) for f, i, vec in rows if (int(f), int(i)) in positions)
    return "".join(f"{f},{index},{vec}\n" for _, group in itertools.groupby(rows, lambda r: r[0])
                   for index, (f, _, vec) in enumerate(group))


@settings(derandomize=True, max_examples=60, database=None, deadline=None)
@given(synth_texts(), st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]))
@example(scenario=(HAND_DET, HAND_EMB), nms_thresh=0.5)
def test_nms_then_track_equals_track_with_nms(tmp_path_factory, scenario, nms_thresh):
    # Both routes must hand the tracker the kept boxes in file order.
    det_text, emb_text = scenario
    base = tmp_path_factory.mktemp("nms")
    det, emb, kept, kept_emb = (base / name for name in ("det", "emb", "kept", "kept_emb"))
    det.write_text(det_text)
    emb.write_text(emb_text)
    direct, via_nms = base / "direct", base / "via_nms"
    thresh = ["--nms-thresh", repr(nms_thresh)]
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["track", str(det), str(emb), str(direct), *thresh]) == 0
        assert main(["nms", str(det), str(kept), *thresh]) == 0
        kept_emb.write_text(_kept_embeddings(det_text, load_text(kept), emb_text))
        assert main(["track", str(kept), str(kept_emb), str(via_nms)]) == 0
    assert via_nms.read_bytes() == direct.read_bytes()


def test_track_with_nms_founds_on_the_first_kept_box(tmp_path, capsys):
    # The hand case: the 0.9 box at x=0 comes first in the file, so it
    # founds track 1 in both frames though the 0.95 box outscores it.
    det, emb, results = tmp_path / "det", tmp_path / "emb", tmp_path / "results"
    det.write_text(HAND_DET)
    emb.write_text(HAND_EMB)
    assert main(["track", str(det), str(emb), str(results), "--nms-thresh", "0.5"]) == 0
    capsys.readouterr()
    first = [e for e in parse_gt(load_text(results)) if e.identity == 1]
    assert [e.bbox.x for e in first] == [0.0, 0.0]


def test_track_and_eval_build_no_gated_copy_and_no_assignment_result(
        tmp_path, capsys, monkeypatch):
    # Counted, not timed: both stages and the evaluation's fresh solves
    # match through assign._match on a bool mask, so a pipeline run builds
    # no gated copy of a cost matrix (gate_costs) and no AssignmentResult
    # (_result), and calls no solve_assignment.
    import reidmot.assign as assign
    import reidmot.metrics as metrics
    import reidmot.tracker as tracker

    det, emb, gt = _synth(tmp_path, "--num-identities", "8", "--seed", "3")

    def refused(*args):
        raise AssertionError("the pipeline built a gated copy or an AssignmentResult")

    for owner, name in ((assign, "_result"), (assign, "gate_costs"),
                        (tracker, "gate_costs"), (tracker, "solve_assignment"),
                        (metrics, "solve_assignment")):
        monkeypatch.setattr(owner, name, refused)
    matched = []
    for module in (tracker, metrics):
        monkeypatch.setattr(module, "_match", lambda costs, allowed, match=module._match,
                            name=module.__name__: matched.append(name) or match(costs, allowed))
    results = tmp_path / "results.txt"
    assert main(["track", str(det), str(emb), str(results), "--nms-thresh", "0.5"]) == 0
    assert main(["eval", str(gt), str(results)]) == 0
    capsys.readouterr()
    assert matched.count("reidmot.tracker") == 2 * 50  # two stages a frame
    assert matched.count("reidmot.metrics") >= 1  # frame 1's fresh solve at least


def test_track_accepts_nms_and_stage2_flags(tmp_path, capsys):
    det, emb, gt = _synth(tmp_path)
    results = tmp_path / "results.txt"
    rc = main(["track", str(det), str(emb), str(results),
               "--nms-thresh", "0.9", "--bytetrack-stage2", "--tau", "5"])
    assert rc == 0
    capsys.readouterr()
    assert len({e.identity for e in parse_gt(load_text(results))}) == 5


def test_tau_one_fragments_where_default_holds(tmp_path, capsys):
    # noisy scenario with a dip and a 10-frame dropout: a single-embedding
    # feature (tau 1) is unreliable, the tau 30 average is not
    scenario = tmp_path / "scenario"
    assert main(["synth", str(scenario), "--num-identities", "3",
                 "--num-frames", "120", "--embed-noise-sigma", "0.15",
                 "--score-dip", "45:54:2:0.5", "--dropout-window", "60:69:1",
                 "--seed", "0"]) == 0
    det, emb, gt = (scenario / n for n in ("det.txt", "emb.txt", "gt.txt"))
    idsw = {}
    for tau in ("30", "1"):
        res = tmp_path / f"res{tau}.txt"
        assert main(["track", str(det), str(emb), str(res), "--tau", tau]) == 0
        capsys.readouterr()
        assert main(["eval", str(gt), str(res), "--csv"]) == 0
        idsw[tau] = int(capsys.readouterr().out.splitlines()[1].split(",")[4])
    assert idsw["30"] == 0
    assert idsw["1"] > 0


def test_synth_flags_shape_the_scenario(tmp_path, capsys):
    det, _, gt = _synth(
        tmp_path, "--num-identities", "2",
        "--dropout-window", "6:9:2", "--score-dip", "10:12:1:0.5",
    )
    capsys.readouterr()
    dets = parse_detections(load_text(det))
    assert sum(1 for d in dets if 6 <= d.frame <= 9) == 4  # identity 2 hidden
    assert sorted(d.score for d in dets if d.frame == 11) == [0.5, 0.95]
    assert len(parse_gt(load_text(gt))) == 100  # gt unaffected by dropout


@pytest.mark.parametrize(
    "det_text,emb_text,line",
    [
        ("1,-1,0,0,10,10,0.9,0,-1\n1,-1,nan,inf,inf,5,0.9,0,-1\n",
         "1,0,1,0\n1,1,0,1\n", 2),
        ("1,-1,0,0,10,10,0.9,0,-1\n", "# header\n1,0,nan,1\n", 2),
    ],
)
def test_non_finite_input_exits_3(tmp_path, capsys, det_text, emb_text, line):
    det = tmp_path / "det.txt"
    emb = tmp_path / "emb.txt"
    det.write_text(det_text)
    emb.write_text(emb_text)
    rc = main(["track", str(det), str(emb), str(tmp_path / "out.txt")])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"line {line}" in err and "finite" in err


# Small valid files, each command's input.
VALID_FILES = {
    "det": b"1,-1,0,0,10,10,0.9,0,-1\n1,-1,5,0,10,10,0.5,0,-1\n2,-1,0,0,10,10,0.95,1,-1\n",
    "emb": b"1,0,1,0\n1,1,0.6,0.8\n2,0,0,1\n",
    "gt": b"1,1,0,0,10,10,1,0,1\n1,2,5,0,10,10,1,0,1\n2,1,0,0,10,10,1,0,1\n",
    "results": b"1,1,0,0,10,10,0.9,0,-1\n2,1,1,0,10,10,0.95,1,-1\n",
}
COMMANDS = [["track", "det", "emb", "out"], ["track", "det", "emb", "out", "--nms-thresh", "0.5"],
            ["eval", "gt", "results"], ["nms", "det", "out"]]


def _run(command, base, files):
    """main() on `command`, its file words made paths under `base`."""
    return main([str(base / word) if word in {*files, "out"} else word for word in command])


@pytest.mark.parametrize("command, bad", [
    (COMMANDS[0], "det"), (COMMANDS[0], "emb"), (COMMANDS[2], "gt"), (COMMANDS[2], "results"),
    (COMMANDS[3], "det"),
], ids=["track-det", "track-emb", "eval-gt", "eval-results", "nms-det"])
def test_a_byte_that_is_not_utf8_exits_3_naming_its_line(tmp_path, capsys, command, bad):
    files = dict(VALID_FILES)
    files[bad] = files[bad].replace(b"\n", b"\r\n\xff", 1)  # line 1 ends in CRLF
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    assert _run(command, tmp_path, files) == 3
    assert capsys.readouterr().err == \
        "error: line 2: not UTF-8: byte 0xff (invalid start byte)\n"


# Bytes that break an encoding, a line, a field or a number, or any byte.
DAMAGE_BYTES = st.one_of(st.sampled_from(list(b"\xff\x80\xc3\n\r,-.0 9e#n\x0c\x1c")),
                         st.integers(0, 255))


@st.composite
def damaged_files(draw):
    """VALID_FILES with one to four bytes replaced, inserted or deleted."""
    files = dict(VALID_FILES)
    for _ in range(draw(st.integers(1, 4))):
        name = draw(st.sampled_from(sorted(files)))
        data = bytearray(files[name])
        at = draw(st.integers(0, len(data) - 1))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "delete":
            del data[at]
        else:
            data[at:at + (edit == "replace")] = bytes([draw(DAMAGE_BYTES)])
        files[name] = bytes(data)
    return files


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(damaged_files())
def test_a_damaged_file_never_exits_1(tmp_path_factory, files):
    # Exit 1 is for a fault in reidmot, never for its input; main raises nothing.
    base = tmp_path_factory.mktemp("damaged")
    for name, data in files.items():
        (base / name).write_bytes(data)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes = [_run(command, base, files) for command in COMMANDS]
    assert all(code == 0 or 3 <= code <= 14 for code in codes), codes


def test_orphan_embedding_exits_14(tmp_path, capsys):
    det = tmp_path / "det.txt"
    emb = tmp_path / "emb.txt"
    det.write_text("1,-1,0,0,10,10,0.9,1,-1\n")
    emb.write_text("1,0,1.0,0.0\n1,1,1.0,0.0\n2,0,0.0,1.0\n")
    rc = main(["track", str(det), str(emb), str(tmp_path / "out.txt")])
    assert rc == 14
    assert "frame 1, index 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,flag,value",
    [
        ("synth", "--score-dip", "a:8:1:0.5"),
        ("synth", "--dropout-window", "5:x:1"),
        ("synth", "--arena-width", "43.99"),
        ("synth", "--arena-height", "43.99"),
        ("synth", "--clutter-rate", "nan"),
        ("synth", "--clutter-rate", "inf"),
        ("synth", "--embed-noise-sigma", "nan"),
        ("synth", "--embed-noise-sigma", "inf"),
        ("synth", "--embed-noise-sigma", "1e300"),
        ("synth", "--clutter-rate", "1e300"),
        ("synth", "--seed", "-1"),
        ("synth", "--arena-width", "nan"),
        ("synth", "--arena-width", "inf"),
        ("track", "--nms-thresh", "2"),
        ("eval", "--iou-gate", "0"),
    ],
)
def test_bad_flag_value_exits_11(tmp_path, capsys, command, flag, value):
    det, emb, gt = _synth(tmp_path)
    files = {
        "synth": [str(tmp_path / "s")],
        "track": [str(det), str(emb), str(tmp_path / "out.txt")],
        "eval": [str(gt), str(gt)],
    }[command]
    rc = main([command, *files, flag, value])
    assert rc == 11
    capsys.readouterr()


@pytest.mark.parametrize("flag, allowed", [
    ("--num-frames", "num_frames must be in [0, 1000000]"),
    ("--num-identities", "num_identities must be in [0, 100000]"),
    ("--embedding-dim", "embedding_dim must be in [1, 4096]"),
])
def test_synth_size_past_its_bound_exits_11_before_allocating(tmp_path, capsys, flag, allowed):
    # Unbounded, these sizes reach numpy as allocations of terabytes.
    rc = main(["synth", str(tmp_path / "s"), flag, str(10**12)])
    assert rc == 11
    assert allowed in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("sizes, allowed", [
    (["--num-identities", "100000", "--embedding-dim", "4096"],
     "num_identities * embedding_dim must be at most 16777216"),
    (["--num-frames", "1000000", "--num-identities", "100000"],
     "num_frames * num_identities must be at most 10000000"),
    (["--num-frames", "2000", "--num-identities", "5000", "--embedding-dim", "3000"],
     "num_frames * num_identities * embedding_dim must be at most 160000000"),
])
def test_synth_size_product_past_its_bound_exits_11_before_allocating(tmp_path, capsys, sizes,
                                                                      allowed):
    # Each size is within its own bound. Unbounded, the first asks for a
    # 3.05 GiB bases matrix, the second for 10**11 records and the third for
    # about 240 GB of embeddings.
    rc = main(["synth", str(tmp_path / "s"), *sizes, "--min-separation", "0"])
    assert rc == 11
    assert allowed in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


# The sha256 of the files of one small scenario through all four commands,
# as the record routes wrote them: synth's three, then track's and nms's.
COLUMN_ROUTE_PINS = {
    "det.txt": "89eb82a6509117d2d3522d5e311479e7128a440b4a0d7a82d85c8a7f5eb61dae",
    "emb.txt": "f87c89dfb30908140191606a0426d21e201c309a570aad60e8e9b2949959dc9f",
    "gt.txt": "38e75e557b650bb63924ff640512d7ab9a05a288f938ae527e6706dd454dedc3",
    "results.txt": "2305b09abf021f8240e057182b76523f41e6013b1968c06968d826485aa484e4",
    "kept.txt": "d73e5246ace445b23fb47902797ecd0caff4dec394370df2d7414eb79ccb536a",
}


def test_every_command_stays_on_columns(tmp_path, capsys, monkeypatch):
    # On clean files no command builds a record per row, so building one fails.
    def refuse(record, *args, **kwargs):
        raise AssertionError(f"a {type(record).__name__} was built")

    for record in (core.Detection, core.GtEntry, core.TrackOutput):
        monkeypatch.setattr(record, "__init__", refuse)
    s, results, kept = tmp_path / "s", tmp_path / "results.txt", tmp_path / "kept.txt"
    commands = [
        ["synth", s, "--num-identities", "6", "--num-frames", "8", "--embedding-dim", "8",
         "--arena-width", "120", "--arena-height", "120", "--clutter-rate", "2", "--seed", "5"],
        ["track", s / "det.txt", s / "emb.txt", results, "--nms-thresh", "0.5"],
        ["eval", s / "gt.txt", results],
        ["nms", s / "det.txt", kept],
    ]
    assert [main(list(map(str, command))) for command in commands] == [0, 0, 0, 0]
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1].split() == ["0.875", "0.000", "0", "6", "0", "0.933"]
    assert "nms at iou 0.5: kept 50 of 59 detections\n" in captured.err
    paths = [s / "det.txt", s / "emb.txt", s / "gt.txt", results, kept]
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in paths} == COLUMN_ROUTE_PINS


@pytest.mark.parametrize("command", ["track", "nms"])
def test_bad_nms_thresh_on_empty_input_exits_11(tmp_path, capsys, command):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    out = tmp_path / "out.txt"
    inputs = [str(empty), str(empty)] if command == "track" else [str(empty)]
    rc = main([command, *inputs, str(out), "--nms-thresh", "2"])
    assert rc == 11
    assert not out.exists()
    assert "iou_thresh must be in [0, 1]" in capsys.readouterr().err


def test_feature_that_cancels_out_exits_6(tmp_path, capsys):
    det = tmp_path / "det.txt"
    emb = tmp_path / "emb.txt"
    det.write_text("1,-1,0,0,10,10,0.9,0,-1\n2,-1,0,0,10,10,0.9,0,-1\n")
    emb.write_text("1,0,1.0,0.0\n2,0,-1.0,0.0\n")
    rc = main(["track", str(det), str(emb), str(tmp_path / "out.txt"),
               "--sim-gate-high", "-1", "--no-per-class"])
    assert rc == 6
    capsys.readouterr()


@pytest.mark.parametrize("embeddings, code, message", [
    ("1,0,1,0\n1,1,1,0,0\n", 5, "error: line 2: embedding has length 3, expected 2\n"),
    ("1,0,1,0\n1,1,0,0\n", 6, "error: line 2: cannot normalize vector with norm 0.0\n"),
    ("1,0,1,0\n1,1,1e200,0\n", 3, "error: line 2: embedding norm must be finite, got inf\n"),
])
def test_embedding_file_errors_name_their_line(tmp_path, capsys, embeddings, code, message):
    det = tmp_path / "det.txt"
    emb = tmp_path / "emb.txt"
    det.write_text("1,-1,0,0,10,10,0.9,0,-1\n1,-1,20,0,10,10,0.9,0,-1\n")
    emb.write_text(embeddings)
    rc = main(["track", str(det), str(emb), str(tmp_path / "out.txt")])
    assert rc == code
    assert capsys.readouterr().err == message


def test_default_synth_flags_give_the_default_spec(tmp_path, capsys):
    assert main(["synth", str(tmp_path / "cli")]) == 0
    capsys.readouterr()
    export(generate(ScenarioSpec()), tmp_path / "spec")
    for name in ("det.txt", "emb.txt", "gt.txt"):
        assert (tmp_path / "cli" / name).read_bytes() == \
            (tmp_path / "spec" / name).read_bytes()


def _track_config(*flags):
    return _config_from_args(build_parser().parse_args(["track", "d", "e", "o", *flags]))


def test_default_track_flags_give_the_default_config():
    assert _track_config() == TrackerConfig()


def test_every_track_flag_reaches_its_config_field():
    config = _track_config(
        "--high-thresh", "0.9", "--low-thresh", "0.2", "--sim-gate-high", "0.7",
        "--sim-gate-low", "0.4", "--tau", "5", "--max-lost-age", "7",
        "--min-init-score", "0.95", "--no-per-class", "--embedding-dim", "8",
        "--bytetrack-stage2")
    assert config == TrackerConfig(high_thresh=0.9, low_thresh=0.2, sim_gate_high=0.7,
                                   sim_gate_low=0.4, tau=5, max_lost_age=7,
                                   min_init_score=0.95, per_class=False, embedding_dim=8,
                                   bytetrack_stage2=True)
    assert all(getattr(config, f.name) != getattr(TrackerConfig(), f.name)
               for f in fields(TrackerConfig))


def _readme_flag_table() -> dict:
    """{option: its default cell} from README's "Tracker flags and defaults"."""
    table = README.read_text(encoding="utf-8").split("Tracker flags and defaults")[1]
    rows = {}
    for line in table.split("\n\n")[1].splitlines()[2:]:
        flags, default = (cell.strip() for cell in line.strip("|").split("|")[:2])
        rows.update((option, default) for option in re.findall(r"`(--[\w-]+)`", flags))
    return rows


def test_readme_flag_table_matches_the_parser():
    rows = _readme_flag_table()
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    defaults = {}  # option -> its numeric defaults over the commands that have it
    for command in ("track", "eval", "nms"):
        for action in commands[command]._actions:
            for option in set(action.option_strings) - {"-h", "--help"}:
                assert option in rows, f"README's flag table has no row for {command} {option}"
                numeric = isinstance(action.default, (int, float)) \
                    and not isinstance(action.default, bool)
                defaults.setdefault(option, set()).update([action.default] if numeric else [])
    for option, stated in defaults.items():
        numbers = {float(n) for n in re.findall(r"\d+(?:\.\d+)?", rows[option])}
        assert numbers == stated, f"{option}: README states {rows[option]!r}"


def test_readme_exit_codes_match_the_cli():
    """README's "Exit codes:" paragraph states 0, 1, 2 and each code of
    EXIT_CODES, each once, and no other."""
    text = README.read_text(encoding="utf-8")
    paragraph = text.split("Exit codes:")[1].split("\n\n")[0]
    stated = [int(n) for n in re.findall(r"\b\d+\b", paragraph)]
    assert sorted(stated) == sorted({0, 1, 2} | {code for _, code in EXIT_CODES})
