import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reidmot import (
    BBox,
    Detection,
    DimensionMismatchError,
    DuplicateEntryError,
    FrameInput,
    GtEntry,
    MissingEmbeddingError,
    OrphanEmbeddingError,
    ParseError,
    TrackingError,
    TrackOutput,
    ZeroNormError,
    attach_embeddings,
    cosine_similarity,
    iou,
    nms,
    normalize_embedding,
    parse_detections,
    parse_embeddings,
    parse_gt,
    write_results,
)
import reidmot.io as seqio
from reidmot.io import write_detections, write_embeddings, write_gt

from bad_frames import BAD_FRAMES, embedded_frame, writer_input
from field_texts import EDGE_PADS, INT_TEXTS, REAL_TEXTS
from oracles import component_format_embeddings, greedy_nms


def test_parse_detections_basic():
    text = (
        "# a comment line\n"
        "\n"
        "2,-1,5,6,7,8,0.5,1,-1\r\n"
        "1,-1,0.5,1.5,10,20,0.95,0,-1\n"
        "2,-1,1,1,2,2,0.84,0,-1\n"
    )
    dets = parse_detections(text)
    assert [d.frame for d in dets] == [1, 2, 2]
    assert dets[0].bbox == BBox(0.5, 1.5, 10.0, 20.0)
    assert dets[0].score == 0.95
    assert dets[1].class_id == 1  # file order kept within frame 2
    assert dets[2].score == 0.84


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("1,-1,0,0,10,10,0.5,0", "9 fields"),
        ("1,-1,0,0,10,10,0.5,0,-1,9", "9 fields"),
        ("x,-1,0,0,10,10,0.5,0,-1", "frame"),
        ("1,-1,0,0,abc,10,0.5,0,-1", "non-numeric"),
        ("1,-1,0,0,0,10,0.5,0,-1", "positive"),
        ("1,-1,0,0,10,-2,0.5,0,-1", "positive"),
        ("1,-1,0,0,10,10,1.5,0,-1", "score"),
        ("1,-1,0,0,10,10,-0.1,0,-1", "score"),
        ("0,-1,0,0,10,10,0.5,0,-1", "frame"),
        ("1,-1,0,0,10,10,0.5,-2,-1", "class"),
        ("1,-1,0,0,10,10,0.5,1.5,-1", "class"),
        ("1,-1,nan,0,10,10,0.5,0,-1", "finite"),
        ("1,-1,0,-inf,10,10,0.5,0,-1", "finite"),
        ("1,-1,0,0,inf,10,0.5,0,-1", "finite"),
        ("1,-1,0,0,10,nan,0.5,0,-1", "finite"),
        ("1,-1,0,0,1e400,10,0.5,0,-1", "finite"),
        ("1,-1,0,0,10,10,nan,0,-1", "score"),
        ("1,-1,0,0,10,10,inf,0,-1", "score"),
        ("1,abc,0,0,10,10,0.5,0,-1", "non-integer identity: 'abc'"),
        ("1,-1,0,0,10,10,0.5,0,xyz", "non-numeric visibility: 'xyz'"),
    ],
)
def test_parse_detections_rejects_malformed(line, fragment):
    with pytest.raises(ParseError) as err:
        parse_detections(line + "\n")
    assert fragment in str(err.value)


def test_parse_error_reports_true_line_number():
    text = "# header\n\n1,-1,0,0,10,10,0.5,0,-1\nbroken\n"
    with pytest.raises(ParseError) as err:
        parse_detections(text)
    assert err.value.line_no == 4


def test_parse_embeddings_basic_and_normalized():
    text = "1,0,3,4\n1,1,0,2\n2,0,-1,0\n"
    emb = parse_embeddings(text)
    assert set(emb) == {(1, 0), (1, 1), (2, 0)}
    assert np.allclose(emb[(1, 0)], [0.6, 0.8])
    assert np.allclose(emb[(1, 1)], [0.0, 1.0])
    for v in emb.values():
        assert abs(float(np.linalg.norm(v)) - 1.0) < 1e-12


def test_parse_embeddings_errors():
    with pytest.raises(DimensionMismatchError):
        parse_embeddings("1,0,1,0\n1,1,1,0,0\n")
    with pytest.raises(DimensionMismatchError):
        parse_embeddings("1,0,1,0\n", expected_dim=3)
    with pytest.raises(ZeroNormError):
        parse_embeddings("1,0,0,0\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_embeddings("1,0,1,0\n1,0,0,1\n")
    with pytest.raises(ParseError):
        parse_embeddings("1,0\n")
    with pytest.raises(ParseError):
        parse_embeddings("1,0,a,b\n")
    with pytest.raises(ParseError):
        parse_embeddings("1,-1,1,0\n")
    with pytest.raises(ParseError, match="line 2: .*finite"):
        parse_embeddings("1,0,1,0\n1,1,nan,1\n")
    with pytest.raises(ParseError, match="line 1: .*finite"):
        parse_embeddings("1,0,1,-inf\n")


def test_embedding_whose_norm_overflows_names_its_line():
    # Finite components whose squares overflow: the norm is inf, which
    # would scale the vector to zeros.
    message = r"^line 2: embedding norm must be finite, got inf$"
    with pytest.raises(ParseError, match=message):
        parse_embeddings("1,0,0.6,0.8\n1,1,1e200,0\n")
    with pytest.raises(ParseError, match=message):
        seqio._parse_embedding_lines("1,0,0.6,0.8\n1,1,1e200,0\n", None)
    with pytest.raises(ValueError, match="norm must be finite"):
        normalize_embedding([1e200, 0.0])


def test_embedding_dimension_and_zero_norm_errors_name_their_line():
    with pytest.raises(ZeroNormError,
                       match=r"^line 1: cannot normalize vector with norm 0\.0$"):
        parse_embeddings("1,0,0,0\n1,1,1,0\n")
    with pytest.raises(ZeroNormError, match=r"^line 2: cannot normalize"):
        parse_embeddings("1,0,1,0\n1,1,0,0\n")
    with pytest.raises(DimensionMismatchError,
                       match=r"^line 3: embedding has length 3, expected 2$"):
        parse_embeddings("# dim 2\n1,0,1,0\n1,1,1,0,0\n")
    with pytest.raises(DimensionMismatchError,
                       match=r"^line 1: embedding has length 2, expected 3$"):
        parse_embeddings("1,0,1,0\n", expected_dim=3)


@pytest.mark.parametrize("frames, message", [
    (writer_input(case.dim, case.frame), case.message)
    for case in BAD_FRAMES if case.error is DimensionMismatchError
])
def test_write_embeddings_rejects_what_the_parser_would(frames, message):
    with pytest.raises(DimensionMismatchError, match=message):
        write_embeddings(frames)


def test_write_embeddings_still_names_a_missing_embedding():
    with pytest.raises(MissingEmbeddingError):
        write_embeddings([embedded_frame(np.array([1.0, 0.0]), None)])


def test_clean_embedding_file_takes_the_columnar_path(monkeypatch):
    text = "1,0,3,4\n1,1,0,2\n2,0,-1,0\n"
    keys, vecs = seqio._parse_embedding_lines(text, None)
    want = dict(zip(map(tuple, keys.tolist()), vecs))

    def no_line_parser(*args):
        raise AssertionError("the line parser ran on a clean file")

    monkeypatch.setattr(seqio, "_parse_embedding_lines", no_line_parser)
    emb = parse_embeddings(text)
    assert list(emb) == list(want) == [(1, 0), (1, 1), (2, 0)]
    assert all(emb[k].tobytes() == want[k].tobytes() for k in want)
    block = emb[(1, 0)].base  # the rows are views of one block, not copies
    assert block is not None and all(v.base is block for v in emb.values())


CLEAN_EMBEDDINGS = "1,0,3,4\n1,1,0,2\n2,0,-1,0\n"


@pytest.mark.parametrize("text", [
    "# frame,index,v1,v2\n" + CLEAN_EMBEDDINGS,
    CLEAN_EMBEDDINGS + "\n",
    "\n  # made by hand\n" + CLEAN_EMBEDDINGS.replace("\n", "\r\n") + "   \r\n",
], ids=["header", "trailing-blank", "crlf-blank-and-indented-comment"])
def test_comment_and_blank_lines_keep_the_columnar_path(text, monkeypatch):
    want = parse_embeddings(CLEAN_EMBEDDINGS)

    def no_line_parser(*args):
        raise AssertionError("the line parser ran on a file with only comments added")

    monkeypatch.setattr(seqio, "_parse_embedding_lines", no_line_parser)
    emb = parse_embeddings(text)
    assert list(emb) == list(want)
    assert all(emb[k].tobytes() == want[k].tobytes() for k in want)


CLEAN_BOXES = "2,1,0,0,10,10,1,0,1\n1,2,5,5,10,10,1,0,1\n1,1,0.5,0,4,8,1,3,-1\n"


@pytest.mark.parametrize("text", [
    CLEAN_BOXES,
    "# frame,id,x,y,w,h,score,class,flag\n" + CLEAN_BOXES + "\n",
    CLEAN_BOXES.replace("\n", "\r\n") + "\r\n  # end\r\n",
], ids=["clean", "header-and-trailing-blank", "crlf-and-comment"])
def test_box_table_of_a_clean_file_skips_the_line_parser(text, monkeypatch):
    entries = parse_gt(CLEAN_BOXES)  # sorted by (frame, identity)

    def no_line_parser(source):
        raise AssertionError("parse_gt ran on a clean file")

    monkeypatch.setattr(seqio, "parse_gt", no_line_parser)
    table = seqio._parse_box_table(text)
    assert table.frame.tolist() == [e.frame for e in entries]
    assert table.ids.tolist() == [e.identity for e in entries]
    assert table.class_id.tolist() == [e.class_id for e in entries]
    assert table.boxes.T.tolist() == [[e.bbox.x, e.bbox.y, e.bbox.w, e.bbox.h] for e in entries]


@pytest.mark.parametrize("text", [
    CLEAN_EMBEDDINGS + "   \n",
    "\t\n" + CLEAN_EMBEDDINGS,
    CLEAN_EMBEDDINGS.replace("\n", "\n \t \n", 1),
    CLEAN_EMBEDDINGS.replace("\n", "\r\n") + "  \r\n",
    "# made by hand\n" + "".join(f" {line}\t\n" for line in CLEAN_EMBEDDINGS.splitlines()),
], ids=["trailing-spaces", "leading-tab", "inner-mixed", "crlf-trailing-spaces",
        "comment-and-padded-lines"])
def test_whitespace_only_lines_keep_the_columnar_embedding_path(text, monkeypatch):
    # _loadtxt reads the lines _lines keeps, stripped, in its one pass: a
    # line of only whitespace never reaches loadtxt, and neither does the
    # padding of a data line.
    want = parse_embeddings(CLEAN_EMBEDDINGS)

    def no_line_parser(*args):
        raise AssertionError("the line parser ran on a file with only blank lines added")

    monkeypatch.setattr(seqio, "_parse_embedding_lines", no_line_parser)
    emb = parse_embeddings(text)
    assert list(emb) == list(want)
    assert all(emb[k].tobytes() == want[k].tobytes() for k in want)


@pytest.mark.parametrize("text", [
    CLEAN_BOXES + " \t\n",
    "   \n" + CLEAN_BOXES,
    CLEAN_BOXES.replace("\n", "\r\n\t\r\n", 1),
    "# frame,id,x,y,w,h,score,class,flag\n"
    + "".join(f"\t{line}  \n" for line in CLEAN_BOXES.splitlines()),
], ids=["trailing-space-tab", "leading-spaces", "crlf-inner-tab", "comment-and-padded-lines"])
def test_whitespace_only_lines_keep_the_columnar_box_path(text, monkeypatch):
    want = seqio._parse_box_table(CLEAN_BOXES)

    def no_line_parser(source):
        raise AssertionError("parse_gt ran on a file with only blank lines added")

    monkeypatch.setattr(seqio, "parse_gt", no_line_parser)
    table = seqio._parse_box_table(text)
    for column in ("frame", "ids", "class_id", "boxes"):
        assert getattr(table, column).tobytes() == getattr(want, column).tobytes()


CLEAN_DETECTIONS = "2,-1,0,0,10,10,0.9,1,-1\n1,-1,5.5,0,10,10,0.3,0,-1\n2,-1,1,1,2,2,1,0,-1\n"


@pytest.mark.parametrize("text", [
    CLEAN_DETECTIONS,
    "# frame,-1,x,y,w,h,score,class,-1\n" + CLEAN_DETECTIONS.replace("\n", "\r\n\t\r\n", 1),
], ids=["clean", "comment-crlf-and-blank"])
def test_detection_columns_of_a_clean_file_skip_the_line_parser(text, monkeypatch):
    want = parse_detections(CLEAN_DETECTIONS)

    def no_line_parser(source):
        raise AssertionError("parse_detections ran on a clean file")

    monkeypatch.setattr(seqio, "parse_detections", no_line_parser)
    columns = seqio._parse_detection_columns(text)
    assert (columns.frame.dtype, columns.class_id.dtype) == (np.int64, np.int64)
    assert seqio._detection_records(columns) == want
    assert columns.frame.tolist() == [1, 2, 2]  # stable by frame: file order within


# (column, text) of a detection field beyond the shared texts: a frame, a
# side or a class parse_detections reads but its record types reject, a
# score above 1, just above 1, NaN or negative zero, and id or flag columns
# that are not numbers.
DETECTION_TEXTS = [(0, "0"), (0, "-1"), (4, "0"), (4, "-2"), (5, "-0.0"), (5, "1e-400"),
                   (7, "-1"), (6, "1.5"), (6, "1.0000000000000002"), (6, "nan"), (6, "-0.0"),
                   (6, "-1e-300"), (1, "a"), (1, "-1.5"), (8, "x"), (8, "nan")]


@st.composite
def detection_files(draw):
    """Detection texts: rows like "2,-1,0,1,3,3,0.5,1,-1" over interleaved
    frames, some mutated by a shared field text, a detection field text,
    edge whitespace or a wrong field count, with comment and blank lines,
    LF or CRLF endings, and empty files."""
    grid, side = st.integers(0, 3), st.sampled_from([2, 3, 4.5])
    score = st.sampled_from([0, 0.25, 0.5, 0.9, 1])
    rows = [",".join(map(str, [draw(st.integers(1, 4)), -1, draw(grid), draw(grid), draw(side),
                               draw(side), draw(score), draw(st.integers(0, 2)), -1]))
            for _ in range(draw(st.sampled_from([0, 1, 3, 6])))]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if rows else 0):
        at = draw(st.integers(0, len(rows) - 1))
        fields = rows[at].split(",")
        kind = draw(st.sampled_from(["field", "field", "detection", "detection", "pad", "short",
                                     "long"]))
        if kind == "pad":
            lead, trail = draw(st.sampled_from(EDGE_PADS))
            fields[0], fields[-1] = lead + fields[0], fields[-1] + trail
        elif kind == "field":
            col = draw(st.integers(0, 8))
            fields[col] = draw(st.sampled_from(INT_TEXTS if col in (0, 1, 7) else REAL_TEXTS))
        elif kind == "detection":
            col, text = draw(st.sampled_from(DETECTION_TEXTS))
            fields[col] = text
        else:
            fields = fields[:-1] if kind == "short" else fields + ["1"]
        rows[at] = ",".join(fields)
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))),
                    draw(st.sampled_from(["", "# frame,-1,x,y,w,h,score,class,-1", "  #1", "\t"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(rows) + draw(st.sampled_from(["", newline]))


def _detections_outcome(parse, text):
    try:
        return repr(parse(text))  # float reprs: equal strings are equal bits
    except Exception as exc:
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=600, database=None, deadline=None)
@given(detection_files())
def test_detection_columns_equal_parse_detections(text):
    def columns(source):
        return seqio._detection_records(seqio._parse_detection_columns(source))

    assert _detections_outcome(columns, text) == _detections_outcome(parse_detections, text)


# Characters str.splitlines() breaks at besides LF and CR. A file's lines end
# at LF only (load_text reads CR and CRLF as LF), and a line's edge
# whitespace, these included, is stripped.
OTHER_LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", OTHER_LINE_BREAKS,
                         ids=[f"{ord(c):#x}" for c in OTHER_LINE_BREAKS])
@pytest.mark.parametrize("parse, text, reason", [
    (parse_gt, "1,1,0,0,10,10,1,0,1{}\n1,x,0,0,10,10,1,0,1\n", "non-integer identity: 'x'"),
    (seqio._parse_box_table, "1,1,0,0,10,10,1,0,1{}\n1,x,0,0,10,10,1,0,1\n",
     "non-integer identity: 'x'"),
    (parse_detections, "1,-1,0,0,10,10,0.9,0,-1{}\n1,-1,0,0,10,10,0.9,x,-1\n",
     "non-integer class: 'x'"),
    (seqio._parse_detection_columns, "1,-1,0,0,10,10,0.9,0,-1{}\n1,-1,0,0,10,10,0.9,x,-1\n",
     "non-integer class: 'x'"),
    (parse_embeddings, "1,0,1,0{}\n1,x,1,0\n", "non-integer index: 'x'"),
], ids=["gt", "box-table", "detections", "detection-columns", "embeddings"])
def test_other_line_breaks_keep_the_line_numbers(char, parse, text, reason):
    with pytest.raises(ParseError, match=f"^line 2: {reason}$"):
        parse(text.format(char))


# The characters np.loadtxt takes beside a number, as whitespace, and int()
# and float() do not.
SEPARATORS = ["\x1c", "\x1d", "\x1e", "\x1f"]


@pytest.mark.parametrize("sep", SEPARATORS, ids=[f"{ord(c):#x}" for c in SEPARATORS])
@pytest.mark.parametrize("columnar, parse, text", [
    (seqio._parse_box_table, parse_gt, "1,1,0{},0,10,10,1,0,1\n"),
    (seqio._parse_detection_columns, parse_detections, "1,-1,0,0,10,10,0.9,{}0,-1\n"),
    (parse_embeddings, lambda text: seqio._parse_embedding_lines(text, None), "1,0,3{},4\n"),
], ids=["gt", "detections", "embeddings"])
def test_a_separator_beside_a_number_is_refused_on_both_paths(sep, columnar, parse, text):
    with pytest.raises(ParseError) as want:
        parse(text.format(sep))
    with pytest.raises(ParseError) as got:
        columnar(text.format(sep))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_load_text_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, newline):
    # Far past the first block a read takes, after two-byte characters.
    path = tmp_path / "bad.txt"
    path.write_bytes(("\u00e9" + newline).encode() * 20_000 + b"\xc3(\n")
    with pytest.raises(ParseError, match=r"^line 20001: not UTF-8: byte 0xc3 \(invalid "
                                         r"continuation byte\)$"):
        seqio.load_text(path)


FLOAT_KEY_TEXTS = ["1.0,0,0.6,0.8\n", "1,0.5,0.6,0.8\n", "1.9,0,0.6,0.8\n"]


def _line_parser_error(text):
    with pytest.raises(ParseError) as want:
        seqio._parse_embedding_lines(text, None)
    return str(want.value)


@pytest.mark.parametrize("text", FLOAT_KEY_TEXTS)
def test_float_key_is_refused_with_warnings_ignored(text):
    # As run from the command line, where warnings are not errors.
    message = _line_parser_error(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ParseError) as got:
            parse_embeddings(text)
    assert str(got.value) == message


@pytest.mark.parametrize("text", FLOAT_KEY_TEXTS)
def test_float_key_is_refused_where_loadtxt_only_warns(text, monkeypatch):
    # Older numpy read an int64 field such as "1.9" through a float, as 1,
    # with only a DeprecationWarning; this loadtxt does the same.
    message = _line_parser_error(text)
    loadtxt = np.loadtxt

    def float_key_loadtxt(lines, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        rows = [line.split(",") for line in lines]
        return loadtxt([",".join([str(int(float(k))) for k in row[:2]] + row[2:]) for row in rows],
                       **kwargs)

    monkeypatch.setattr(seqio.np, "loadtxt", float_key_loadtxt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ParseError) as got:
            parse_embeddings(text)
    assert str(got.value) == message


def test_attach_embeddings_joins_by_frame_and_file_order():
    dets = parse_detections(
        "1,-1,0,0,10,10,0.9,0,-1\n"
        "1,-1,20,0,10,10,0.8,0,-1\n"
        "3,-1,40,0,10,10,0.7,0,-1\n"
    )
    emb = parse_embeddings("1,0,1,0\n1,1,0,1\n3,0,1,1\n")
    frames = attach_embeddings(dets, emb)
    assert [fi.frame for fi in frames] == [1, 3]
    assert np.allclose(frames[0].detections[0].embedding, [1, 0])
    assert np.allclose(frames[0].detections[1].embedding, [0, 1])
    assert frames[0].detections[1].score == 0.8


def test_attach_embeddings_reports_hole():
    dets = parse_detections("1,-1,0,0,10,10,0.9,0,-1\n1,-1,5,0,10,10,0.8,0,-1\n")
    emb = parse_embeddings("1,0,1,0\n")
    with pytest.raises(MissingEmbeddingError) as err:
        attach_embeddings(dets, emb)
    assert err.value.frame == 1 and err.value.index == 1


def test_attach_embeddings_reports_smallest_orphan():
    dets = parse_detections("1,-1,0,0,10,10,0.9,0,-1\n3,-1,0,0,10,10,0.9,0,-1\n")
    emb = parse_embeddings("3,1,1,0\n1,0,1,0\n2,0,0,1\n3,0,0,1\n")
    with pytest.raises(OrphanEmbeddingError) as err:
        attach_embeddings(dets, emb)
    assert (err.value.frame, err.value.index) == (2, 0)
    # a hole is reported before any orphan
    with pytest.raises(MissingEmbeddingError):
        attach_embeddings(dets, parse_embeddings("1,1,1,0\n3,0,0,1\n"))


def test_detection_roundtrip_is_lossless():
    rng = np.random.default_rng(21)
    dets = []
    for _ in range(200):
        dets.append(Detection(
            frame=int(rng.integers(1, 50)),
            bbox=BBox(*rng.uniform(-100, 100, 2), *rng.uniform(0.01, 80, 2)),
            score=float(rng.uniform(0, 1)),
            class_id=int(rng.integers(0, 5)),
        ))
    dets.sort(key=lambda d: d.frame)
    assert parse_detections(write_detections(dets)) == dets


def test_results_roundtrip_modulo_quantization():
    rng = np.random.default_rng(22)
    outputs = []
    for f in range(1, 30):
        for tid in range(1, int(rng.integers(1, 5))):
            outputs.append(TrackOutput(
                frame=f,
                track_id=tid,
                # coordinates representable at 6 decimals round-trip exactly
                bbox=BBox(round(float(rng.uniform(0, 500)), 6),
                          round(float(rng.uniform(0, 500)), 6),
                          round(float(rng.uniform(1, 50)), 6),
                          round(float(rng.uniform(1, 50)), 6)),
                score=round(float(rng.uniform(0, 1)), 6),
                class_id=int(rng.integers(0, 3)),
            ))
    text = write_results(outputs)
    assert text.endswith("\n") and "\r" not in text
    for line in text.splitlines():
        assert len(line.split(",")) == 9
    back = parse_gt(text)
    assert len(back) == len(outputs)
    as_entries = sorted(
        (o.frame, o.track_id, o.bbox, o.class_id) for o in outputs
    )
    assert [(e.frame, e.identity, e.bbox, e.class_id) for e in back] == as_entries


def test_write_results_six_decimal_format():
    o = TrackOutput(frame=3, track_id=4, bbox=BBox(1.5, 2.25, 10, 20),
                    score=0.875, class_id=1)
    assert write_results([o]) == "3,4,1.500000,2.250000,10.000000,20.000000,0.875000,1,-1\n"
    assert write_results([]) == ""


def test_gt_roundtrip_and_validation():
    entries = [
        GtEntry(frame=1, identity=2, bbox=BBox(0.25, 0.5, 10, 10), class_id=1),
        GtEntry(frame=2, identity=1, bbox=BBox(3, 4, 5, 6)),
    ]
    assert parse_gt(write_gt(entries)) == entries

    with pytest.raises(DuplicateEntryError):
        parse_gt("1,1,0,0,10,10,1,0,1\n1,1,5,5,10,10,1,0,1\n")
    with pytest.raises(ParseError):
        parse_gt("1,0,0,0,10,10,1,0,1\n")  # identity must be >= 1
    with pytest.raises(ParseError):
        parse_gt("1,1,0,0,10,10,1,0\n")
    with pytest.raises(ParseError, match="class"):
        parse_gt("1,1,0,0,10,10,1,-1,1\n")
    with pytest.raises(ParseError, match="line 2: .*finite"):
        parse_gt("1,1,0,0,10,10,1,0,1\n1,2,inf,0,10,10,1,0,1\n")
    with pytest.raises(ParseError, match="finite"):
        parse_gt("1,1,0,0,nan,10,1,0,1\n")
    # sorted by (frame, identity)
    back = parse_gt("2,1,0,0,10,10,1,0,1\n1,2,0,0,10,10,1,0,1\n1,1,0,0,10,10,1,0,1\n")
    assert [(e.frame, e.identity) for e in back] == [(1, 1), (1, 2), (2, 1)]


def test_embedding_roundtrip_similarity_drift():
    from reidmot import FrameInput

    rng = np.random.default_rng(23)
    dets = []
    for k in range(40):
        e = rng.normal(size=16)
        dets.append(Detection(frame=1, bbox=BBox(0, 0, 10, 10), score=0.9,
                              embedding=e / np.linalg.norm(e)))
    fi = FrameInput(frame=1, detections=tuple(dets))
    back = parse_embeddings(write_embeddings([fi]))
    for k in range(40):
        orig = dets[k].embedding
        redone = back[(1, k)]
        for other in range(40):
            drift = abs(cosine_similarity(orig, dets[other].embedding)
                        - cosine_similarity(redone, back[(1, other)]))
            assert drift < 1e-5


def _d(x, score, class_id=0, y=0.0, w=10.0, h=10.0):
    return Detection(frame=1, bbox=BBox(x, y, w, h), score=score, class_id=class_id)


def test_nms_chain_keeps_first_and_third():
    # B overlaps A (IoU 2/3) and C overlaps B (IoU 2/3), but A and C only
    # reach IoU 3/7: greedy keeps A, drops B, then keeps C because the
    # suppressed B no longer blocks it.
    a, b, c = _d(0, 0.9), _d(2, 0.8), _d(4, 0.7)
    assert iou(a.bbox, b.bbox) == pytest.approx(2 / 3)
    assert iou(b.bbox, c.bbox) == pytest.approx(2 / 3)
    assert iou(a.bbox, c.bbox) == pytest.approx(3 / 7)
    kept = nms([a, b, c], 0.5)
    assert kept == [a, c]


def test_nms_keeps_file_order():
    dets = [_d(100, 0.5), _d(0, 0.9), _d(200, 0.7)]
    kept = nms(dets, 0.5)
    assert [k.score for k in kept] == [0.5, 0.9, 0.7]


def test_nms_score_tie_prefers_earlier_index():
    first, second = _d(0, 0.8), _d(1, 0.8)  # heavy overlap, equal scores
    kept = nms([first, second], 0.5)
    assert kept == [first]
    kept = nms([second, first], 0.5)
    assert kept == [second]


def test_nms_respects_classes():
    same_spot_other_class = _d(0, 0.8, class_id=1)
    kept = nms([_d(0, 0.9), same_spot_other_class], 0.3)
    assert len(kept) == 2


def test_nms_threshold_extremes():
    dup = [_d(0, 0.9), _d(0, 0.8)]
    # nothing exceeds IoU 1.0, even exact duplicates survive
    assert len(nms(dup, 1.0)) == 2
    # at 0.0 any positive overlap suppresses
    assert nms(dup, 0.0) == [dup[0]]
    with pytest.raises(ValueError):
        nms(dup, 1.5)


def test_nms_idempotent_and_subset_on_random_frames():
    rng = np.random.default_rng(24)
    for _ in range(300):
        dets = [
            _d(float(rng.uniform(0, 40)), float(rng.uniform(0.05, 1.0)),
               class_id=int(rng.integers(0, 2)), y=float(rng.uniform(0, 40)))
            for _ in range(int(rng.integers(0, 12)))
        ]
        thresh = float(rng.uniform(0, 1))
        kept = nms(dets, thresh)
        ids = {id(d) for d in dets}
        assert all(id(k) in ids for k in kept)  # subset of the input
        assert nms(kept, thresh) == kept  # idempotent
        # kept same-class pairs never exceed the threshold
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                if kept[i].class_id == kept[j].class_id:
                    assert iou(kept[i].bbox, kept[j].bbox) <= thresh


def test_nms_frames_calls_nms_once_per_frame(monkeypatch):
    calls = []
    nms_one = seqio.nms

    def counted(dets, thresh):
        calls.append(len(dets))
        return nms_one(dets, thresh)

    monkeypatch.setattr(seqio, "nms", counted)
    groups = [[_d(0, 0.9), _d(1, 0.8)], [], [_d(5, 0.5)]]
    assert seqio.nms_frames(groups, 0.5) == [[groups[0][0]], [], groups[2]]
    assert calls == [2, 0, 1]


# Property tests. Fixed settings keep them deterministic and quick.
PROPERTY = settings(derandomize=True, max_examples=100, database=None, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
side = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
boxes = st.builds(BBox, finite, finite, side, side)
frames = st.integers(1, 10**6)
classes = st.integers(0, 10**6)
detections = st.builds(Detection, frame=frames, bbox=boxes,
                       score=st.floats(0.0, 1.0), class_id=classes)
gt_entries = st.builds(GtEntry, frame=frames, identity=st.integers(1, 10**6),
                       bbox=boxes, class_id=classes)
# Numeric text of every kind a file may hold: non-finite values, small ints,
# repr floats, signs, padding, separators and empty fields.
numeric_text = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e400"]),
    st.integers(-3, 3).map(str),
    st.floats().map(repr),
    st.sampled_from(["-0", "+1", " 2", "1_0", "0x1", ""]),
)


def rows_like(valid_row):
    """1-3 copies of a valid row, each with one or two fields replaced."""
    def mutate(edits):
        fields = valid_row.split(",")
        for col, text in edits:
            fields[col] = text
        return ",".join(fields)
    edits = st.lists(st.tuples(st.integers(0, 8), numeric_text), min_size=1, max_size=2)
    return st.lists(edits.map(mutate), min_size=1, max_size=3)


def _box_ok(b):
    return all(math.isfinite(v) for v in (b.x, b.y, b.w, b.h)) and b.w > 0 and b.h > 0


@PROPERTY
@given(st.lists(detections, max_size=20))
def test_detection_roundtrip_property(dets):
    assert parse_detections(write_detections(dets)) == sorted(dets, key=lambda d: d.frame)


@PROPERTY
@given(st.lists(gt_entries, max_size=20, unique_by=lambda e: (e.frame, e.identity)))
def test_gt_roundtrip_property(entries):
    assert parse_gt(write_gt(entries)) == sorted(entries, key=lambda e: (e.frame, e.identity))


@PROPERTY
@given(rows_like("1,-1,0,0,10,10,0.5,0,-1"))
def test_detection_rows_parse_valid_or_raise_parse_error(lines):
    try:
        dets = parse_detections("\n".join(lines))
    except ParseError:
        return
    assert len(dets) == len(lines)
    for d in dets:
        assert _box_ok(d.bbox) and d.frame >= 1 and 0.0 <= d.score <= 1.0 and d.class_id >= 0


@PROPERTY
@given(rows_like("1,1,0,0,10,10,1,0,1"))
def test_gt_rows_parse_valid_or_raise_parse_error(lines):
    try:
        entries = parse_gt("\n".join(lines))
    except (ParseError, DuplicateEntryError):
        return
    assert len(entries) == len(lines)
    for e in entries:
        assert _box_ok(e.bbox) and e.frame >= 1 and e.identity >= 1 and e.class_id >= 0


# One frame of several classes: boxes on a small grid repeat and tie, and
# scores from a short list tie too.
nms_frames_strategy = st.lists(
    st.builds(lambda x, y, w, h, score, cls: Detection(1, BBox(x, y, w, h), score, cls),
              st.integers(0, 6).map(float), st.integers(0, 6).map(float),
              st.sampled_from([2.0, 3.0, 4.0]), st.sampled_from([2.0, 3.0, 4.0]),
              st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]), st.integers(0, 2)),
    max_size=14)


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(nms_frames_strategy, st.one_of(st.sampled_from([0.0, 1.0, 0.5, 1 / 3]),
                                      st.floats(0.0, 1.0)))
def test_nms_equals_greedy_reference(dets, thresh):
    # The reference lists what it keeps by score; nms keeps the same boxes
    # in input order.
    reference = {id(d) for d in greedy_nms(dets, thresh)}
    kept = nms(dets, thresh)
    assert [id(d) for d in kept] == [id(d) for d in dets if id(d) in reference]


# Key and component texts the two embedding parsers might read differently:
# floats int() rejects, signs, padding, separators, overflow, non-finite and
# underflowing values, hex, Fortran exponents, full-width digits, empties.
KEY_TEXTS = ["0", "1", "2", "-1", "1.0", "1e0", "+1", " 2", "-0", "1_0",
             "99999999999999999999", "0x1", "１", ""]
VALUE_TEXTS = ["0", "-0.0", "0.6", "0.8", "nan", "-nan", "inf", "-Infinity",
               "1e400", "1e-400", "1e200", "+1", " 2", "3 ", "1_0", "0x1",
               "1d5", ".5", "5.", "１", ""]


@st.composite
def embedding_files(draw):
    """Rows like "1,0,0.6,0.8", some clean and some mutated, with blank and
    comment lines, LF or CRLF endings, and repeated keys from a small range."""
    dim = draw(st.sampled_from([1, 2, 2, 3, 3]))
    # Mostly values well away from 0, so that many clean files pass the norm check.
    value = st.one_of(st.floats(-2, 2), st.floats(0.1, 2), st.floats(-2, -0.1))
    clean = st.builds(lambda f, i, vals: ",".join([str(f), str(i), *map(repr, vals)]),
                      st.integers(1, 3), st.integers(0, 3),
                      st.lists(value, min_size=dim, max_size=dim))
    rows = draw(st.lists(clean, min_size=1, max_size=6))
    key_edit = st.builds(lambda k, col: (col, k), st.sampled_from(KEY_TEXTS), st.integers(0, 1))
    value_edit = st.builds(lambda v, col: (col, v), st.sampled_from(VALUE_TEXTS),
                           st.integers(2, dim + 1))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(rows) - 1))
        fields = rows[at].split(",")
        kind = draw(st.sampled_from(["key", "value", "zero", "short", "ragged", "extra", "pad"]))
        if kind == "pad":  # edge whitespace of the whole line
            lead, trail = draw(st.sampled_from(EDGE_PADS))
            fields[0], fields[-1] = lead + fields[0], fields[-1] + trail
        elif kind in ("key", "value"):
            col, text = draw(key_edit if kind == "key" else value_edit)
            if col < len(fields):  # an earlier "short" or "ragged" edit may have cut it
                fields[col] = text
        elif kind == "zero":
            fields[2:] = ["0"] * dim
        elif kind == "short":
            fields = fields[:2]
        else:
            fields = fields[:-1] if kind == "ragged" else fields + ["0.5"]
        rows[at] = ",".join(fields)
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))),
                    draw(st.sampled_from(["", "# comment", "#1,0,1", "   "])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(rows) + draw(st.sampled_from(["", newline]))


def _parse_outcome(parse, text, expected_dim):
    try:
        keys, vecs = parse(text, expected_dim)
    except TrackingError as exc:
        return type(exc), str(exc)
    return [(tuple(key), vec.tobytes()) for key, vec in zip(keys.tolist(), vecs)]


@settings(derandomize=True, max_examples=600, database=None, deadline=None)
@given(embedding_files(), st.sampled_from([None, 2, 3]))
@example(text="1,0,1e200,0\n", expected_dim=None)
def test_columnar_embedding_parse_equals_the_line_parser(text, expected_dim):
    assert (_parse_outcome(seqio._parse_embedding_columns, text, expected_dim)
            == _parse_outcome(seqio._parse_embedding_lines, text, expected_dim))


WRITTEN_VALUES = st.one_of(st.floats(-2, 2),
                           st.sampled_from([-0.0, 5e-7, -5e-7, 0.5000005, 1e20]))


@st.composite
def embedded_frames(draw):
    dim = draw(st.integers(1, 8))
    vectors = st.lists(WRITTEN_VALUES, min_size=dim, max_size=dim).map(np.array)
    sizes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    return [embedded_frame(*[draw(vectors) for _ in range(n)], frame=f)
            for f, n in enumerate(sizes, start=1)]


@PROPERTY
@given(embedded_frames())
def test_write_embeddings_matches_the_component_writer(frames):
    assert write_embeddings(frames) == component_format_embeddings(frames)


def _around(x):
    """x and the doubles on either side of it."""
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


# Values whose "%.6f" text a kernel could get wrong: exact 7th-decimal ties,
# the doubles around (k + 0.5) * 1e-6, values that round up to 10, signed
# zeros and values that round to them, and magnitudes past the integer digit.
EDGE_VALUES = [
    0.0078125, -0.0078125, 0.9921875, -0.9921875,
    *[v for k in (0, 1, 7, 499999, 999999, 1234567, 9999998)
      for sign in (1, -1) for v in _around(sign * (k + 0.5) * 1e-6)],
    *_around(9.9999995), *_around(-9.9999995), 9.999999, -9.999999, 10.0, -10.0,
    0.0, -0.0, 4e-7, -4e-7, 5e-7, -5e-7, 1e20, -1e20, 1e300, -1e300,
]


def _edge_frames(values, dim, rng, dtype=np.float64):
    """One row per value, the value at a random place among ordinary ones."""
    rows = []
    for value in values:
        row = rng.uniform(-1, 1, dim)
        row[rng.integers(dim)] = value
        rows.append(row.astype(dtype))
    return [embedded_frame(*rows[i:i + 3], frame=f)
            for f, i in enumerate(range(0, len(rows), 3), start=1)]


def _write_cases():
    rng = np.random.default_rng(9)
    nonfinite = [np.nan, np.inf, -np.inf, -np.nan]
    ints = [np.array([-3, 0, 7, 12, -10]), np.array([1, 2, 3, 4, 5], dtype=np.uint8),
            np.array([True, False, True, False, True])]
    return {
        "edge-values": _edge_frames(EDGE_VALUES, 4, rng),
        "edge-values-one-column": [embedded_frame(*[np.array([v]) for v in EDGE_VALUES])],
        "non-finite": _edge_frames(nonfinite, 5, rng),
        "float32": _edge_frames([0.0078125, -0.0078125, 0.9921875, 5e-7, -4e-7,
                                 9.9999995, -0.0], 6, rng, np.float32),
        "int-and-bool": [embedded_frame(*ints)],
        "mixed-dtypes": [embedded_frame(np.array([0.5, -0.25, 3.0]), np.array([1, -2, 3]),
                                np.array([0.1, 0.2, 0.3], dtype=np.float32),
                                np.array([0.5, -4e-7, 7.25], dtype=object))],
        "empty-frames": [embedded_frame(frame=1), embedded_frame(np.array([0.25, -0.5]), frame=2),
                         embedded_frame(frame=3), embedded_frame(frame=4),
                         embedded_frame(np.array([-0.0, 0.0078125]), frame=5),
                         embedded_frame(frame=6)],
        "only-empty-frames": [embedded_frame(frame=1), embedded_frame(frame=2)],
        "no-frames": [],
        "random-block": [embedded_frame(*rng.normal(0, 3, (500, 128)))],
        "random-unit-block": [embedded_frame(*(v / np.linalg.norm(v)
                                       for v in rng.normal(size=(500, 128))))],
    }


WRITE_CASES = _write_cases()


@pytest.mark.parametrize("name", list(WRITE_CASES))
def test_write_embeddings_equals_the_component_writer_on_edge_cases(name):
    frames = WRITE_CASES[name]
    want = component_format_embeddings(frames)
    assert write_embeddings(frames) == want  # and quietly: warnings are errors here
    if name in ("only-empty-frames", "no-frames"):
        assert want == ""


@pytest.mark.parametrize("row", [np.array([0.5, 1 + 2j]), np.array(["0.5", "0.25"])],
                         ids=["complex", "text"])
def test_write_embeddings_leaves_rows_that_are_not_real_to_the_template(row):
    # "%.6f" refuses these; the kernel must not read them as reals instead.
    with pytest.raises(TypeError):
        ",".join(["%.6f"] * 2) % tuple(row.tolist())
    with pytest.raises(TypeError):
        write_embeddings([embedded_frame(np.array([0.25, -0.5]), row)])


BLOCK = seqio._FORMAT_BLOCK_ROWS
# Components the kernel leaves to the template (non-finite, rounding to 10
# or more, an exact tie: 0.0078125 * 1e6 is 7812.5), and signed zeros and
# values that round to them, which it must write as "-0.000000".
FALLBACK_VALUES = [np.nan, np.inf, -np.inf, 10.0, -12.5, 9.9999995, 0.0078125, -0.0078125]
SIGNED_ZEROS = [-0.0, -4e-7, 0.0, 4e-7]


@st.composite
def edge_blocks(draw):
    """(N, d) blocks of N = B - 1, B, B + 1 or 2B + 1 rows (B: the kernel's
    block size), with fallback and signed-zero components placed at and
    around the block edges."""
    rows = draw(st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]))
    dim = draw(st.integers(1, 6))
    block = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1, 1, (rows, dim))
    near_edges = [r for r in (0, BLOCK - 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1,
                              2 * BLOCK, rows - 1) if r < rows]
    places = st.tuples(st.sampled_from(near_edges), st.integers(0, dim - 1),
                       st.sampled_from(FALLBACK_VALUES + SIGNED_ZEROS))
    for row, column, value in draw(st.lists(places, max_size=12)):
        block[row, column] = value
    return block


@PROPERTY
@given(edge_blocks())
def test_format_rows_equals_the_row_template_across_block_edges(block):
    row_fmt = ",".join(["%.6f"] * block.shape[1])
    assert seqio._format_rows(block) == [row_fmt % tuple(row.tolist()) for row in block]
