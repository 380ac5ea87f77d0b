import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reidmot import (
    BBox,
    Detection,
    DimensionMismatchError,
    DuplicateEntryError,
    GtEntry,
    MissingEmbeddingError,
    OrphanEmbeddingError,
    ParseError,
    TrackOutput,
    ZeroNormError,
    attach_embeddings,
    cosine_similarity,
    iou,
    nms,
    parse_detections,
    parse_embeddings,
    parse_gt,
    write_results,
)
from reidmot.io import write_detections, write_embeddings, write_gt


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


def test_nms_keeps_order_by_score():
    dets = [_d(100, 0.5), _d(0, 0.9), _d(200, 0.7)]
    kept = nms(dets, 0.5)
    assert [k.score for k in kept] == [0.9, 0.7, 0.5]


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
