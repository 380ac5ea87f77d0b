import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reidmot import (
    BBox,
    ConfigError,
    Detection,
    DimensionMismatchError,
    FrameInput,
    GtEntry,
    Tracker,
    TrackerConfig,
    ZeroNormError,
    cosine_similarity,
    iou,
    normalize_embedding,
)
from reidmot.core import MAX_TAU, iou_matrix

from oracles import scalar_iou


def test_bbox_requires_positive_sides():
    with pytest.raises(ValueError):
        BBox(0, 0, 0, 10)
    with pytest.raises(ValueError):
        BBox(0, 0, 10, -1)


def test_bbox_area_and_shift():
    b = BBox(1.0, 2.0, 3.0, 4.0)
    assert b.area == 12.0
    assert b.shifted(10, 20) == BBox(11.0, 22.0, 3.0, 4.0)


def test_iou_hand_values():
    a = BBox(0, 0, 2, 2)
    b = BBox(1, 0, 2, 2)
    assert iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert iou(a, a) == 1.0
    assert iou(a, BBox(10, 10, 2, 2)) == 0.0
    # touching edges do not intersect
    assert iou(a, BBox(2, 0, 2, 2)) == 0.0


def test_iou_symmetry_and_bounds():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        x1, y1, x2, y2 = rng.uniform(-50, 50, 4)
        w1, h1, w2, h2 = rng.uniform(0.1, 60, 4)
        a = BBox(x1, y1, w1, h1)
        b = BBox(x2, y2, w2, h2)
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == iou(b, a)
def test_iou_of_identical_boxes_never_exceeds_one():
    # (x + w) - x = 40.000000000000114 here; unclamped that gives iou > 1
    b = BBox(1008.4550966083378, 1008.4550966083378, 40.0, 40.0)
    assert iou(b, b) <= 1.0
    assert iou(b, b) > 1.0 - 1e-12
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        c = BBox(float(rng.uniform(0, 1240)), float(rng.uniform(0, 680)), 40.0, 40.0)
        assert iou(c, c) <= 1.0


def test_iou_containment():
    # containment: iou equals area ratio
    outer = BBox(0, 0, 10, 10)
    inner = BBox(0, 0, 5, 10)
    assert iou(outer, inner) == pytest.approx(0.5)


def _reference_matrix(a, b):
    """scalar_iou pair by pair. Where both areas underflow to 0 the scalar
    form divided 0 by 0; the kernel reads that as no overlap."""
    def one(x, y):
        try:
            return scalar_iou(x, y)
        except ZeroDivisionError:
            return 0.0
    return np.array([[one(x, y) for y in b] for x in a], dtype=np.float64).reshape(len(a), len(b))


def _same_bits(a, b):
    got = iou_matrix(a, b)
    want = _reference_matrix(a, b)
    assert got.shape == want.shape and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


# Small integer boxes share edges, nest and repeat; the finite floats reach
# overflow and underflow of the areas.
grid = st.integers(-6, 6).map(float)
grid_side = st.integers(1, 6).map(float)
finite = st.floats(allow_nan=False, allow_infinity=False)
side = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
kernel_boxes = st.one_of(st.builds(BBox, grid, grid, grid_side, grid_side),
                         st.builds(BBox, finite, finite, side, side),
                         st.builds(BBox, st.floats(-2e3, 2e3), st.floats(-2e3, 2e3),
                                   st.floats(0.5, 100), st.floats(0.5, 100)))


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(st.lists(kernel_boxes, max_size=8), st.lists(kernel_boxes, max_size=8))
def test_iou_matrix_matches_scalar_iou_bit_for_bit(a, b):
    _same_bits(a, b)
    _same_bits(a + b, a + b)


def test_iou_matrix_hand_cases():
    a = BBox(0, 0, 2, 2)
    edge_x, edge_y, corner = BBox(2, 0, 2, 2), BBox(0, -2, 2, 2), BBox(2, 2, 1, 1)
    outer, inner = BBox(0, 0, 10, 10), BBox(0, 0, 5, 10)
    same = BBox(1008.4550966083378, 1008.4550966083378, 40.0, 40.0)
    m = iou_matrix([a, outer, same], [edge_x, edge_y, corner, inner, same])
    assert m.shape == (3, 5)
    assert m[0, :3].tolist() == [0.0, 0.0, 0.0]  # shared edges do not intersect
    assert m[1, 3] == 0.5  # containment: the area ratio
    # (x + w) - x = 40.000000000000114 here; the clamp keeps it at 1.0
    assert m[2, 4] == 1.0
    _same_bits([a, outer, same], [edge_x, edge_y, corner, inner, same])
    for n in (0, 1, 3):
        assert iou_matrix([], [a] * n).shape == (0, n)
        assert iou_matrix([a] * n, []).shape == (n, 0)
        assert iou_matrix([], [a] * n).dtype == np.float64


def test_iou_matrix_reads_a_union_rounded_to_zero_as_no_overlap():
    # y + h rounds up to y + 2 here, so a box meets itself over an area of 2
    # and the union 1 + 1 - 2 is 0: the scalar form divides by zero.
    far = BBox(0.0, 9007199254740994.0, 1.0, 1.0)
    with pytest.raises(ZeroDivisionError):
        scalar_iou(far, far)
    assert iou_matrix([far], [far]).tolist() == [[0.0]]
    _same_bits([BBox(0, 0, 1, 1), far], [BBox(0, 0, 1, 1), far])


def test_iou_is_the_kernel_on_one_pair():
    a, b = BBox(0, 0, 2, 2), BBox(1, 0, 2, 2)
    assert type(iou(a, b)) is float
    assert iou(a, b) == iou_matrix([a], [b])[0, 0] == scalar_iou(a, b)


def test_normalize_embedding_unit_norm():
    rng = np.random.default_rng(11)
    for _ in range(200):
        v = rng.normal(size=rng.integers(1, 64))
        if np.linalg.norm(v) < 1e-6:
            continue
        u = normalize_embedding(v)
        assert abs(float(np.linalg.norm(u)) - 1.0) < 1e-12
        # direction preserved under positive scaling
        assert np.allclose(u, normalize_embedding(3.5 * v), atol=1e-12)


def test_normalize_and_cosine_analytic_values():
    # 3-4-5 triangle
    u = normalize_embedding(np.array([3.0, 4.0]))
    assert np.allclose(u, [0.6, 0.8], atol=1e-15)
    e1 = np.array([1.0, 0.0])
    assert np.array_equal(normalize_embedding(e1), e1)
    assert abs(cosine_similarity(np.array([0.6, 0.8]), e1) - 0.6) < 1e-15
    assert cosine_similarity(e1, e1) == 1.0


def test_normalize_embedding_errors():
    with pytest.raises(ZeroNormError):
        normalize_embedding(np.zeros(4))
    with pytest.raises(ZeroNormError):
        normalize_embedding(np.full(4, 1e-13))
    with pytest.raises(DimensionMismatchError):
        normalize_embedding(np.ones((2, 2)))
    # an empty vector is a shape error, not a zero norm
    with pytest.raises(DimensionMismatchError,
                       match=r"^embedding must be 1-D and non-empty, got shape \(0,\)$"):
        normalize_embedding(np.array([]))
    with pytest.raises(DimensionMismatchError):
        normalize_embedding(np.ones(3), dim=4)
    with pytest.raises(ValueError):
        normalize_embedding(np.array([1.0, np.nan]))


def test_cosine_similarity_clamped_and_checked():
    v = normalize_embedding(np.array([1.0, 1.0, 1.0]))
    assert cosine_similarity(v, v) <= 1.0
    assert cosine_similarity(v, -v) >= -1.0
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    assert cosine_similarity(a, b) == 0.0
    with pytest.raises(DimensionMismatchError):
        cosine_similarity(np.ones(3), np.ones(4))


def test_detection_validation():
    box = BBox(0, 0, 10, 10)
    with pytest.raises(ValueError):
        Detection(frame=0, bbox=box, score=0.5)
    with pytest.raises(ValueError):
        Detection(frame=1, bbox=box, score=1.5)
    with pytest.raises(ValueError):
        Detection(frame=1, bbox=box, score=-0.1)
    with pytest.raises(ValueError):
        Detection(frame=1, bbox=box, score=0.5, class_id=-1)
    d = Detection(frame=1, bbox=box, score=0.5)
    d2 = Detection(d.frame, d.bbox, d.score, d.class_id, np.array([1.0, 0.0]))
    assert d2.embedding is not None and d.embedding is None
    # embedding is not part of equality
    assert d == d2


def test_frame_input_checks_frames():
    box = BBox(0, 0, 10, 10)
    with pytest.raises(ValueError):
        FrameInput(frame=2, detections=(Detection(frame=1, bbox=box, score=0.5),))


def test_config_defaults():
    cfg = TrackerConfig()
    assert cfg.high_thresh == 0.84
    assert cfg.low_thresh == 0.3
    assert cfg.sim_gate_high == 0.5
    assert cfg.sim_gate_low == 0.5
    assert cfg.tau == 30
    assert cfg.max_lost_age == 30
    assert cfg.min_init_score == cfg.high_thresh
    assert cfg.per_class is True
    assert cfg.bytetrack_stage2 is False


def test_config_validation():
    with pytest.raises(ConfigError):
        TrackerConfig(low_thresh=0.9, high_thresh=0.8)
    with pytest.raises(ConfigError):
        TrackerConfig(high_thresh=1.2)
    with pytest.raises(ConfigError):
        TrackerConfig(tau=0)
    with pytest.raises(ConfigError, match=f"tau must be in \\[1, {MAX_TAU}\\]"):
        TrackerConfig(tau=MAX_TAU + 1)
    assert TrackerConfig(tau=MAX_TAU).tau == MAX_TAU
    with pytest.raises(ConfigError):
        TrackerConfig(max_lost_age=-1)
    with pytest.raises(ConfigError):
        TrackerConfig(sim_gate_high=1.5)
    with pytest.raises(ConfigError):
        TrackerConfig(min_init_score=2.0)
    with pytest.raises(ConfigError, match="embedding_dim must be >= 1, got 0"):
        TrackerConfig(embedding_dim=0)
    # The integer fields take what operator.index does: numpy ints and True
    # pass, a float is refused before the tracker sizes its store with it.
    for name in ("tau", "max_lost_age", "embedding_dim"):
        with pytest.raises(ConfigError, match=f"{name} must be an integer, got 2.5"):
            TrackerConfig(**{name: 2.5})
        with pytest.raises(ConfigError, match=f"{name} must be an integer, got '3'"):
            TrackerConfig(**{name: "3"})
        Tracker(TrackerConfig(**{name: np.int64(3)}))
        Tracker(TrackerConfig(**{name: True}))
    # The real-valued fields take numbers only: a string or None is refused
    # before a comparison could raise a bare TypeError.
    for name, bad in (("high_thresh", "0.9"), ("low_thresh", None), ("sim_gate_high", "x"),
                      ("sim_gate_low", None), ("min_init_score", "0.9")):
        with pytest.raises(ConfigError, match=f"{name} must be a real number, got {bad!r}"):
            TrackerConfig(**{name: bad})
    TrackerConfig(high_thresh=np.float32(0.9), sim_gate_low=np.int64(0), min_init_score=1)
    # The two flags are real bools, so a truthy string is not taken as True.
    for name in ("per_class", "bytetrack_stage2"):
        for bad in ("no", 1, None):
            with pytest.raises(ConfigError, match=f"{name} must be True or False, got {bad!r}"):
                TrackerConfig(**{name: bad})
        TrackerConfig(**{name: np.bool_(False)})
    # collapsing the low band onto the high threshold is allowed
    cfg = TrackerConfig(low_thresh=0.84, high_thresh=0.84)
    assert cfg.low_thresh == cfg.high_thresh
    # custom floor survives
    assert TrackerConfig(min_init_score=0.9).min_init_score == 0.9


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_bbox_requires_finite_values(bad):
    for fields in ((bad, 0, 10, 10), (0, bad, 10, 10), (0, 0, bad, 10), (0, 0, 10, bad)):
        with pytest.raises(ValueError, match="finite"):
            BBox(*fields)


def test_gt_entry_validation():
    box = BBox(0, 0, 10, 10)
    for kwargs in ({"frame": 0}, {"identity": 0}, {"class_id": -1}):
        with pytest.raises(ValueError):
            GtEntry(**{"frame": 1, "identity": 1, "bbox": box, **kwargs})
