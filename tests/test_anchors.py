import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskdet.anchors import (FACE, MASK, center_to_corner, corner_to_center,
                             decode, encode, generate_anchors, iou,
                             iou_matrix, match_targets)
from maskdet.model import ModelConfig
from conftest import TINY, make_anchor_set
from maskdet.oracles import iou_ref, match_reference

finite_coord = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)


def box_strategy():
    return st.tuples(finite_coord, finite_coord,
                     st.floats(min_value=0.5, max_value=200.0),
                     st.floats(min_value=0.5, max_value=200.0)).map(
        lambda t: [t[0], t[1], t[0] + t[2], t[1] + t[3]])


# ------------------------------------------------------------- generation

def test_anchor_count_640():
    assert len(generate_anchors(ModelConfig(input_size=640))) == 16800


def test_anchor_count_840_ceil_grids():
    anchors = generate_anchors(ModelConfig(input_size=840))
    assert [l.grid_h for l in anchors.layout] == [105, 53, 27]
    assert len(anchors) == 29126


def test_first_anchor_center_and_side():
    anchors = generate_anchors(ModelConfig(input_size=640)).anchors
    np.testing.assert_array_equal(anchors[0], [4.0, 4.0, 16.0, 16.0])
    np.testing.assert_array_equal(anchors[1], [4.0, 4.0, 32.0, 32.0])


def test_anchor_canonical_ordering():
    config = ModelConfig(input_size=640)
    anchor_set = generate_anchors(config)
    offsets = np.cumsum([0] + [l.count for l in anchor_set.layout])
    rng = np.random.default_rng(0)
    for _ in range(200):
        lvl = int(rng.integers(0, 3))
        layout = anchor_set.layout[lvl]
        i = int(rng.integers(0, layout.grid_h))
        j = int(rng.integers(0, layout.grid_w))
        a = int(rng.integers(0, layout.anchors_per_cell))
        row = offsets[lvl] + (i * layout.grid_w + j) * layout.anchors_per_cell + a
        s = layout.stride
        np.testing.assert_array_equal(
            anchor_set.anchors[row],
            [(j + 0.5) * s, (i + 0.5) * s, (a + 1) * 2 * s, (a + 1) * 2 * s])


# -------------------------------------------------------------------- IoU

def test_iou_identical_boxes():
    assert iou([2, 3, 10, 12], [2, 3, 10, 12]) == 1.0


def test_iou_disjoint_boxes():
    assert iou([0, 0, 1, 1], [5, 5, 6, 6]) == 0.0


def test_iou_one_third_fixture():
    assert iou([0, 0, 10, 10], [5, 0, 15, 10]) == pytest.approx(1 / 3, abs=1e-12)


def test_iou_empty_union_is_zero():
    assert iou([1, 1, 1, 1], [1, 1, 1, 1]) == 0.0


@settings(max_examples=200, deadline=None)
@given(box_strategy(), box_strategy())
def test_iou_symmetric_bounded_and_matches_reference(a, b):
    v = iou(a, b)
    assert 0.0 <= v <= 1.0
    assert v == iou(b, a)
    assert v == pytest.approx(iou_ref(a, b), abs=1e-12)


def test_iou_matrix_matches_scalar():
    """Bit-equal to the scalar oracle IoU, which ORCC's exactness relies on."""
    rng = np.random.default_rng(1)
    xy = rng.uniform(0, 50, (40, 2))
    real = np.concatenate([xy, xy + rng.uniform(1, 30, (40, 2))], axis=1)
    xy = rng.integers(0, 12, (40, 2))
    grid = np.concatenate([xy, xy + rng.integers(0, 6, (40, 2))], axis=1)
    right = real[:, [2, 1, 2, 3]] + [0, 0, 7, 0]      # touches on x_max
    below = real[:, [0, 3, 2, 3]] + [0, 0, 0, 4]      # touches on y_max
    edges = np.array([[0, 0, 10, 10], [10, 0, 20, 10], [0, 10, 10, 20],
                      [5, 5, 5, 5], [0, 0, 10, 0], [3, 0, 3, 10],
                      [0, 0, 10, 10]], dtype=np.float64)
    boxes = np.concatenate([real, grid, right, below, edges, real[:5]])
    mat = iou_matrix(boxes, boxes)
    mismatches = [(i, j) for i in range(len(boxes)) for j in range(len(boxes))
                  if mat[i, j] != iou_ref(boxes[i], boxes[j])]
    assert mismatches == []
    assert mat[:5, -5:].diagonal().tolist() == [1.0] * 5
    assert iou(boxes[3], boxes[7]) == mat[3, 7]


def test_iou_matrix_bounded_and_never_nan_on_bad_boxes():
    """NMS tests ``iou > thresh``, which is only safe if no IoU is NaN."""
    inf, nan = np.inf, np.nan
    boxes = np.array([[0, 0, 10, 10], [2, 2, 12, 12], [nan, 0, 10, 10],
                      [0, 0, nan, nan], [0, 0, inf, 10], [-inf, -inf, inf, inf],
                      [inf, 0, inf, 10], [10, 0, 0, 10], [10, 10, 0, 0],
                      [5, 5, 5, 5], [0, 0, 10, 0], [-1e300, -1e300, 1e300, 1e300],
                      [0, 0, 1e300, 1e300]])
    mat = iou_matrix(boxes, boxes)
    assert not np.isnan(mat).any()
    assert ((mat >= 0) & (mat <= 1)).all()
    assert mat[0, 1] == pytest.approx(64 / 136)
    assert (mat[2:4] == 0).all() and (mat[:, 2:4] == 0).all()
    assert (mat[7:11] == 0).all()


# --------------------------------------------------------- encode / decode

def test_encode_fixed_point():
    anchor = np.array([10.0, 10.0, 20.0, 20.0])
    gt = center_to_corner(anchor)
    np.testing.assert_allclose(encode(gt, anchor), np.zeros(4), atol=1e-12)


def test_encode_hand_case():
    # anchor spans (10,10)-(20,20) in corner form, gt doubles it in place
    anchor = corner_to_center(np.array([10.0, 10.0, 20.0, 20.0]))
    gt = np.array([5.0, 5.0, 25.0, 25.0])
    expected = [0.0, 0.0, math.log(2) / 0.2, math.log(2) / 0.2]
    np.testing.assert_allclose(encode(gt, anchor), expected, atol=1e-12)
    assert encode(gt, anchor)[2] == pytest.approx(3.4657, abs=1e-4)


def test_decode_zero_offsets_returns_anchor():
    anchor = np.array([16.0, 24.0, 8.0, 12.0])
    np.testing.assert_allclose(decode(np.zeros(4), anchor),
                               [12.0, 18.0, 20.0, 30.0], atol=1e-12)


def test_decode_clips_to_image():
    anchor = np.array([10.0, 10.0, 16.0, 16.0])
    box = decode(np.array([0.0, 0.0, 5.0, 5.0]), anchor, image_size=640)
    side = 16.0 * math.exp(1.0)
    assert box[0] == 0.0 and box[1] == 0.0
    assert box[2] == pytest.approx(10 + side / 2)
    unclipped = decode(np.array([0.0, 0.0, 5.0, 5.0]), anchor)
    assert unclipped[0] == pytest.approx(10 - side / 2)
    assert unclipped[0] < 0


def test_decode_overflowing_size_is_infinite_without_a_warning():
    # exp(t * 0.2) overflows float64 beyond t ~ 3549; raw head outputs of
    # random weights reach that (the suite turns RuntimeWarnings into errors)
    anchor = np.array([10.0, 10.0, 16.0, 16.0])
    offsets = np.array([0.0, 0.0, 4000.0, 1.0])
    box = decode(offsets, anchor, image_size=640)
    assert box[0] == 0.0 and box[2] == 640.0
    unclipped = decode(offsets, anchor)
    assert unclipped[0] == -math.inf and unclipped[2] == math.inf


def test_encode_decode_round_trip_randomized():
    rng = np.random.default_rng(2)
    n = 10_000
    anchors = np.concatenate([rng.uniform(0, 640, (n, 2)),
                              rng.uniform(1, 640, (n, 2))], axis=1)
    gt_cs = np.concatenate([rng.uniform(0, 640, (n, 2)),
                            rng.uniform(1, 640, (n, 2))], axis=1)
    gt = center_to_corner(gt_cs)
    redone = decode(encode(gt, anchors), anchors)
    assert np.abs(redone - gt).max() <= 1e-5


def test_encode_rejects_degenerate_gt():
    anchor = np.array([10.0, 10.0, 20.0, 20.0])
    with pytest.raises(ValueError, match="positive extents"):
        encode(np.array([5.0, 5.0, 5.0, 9.0]), anchor)


def test_corner_center_round_trip():
    rng = np.random.default_rng(3)
    boxes = rng.uniform(0, 100, (20, 4))
    boxes[:, 2:] += boxes[:, :2]
    np.testing.assert_allclose(center_to_corner(corner_to_center(boxes)),
                               boxes, atol=1e-12)


# ---------------------------------------------------------- match_targets

def test_match_no_ground_truths():
    result = match_targets(generate_anchors(TINY), np.zeros((0, 4)), [])
    assert (result.labels == 0).all()
    assert result.loc_targets.shape == (42, 4)


def test_match_exact_anchor_is_positive_with_zero_offsets():
    anchor_set = make_anchor_set([[10, 10, 8, 8], [100, 100, 8, 8],
                                  [40, 10, 8, 8]])
    gt = center_to_corner(np.array([10.0, 10.0, 8.0, 8.0]))[None]
    result = match_targets(anchor_set, gt, [FACE])
    assert result.labels.tolist() == [FACE, 0, 0]
    np.testing.assert_allclose(result.loc_targets[0], np.zeros(4), atol=1e-12)


def test_match_two_anchors_share_one_gt():
    # gt (0,0,10,10); anchors chosen for IoU exactly 0.5 and 0.4
    gt = np.array([[0.0, 0.0, 10.0, 10.0]])
    anchor_set = make_anchor_set([
        corner_to_center(np.array([0.0, 0.0, 20.0, 10.0])),
        corner_to_center(np.array([0.0, 0.0, 25.0, 10.0])),
    ])
    overlaps = iou_matrix(anchor_set.corners(), gt)
    np.testing.assert_allclose(overlaps.ravel(), [0.5, 0.4], atol=1e-12)
    result = match_targets(anchor_set, gt, [MASK], pos_thresh=0.35)
    assert result.labels.tolist() == [MASK, MASK]
    for row in range(2):
        np.testing.assert_allclose(
            result.loc_targets[row],
            encode(gt[0], anchor_set.anchors[row]), atol=1e-12)


def test_match_forced_claim_below_threshold():
    # best anchor overlaps at IoU 36/400 = 0.09 < 0.35; the gt still claims it
    anchor_set = make_anchor_set([[20, 20, 20, 20], [200, 200, 20, 20]])
    gt = np.array([[10.0, 10.0, 16.0, 16.0]])
    overlaps = iou_matrix(anchor_set.corners(), gt)
    assert 0 < overlaps[0, 0] < 0.35
    result = match_targets(anchor_set, gt, [FACE])
    assert result.labels.tolist() == [FACE, 0]


def test_match_rejects_bad_labels_and_degenerate_boxes():
    anchor_set = make_anchor_set([[10, 10, 8, 8]])
    with pytest.raises(ValueError, match="labels must be"):
        match_targets(anchor_set, np.array([[0, 0, 5, 5.0]]), [3])
    with pytest.raises(ValueError, match="degenerate"):
        match_targets(anchor_set, np.array([[5, 5, 5, 9.0]]), [FACE])
    with pytest.raises(ValueError, match="labels"):
        match_targets(anchor_set, np.array([[0, 0, 5, 5.0]]), [FACE, MASK])


@pytest.mark.parametrize("seed", range(8))
def test_match_agrees_with_loop_reference(seed):
    rng = np.random.default_rng(seed)
    anchor_set = generate_anchors(TINY)
    o = int(rng.integers(1, 5))
    xy = rng.uniform(0, 24, (o, 2))
    wh = rng.uniform(3, 24, (o, 2))
    gt = np.concatenate([xy, xy + wh], axis=1)
    labels = rng.integers(1, 3, o)
    result = match_targets(anchor_set, gt, labels)
    ref_labels, ref_assigned = match_reference(anchor_set.corners(), gt,
                                               labels, 0.35)
    np.testing.assert_array_equal(result.labels, ref_labels)
    pos = ref_assigned >= 0
    np.testing.assert_allclose(
        result.loc_targets[pos],
        encode(gt[ref_assigned[pos]], anchor_set.anchors[pos]), atol=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_match_ownership_and_zero_iou_invariants(seed):
    rng = np.random.default_rng(100 + seed)
    anchor_set = generate_anchors(TINY)
    corners = anchor_set.corners()
    o = int(rng.integers(1, 4))
    xy = rng.uniform(0, 20, (o, 2))
    wh = rng.uniform(4, 20, (o, 2))
    gt = np.concatenate([xy, xy + wh], axis=1)
    labels = rng.integers(1, 3, o)
    overlaps = iou_matrix(corners, gt)
    best_anchor_per_gt = overlaps.argmax(axis=0)
    if len(set(best_anchor_per_gt.tolist())) < o:
        pytest.skip("colliding best anchors: ownership not guaranteed")
    result = match_targets(anchor_set, gt, labels)
    n_pos = int((result.labels != 0).sum())
    gts_with_overlap = int((overlaps.max(axis=0) > 0).sum())
    assert n_pos >= gts_with_overlap
    # no positive anchor may point at a gt it does not overlap
    for i in np.flatnonzero(result.labels != 0):
        assert overlaps[i].max() > 0
