import tracemalloc

import numpy as np
import pytest

from maskdet import postproc
from maskdet.anchors import FACE, MASK, encode, generate_anchors, iou
from maskdet.model import ModelConfig, Predictions, model_forward
from maskdet.postproc import (Detection, detect, filter_confidence, nms,
                              orcc, postprocess, score_predictions,
                              softmax_rows)
from maskdet.oracles import nms_reference, orcc_fixed_point
from maskdet.selftest import (clustered_detections, random_boxes,
                              random_detections)
from conftest import TINY


def det(box, label, conf):
    return Detection(np.asarray(box, dtype=np.float64), label, conf)


# ----------------------------------------------------------------- scoring

def test_score_uniform_logits_gives_third():
    anchors = generate_anchors(TINY)
    pred = Predictions(np.zeros((42, 4), dtype=np.float32),
                       np.zeros((42, 3), dtype=np.float32))
    cands = score_predictions(pred, anchors)
    for label in (FACE, MASK):
        np.testing.assert_allclose(cands[label][1], 1 / 3, atol=1e-6)


def test_score_dominant_logit_saturates():
    anchors = generate_anchors(TINY)
    cls = np.zeros((42, 3), dtype=np.float32)
    cls[:, FACE] = 40.0
    pred = Predictions(np.zeros((42, 4), dtype=np.float32), cls)
    cands = score_predictions(pred, anchors)
    assert cands[FACE][1].min() > 1 - 1e-9
    assert cands[MASK][1].max() < 1e-9


def test_softmax_rows_normalized():
    rng = np.random.default_rng(0)
    probs = softmax_rows(rng.standard_normal((50, 3)) * 10)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
    assert (probs >= 0).all()


def test_score_misaligned_inputs():
    anchors = generate_anchors(TINY)
    pred = Predictions(np.zeros((10, 4), dtype=np.float32),
                       np.zeros((10, 3), dtype=np.float32))
    with pytest.raises(ValueError, match="anchors"):
        score_predictions(pred, anchors)


@pytest.mark.parametrize("part,value", [("cls", np.inf), ("loc", np.nan)])
def test_non_finite_predictions_raise(part, value):
    anchors = generate_anchors(TINY)
    arrays = {"loc": np.zeros((42, 4), dtype=np.float32),
              "cls": np.zeros((42, 3), dtype=np.float32)}
    arrays[part][7, 1] = value
    pred = Predictions(**arrays)
    with pytest.raises(ValueError, match="1 non-finite"):
        postprocess(pred, anchors, 32, conf_thresh=0.0)
    with pytest.raises(ValueError, match="1 non-finite"):
        score_predictions(pred, anchors)


def test_score_decodes_against_anchor_rows():
    anchors = generate_anchors(TINY)
    target = np.array([2.0, 2.0, 12.0, 12.0])
    loc = np.zeros((42, 4))
    loc[5] = encode(target, anchors.anchors[5])
    pred = Predictions(loc.astype(np.float32), np.zeros((42, 3), dtype=np.float32))
    boxes, _ = score_predictions(pred, anchors, image_size=32)[FACE]
    np.testing.assert_allclose(boxes[5], target, atol=1e-4)


# ------------------------------------------------------------------ filter

def test_filter_thresholds():
    boxes = np.arange(12, dtype=np.float64).reshape(3, 4)
    scores = np.array([0.3, 0.5, 0.9])
    kept_b, kept_s = filter_confidence(boxes, scores, 0.5)
    assert kept_s.tolist() == [0.5, 0.9]
    np.testing.assert_array_equal(kept_b, boxes[1:])
    assert filter_confidence(boxes, scores, 0.0)[1].size == 3
    assert filter_confidence(boxes, np.array([0.3, 1.0, 0.9]), 1.0)[1].tolist() == [1.0]


def test_filter_drops_non_finite_and_degenerate_boxes():
    boxes = np.array([[0, 0, 10, 10],         # kept
                      [5, 5, 5, 9],           # zero width
                      [5, 5, 9, 5],           # zero height
                      [6, 6, 2, 9],           # inverted
                      [np.nan, 0, 10, 10],
                      [0, 0, np.inf, 10],
                      [1, 1, 2, 1 + 2e-6]])   # kept: positive area
    scores = np.full(len(boxes), 0.9)
    kept_b, kept_s = filter_confidence(boxes, scores, 0.5)
    np.testing.assert_array_equal(kept_b, boxes[[0, 6]])
    assert kept_s.tolist() == [0.9, 0.9]


# --------------------------------------------------------------------- NMS

def test_nms_empty():
    boxes, scores = nms(np.zeros((0, 4)), np.zeros(0))
    assert boxes.shape == (0, 4) and scores.size == 0


def test_nms_duplicate_boxes_keep_highest():
    boxes = np.array([[0, 0, 10, 10], [0, 0, 10, 10.0]])
    scores = np.array([0.8, 0.9])
    kept_b, kept_s = nms(boxes, scores, 0.4)
    assert kept_s.tolist() == [0.9]
    np.testing.assert_array_equal(kept_b, [[0, 0, 10, 10]])


def test_nms_keeps_disjoint():
    boxes = np.array([[0, 0, 5, 5], [10, 10, 15, 15.0]])
    scores = np.array([0.6, 0.7])
    _, kept_s = nms(boxes, scores, 0.4)
    assert sorted(kept_s.tolist()) == [0.6, 0.7]


def test_nms_tie_breaks_to_lower_index():
    boxes = np.array([[0, 0, 10, 10], [1, 1, 11, 11.0]])
    scores = np.array([0.5, 0.5])
    kept_b, _ = nms(boxes, scores, 0.4)
    np.testing.assert_array_equal(kept_b, [[0, 0, 10, 10]])


@pytest.mark.parametrize("seed", range(10))
def test_nms_matches_quadratic_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 51))
    boxes = random_boxes(rng, n)
    scores = rng.uniform(0, 1, n)
    kept_b, kept_s = nms(boxes, scores, 0.4)
    ref = nms_reference(boxes, scores, 0.4)
    np.testing.assert_array_equal(kept_b, boxes[ref])
    np.testing.assert_array_equal(kept_s, scores[ref])


def test_nms_output_pairwise_iou_bounded():
    rng = np.random.default_rng(11)
    boxes = random_boxes(rng, 40)
    scores = rng.uniform(0, 1, 40)
    kept_b, _ = nms(boxes, scores, 0.4)
    for i in range(len(kept_b)):
        for j in range(i + 1, len(kept_b)):
            assert iou(kept_b[i], kept_b[j]) <= 0.4


def test_nms_invariant_to_input_order_with_distinct_scores():
    rng = np.random.default_rng(12)
    boxes = random_boxes(rng, 30)
    scores = rng.permutation(np.linspace(0.01, 0.99, 30))
    kept_b, kept_s = nms(boxes, scores, 0.4)
    perm = rng.permutation(30)
    kept_b2, kept_s2 = nms(boxes[perm], scores[perm], 0.4)
    np.testing.assert_array_equal(kept_b, kept_b2)
    np.testing.assert_array_equal(kept_s, kept_s2)


@pytest.mark.parametrize("thresh", [0.0, 0.4, 1.0])
def test_nms_matches_quadratic_reference_across_blocks(thresh):
    # 600 crowded boxes span ten blocks of ranked rows; four score values
    # make ties common
    rng = np.random.default_rng(20 + int(thresh * 10))
    centres = rng.uniform(0, 300, (40, 2))
    dets = clustered_detections(rng, FACE, 600, centres)
    boxes = np.stack([d.box for d in dets])
    scores = np.array([d.confidence for d in dets])
    kept_b, kept_s = nms(boxes, scores, thresh)
    ref = nms_reference(boxes, scores, thresh)
    np.testing.assert_array_equal(kept_b, boxes[ref])
    np.testing.assert_array_equal(kept_s, scores[ref])


# -------------------------------------------------------------------- ORCC

def test_orcc_hand_iou_case_removes_mask():
    face = det([0, 0, 10, 10], FACE, 0.9)
    mask = det([1, 1, 11, 11], MASK, 0.8)
    assert iou(face.box, mask.box) == pytest.approx(81 / 119, abs=1e-12)
    faces, masks = orcc([face], [mask], 0.4)
    assert faces == [face] and masks == []


def test_orcc_disjoint_pair_survives():
    face = det([0, 0, 10, 10], FACE, 0.9)
    mask = det([20, 20, 30, 30], MASK, 0.8)
    faces, masks = orcc([face], [mask], 0.4)
    assert len(faces) == 1 and len(masks) == 1


def test_orcc_removed_face_skips_remaining_masks():
    face = det([0, 0, 10, 10], FACE, 0.6)
    mask_strong = det([1, 1, 11, 11], MASK, 0.7)
    mask_weak = det([0, 0, 10, 10], MASK, 0.5)   # overlaps the face fully
    faces, masks = orcc([face], [mask_strong, mask_weak], 0.4)
    assert faces == []
    assert masks == [mask_strong, mask_weak]


def test_orcc_equal_confidence_removes_mask():
    face = det([0, 0, 10, 10], FACE, 0.7)
    mask = det([0, 0, 10, 10], MASK, 0.7)
    faces, masks = orcc([face], [mask], 0.4)
    assert len(faces) == 1 and masks == []


@pytest.mark.parametrize("seed", range(10))
def test_orcc_matches_fixed_point_oracle(seed):
    rng = np.random.default_rng(seed)
    faces = random_detections(rng, FACE, int(rng.integers(0, 10)))
    masks = random_detections(rng, MASK, int(rng.integers(0, 10)))
    got_f, got_m = orcc(faces, masks, 0.4)
    want_f, want_m = orcc_fixed_point(faces, masks, 0.4)
    assert [id(d) for d in got_f] == [id(d) for d in want_f]
    assert [id(d) for d in got_m] == [id(d) for d in want_m]


@pytest.mark.parametrize("thresh", [0.0, 0.5, 1.0])
def test_orcc_matches_fixed_point_oracle_across_slabs(thresh):
    rng = np.random.default_rng(int(thresh * 10))
    centres = rng.uniform(0, 400, (40, 2))
    masks = clustered_detections(rng, MASK, 1000, centres)
    faces = clustered_detections(rng, FACE, 1148, centres)
    got_f, got_m = orcc(faces, masks, thresh)
    want_f, want_m = orcc_fixed_point(faces, masks, thresh)
    assert [id(d) for d in got_f] == [id(d) for d in want_f]
    assert [id(d) for d in got_m] == [id(d) for d in want_m]


# ------------------------------------- pair sweep against the slab sweep

# each side of the density choice, forced; the last also splits the pairs
# into many chunks, some of them one box's pairs over the budget
SWEEP_SIDES = [("slabs", 0.0, postproc.PAIR_CHUNK),
               ("pairs", 1.0, postproc.PAIR_CHUNK),
               ("pairs in small chunks", 1.0, 97)]


def hostile_scene(rng, count):
    """``count`` boxes crowded around 30 centres with NaN, infinite,
    inverted, zero-extent, duplicate and edge-touching rows among them."""
    centres = rng.uniform(0, 300, (30, 2))
    boxes = np.stack([d.box for d in clustered_detections(rng, FACE, count,
                                                          centres)])
    inf, nan = np.inf, np.nan
    odd = np.array([[nan, 0, 10, 10], [0, nan, 10, 10], [0, 0, nan, 10],
                    [0, 0, 10, nan], [-inf, 0, 10, 10], [0, 0, inf, 10],
                    [-inf, -inf, inf, inf], [0, 0, inf, inf],
                    [-inf, 40, inf, 60], [40, -inf, 60, inf],
                    [30, 20, 10, 40], [20, 40, 40, 20],        # inverted
                    [25, 25, 25, 45], [25, 25, 45, 25],        # zero extent
                    [33, 33, 33, 33]])
    picks = boxes[rng.choice(count, 40, replace=False)]
    width, height = picks[:, 2] - picks[:, 0], picks[:, 3] - picks[:, 1]
    right = picks.copy()                       # touching on the right edge
    right[:, [0, 2]] = np.stack([picks[:, 2], picks[:, 2] + width], axis=1)
    below = picks.copy()                       # touching on the bottom edge
    below[:, [1, 3]] = np.stack([picks[:, 3], picks[:, 3] + height], axis=1)
    duplicates = boxes[rng.choice(count, 40)]
    scene = np.concatenate([boxes, odd, odd[:3], right, below, duplicates])
    return scene[rng.permutation(len(scene))]


def sweep_scenes(rng):
    """Clustered (1 000 boxes), crowded (300 boxes on two centres) and
    hostile (1 000 boxes plus odd ones) scenes, with tied scores."""
    clustered = np.stack([d.box for d in clustered_detections(
        rng, FACE, 1000, rng.uniform(0, 400, (40, 2)))])
    crowded = np.stack([d.box for d in clustered_detections(
        rng, FACE, 300, np.array([[50.0, 50.0], [60.0, 58.0]]))])
    return {"clustered": clustered, "crowded": crowded,
            "hostile": hostile_scene(rng, 1000)}


@pytest.mark.parametrize("thresh", [0.0, 0.4, 0.5, 1.0])
@pytest.mark.parametrize("scene", ["clustered", "crowded", "hostile"])
def test_sweeps_match_oracles_on_both_sides_of_the_density_choice(
        scene, thresh, monkeypatch):
    rng = np.random.default_rng([7, int(thresh * 10)])
    boxes = sweep_scenes(rng)[scene]
    scores = rng.choice([0.3, 0.5, 0.7, 0.9], size=len(boxes))
    half = len(boxes) // 2
    faces = [Detection(b, FACE, float(c))
             for b, c in zip(boxes[:half], scores[:half])]
    masks = [Detection(b, MASK, float(c))
             for b, c in zip(boxes[half:], scores[half:])]
    masks += [Detection(f.box, MASK, f.confidence) for f in faces[::25]]
    with np.errstate(invalid="ignore", over="ignore"):    # inf - inf
        want_nms = nms_reference(boxes, scores, thresh)
        want_f, want_m = orcc_fixed_point(faces, masks, thresh)
    for side, share, chunk in SWEEP_SIDES:
        monkeypatch.setattr(postproc, "DENSE_SHARE", share)
        monkeypatch.setattr(postproc, "PAIR_CHUNK", chunk)
        listed = postproc._pair_hits(boxes, boxes, thresh, same=True)
        assert (listed is None) == (side == "slabs"), side
        kept_b, kept_s = nms(boxes, scores, thresh)
        np.testing.assert_array_equal(kept_b, boxes[want_nms], err_msg=side)
        np.testing.assert_array_equal(kept_s, scores[want_nms], err_msg=side)
        got_f, got_m = orcc(faces, masks, thresh)
        assert [id(d) for d in got_f] == [id(d) for d in want_f], side
        assert [id(d) for d in got_m] == [id(d) for d in want_m], side


@pytest.mark.parametrize("scene", ["clustered", "crowded", "hostile"])
def test_overlap_runs_count_the_pairs_overlapping_on_the_axis(scene):
    # the density choice sums the runs' counts: per axis they must be the
    # valid pairs whose spans overlap there, each pair once when ``same``
    rng = np.random.default_rng(11)
    boxes = sweep_scenes(rng)[scene]
    half = len(boxes) // 2
    for a, b, same in ((boxes, boxes, True),
                       (boxes[:half], boxes[half:], False)):
        valid_a = postproc._positive_rows(a)
        valid_b = valid_a if same else postproc._positive_rows(b)
        for axis in (0, 1):
            runs = postproc._overlap_runs(a, b, valid_a, valid_b, axis, same)
            assert all((run[3] >= 0).all() for run in runs)
            lo_a, hi_a = a[valid_a, axis], a[valid_a, axis + 2]
            lo_b, hi_b = b[valid_b, axis], b[valid_b, axis + 2]
            overlap = (np.maximum.outer(lo_a, lo_b)
                       < np.minimum.outer(hi_a, hi_b))
            if same:
                overlap = np.triu(overlap, k=1)
            assert sum(int(run[3].sum()) for run in runs) == overlap.sum()


def test_postprocess_memory_is_bounded_at_zero_confidence_threshold():
    # --tc 0: all 16 800 rows of a 640 prediction reach NMS in both classes
    anchors = generate_anchors(ModelConfig(input_size=640))
    rng = np.random.default_rng(0)
    pred = Predictions(rng.normal(0, 0.5, (16800, 4)).astype(np.float32),
                       rng.normal(0, 1, (16800, 3)).astype(np.float32))
    tracemalloc.start()
    try:
        dets = postprocess(pred, anchors, 640.0, conf_thresh=0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(dets) > 1000
    assert peak <= 16e6


def test_orcc_no_surviving_cross_overlap():
    rng = np.random.default_rng(99)
    for _ in range(50):
        faces = random_detections(rng, FACE, int(rng.integers(0, 8)))
        masks = random_detections(rng, MASK, int(rng.integers(0, 8)))
        out_f, out_m = orcc(faces, masks, 0.4)
        for f in out_f:
            for m in out_m:
                assert iou(f.box, m.box) <= 0.4


# ------------------------------------------------------------ full chain

def synthetic_predictions(face_row=0, mask_row=1, face_logit=12.0,
                          mask_logit=10.0, target=(2.0, 2.0, 12.0, 12.0)):
    """Head output placing one face and one mask on the same decoded box."""
    anchors = generate_anchors(TINY)
    loc = np.zeros((42, 4))
    cls = np.zeros((42, 3))
    cls[:, 0] = 50.0                      # every row background by default
    box = np.asarray(target)
    loc[face_row] = encode(box, anchors.anchors[face_row])
    cls[face_row] = [0.0, face_logit, 0.0]
    loc[mask_row] = encode(box, anchors.anchors[mask_row])
    cls[mask_row] = [0.0, 0.0, mask_logit]
    return Predictions(loc.astype(np.float32), cls.astype(np.float32)), anchors


def test_postprocess_all_background_is_empty():
    anchors = generate_anchors(TINY)
    cls = np.zeros((42, 3), dtype=np.float32)
    cls[:, 0] = 50.0
    pred = Predictions(np.zeros((42, 4), dtype=np.float32), cls)
    assert postprocess(pred, anchors, 32.0) == []


def test_postprocess_cross_class_overlap_keeps_higher_confidence():
    pred, anchors = synthetic_predictions()
    dets = postprocess(pred, anchors, 32.0)
    assert len(dets) == 1
    assert dets[0].label == FACE
    np.testing.assert_allclose(dets[0].box, [2, 2, 12, 12], atol=1e-3)

    # flip the confidences: now the mask must win
    pred2, _ = synthetic_predictions(face_logit=10.0, mask_logit=12.0)
    dets2 = postprocess(pred2, anchors, 32.0)
    assert len(dets2) == 1 and dets2[0].label == MASK


def test_postprocess_survivors_meet_confidence_threshold():
    pred, anchors = synthetic_predictions(face_logit=3.0, mask_logit=2.0)
    for tc in (0.0, 0.5, 0.95, 1.0):
        for d in postprocess(pred, anchors, 32.0, conf_thresh=tc):
            assert d.confidence >= tc


def test_postprocess_sorted_by_confidence():
    pred, anchors = synthetic_predictions(face_row=0, mask_row=40,
                                          face_logit=8.0, mask_logit=12.0)
    # rows 0 and 40 decode far apart only if targets differ; move the mask
    anchors_arr = anchors.anchors
    loc = np.array(pred.loc, dtype=np.float64)
    loc[40] = encode(np.array([20.0, 20.0, 30.0, 30.0]), anchors_arr[40])
    pred = Predictions(loc.astype(np.float32), pred.cls)
    dets = postprocess(pred, anchors, 32.0)
    assert len(dets) == 2
    assert dets[0].confidence >= dets[1].confidence


def test_detect_deterministic(tiny_model):
    rng = np.random.default_rng(5)
    image = rng.uniform(-120, 130, (1, 3, 32, 32)).astype(np.float32)
    a = detect(tiny_model, image, conf_thresh=0.34)
    b = detect(tiny_model, image, conf_thresh=0.34)
    assert len(a) == len(b)
    for da, db in zip(a, b):
        np.testing.assert_array_equal(da.box, db.box)
        assert da.label == db.label and da.confidence == db.confidence


def test_detect_runs_via_model_forward(tiny_model):
    rng = np.random.default_rng(6)
    image = rng.uniform(-120, 130, (1, 3, 32, 32)).astype(np.float32)
    pred = model_forward(tiny_model, image)
    direct = postprocess(pred, generate_anchors(TINY), 32.0, 0.34, 0.4, 0.5)
    via = detect(tiny_model, image, conf_thresh=0.34)
    assert len(direct) == len(via)
    for da, db in zip(direct, via):
        np.testing.assert_array_equal(da.box, db.box)
