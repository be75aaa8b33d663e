import numpy as np
import pytest

from maskdet.anchors import FACE, MASK
from maskdet.annotations import (ImageRecord, load_annotations,
                                 load_detections, save_detections)
from maskdet.evaluate import (ClassCounts, EvalCounts, match_for_eval,
                              precision_recall)
from maskdet.oracles import match_eval_reference
from maskdet.postproc import Detection
from maskdet.selftest import clustered_detections


def det(box, label, conf=0.9):
    return Detection(np.asarray(box, dtype=np.float64), label, conf)


def counts_tuple(c: ClassCounts):
    return (c.tp, c.fp, c.fn)


# ------------------------------------------------------------ matching

def test_perfect_detections():
    gts = np.array([[0, 0, 10, 10], [20, 20, 30, 30.0]])
    labels = [FACE, FACE]
    dets = [det(g, FACE) for g in gts]
    out = match_for_eval(dets, labels, gts)
    assert counts_tuple(out.face) == (2, 0, 0)
    assert counts_tuple(out.mask) == (0, 0, 0)


def test_double_detection_single_claim():
    gts = np.array([[0, 0, 10, 10.0]])
    dets = [det([0, 0, 10, 10], FACE, 0.9), det([1, 1, 11, 11], FACE, 0.8)]
    out = match_for_eval(dets, [FACE], gts)
    assert counts_tuple(out.face) == (1, 1, 0)


def test_cross_class_detection_counts_both_sides():
    gts = np.array([[0, 0, 10, 10.0]])
    dets = [det([0, 0, 10, 10], FACE)]
    out = match_for_eval(dets, [MASK], gts)
    assert counts_tuple(out.face) == (0, 1, 0)
    assert counts_tuple(out.mask) == (0, 0, 1)


def test_low_iou_detection_is_fp_and_gt_unclaimed():
    gts = np.array([[0, 0, 10, 10.0]])
    dets = [det([30, 30, 40, 40], FACE)]
    out = match_for_eval(dets, [FACE], gts)
    assert counts_tuple(out.face) == (0, 1, 1)


def test_confidence_order_drives_greedy_claims():
    # the higher-confidence detection claims the gt even if listed second
    gts = np.array([[0, 0, 10, 10.0]])
    d_low = det([0, 0, 10, 10], FACE, 0.5)
    d_high = det([0.5, 0.5, 10, 10], FACE, 0.9)
    out = match_for_eval([d_low, d_high], [FACE], gts)
    assert counts_tuple(out.face) == (1, 1, 0)
    # the high-confidence one holds the claim: removing the low one keeps TP
    out2 = match_for_eval([d_high], [FACE], gts)
    assert counts_tuple(out2.face) == (1, 0, 0)


def test_detection_claims_highest_iou_gt():
    gts = np.array([[0, 0, 10, 10], [0, 0, 8, 8.0]])
    dets = [det([0, 0, 10, 10], FACE)]
    out = match_for_eval(dets, [FACE, FACE], gts)
    assert counts_tuple(out.face) == (1, 0, 1)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("thresh", [0.3, 0.5])
def test_matching_equals_scalar_reference_on_crowded_scenes(seed, thresh):
    # 120 detections on 60 ground truths around 10 centres: most detections
    # have a hit, so claims collide; four confidence values make ties common
    rng = np.random.default_rng(seed)
    centres = rng.uniform(0, 200, (10, 2))
    gt_boxes = np.stack([g.box for g in
                         clustered_detections(rng, FACE, 60, centres)])
    gt_labels = rng.choice([FACE, MASK], 60)
    dets = [det(d.box, int(label), d.confidence) for d, label in
            zip(clustered_detections(rng, FACE, 120, centres),
                rng.choice([FACE, MASK], 120))]
    got = match_for_eval(dets, gt_labels, gt_boxes, thresh)
    want = match_eval_reference(dets, gt_labels, gt_boxes, thresh)
    assert counts_tuple(got.face) == want[FACE]
    assert counts_tuple(got.mask) == want[MASK]


@pytest.mark.parametrize("thresh", [0.3, 0.5])
def test_match_on_a_loaded_record_uses_its_arrays(tmp_path, thresh):
    # matching a loaded record counts what matching its rows as Detections
    # counts
    rng = np.random.default_rng(4)
    centres = rng.uniform(20, 180, (8, 2))
    dets = clustered_detections(rng, FACE, 90, centres)
    path = tmp_path / "dets.json"
    save_detections([ImageRecord("a", 200, 200, rng.choice([FACE, MASK], 90),
                                 np.stack([d.box for d in dets]),
                                 np.array([d.confidence for d in dets])),
                     ImageRecord("b", 200, 200, np.zeros(0, dtype=np.int64),
                                 np.zeros((0, 4)), np.zeros(0))], path)
    gt_boxes = np.stack([g.box for g in
                         clustered_detections(rng, FACE, 40, centres)])
    gt_labels = rng.choice([FACE, MASK], 40)
    for rec in load_detections(path):
        rows = [Detection(box, label, conf) for label, box, conf
                in zip(rec.labels.tolist(), rec.boxes, rec.confidences.tolist())]
        assert len(rec) == len(rows)
        assert (match_for_eval(rec, gt_labels, gt_boxes, thresh)
                == match_for_eval(rows, gt_labels, gt_boxes, thresh))


def test_empty_everything():
    out = match_for_eval([], [], np.zeros((0, 4)))
    assert counts_tuple(out.face) == (0, 0, 0)
    assert counts_tuple(out.mask) == (0, 0, 0)


# ------------------------------------------------------- precision/recall

def test_precision_recall_hand_cases():
    pr = precision_recall(EvalCounts(ClassCounts(2, 1, 0), ClassCounts(5, 5, 5)))
    assert pr[FACE][0] == pytest.approx(2 / 3, abs=1e-12)
    assert pr[FACE][1] == 1.0
    assert pr[MASK] == (0.5, 0.5)


def test_precision_recall_zero_denominators():
    pr = precision_recall(EvalCounts.zero())
    assert pr[FACE] == (0.0, 0.0) and pr[MASK] == (0.0, 0.0)


def test_precision_recall_bounded():
    rng = np.random.default_rng(0)
    for _ in range(100):
        counts = EvalCounts(ClassCounts(*rng.integers(0, 20, 3)),
                            ClassCounts(*rng.integers(0, 20, 3)))
        for precision, recall in precision_recall(counts).values():
            assert 0.0 <= precision <= 1.0
            assert 0.0 <= recall <= 1.0


def test_spurious_detection_monotonicity():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n_gt = int(rng.integers(1, 6))
        xy = rng.uniform(0, 50, (n_gt, 2))
        gts = np.concatenate([xy, xy + rng.uniform(5, 20, (n_gt, 2))], axis=1)
        labels = [FACE] * n_gt
        dets = [det(g, FACE, float(rng.uniform(0.5, 1))) for g in gts[:max(1, n_gt - 1)]]
        base = precision_recall(match_for_eval(dets, labels, gts))
        spurious = dets + [det([500, 500, 510, 510], FACE, 0.99)]
        bumped = precision_recall(match_for_eval(spurious, labels, gts))
        assert bumped[FACE][0] <= base[FACE][0]
        assert bumped[FACE][1] == base[FACE][1]


def test_dataset_duplication_leaves_ratios_unchanged():
    counts = EvalCounts(ClassCounts(3, 2, 1), ClassCounts(4, 0, 2))
    doubled = counts + counts
    assert precision_recall(counts) == precision_recall(doubled)


def test_counts_sum_over_images():
    a = EvalCounts(ClassCounts(1, 0, 1), ClassCounts(0, 2, 0))
    b = EvalCounts(ClassCounts(2, 1, 0), ClassCounts(1, 1, 1))
    total = a + b
    assert counts_tuple(total.face) == (3, 1, 1)
    assert counts_tuple(total.mask) == (1, 3, 1)
