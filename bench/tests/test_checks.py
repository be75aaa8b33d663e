"""Tests for the benchmark's own checkers: each must reject a planted fault.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
from layers import conv_check_errors  # noqa: E402
from tracer import conv_samples  # noqa: E402

TC, NMS, ORCC = 0.5, 0.4, 0.5


def obj(cls, box, conf):
    return {"class": cls, "box": list(box), "confidence": conf}


def image(*objects, width=100, height=80):
    return {"id": "img", "width": width, "height": height,
            "objects": list(objects)}


CLEAN = image(obj("face", (0, 0, 10, 10), 0.9),
              obj("mask", (50, 50, 60, 60), 0.8),
              obj("face", (20, 0, 30, 10), 0.7))


def test_clean_image_passes():
    assert checks.check_image(CLEAN, TC, NMS, ORCC) == []


def test_rejects_overlapping_same_class_pair():
    bad = image(obj("face", (0, 0, 10, 10), 0.9),
                obj("face", (1, 1, 11, 11), 0.8))
    problems = checks.check_image(bad, TC, NMS, ORCC)
    assert any("NMS" in p for p in problems)


def test_rejects_cross_class_pair_above_orcc():
    bad = image(obj("face", (0, 0, 10, 10), 0.9),
                obj("mask", (0.5, 0.5, 10.5, 10.5), 0.8))
    problems = checks.check_image(bad, TC, NMS, ORCC)
    assert any("ORCC" in p for p in problems)


def test_rejects_out_of_bounds_box():
    bad = image(obj("face", (90, 70, 101, 79), 0.9))
    problems = checks.check_image(bad, TC, NMS, ORCC)
    assert any("outside" in p for p in problems)


def test_rejects_low_or_unsorted_confidences():
    low = image(obj("face", (0, 0, 10, 10), 0.4))
    assert checks.check_image(low, TC, NMS, ORCC)
    unsorted = image(obj("face", (0, 0, 10, 10), 0.6),
                     obj("mask", (50, 50, 60, 60), 0.8))
    assert checks.check_image(unsorted, TC, NMS, ORCC)


def test_rounding_tolerance_is_one_sided():
    # exactly at the threshold after rounding: not a sure violation
    a, b = (0.0, 0.0, 10.0, 10.0), (0.0, 0.0, 10.0, 4.0)
    assert checks.pairwise_iou([a], [b])[0, 0] == pytest.approx(0.4)
    assert checks.iou_lower_bound([a], [b])[0, 0] < 0.4


def test_wrong_tp_count_is_rejected():
    gt = [{"id": "img", "width": 100, "height": 80,
           "objects": [{"class": "face", "box": [0, 0, 10, 10]},
                       {"class": "mask", "box": [50, 50, 60, 60]}]}]
    preds = [image(obj("face", (0, 0, 10, 10), 0.9),
                   obj("face", (1, 1, 10, 10), 0.8),
                   obj("mask", (20, 20, 30, 30), 0.7))]
    counts = checks.greedy_match_counts(preds, gt)
    assert counts == {"face": {"tp": 1, "fp": 1, "fn": 0},
                      "mask": {"tp": 0, "fp": 1, "fn": 1}}
    report = {"classes": {name: dict(c) for name, c in counts.items()}}
    assert checks.compare_eval(report, counts) == []
    report["classes"]["face"]["tp"] = 2
    assert checks.compare_eval(report, counts) == ["eval face tp: program 2, "
                                                   "recount 1"]


def test_matcher_agrees_with_program():
    from maskdet.evaluate import match_for_eval
    from maskdet.postproc import Detection

    rng = np.random.default_rng(0)
    gt_boxes = np.array([[x, y, x + 20, y + 20] for x, y in
                         rng.uniform(0, 80, size=(12, 2))])
    gt_labels = rng.integers(1, 3, size=12)
    dets = []
    for _ in range(40):
        x, y = rng.uniform(0, 80, size=2)
        dets.append((int(rng.integers(1, 3)),
                     [x, y, x + rng.uniform(10, 25), y + rng.uniform(10, 25)],
                     float(rng.uniform())))
    program = match_for_eval([Detection(np.array(b), lab, c) for lab, b, c in dets],
                             gt_labels, gt_boxes)
    names = {1: "face", 2: "mask"}
    gt = [{"id": "a", "width": 200, "height": 200,
           "objects": [{"class": names[int(lab)], "box": box.tolist()}
                       for lab, box in zip(gt_labels, gt_boxes)]}]
    preds = [{"id": "a", "objects": [obj(names[lab], b, c) for lab, b, c in dets]}]
    counts = checks.greedy_match_counts(preds, gt)
    for name, ours in counts.items():
        theirs = getattr(program, name)
        assert (ours["tp"], ours["fp"], ours["fn"]) == (theirs.tp, theirs.fp, theirs.fn)


def test_recomputed_detections_match_program_and_catch_changes():
    from maskdet.anchors import generate_anchors
    from maskdet.model import ModelConfig, Predictions
    from maskdet.postproc import postprocess

    size = 64
    config = ModelConfig(input_size=size, fpn_channels=8)
    anchors = generate_anchors(config)
    rng = np.random.default_rng(1)
    p = len(anchors)
    loc = rng.normal(0, 1, size=(p, 4)).astype(np.float32)
    cls = rng.normal(0, 2, size=(p, 3)).astype(np.float32)
    np.testing.assert_array_equal(checks.anchors_center_size(size),
                                  anchors.anchors)
    program = postprocess(Predictions(loc, cls), anchors, float(size),
                          TC, NMS, ORCC)
    scale = np.array([2.0, 1.5] * 2)
    record = image(*[obj("face" if d.label == 1 else "mask",
                         np.round(d.box * scale, 6), round(d.confidence, 6))
                     for d in program], width=128, height=96)
    ours = checks.recompute_detections(loc, cls, size, 128, 96, TC, NMS, ORCC)
    assert len(program) > 3
    assert checks.compare_detections(ours, record) == []
    record["objects"][1]["box"][0] += 1e-3
    assert checks.compare_detections(ours, record)
    del record["objects"][0]
    assert checks.compare_detections(ours, record)


def test_orcc_sweep_matches_program_semantics():
    from maskdet.postproc import Detection, orcc

    rng = np.random.default_rng(2)

    def boxes(n):
        xy = rng.uniform(0, 40, size=(n, 2))
        return np.hstack([xy, xy + rng.uniform(5, 15, size=(n, 2))])

    fb, mb = boxes(30), boxes(30)
    fc = np.round(rng.uniform(size=30), 1)      # many ties
    mc = np.round(rng.uniform(size=30), 1)
    faces, masks = orcc([Detection(b, 1, float(c)) for b, c in zip(fb, fc)],
                        [Detection(b, 2, float(c)) for b, c in zip(mb, mc)], 0.3)
    our_f, our_m = checks.orcc_sweep(list(zip(fb, fc)), list(zip(mb, mc)), 0.3)
    assert [f.confidence for f in faces] == [c for _, c in our_f]
    assert [m.confidence for m in masks] == [c for _, c in our_m]
    assert len(faces) + len(masks) < 60


def test_conv_check_rejects_a_wrong_output():
    from maskdet.kernels import ConvParams, conv2d

    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 4, 9, 9)).astype(np.float32)
    params = ConvParams(rng.normal(size=(6, 2, 3, 3)).astype(np.float32),
                        rng.normal(size=6).astype(np.float32),
                        stride=2, padding=1, groups=2)
    out = conv2d(x, params)
    good = conv_samples(x, params, out, np.random.default_rng(0))
    assert conv_check_errors({"layer": good})["failing"] == []
    bad = out.copy()
    bad += 0.01
    wrong = conv_samples(x, params, bad, np.random.default_rng(0))
    assert conv_check_errors({"layer": wrong})["failing"] == ["layer"]


def test_failed_round_trip_is_counted_not_fatal():
    ok_eval = {"code": 0, "stderr": ""}
    failed_eval = {"code": 1,
                   "stderr": "maskdet: error: image 'scene-000': degenerate box"}
    rnd = {"detect": {"code": 0, "images": 2, "stderr": ""},
           "evals": [failed_eval, ok_eval]}
    attempted, failed, messages = run.count_ops([rnd, rnd, rnd])
    assert (attempted, failed) == (12, 3)
    assert all("degenerate box" in m for m in messages)
