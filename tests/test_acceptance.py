"""Acceptance gate: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import json
import math
import struct
import time

import numpy as np
import pytest

from maskdet.anchors import (FACE, MASK, center_to_corner, decode, encode,
                             generate_anchors, iou)
from maskdet.cli import main
from maskdet.evaluate import ClassCounts, EvalCounts, match_for_eval, precision_recall
from maskdet.images import save_ppm
from maskdet.kernels import conv2d, pool2d, upsample_nearest
from maskdet.loss import (cross_entropy, cross_entropy_grad, multibox_loss,
                          smooth_l1, smooth_l1_grad)
from maskdet.model import (ModelConfig, build_model, channel_attention,
                           init_reference_weights, model_forward,
                           spatial_attention)
from maskdet.postproc import Detection, nms, orcc
from maskdet.selftest import random_conv_case, random_detections
from maskdet.weights_io import WeightsFormatError, load_weights, save_weights
from maskdet.annotations import (AnnotationError, ImageRecord,
                                 load_annotations, load_detections,
                                 save_detections)
from maskdet.oracles import (naive_pool2d, naive_upsample, nms_reference,
                             orcc_fixed_point)
from test_loss import make_pred, make_targets


def report(name, failures):
    verdict = "PASS" if not failures else "FAIL"
    print(f"\n[ACCEPTANCE] {name}: {verdict}")
    assert not failures, "; ".join(failures)


def check(failures, condition, message):
    if not condition:
        failures.append(message)


def test_kernel_oracle_suite():
    """conv2d/depthwise/pool/upsample vs naive loops, >=100 tensors, <=1e-5, <30s."""
    failures = []
    start = time.time()
    rng = np.random.default_rng(2024)
    tensors = 0

    for case in range(70):                      # 40 standard + 30 depthwise
        depthwise = case >= 40
        x, params, want = random_conv_case(rng, depthwise, min_extent=2)
        err = np.abs(conv2d(x, params) - want).max()
        check(failures, err <= 1e-5,
              f"conv case {case} ({'dw' if depthwise else 'std'}) err {err:.2e}")
        tensors += 1

    for case in range(20):
        c = int(rng.integers(1, 9))
        h, w = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        window = (int(rng.integers(1, h + 1)), int(rng.integers(1, w + 1)))
        stride = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        mode = "max" if case % 2 == 0 else "avg"
        x = rng.standard_normal((1, c, h, w)).astype(np.float32)
        got = pool2d(x, mode, window, stride)
        want = naive_pool2d(x.astype(np.float64), mode, window, stride)
        err = np.abs(got - want).max()
        check(failures, err <= 1e-5, f"pool case {case} err {err:.2e}")
        tensors += 1

    for case in range(10):
        x = rng.standard_normal((1, int(rng.integers(1, 5)),
                                 int(rng.integers(1, 6)),
                                 int(rng.integers(1, 6)))).astype(np.float32)
        f = int(rng.integers(1, 4))
        check(failures, np.array_equal(upsample_nearest(x, f), naive_upsample(x, f)),
              f"upsample case {case} mismatch")
        tensors += 1

    elapsed = time.time() - start
    check(failures, tensors >= 100, f"only {tensors} tensors exercised")
    check(failures, elapsed < 30.0, f"kernel suite took {elapsed:.1f}s")
    report("kernel oracle suite", failures)


def test_geometry_suite():
    """IoU hand cases + symmetry/range, 1e4 encode/decode round trips, anchor counts."""
    failures = []
    check(failures, iou([0, 0, 10, 10], [5, 0, 15, 10]) == pytest.approx(1 / 3, abs=1e-12),
          "1/3 IoU fixture")
    check(failures, iou([2, 2, 8, 8], [2, 2, 8, 8]) == 1.0, "identity IoU")
    check(failures, iou([0, 0, 1, 1], [2, 2, 3, 3]) == 0.0, "disjoint IoU")

    rng = np.random.default_rng(7)
    for _ in range(2000):
        xy = rng.uniform(0, 600, (2, 2))
        wh = rng.uniform(0.5, 200, (2, 2))
        a = [xy[0, 0], xy[0, 1], xy[0, 0] + wh[0, 0], xy[0, 1] + wh[0, 1]]
        b = [xy[1, 0], xy[1, 1], xy[1, 0] + wh[1, 0], xy[1, 1] + wh[1, 1]]
        v = iou(a, b)
        if not (0.0 <= v <= 1.0 and v == iou(b, a)):
            failures.append("IoU symmetry/range violated")
            break

    n = 10_000
    anchors = np.concatenate([rng.uniform(0, 640, (n, 2)),
                              rng.uniform(1, 640, (n, 2))], axis=1)
    gt = center_to_corner(np.concatenate([rng.uniform(0, 640, (n, 2)),
                                          rng.uniform(1, 640, (n, 2))], axis=1))
    err = np.abs(decode(encode(gt, anchors), anchors) - gt).max()
    check(failures, err <= 1e-5, f"round-trip error {err:.2e}")

    check(failures, len(generate_anchors(ModelConfig(input_size=640))) == 16800,
          "anchor count at 640")
    check(failures, len(generate_anchors(ModelConfig(input_size=840))) == 29126,
          "anchor count at 840")
    report("geometry suite", failures)


def test_nms_oracle_equivalence():
    """Greedy NMS identical to the quadratic reference on 1000 random sets."""
    failures = []
    rng = np.random.default_rng(13)
    for case in range(1000):
        m = int(rng.integers(0, 51))
        xy = rng.uniform(0, 100, (m, 2))
        wh = rng.uniform(1, 60, (m, 2))
        boxes = np.concatenate([xy, xy + wh], axis=1)
        scores = rng.uniform(0, 1, m)
        kept_b, kept_s = nms(boxes, scores, 0.4)
        ref = nms_reference(boxes, scores, 0.4)
        if not (np.array_equal(kept_b, boxes[ref])
                and np.array_equal(kept_s, scores[ref])):
            failures.append(f"case {case} diverged from reference")
            break
    report("NMS oracle equivalence", failures)


def test_orcc_criterion():
    """Hand-traced fixtures exact + fixed-point oracle agreement on 1000 sets."""
    failures = []

    face = Detection(np.array([0.0, 0, 10, 10]), FACE, 0.9)
    mask = Detection(np.array([1.0, 1, 11, 11]), MASK, 0.8)
    check(failures, iou(face.box, mask.box) == pytest.approx(81 / 119, abs=1e-12),
          "81/119 IoU value")
    faces, masks = orcc([face], [mask], 0.4)
    check(failures, faces == [face] and masks == [], "81/119 fixture outcome")

    weak_face = Detection(np.array([0.0, 0, 10, 10]), FACE, 0.6)
    strong_mask = Detection(np.array([1.0, 1, 11, 11]), MASK, 0.7)
    lazy_mask = Detection(np.array([0.0, 0, 10, 10]), MASK, 0.5)
    faces, masks = orcc([weak_face], [strong_mask, lazy_mask], 0.4)
    check(failures, faces == [] and len(masks) == 2, "face-removed-early fixture")

    rng = np.random.default_rng(17)
    for case in range(1000):
        faces_in = random_detections(rng, FACE, int(rng.integers(0, 9)))
        masks_in = random_detections(rng, MASK, int(rng.integers(0, 9)))
        got = orcc(faces_in, masks_in, 0.4)
        want = orcc_fixed_point(faces_in, masks_in, 0.4)
        if ([id(d) for d in got[0]] != [id(d) for d in want[0]]
                or [id(d) for d in got[1]] != [id(d) for d in want[1]]):
            failures.append(f"case {case} diverged from fixed-point oracle")
            break
    report("ORCC fixtures and oracle", failures)


def test_loss_criterion():
    """2*ln(3) fixture at N=1; N=0 convention; derivatives vs central differences."""
    failures = []
    pred = make_pred(np.zeros((3, 4)),
                     [[0.0, 50.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    targets = make_targets(np.zeros((3, 4)), [1, 0, 0])
    out = multibox_loss(pred, targets, alpha=1.0, ratio=3)
    check(failures, out.normalizer == 1, f"N={out.normalizer}, expected 1")
    check(failures, abs(out.total - 2 * math.log(3)) <= 1e-4,
          f"total {out.total:.6f} vs 2ln3 {2 * math.log(3):.6f}")

    zero = multibox_loss(pred, make_targets(np.zeros((3, 4)), [0, 0, 0]))
    check(failures, zero.total == 0.0, "N=0 total not 0")

    h = 1e-4
    for x in np.concatenate([np.linspace(-3, 3, 41), [-1.0001, -0.9999, 0.9999, 1.0001]]):
        fd = (smooth_l1(x + h) - smooth_l1(x - h)) / (2 * h)
        if abs(fd - smooth_l1_grad(x)) > 1e-4:
            failures.append(f"smooth_l1 grad mismatch at {x}")
            break

    rng = np.random.default_rng(23)
    h = 1e-5
    for _ in range(50):
        logits = rng.standard_normal(3) * 4
        label = int(rng.integers(0, 3))
        grad = cross_entropy_grad(logits, label)
        for k in range(3):
            up, down = logits.copy(), logits.copy()
            up[k] += h
            down[k] -= h
            fd = (cross_entropy(up, label) - cross_entropy(down, label)) / (2 * h)
            if abs(fd - grad[k]) > 1e-4:
                failures.append(f"cross_entropy grad mismatch at logit {k}")
                break
    report("loss fixtures and derivatives", failures)


def test_attention_architecture_invariants():
    """Gates in (0,1); zero weights scale by exactly 0.5; rows == anchors at 320/640/840."""
    failures = []
    rng = np.random.default_rng(31)

    ones = np.ones((1, 8, 4, 4), dtype=np.float32)
    fc1 = rng.standard_normal((8, 2)).astype(np.float32)
    fc2 = rng.standard_normal((2, 8)).astype(np.float32)
    gate = channel_attention(ones, fc1, rng.standard_normal(2).astype(np.float32),
                             fc2, rng.standard_normal(8).astype(np.float32))
    check(failures, (gate > 0).all() and (gate < 1).all(),
          "channel gate not strictly inside (0, 1)")
    sgate = spatial_attention(ones, rng.standard_normal((1, 2, 7, 7)).astype(np.float32),
                              rng.standard_normal(1).astype(np.float32))
    check(failures, (sgate > 0).all() and (sgate < 1).all(),
          "spatial gate not strictly inside (0, 1)")

    feature = rng.standard_normal((1, 4, 5, 5)).astype(np.float32)
    halved = channel_attention(feature, np.zeros((4, 2), dtype=np.float32),
                               np.zeros(2, dtype=np.float32),
                               np.zeros((2, 4), dtype=np.float32),
                               np.zeros(4, dtype=np.float32))
    check(failures, np.array_equal(halved, 0.5 * feature),
          "zero-weight channel gate is not exactly 0.5")
    halved_s = spatial_attention(feature, np.zeros((1, 2, 7, 7), dtype=np.float32),
                                 np.zeros(1, dtype=np.float32))
    check(failures, np.array_equal(halved_s, 0.5 * feature),
          "zero-weight spatial gate is not exactly 0.5")

    store = init_reference_weights(ModelConfig(), seed=5)
    for size in (320, 640, 840):
        config = ModelConfig(input_size=size)
        model = build_model(config, store)
        image = rng.standard_normal((1, 3, size, size)).astype(np.float32)
        rows = model_forward(model, image).count
        anchors = len(generate_anchors(config))
        check(failures, rows == anchors,
              f"size {size}: {rows} rows vs {anchors} anchors")
    report("attention/architecture invariants", failures)


def test_end_to_end_determinism_and_speed(tmp_path, capsys):
    """CLI init-weights --seed 7 + detect twice -> byte-identical; 640 forward < 60s."""
    failures = []
    rng = np.random.default_rng(41)
    ppm_path = tmp_path / "scene.ppm"
    save_ppm(ppm_path, rng.integers(0, 256, (96, 128, 3), dtype=np.uint8))
    weights = tmp_path / "w.rfmw"
    check(failures, main(["init-weights", "--out", str(weights), "--seed", "7"]) == 0,
          "init-weights failed")

    outputs = []
    for run in (1, 2):
        out_path = tmp_path / f"run{run}.json"
        code = main(["detect", "--weights", str(weights), "--input",
                     str(ppm_path), "--out", str(out_path)])
        check(failures, code == 0, f"detect run {run} exited {code}")
        outputs.append(out_path.read_bytes())
    check(failures, outputs[0] == outputs[1], "detect runs differ byte-wise")
    check(failures, len(outputs[0]) > 0, "empty detect output")

    config = ModelConfig()
    model = build_model(config, load_weights(weights))
    image = rng.standard_normal((1, 3, 640, 640)).astype(np.float32)
    start = time.time()
    model_forward(model, image)
    elapsed = time.time() - start
    check(failures, elapsed < 60.0, f"640 forward took {elapsed:.1f}s")
    report("end-to-end determinism and speed", failures)


def test_evaluator_criterion():
    """Precision/recall fixtures exact to 1e-9; spurious-detection monotonicity."""
    failures = []
    pr = precision_recall(EvalCounts(ClassCounts(2, 1, 0), ClassCounts(5, 5, 5)))
    check(failures, abs(pr[FACE][0] - 2 / 3) <= 1e-9, "face precision fixture")
    check(failures, abs(pr[FACE][1] - 1.0) <= 1e-9, "face recall fixture")
    check(failures, abs(pr[MASK][0] - 0.5) <= 1e-9 and abs(pr[MASK][1] - 0.5) <= 1e-9,
          "mask fixture")
    zero = precision_recall(EvalCounts.zero())
    check(failures, zero[FACE] == (0.0, 0.0), "zero-denominator convention")

    rng = np.random.default_rng(43)
    for case in range(200):
        n_gt = int(rng.integers(1, 6))
        xy = rng.uniform(0, 60, (n_gt, 2))
        gts = np.concatenate([xy, xy + rng.uniform(4, 25, (n_gt, 2))], axis=1)
        labels = rng.integers(1, 3, n_gt)
        dets = [Detection(g, int(lab), float(rng.uniform(0.4, 1.0)))
                for g, lab in zip(gts, labels) if rng.uniform() > 0.3]
        base = precision_recall(match_for_eval(dets, labels, gts))
        for spurious_label in (FACE, MASK):
            spur = dets + [Detection(np.array([900.0, 900, 910, 910]),
                                     spurious_label, 0.99)]
            bumped = precision_recall(match_for_eval(spur, labels, gts))
            if (bumped[spurious_label][0] > base[spurious_label][0] + 1e-12
                    or bumped[spurious_label][1] != base[spurious_label][1]):
                failures.append(f"monotonicity broken on case {case}")
                break
    report("evaluator fixtures and monotonicity", failures)


def test_formats_criterion(tmp_path):
    """Weights + detection JSON byte-exact round trips; corruption raises named errors."""
    failures = []
    rng = np.random.default_rng(47)
    store = {name: rng.standard_normal(shape).astype(np.float32)
             for name, shape in [("a.weight", (4, 2, 3, 3)), ("a.bias", (4,)),
                                 ("b.weight", (2, 4, 1, 1))]}
    wpath = tmp_path / "w.rfmw"
    save_weights(store, wpath)
    loaded = load_weights(wpath)
    wpath2 = tmp_path / "w2.rfmw"
    save_weights(loaded, wpath2)
    check(failures, wpath.read_bytes() == wpath2.read_bytes(),
          "weights round trip not byte-exact")

    raw = wpath.read_bytes()
    corruptions = {
        "bad magic": b"XXXX" + raw[4:],
        "truncated blob": raw[:-4],
        "trailing bytes": raw + b"\x00" * 4,
    }
    for label, blob in corruptions.items():
        path = tmp_path / f"{label.replace(' ', '_')}.rfmw"
        path.write_bytes(blob)
        try:
            load_weights(path)
            failures.append(f"{label} accepted")
        except WeightsFormatError:
            pass

    dup_manifest = json.dumps([{"name": "x", "shape": [1], "offset": 0},
                               {"name": "x", "shape": [1], "offset": 4}],
                              separators=(",", ":")).encode()
    dup = tmp_path / "dup.rfmw"
    dup.write_bytes(b"RFMW" + struct.pack("<I", len(dup_manifest))
                    + dup_manifest + b"\x00" * 8)
    try:
        load_weights(dup)
        failures.append("duplicate name accepted")
    except WeightsFormatError as exc:
        check(failures, "duplicate" in str(exc), "duplicate error not named")

    mal = tmp_path / "mal.rfmw"
    mal.write_bytes(b"RFMW" + struct.pack("<I", 3) + b"{x}")
    try:
        load_weights(mal)
        failures.append("malformed manifest accepted")
    except WeightsFormatError as exc:
        check(failures, "malformed" in str(exc), "malformed error not named")

    records = [ImageRecord("img", 64, 48, np.array([FACE, MASK]),
                           np.array([[1.0, 2.0, 30.0, 40.0],
                                     [5.0, 5.0, 20.0, 20.0]]),
                           np.array([0.875, 0.625]))]
    dpath = tmp_path / "d.json"
    save_detections(records, dpath)
    dpath2 = tmp_path / "d2.json"
    save_detections(load_detections(dpath), dpath2)
    check(failures, dpath.read_bytes() == dpath2.read_bytes(),
          "detections round trip not byte-exact")

    bad_class = {"images": [{"id": "i", "width": 9, "height": 9, "objects": [
        {"class": "hat", "box": [0, 0, 1, 1]}]}]}
    bpath = tmp_path / "bad.json"
    bpath.write_text(json.dumps(bad_class))
    try:
        load_annotations(bpath)
        failures.append("unknown class accepted")
    except AnnotationError as exc:
        check(failures, "unknown class" in str(exc) and "'i'" in str(exc),
              "class error not named")
    report("external formats", failures)
