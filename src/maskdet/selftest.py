"""Embedded oracle suites behind the ``selftest`` CLI subcommand.

Each suite checks a slice of the pipeline against an independent reference
written as plainly as possible (scalar loops, literal fixed-point
iteration), so a broken build fails loudly in the field without needing
the development test suite installed.  The references live in
:mod:`maskdet.oracles`; they and the random case generators below are
shared with the test suite.
"""

from __future__ import annotations

import math
import os
import tempfile
from types import SimpleNamespace

import numpy as np

from . import anchors as anc
from . import loss as losses
from .evaluate import ClassCounts, EvalCounts, precision_recall
from .kernels import ConvParams, conv2d, pool2d, upsample_nearest
from .model import ModelConfig
from .oracles import naive_conv2d, naive_pool2d, nms_reference, orcc_fixed_point
from .postproc import ORCC_SLAB_ELEMENTS, Detection, nms, orcc
from .weights_io import WeightsFormatError, load_weights, save_weights


def random_conv_case(rng, depthwise, min_extent=1):
    """Random small conv input and params plus the naive-loop result."""
    c = int(rng.integers(1, 9))
    h = int(rng.integers(min_extent, 9))
    w = int(rng.integers(min_extent, 9))
    kh = int(rng.integers(1, min(3, h) + 1))
    kw = int(rng.integers(1, min(3, w) + 1))
    out_c = c if depthwise else int(rng.integers(1, 9))
    groups = c if depthwise else 1
    stride = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
    padding = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
    x = rng.standard_normal((1, c, h, w)).astype(np.float32)
    k = rng.standard_normal((out_c, c // groups, kh, kw)).astype(np.float32)
    b = rng.standard_normal(out_c).astype(np.float32)
    want = naive_conv2d(x.astype(np.float64), k.astype(np.float64),
                        b.astype(np.float64), stride, padding, groups)
    return x, ConvParams(k, b, stride=stride, padding=padding,
                         groups=groups), want


def random_boxes(rng, count):
    """``count`` corner-form boxes: top-left in [0, 80), sides in [2, 40)."""
    xy = rng.uniform(0, 80, (count, 2))
    wh = rng.uniform(2, 40, (count, 2))
    return np.concatenate([xy, xy + wh], axis=1)


def random_detections(rng, label, count):
    """``count`` detections of one class, sides in [5, 40), random confidence."""
    dets = []
    for _ in range(count):
        xy = rng.uniform(0, 60, 2)
        wh = rng.uniform(5, 40, 2)
        dets.append(Detection(np.array([*xy, *(xy + wh)]), label,
                              float(rng.uniform(0, 1))))
    return dets


def clustered_detections(rng, label, count, centres):
    """``count`` detections of one class crowded around ``centres``.

    Consecutive detections share a centre (the list walks the centres in
    order), sides lie in [16, 24) and the jitter is 6 px, so a detection
    overlaps most others of its cluster.  Confidences come from four values,
    so equal face/mask confidences are common.
    """
    at = centres[np.arange(count) * len(centres) // count]
    xy = at + rng.uniform(-6, 6, (count, 2))
    wh = rng.uniform(16, 24, (count, 2))
    conf = rng.choice([0.3, 0.5, 0.7, 0.9], size=count)
    return [Detection(np.array([*p, *(p + s)]), label, float(c))
            for p, s, c in zip(xy, wh, conf)]


def _suite_kernels():
    rng = np.random.default_rng(11)
    for case in range(20):
        x, params, want = random_conv_case(rng, case % 4 == 0, min_extent=3)
        if np.abs(conv2d(x, params) - want).max() > 1e-5:
            return False, f"conv2d disagrees with naive loops on case {case}"

        mode = "max" if case % 2 == 0 else "avg"
        window = (2, 2)                         # extents are at least 3
        gotp = pool2d(x, mode, window, (1, 1))
        wantp = naive_pool2d(x.astype(np.float64), mode, window, (1, 1))
        if np.abs(gotp - wantp).max() > 1e-5:
            return False, f"pool2d disagrees with naive loops on case {case}"

    # a fixed grouped case: groups neither 1 nor c, two outputs per group
    grng = np.random.default_rng(12)
    x = grng.standard_normal((2, 6, 5, 5)).astype(np.float32)
    k = grng.standard_normal((6, 2, 3, 3)).astype(np.float32)
    b = grng.standard_normal(6).astype(np.float32)
    want = naive_conv2d(x.astype(np.float64), k.astype(np.float64),
                        b.astype(np.float64), (2, 1), (1, 0), 3)
    got = conv2d(x, ConvParams(k, b, stride=(2, 1), padding=(1, 0), groups=3))
    if got.shape != want.shape or np.abs(got - want).max() > 1e-5:
        return False, "conv2d disagrees with naive loops on the grouped case"

    x = rng.standard_normal((1, 2, 3, 3)).astype(np.float32)
    up = upsample_nearest(x, 2)
    if not np.array_equal(up[:, :, ::2, ::2], x):
        return False, "upsample_nearest is not invertible by strided sampling"
    return True, "conv/pool/upsample match naive references"


def _suite_geometry():
    if anc.iou([0, 0, 10, 10], [5, 0, 15, 10]) != 1 / 3:
        return False, "hand IoU fixture broke"
    rng = np.random.default_rng(7)
    for _ in range(500):
        a = np.sort(rng.uniform(0, 100, 2)), np.sort(rng.uniform(0, 100, 2))
        box_a = [a[0][0], a[1][0], a[0][1] + 1, a[1][1] + 1]
        b = np.sort(rng.uniform(0, 100, 2)), np.sort(rng.uniform(0, 100, 2))
        box_b = [b[0][0], b[1][0], b[0][1] + 1, b[1][1] + 1]
        v, vt = anc.iou(box_a, box_b), anc.iou(box_b, box_a)
        if not (0.0 <= v <= 1.0) or abs(v - vt) > 1e-12:
            return False, "IoU symmetry/range violated"

    centers = rng.uniform(50, 590, (2000, 2))
    sizes = rng.uniform(1, 120, (2000, 2))
    anchors = np.concatenate([centers, sizes], axis=1)
    gt_centers = centers + rng.uniform(-20, 20, (2000, 2))
    gt_sizes = np.clip(sizes * rng.uniform(0.5, 2.0, (2000, 2)), 1, 640)
    gt = anc.center_to_corner(np.concatenate([gt_centers, gt_sizes], axis=1))
    redone = anc.decode(anc.encode(gt, anchors), anchors)
    if np.abs(redone - gt).max() > 1e-5:
        return False, "encode/decode round trip above 1e-5"

    for size, expected in ((640, 16800), (840, 29126)):
        got = len(anc.generate_anchors(ModelConfig(input_size=size)))
        if got != expected:
            return False, f"anchor count at {size} is {got}, expected {expected}"
    return True, "IoU, offset coding and anchor counts check out"


def _suite_nms():
    rng = np.random.default_rng(3)
    cases = []
    for _ in range(200):
        m = int(rng.integers(0, 40))
        cases.append((random_boxes(rng, m), rng.uniform(0, 1, m)))
    # one crowded case whose ranked boxes span several blocks, with ties
    crng = np.random.default_rng(4)
    dets = clustered_detections(crng, anc.FACE, 400,
                                crng.uniform(0, 300, (30, 2)))
    cases.append((np.stack([d.box for d in dets]),
                  np.array([d.confidence for d in dets])))
    for case, (boxes, scores) in enumerate(cases):
        kept_boxes, kept_scores = nms(boxes, scores, 0.4)
        ref = nms_reference(boxes, scores, 0.4)
        if not (np.array_equal(kept_boxes, boxes[ref])
                and np.array_equal(kept_scores, scores[ref])):
            return False, f"NMS disagrees with quadratic reference on case {case}"
    return True, "greedy NMS equals the quadratic reference"


def _suite_orcc():
    face = Detection(np.array([0.0, 0, 10, 10]), anc.FACE, 0.9)
    mask = Detection(np.array([1.0, 1, 11, 11]), anc.MASK, 0.8)
    faces, masks = orcc([face], [mask], 0.4)
    if len(faces) != 1 or masks:
        return False, "high-overlap fixture did not drop the mask"
    rng = np.random.default_rng(5)
    cases = [(random_detections(rng, anc.FACE, int(rng.integers(0, 8))),
              random_detections(rng, anc.MASK, int(rng.integers(0, 8))))
             for _ in range(200)]
    # one crowded case whose faces span two IoU slabs
    centres = rng.uniform(0, 400, (40, 2))
    cases.append((clustered_detections(rng, anc.FACE, ORCC_SLAB_ELEMENTS // 1000
                                       + 100, centres),
                  clustered_detections(rng, anc.MASK, 1000, centres)))
    for case, (faces_in, masks_in) in enumerate(cases):
        got = orcc(faces_in, masks_in, 0.4)
        want = orcc_fixed_point(faces_in, masks_in, 0.4)
        # survivors are the same input objects, so compare identities
        if ([id(d) for d in got[0]] != [id(d) for d in want[0]]
                or [id(d) for d in got[1]] != [id(d) for d in want[1]]):
            return False, f"ORCC disagrees with fixed-point oracle on case {case}"
    return True, "ORCC fixtures and fixed-point agreement hold"


def _suite_loss():
    pred = SimpleNamespace(
        loc=np.zeros((3, 4)),
        cls=np.array([[0.0, 50.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    targets = SimpleNamespace(loc_targets=np.zeros((3, 4)),
                              labels=np.array([1, 0, 0]))
    got = losses.multibox_loss(pred, targets).total
    if abs(got - 2 * math.log(3)) > 1e-4:
        return False, f"3-anchor fixture gave {got}, expected 2*ln(3)"

    targets.labels = np.array([0, 0, 0])
    if losses.multibox_loss(pred, targets).total != 0.0:
        return False, "zero-positive loss is not 0"

    for x in (-2.0, -0.999, -0.5, 0.0, 0.5, 0.999, 2.0):
        h = 1e-4
        fd = (losses.smooth_l1(x + h) - losses.smooth_l1(x - h)) / (2 * h)
        if abs(fd - losses.smooth_l1_grad(x)) > 1e-4:
            return False, f"smooth_l1 derivative mismatch at {x}"
    return True, "loss fixtures and derivatives verified"


def _suite_eval():
    counts = EvalCounts(ClassCounts(2, 1, 0), ClassCounts(5, 5, 5))
    pr = precision_recall(counts)
    if abs(pr[anc.FACE][0] - 2 / 3) > 1e-12 or pr[anc.FACE][1] != 1.0:
        return False, "face precision/recall fixture broke"
    if pr[anc.MASK] != (0.5, 0.5):
        return False, "mask precision/recall fixture broke"
    if precision_recall(EvalCounts.zero())[anc.FACE] != (0.0, 0.0):
        return False, "zero-denominator convention broke"
    return True, "precision/recall fixtures verified"


def _suite_formats():
    rng = np.random.default_rng(9)
    store = {"a.weight": rng.standard_normal((2, 3)).astype(np.float32),
             "a.bias": rng.standard_normal(3).astype(np.float32)}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "w.rfmw")
        save_weights(store, path)
        loaded = load_weights(path)
        for name in store:
            if not np.array_equal(store[name], loaded[name]):
                return False, f"weights round trip changed '{name}'"
        with open(path, "rb") as fh:
            raw = fh.read()
        bad = os.path.join(tmp, "bad.rfmw")
        with open(bad, "wb") as fh:
            fh.write(b"XXXX" + raw[4:])
        try:
            load_weights(bad)
            return False, "bad magic was accepted"
        except WeightsFormatError:
            pass
        trunc = os.path.join(tmp, "t.rfmw")
        with open(trunc, "wb") as fh:
            fh.write(raw[:-4])
        try:
            load_weights(trunc)
            return False, "truncated blob was accepted"
        except WeightsFormatError:
            pass
    return True, "weights container round trip and corruption checks hold"


SUITES = (
    ("kernel-oracle", _suite_kernels),
    ("geometry", _suite_geometry),
    ("nms-oracle", _suite_nms),
    ("orcc-oracle", _suite_orcc),
    ("loss-fixture", _suite_loss),
    ("evaluator", _suite_eval),
    ("formats", _suite_formats),
)


def run_selftest(out=print) -> bool:
    """Run every embedded suite; returns True iff all pass."""
    all_ok = True
    for name, suite in SUITES:
        ok, detail = suite()
        all_ok &= ok
        out(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
