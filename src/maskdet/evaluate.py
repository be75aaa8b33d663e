"""Per-class precision/recall over matched detections.

Matching protocol: per class independently, detections visit ground truths
in descending confidence order; each detection greedily claims the
unclaimed ground truth with the highest IoU at or above the threshold
(true positive) or counts as a false positive.  Unclaimed ground truths
are false negatives.  Counts from many images are summed before the
precision = TP / (TP + FP) and recall = TP / (TP + FN) ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .anchors import FACE, MASK, iou_matrix

FOREGROUND_CLASSES = (FACE, MASK)
DEFAULT_EVAL_IOU = 0.5


@dataclass
class ClassCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __add__(self, other: "ClassCounts") -> "ClassCounts":
        return ClassCounts(self.tp + other.tp, self.fp + other.fp,
                           self.fn + other.fn)


@dataclass
class EvalCounts:
    face: ClassCounts
    mask: ClassCounts

    @classmethod
    def zero(cls) -> "EvalCounts":
        return cls(ClassCounts(), ClassCounts())

    def __add__(self, other: "EvalCounts") -> "EvalCounts":
        return EvalCounts(self.face + other.face, self.mask + other.mask)

    def for_label(self, label: int) -> ClassCounts:
        if label == FACE:
            return self.face
        if label == MASK:
            return self.mask
        raise ValueError(f"no counts for label {label}")


def match_for_eval(detections, gt_labels, gt_boxes,
                   iou_thresh: float = DEFAULT_EVAL_IOU) -> EvalCounts:
    """Count TP/FP/FN for one image's detections against its annotations.

    ``detections`` is a list of objects with box/label/confidence;
    ``gt_labels`` and ``gt_boxes`` are aligned arrays of class labels and
    corner-form boxes.  Each class's detections are ranked by descending
    confidence, ties in list order.  Only detections with an IoU at or above
    the threshold can claim, so only those rows of ``iou_matrix`` are
    visited.
    """
    gt_labels = np.asarray(gt_labels, dtype=np.int64).reshape(-1)
    gt_boxes = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)
    labels = np.array([d.label for d in detections], dtype=np.int64)
    confidences = np.array([d.confidence for d in detections], dtype=np.float64)
    boxes = np.reshape([d.box for d in detections], (-1, 4))
    counts = EvalCounts.zero()
    for label in FOREGROUND_CLASSES:
        dets = np.flatnonzero(labels == label)
        dets = dets[np.argsort(-confidences[dets], kind="stable")]
        gt_idx = np.flatnonzero(gt_labels == label)
        claimed = np.zeros(gt_idx.size, dtype=bool)
        overlaps = iou_matrix(boxes[dets], gt_boxes[gt_idx])
        for di in np.flatnonzero((overlaps >= iou_thresh).any(axis=1)).tolist():
            candidates = np.where(~claimed, overlaps[di], -1.0)
            best = int(candidates.argmax())
            if candidates[best] >= iou_thresh:
                claimed[best] = True
        c = counts.for_label(label)
        c.tp = int(claimed.sum())
        c.fp = dets.size - c.tp
        c.fn = gt_idx.size - c.tp
    return counts


def precision_recall(counts: EvalCounts) -> dict[int, tuple[float, float]]:
    """Per-class (precision, recall); a zero denominator yields 0 by convention."""
    out = {}
    for label in FOREGROUND_CLASSES:
        c = counts.for_label(label)
        precision = c.tp / (c.tp + c.fp) if c.tp + c.fp > 0 else 0.0
        recall = c.tp / (c.tp + c.fn) if c.tp + c.fn > 0 else 0.0
        out[label] = (precision, recall)
    return out
