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

from .anchors import FACE, MASK, check_threshold, iou_matrix
from .annotations import ImageRecord

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

    ``detections`` is a list of objects with box/label/confidence, such as
    :class:`~maskdet.postproc.Detection`, or an
    :class:`~maskdet.annotations.ImageRecord` with confidences, whose
    arrays are used as they are; ``gt_labels`` and ``gt_boxes`` are aligned
    arrays of class labels and corner-form boxes.  Both classes are matched
    in one pass over one ``iou_matrix`` of every ground truth with every
    detection, in which each cross-class entry is set to -1, below any
    threshold, so a detection can claim only a ground truth of its own
    label and the classes never touch each other's claims.  Detections are
    ranked by descending confidence, ties in list order, which keeps each
    class's own order.  Only detections with an IoU at or above the
    threshold can claim, so only those columns are visited.  The matrix is
    ``n_gt x n_det`` float64, so it also holds the cross-class pairs that
    two per-class blocks would leave out (twice their size when the classes
    are even); at the benchmark's lowest confidence threshold it is about
    8 x 1 000 per image.
    Labels other than FACE and MASK are not counted.  Raises ValueError
    unless ``0 <= iou_thresh <= 1`` and ``gt_labels`` and ``gt_boxes`` have
    the same length.
    """
    check_threshold(iou_thresh, "IoU threshold")
    gt_labels = np.asarray(gt_labels, dtype=np.int64).reshape(-1)
    gt_boxes = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)
    if gt_boxes.shape[0] != gt_labels.shape[0]:
        raise ValueError(f"{gt_boxes.shape[0]} ground-truth boxes but "
                         f"{gt_labels.shape[0]} labels")
    if isinstance(detections, ImageRecord):
        labels, boxes = detections.labels, detections.boxes
        confidences = detections.confidences
    else:
        labels = np.array([d.label for d in detections], dtype=np.int64)
        confidences = np.array([d.confidence for d in detections],
                               dtype=np.float64)
        boxes = np.reshape([d.box for d in detections], (-1, 4))
    overlaps = iou_matrix(gt_boxes, boxes)  # long rows: few ground truths
    np.putmask(overlaps, gt_labels[:, None] != labels, -1.0)
    hits = np.flatnonzero((overlaps >= iou_thresh).any(axis=0))
    claimed = np.zeros(gt_labels.size, dtype=bool)
    for di in hits[np.argsort(-confidences[hits], kind="stable")].tolist():
        candidates = np.where(claimed, -1.0, overlaps[:, di])
        best = int(candidates.argmax())
        if candidates[best] >= iou_thresh:
            claimed[best] = True
    counts = EvalCounts.zero()
    for label in FOREGROUND_CLASSES:
        c = counts.for_label(label)
        gt_of_label = gt_labels == label
        c.tp = int(np.count_nonzero(claimed & gt_of_label))
        c.fp = int(np.count_nonzero(labels == label)) - c.tp
        c.fn = int(np.count_nonzero(gt_of_label)) - c.tp
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
