"""Inference post-processing: scoring, confidence filter, NMS and ORCC.

The chain turns raw head outputs into final detections:

    softmax scoring -> confidence and box filter -> per-class greedy NMS
    -> cross-class object removal (ORCC) -> merged, confidence-sorted list

ORCC resolves overlapping face/mask pairs by dropping the lower-confidence
member.  Its iteration order is pinned down exactly (see :func:`orcc`)
because the removal-during-iteration semantics would otherwise be ambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ``iou`` is not called here; it stays importable as ``postproc.iou`` because
# the benchmark's tracer counts calls to it through this namespace.
from .anchors import (FACE, MASK, AnchorSet, decode, generate_anchors, iou,
                      iou_matrix)
from .kernels import softmax_rows
from .model import Model, Predictions, model_forward

DEFAULT_CONF_THRESH = 0.5
DEFAULT_NMS_IOU = 0.4
DEFAULT_ORCC_IOU = 0.5

SWEEP_BLOCK_ROWS = 64    # rows per IoU slab in :func:`_alive_hits`


@dataclass(frozen=True)
class Detection:
    """A final detection: corner-form box, class label and softmax confidence."""

    box: np.ndarray       # (4,) float64 [x_min, y_min, x_max, y_max]
    label: int            # FACE or MASK
    confidence: float


def score_predictions(pred: Predictions, anchors: AnchorSet,
                      image_size: float | None = None):
    """Decode all anchors and split softmax scores per foreground class.

    Returns {FACE: (boxes, scores), MASK: (boxes, scores)} with one
    candidate per anchor row, boxes decoded (and clipped when ``image_size``
    is given).  Both classes share one boxes array; callers must not write
    into it.
    """
    if pred.count != len(anchors):
        raise ValueError(f"{pred.count} prediction rows vs {len(anchors)} anchors")
    probs = softmax_rows(pred.cls)
    boxes = decode(pred.loc, anchors.anchors, image_size=image_size)
    return {FACE: (boxes, probs[:, FACE]), MASK: (boxes, probs[:, MASK])}


def filter_confidence(boxes: np.ndarray, scores: np.ndarray,
                      conf_thresh: float = DEFAULT_CONF_THRESH):
    """Keep candidates with score >= conf_thresh, preserving order.

    Candidates whose box is non-finite or has no positive width or height
    are dropped as well, so NMS, ORCC and the output never see them.
    """
    boxes, scores = np.asarray(boxes), np.asarray(scores)
    keep = ((scores >= conf_thresh) & np.isfinite(boxes).all(axis=1)
            & (boxes[:, 2] > boxes[:, 0]) & (boxes[:, 3] > boxes[:, 1]))
    return boxes[keep], scores[keep]


def _alive_hits(a: np.ndarray, b: np.ndarray, a_alive: np.ndarray,
                b_alive: np.ndarray, thresh: float):
    """Yield ``(i, hit columns)`` for each row of ``a`` alive when reached.

    One slab ``iou_matrix(alive rows, columns of b alive at the block start)
    > thresh`` per block of ``SWEEP_BLOCK_ROWS`` rows; hits are in column
    order and may name columns the caller cleared since the block start.
    """
    for start in range(0, len(a), SWEEP_BLOCK_ROWS):
        rows = np.flatnonzero(a_alive[start:start + SWEEP_BLOCK_ROWS]) + start
        cols = np.flatnonzero(b_alive)
        over = iou_matrix(a[rows], b[cols]) > thresh
        for i, hits in zip(rows.tolist(), over):
            if a_alive[i]:
                yield i, cols[hits]


def nms(boxes: np.ndarray, scores: np.ndarray,
        iou_thresh: float = DEFAULT_NMS_IOU):
    """Greedy non-maximum suppression over one class.

    Candidates are visited by descending score (ties toward the lower
    original index); each kept box discards all remaining boxes overlapping
    it with IoU strictly above ``iou_thresh``.  Returns the kept (boxes,
    scores) in kept order.

    The ranked boxes are swept against themselves by :func:`_alive_hits`:
    a box still open when reached is kept and closes itself and its hits,
    so decided boxes drop out of later blocks' columns.
    """
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    order = np.argsort(-scores, kind="stable")
    ranked = boxes[order]
    open_ = np.ones(len(order), dtype=bool)
    kept = np.zeros(len(order), dtype=bool)
    for i, hits in _alive_hits(ranked, ranked, open_, open_, iou_thresh):
        open_[hits] = False
        open_[i] = False
        kept[i] = True
    keep = order[kept]
    return boxes[keep], scores[keep]


def orcc(faces: list[Detection], masks: list[Detection],
         thresh: float = DEFAULT_ORCC_IOU) -> tuple[list[Detection], list[Detection]]:
    """Cross-class object removal between NMS-filtered face and mask lists.

    Deterministic sweep: faces in list order, masks in list order, skipping
    entries already removed.  Whenever a face/mask pair overlaps with IoU
    strictly above ``thresh``, the lower-confidence member is removed; on
    equal confidence the mask is removed.  A face that loses is dead: its
    remaining mask comparisons are skipped.  Survivors keep their input
    order.

    The faces are swept against the masks by :func:`_alive_hits`: a face's
    alive hit masks are removed up to the first one it does not beat, which
    removes the face.  ``iou_matrix`` uses the pairwise formula's float64
    operations in its order, so every survivor matches a pairwise sweep.
    """
    face_alive = np.ones(len(faces), dtype=bool)
    mask_alive = np.ones(len(masks), dtype=bool)
    face_boxes = np.reshape([f.box for f in faces], (-1, 4))
    mask_boxes = np.reshape([m.box for m in masks], (-1, 4))
    face_conf = np.array([f.confidence for f in faces], dtype=np.float64)
    mask_conf = np.array([m.confidence for m in masks], dtype=np.float64)
    for fi, hits in _alive_hits(face_boxes, mask_boxes, face_alive,
                                mask_alive, thresh):
        live = hits[mask_alive[hits]]
        lost = np.flatnonzero(~(face_conf[fi] >= mask_conf[live]))
        if lost.size:
            live = live[:lost[0]]
            face_alive[fi] = False
        mask_alive[live] = False
    return ([f for f, ok in zip(faces, face_alive) if ok],
            [m for m, ok in zip(masks, mask_alive) if ok])


def postprocess(pred: Predictions, anchors: AnchorSet, image_size: float,
                conf_thresh: float = DEFAULT_CONF_THRESH,
                nms_iou: float = DEFAULT_NMS_IOU,
                orcc_iou: float = DEFAULT_ORCC_IOU) -> list[Detection]:
    """Full post-processing of raw predictions into a final detection list."""
    candidates = score_predictions(pred, anchors, image_size=image_size)
    per_class: dict[int, list[Detection]] = {}
    for label, (boxes, scores) in candidates.items():
        boxes, scores = filter_confidence(boxes, scores, conf_thresh)
        boxes, scores = nms(boxes, scores, nms_iou)
        per_class[label] = [Detection(b, label, float(s))
                            for b, s in zip(boxes, scores)]
    faces, masks = orcc(per_class[FACE], per_class[MASK], orcc_iou)
    merged = faces + masks
    merged.sort(key=lambda d: -d.confidence)
    return merged


def detect(model: Model, image: np.ndarray, anchors: AnchorSet | None = None,
           conf_thresh: float = DEFAULT_CONF_THRESH,
           nms_iou: float = DEFAULT_NMS_IOU,
           orcc_iou: float = DEFAULT_ORCC_IOU) -> list[Detection]:
    """Run the model on one preprocessed image and post-process the output.

    Coordinates are in the network's input-pixel space (the config's
    input_size square); callers showing results on the source image rescale
    by original/input extents.
    """
    if anchors is None:
        anchors = generate_anchors(model.config)
    pred = model_forward(model, image)
    return postprocess(pred, anchors, float(model.config.input_size),
                       conf_thresh, nms_iou, orcc_iou)
