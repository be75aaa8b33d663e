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

# cap on the elements of one face-block x mask IoU slab in :func:`orcc`
ORCC_SLAB_ELEMENTS = 1 << 20
NMS_BLOCK_ROWS = 64    # ranked rows per IoU slab in :func:`nms`


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


def nms(boxes: np.ndarray, scores: np.ndarray,
        iou_thresh: float = DEFAULT_NMS_IOU):
    """Greedy non-maximum suppression over one class.

    Candidates are visited by descending score (ties toward the lower
    original index); each kept box discards all remaining boxes overlapping
    it with IoU strictly above ``iou_thresh``.  Returns the kept (boxes,
    scores) in kept order.

    Each block of ``NMS_BLOCK_ROWS`` ranked boxes gets one ``iou_matrix``
    slab, its alive rows against the alive boxes from the block start on,
    swept in rank order: an alive row is kept and kills its hits (``not iou
    <= iou_thresh``, so a NaN overlap suppresses).  A row is one of its own
    columns, so usually its own hit; it is revived after killing.
    """
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    order = np.argsort(-scores, kind="stable")
    ranked = boxes[order]
    alive = np.ones(len(order), dtype=bool)
    for start in range(0, len(order), NMS_BLOCK_ROWS):
        rows = np.flatnonzero(alive[start:start + NMS_BLOCK_ROWS]) + start
        cols = np.flatnonzero(alive[start:]) + start
        over = ~(iou_matrix(ranked[rows], ranked[cols]) <= iou_thresh)
        for i, hits in zip(rows.tolist(), over):
            if alive[i]:
                alive[cols[hits]] = False
                alive[i] = True       # a row is its own hit
    keep = order[alive]
    return boxes[keep], scores[keep]


def orcc(faces: list[Detection], masks: list[Detection],
         thresh: float = 0.4) -> tuple[list[Detection], list[Detection]]:
    """Cross-class object removal between NMS-filtered face and mask lists.

    Deterministic sweep: faces in list order, masks in list order, skipping
    entries already removed.  Whenever a face/mask pair overlaps with IoU
    strictly above ``thresh``, the lower-confidence member is removed; on
    equal confidence the mask is removed.  A face that loses is dead: its
    remaining mask comparisons are skipped.  Survivors keep their input
    order.

    Only pairs above ``thresh`` can remove anything, so the faces are taken
    in row blocks and each block gets one boolean slab
    ``iou_matrix(face block, all masks) > thresh``; the sweep then visits
    just the hits of each face row, in mask order.  A block holds at most
    ``ORCC_SLAB_ELEMENTS`` pairs (one face row when there are more masks),
    so memory does not grow with the face count.  ``iou_matrix`` computes
    every IoU with the same float64 operations in the same order as
    :func:`~maskdet.anchors.iou`, so for finite boxes each comparison with
    ``thresh``, and hence every survivor, is the same as a pairwise sweep.
    """
    face_alive = [True] * len(faces)
    mask_alive = [True] * len(masks)
    if faces and masks:
        face_boxes = np.stack([f.box for f in faces])
        mask_boxes = np.stack([m.box for m in masks])
        rows = max(1, ORCC_SLAB_ELEMENTS // len(masks))
        for start in range(0, len(faces), rows):
            over = iou_matrix(face_boxes[start:start + rows], mask_boxes) > thresh
            for fi, hits in enumerate(over, start):
                face = faces[fi]
                for mi in np.flatnonzero(hits).tolist():
                    if not mask_alive[mi]:
                        continue
                    if face.confidence >= masks[mi].confidence:
                        mask_alive[mi] = False
                    else:
                        face_alive[fi] = False
                        break
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
