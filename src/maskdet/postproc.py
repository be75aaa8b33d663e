"""Inference post-processing: scoring, confidence filter, NMS and ORCC.

The chain turns raw head outputs into final detections, arrays from
:func:`detect` and a :class:`Detection` list from :func:`postprocess`:

    softmax scoring -> confidence and box filter -> per-class greedy NMS
    -> cross-class object removal (ORCC) -> merged, confidence-sorted rows

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
                      iou_pairs)
from .kernels import softmax_rows
from .model import Model, Predictions, model_forward

DEFAULT_CONF_THRESH = 0.5
DEFAULT_NMS_IOU = 0.4
DEFAULT_ORCC_IOU = 0.5

PAIR_CHUNK = 1 << 16     # candidate pairs per chunk in :func:`_pair_hits`


@dataclass(frozen=True)
class Detection:
    """A final detection: corner-form box, class label and softmax confidence."""

    box: np.ndarray       # (4,) float64 [x_min, y_min, x_max, y_max]
    label: int            # FACE or MASK
    confidence: float


def _check_rows(pred: Predictions, anchors: AnchorSet) -> None:
    if pred.count != len(anchors):
        raise ValueError(f"{pred.count} prediction rows vs {len(anchors)} anchors")
    bad = sum(a.size - np.count_nonzero(np.isfinite(a))
              for a in (pred.loc, pred.cls))
    if bad:
        raise ValueError(f"{bad} non-finite values in the model's predictions")


def score_predictions(pred: Predictions, anchors: AnchorSet,
                      image_size: float | None = None):
    """Decode all anchors and split softmax scores per foreground class.

    Returns {FACE: (boxes, scores), MASK: (boxes, scores)} with one
    candidate per anchor row, boxes decoded (and clipped when ``image_size``
    is given).  Both classes share one boxes array; callers must not write
    into it.
    """
    _check_rows(pred, anchors)
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


def _positive_rows(boxes: np.ndarray) -> np.ndarray:
    """Indices of the boxes with positive extent on both axes (never NaN)."""
    return np.flatnonzero((boxes[:, 0] < boxes[:, 2])
                          & (boxes[:, 1] < boxes[:, 3]))


def _overlap_runs(a: np.ndarray, b: np.ndarray, valid_a: np.ndarray,
                  valid_b: np.ndarray, axis: int, same: bool):
    """Runs of the pairs of rows ``valid_a`` of ``a`` and ``valid_b`` of
    ``b`` whose spans on ``axis`` (0 for x, 1 for y) overlap, from one sort
    of each side by its low edge.

    A run ``(owners, pool, firsts, counts, owners_in_a)`` pairs each
    ``owners[k]`` with ``pool[firsts[k]:firsts[k] + counts[k]]``, the boxes
    whose low edge lies in its span.  With ``same`` (``a`` is ``b``) each
    pair comes once; otherwise a second run pairs each box of ``b`` with
    the boxes of ``a`` whose low edge lies in its span strictly above its
    own.

    Counts are clamped at 0, for high edges that lie below the low edge.
    """
    def by_low_edge(boxes, valid):
        order = valid[np.argsort(boxes[valid, axis])]
        return order, boxes[order, axis], boxes[order, axis + 2]

    order_a, lo_a, hi_a = by_low_edge(a, valid_a)
    if same:
        firsts = np.arange(1, len(order_a) + 1)
        return [(order_a, order_a, firsts,
                 np.maximum(np.searchsorted(lo_a, hi_a) - firsts, 0), True)]
    order_b, lo_b, hi_b = by_low_edge(b, valid_b)
    firsts_b = np.searchsorted(lo_b, lo_a)
    firsts_a = np.searchsorted(lo_a, lo_b, "right")
    return [(order_a, order_b, firsts_b,
             np.maximum(np.searchsorted(lo_b, hi_a) - firsts_b, 0), True),
            (order_b, order_a, firsts_a,
             np.maximum(np.searchsorted(lo_a, hi_b) - firsts_a, 0), False)]


def _run_chunks(firsts, counts):
    """Yield ``(owners, positions)`` per chunk of a run: a slice of its
    owners and the pool positions of their pairs, owner by owner, at most
    ``PAIR_CHUNK`` pairs or one owner's pairs per chunk."""
    ends = np.cumsum(counts)
    r = 0
    while r < len(counts):
        base = ends[r] - counts[r]
        stop = max(r + 1, int(np.searchsorted(ends, base + PAIR_CHUNK,
                                              "right")))
        n = counts[r:stop]
        shift = np.repeat(firsts[r:stop] - (ends[r:stop] - n - base), n)
        yield slice(r, stop), np.arange(int(ends[stop - 1] - base)) + shift
        r = stop


@np.errstate(invalid="ignore", over="ignore")
def _bounds(coords: np.ndarray, thresh: float):
    """Per-box terms, for boxes given coordinate first, of two conditions
    that every pair with ``iou > thresh`` meets: ``(edges, area, floor)``.

    - The IoU is at most the overlap on an axis over either box's extent
      there.  ``edges`` is ``coords`` with each high edge lowered by
      ``thresh`` times that extent, and the pair's spans overlap on both
      axes under these edges.
    - The IoU is at most the smaller area over the larger, so each box's
      ``area`` exceeds the other's ``floor``, ``thresh`` times its area.

    Rounding here and in ``iou_pairs`` moves a side by a few 2**-53 of its
    largest operand; the terms give way by 2**-40 of the extent, the
    coordinate and the area.  A box whose area is not finite, or is below
    2**-1000 where subnormal rounding can beat both bounds, keeps its edges
    and has a floor of -inf.
    """
    slack = 2.0 ** -40
    extent = coords[2:] - coords[:2]
    area = extent[0] * extent[1]
    usable = (area >= 2.0 ** -1000) & (area < np.inf)
    cut = (thresh - slack) * extent - slack * np.abs(coords[2:])
    edges = coords.copy()
    np.subtract(coords[2:], cut, out=edges[2:], where=usable & (cut > 0))
    return edges, area, np.where(usable, (thresh - slack) * area, -np.inf)


def _pair_hits(a: np.ndarray, b: np.ndarray, thresh: float, same: bool):
    """Rows and columns of the pairs with ``iou > thresh``, sorted by row,
    then column; with ``same`` only pairs with row < column.

    Only boxes with positive extents on both axes (so never a NaN) take
    part.  They are sorted by low edge on the axis with fewer pairs whose
    spans overlap under the lowered edges of :func:`_bounds`; the pairs
    that overlap that way on the other axis too and meet its area
    condition are scored as ``iou_pairs(row of a, column of b)``, the
    operations ``iou_matrix`` runs on them.  Raises ValueError unless
    ``0 <= thresh <= 1``.
    """
    if not 0 <= thresh <= 1:
        raise ValueError(f"IoU threshold must be a number in [0, 1], "
                         f"got {thresh!r}")
    coords_a = np.ascontiguousarray(a.T)      # coordinate first, for iou_pairs
    coords_b = coords_a if same else np.ascontiguousarray(b.T)
    valid_a = _positive_rows(a)
    valid_b = valid_a if same else _positive_rows(b)
    edges_a, area_a, floor_a = _bounds(coords_a, thresh)
    edges_b, area_b, floor_b = ((edges_a, area_a, floor_a) if same
                                else _bounds(coords_b, thresh))
    by_axis = [_overlap_runs(edges_a.T, edges_b.T, valid_a, valid_b, axis,
                             same) for axis in (0, 1)]
    axis = int(np.argmin([sum(int(run[3].sum()) for run in runs)
                          for runs in by_axis]))
    o = 1 - axis
    keys = [np.zeros(0, dtype=np.intp)]
    for owners, pool, firsts, counts, owners_in_a in by_axis[axis]:
        mine, theirs = ((edges_a, edges_b) if owners_in_a
                        else (edges_b, edges_a))
        own_lo, own_hi = mine[o, owners], mine[o + 2, owners]
        spans = theirs[o::2, pool]          # low, lowered high edge on axis o
        for rows, pos in _run_chunks(firsts, counts):
            n = counts[rows]
            span = np.take(spans, pos, axis=1)
            near = np.flatnonzero((np.repeat(own_lo[rows], n) < span[1])
                                  & (span[0] < np.repeat(own_hi[rows], n)))
            r = np.repeat(owners[rows], n)[near]
            c = pool[pos[near]]
            if not owners_in_a:
                r, c = c, r
            elif same:
                r, c = np.minimum(r, c), np.maximum(r, c)
            fit = np.flatnonzero((floor_a[r] < area_b[c])
                                 & (floor_b[c] < area_a[r]))
            r, c = r[fit], c[fit]
            hit = iou_pairs(np.take(coords_a, r, axis=1),
                            np.take(coords_b, c, axis=1)) > thresh
            keys.append(r[hit] * len(b) + c[hit])
    return np.divmod(np.sort(np.concatenate(keys)), len(b))


def nms(boxes: np.ndarray, scores: np.ndarray,
        iou_thresh: float = DEFAULT_NMS_IOU):
    """Greedy non-maximum suppression over one class.

    Candidates are visited by descending score (ties toward the lower
    original index); each kept box discards all remaining boxes overlapping
    it with IoU strictly above ``iou_thresh``.  Returns the kept (boxes,
    scores) in kept order.

    The ranked boxes' hit pairs come from :func:`_pair_hits`, sorted by
    row, and one pass over them decides: a row not yet removed is kept and
    removes its column.  Every pair that can remove a row has a lower row,
    so the row is settled before its own pairs come up.  A box that is no
    pair's column is kept, so the boxes it hits are removed and their own
    pairs decide nothing; they are dropped before the pass, which in a
    crowd is nearly all of them.  Raises ValueError unless
    ``0 <= iou_thresh <= 1``.
    """
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    order = np.argsort(-scores, kind="stable")
    ranked = boxes[order]
    rows, cols = _pair_hits(ranked, ranked, iou_thresh, True)
    hit = np.bincount(cols, minlength=len(order)) > 0
    lost = np.bincount(cols[~hit[rows]], minlength=len(order)) > 0
    rows, cols = rows[~lost[rows]], cols[~lost[rows]]
    removed = [0] * len(order)
    for i, j in zip(rows.tolist(), cols.tolist()):
        if not removed[i]:
            removed[j] = 1
    keep = order[np.logical_not(removed)]
    return boxes[keep], scores[keep]


def _orcc_keep(face_boxes: np.ndarray, face_conf: np.ndarray,
               mask_boxes: np.ndarray, mask_conf: np.ndarray,
               thresh: float = DEFAULT_ORCC_IOU):
    """The ``(face, mask)`` keep masks of :func:`orcc` over box and
    confidence arrays.

    The face/mask hit pairs come from :func:`_pair_hits`, sorted by face,
    then mask, and one pass over them removes the lower-confidence member
    of each pair whose face and mask are both still there: the mask on
    ``face >= mask``, else the face (so a NaN confidence removes the face).
    This is one sweep of ``oracles.orcc_fixed_point``'s loops over the
    pairs that hit; a pair both of whose members survive it was met with
    both alive, so a second sweep removes nothing.
    """
    rows, cols = _pair_hits(face_boxes, mask_boxes, thresh, False)
    fc, mc = face_conf.tolist(), mask_conf.tolist()
    face_out, mask_out = [0] * len(fc), [0] * len(mc)
    for f, m in zip(rows.tolist(), cols.tolist()):
        if not (face_out[f] or mask_out[m]):
            if fc[f] >= mc[m]:
                mask_out[m] = 1
            else:
                face_out[f] = 1
    return np.logical_not(face_out), np.logical_not(mask_out)


def orcc(faces: list[Detection], masks: list[Detection],
         thresh: float = DEFAULT_ORCC_IOU) -> tuple[list[Detection], list[Detection]]:
    """Cross-class object removal between NMS-filtered face and mask lists.

    Deterministic sweep: faces in list order, masks in list order, skipping
    entries already removed.  Whenever a face/mask pair overlaps with IoU
    strictly above ``thresh``, the lower-confidence member is removed; on
    equal confidence the mask is removed.  A face that loses is dead: its
    remaining mask comparisons are skipped.  Survivors keep their input
    order.  Every IoU is the pairwise formula's float64 operations in its
    order, so every survivor matches a pairwise sweep.
    """
    face_alive, mask_alive = _orcc_keep(
        np.reshape([f.box for f in faces], (-1, 4)),
        np.array([f.confidence for f in faces], dtype=np.float64),
        np.reshape([m.box for m in masks], (-1, 4)),
        np.array([m.confidence for m in masks], dtype=np.float64), thresh)
    return ([f for f, ok in zip(faces, face_alive) if ok],
            [m for m, ok in zip(masks, mask_alive) if ok])


def _final_arrays(pred: Predictions, anchors: AnchorSet, image_size: float,
                  conf_thresh: float, nms_iou: float, orcc_iou: float):
    """The final ``(labels, boxes, confidences)``: ``(k,)`` int64, ``(k, 4)``
    float64 and ``(k,)`` float64 arrays, one row per detection.

    Every row is scored, but only the rows some class keeps are decoded
    (``decode`` is row-wise, so they are the rows :func:`score_predictions`
    gives).  Each class's ``(boxes, scores)`` arrays go through
    :func:`filter_confidence` and :func:`nms`, ORCC keeps rows of them, and
    one stable sort by descending confidence merges faces then masks.
    """
    _check_rows(pred, anchors)
    probs = softmax_rows(pred.cls)
    rows = np.flatnonzero((probs[:, FACE] >= conf_thresh)
                          | (probs[:, MASK] >= conf_thresh))
    boxes = decode(pred.loc[rows], anchors.anchors[rows],
                   image_size=image_size)
    kept = [nms(*filter_confidence(boxes, probs[rows, label], conf_thresh),
                nms_iou) for label in (FACE, MASK)]
    (face_boxes, face_conf), (mask_boxes, mask_conf) = kept
    face_ok, mask_ok = _orcc_keep(face_boxes, face_conf, mask_boxes,
                                  mask_conf, orcc_iou)
    boxes = np.concatenate([face_boxes[face_ok], mask_boxes[mask_ok]])
    scores = np.concatenate([face_conf[face_ok], mask_conf[mask_ok]])
    labels = np.repeat(np.int64([FACE, MASK]), [face_ok.sum(), mask_ok.sum()])
    order = np.argsort(-scores, kind="stable")
    return labels[order], boxes[order], scores[order]


def postprocess(pred: Predictions, anchors: AnchorSet, image_size: float,
                conf_thresh: float = DEFAULT_CONF_THRESH,
                nms_iou: float = DEFAULT_NMS_IOU,
                orcc_iou: float = DEFAULT_ORCC_IOU) -> list[Detection]:
    """Full post-processing of raw predictions into a final detection list:
    one ``Detection`` per row of :func:`_final_arrays`, in its order."""
    labels, boxes, confidences = _final_arrays(pred, anchors, image_size,
                                               conf_thresh, nms_iou, orcc_iou)
    return [Detection(box, label, conf) for box, label, conf
            in zip(boxes, labels.tolist(), confidences.tolist())]


def detect(model: Model, image: np.ndarray, anchors: AnchorSet | None = None,
           conf_thresh: float = DEFAULT_CONF_THRESH,
           nms_iou: float = DEFAULT_NMS_IOU,
           orcc_iou: float = DEFAULT_ORCC_IOU):
    """Run the model on one preprocessed image and post-process the output.

    Returns ``(labels, boxes, confidences)``, ``(k,)`` int64 FACE or MASK,
    ``(k, 4)`` float64 and ``(k,)`` float64, row for row the list
    :func:`postprocess` gives.  Boxes are in the network's input-pixel
    space (the config's input_size square); callers showing results on the
    source image rescale by original/input extents.
    """
    if anchors is None:
        anchors = generate_anchors(model.config)
    pred = model_forward(model, image)
    return _final_arrays(pred, anchors, float(model.config.input_size),
                         conf_thresh, nms_iou, orcc_iou)
