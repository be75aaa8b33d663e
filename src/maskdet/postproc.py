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
                      iou_matrix, iou_pairs)
from .kernels import softmax_rows
from .model import Model, Predictions, model_forward

DEFAULT_CONF_THRESH = 0.5
DEFAULT_NMS_IOU = 0.4
DEFAULT_ORCC_IOU = 0.5

SWEEP_BLOCK_ROWS = 64    # rows per IoU slab in :func:`_alive_hits`
PAIR_CHUNK = 1 << 16     # candidate pairs per chunk in :func:`_pair_hits`
# above this share of all pairs overlapping on the sorted axis, the slab
# sweep, which skips decided columns, is cheaper than listing the pairs
DENSE_SHARE = 0.25


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
    """
    def by_low_edge(boxes, valid):
        order = valid[np.argsort(boxes[valid, axis])]
        return order, boxes[order, axis], boxes[order, axis + 2]

    order_a, lo_a, hi_a = by_low_edge(a, valid_a)
    if same:
        firsts = np.arange(1, len(order_a) + 1)
        return [(order_a, order_a, firsts,
                 np.searchsorted(lo_a, hi_a) - firsts, True)]
    order_b, lo_b, hi_b = by_low_edge(b, valid_b)
    firsts_b = np.searchsorted(lo_b, lo_a)
    firsts_a = np.searchsorted(lo_a, lo_b, "right")
    return [(order_a, order_b, firsts_b,
             np.searchsorted(lo_b, hi_a) - firsts_b, True),
            (order_b, order_a, firsts_a,
             np.searchsorted(lo_a, hi_b) - firsts_a, False)]


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


def _pair_hits(a: np.ndarray, b: np.ndarray, thresh: float, same: bool):
    """Rows and columns of the pairs with ``iou > thresh``, sorted by row,
    then column, or None when listing overlapping pairs does not pay.

    Only boxes with positive extents on both axes (so never a NaN) take
    part, and they are sorted on the axis with fewer overlapping pairs.
    Pairs that overlap on the other axis too are scored as
    ``iou_pairs(row of a, column of b)``, the operations ``iou_matrix``
    runs on them.  An IoU above ``thresh >= 0`` needs positive overlap on
    both axes, so no hit is missed.  With ``same`` only pairs with row <
    column are listed.  None when ``thresh`` is not ``>= 0`` or when the
    overlapping pairs exceed ``DENSE_SHARE`` of all pairs.
    """
    if not thresh >= 0:
        return None
    valid_a = _positive_rows(a)
    valid_b = valid_a if same else _positive_rows(b)
    by_axis = [_overlap_runs(a, b, valid_a, valid_b, axis, same)
               for axis in (0, 1)]
    listed = [sum(int(run[3].sum()) for run in runs) for runs in by_axis]
    axis = int(np.argmin(listed))
    if listed[axis] > DENSE_SHARE * (len(a) * (len(a) - 1) // 2 if same
                                     else len(a) * len(b)):
        return None
    o = 1 - axis
    coords_a = np.ascontiguousarray(a.T)      # coordinate first, for iou_pairs
    coords_b = coords_a if same else np.ascontiguousarray(b.T)
    keys = [np.zeros(0, dtype=np.intp)]
    for owners, pool, firsts, counts, owners_in_a in by_axis[axis]:
        mine, theirs = (a, b) if owners_in_a else (b, a)
        own_lo, own_hi = mine[owners, o], mine[owners, o + 2]
        spans = theirs[pool][:, [o, o + 2]]     # low, high edge on axis o
        for rows, pos in _run_chunks(firsts, counts):
            n = counts[rows]
            span = np.take(spans, pos, axis=0)
            near = np.flatnonzero((np.repeat(own_lo[rows], n) < span[:, 1])
                                  & (span[:, 0] < np.repeat(own_hi[rows], n)))
            r = np.repeat(owners[rows], n)[near]
            c = pool[pos[near]]
            if not owners_in_a:
                r, c = c, r
            elif same:
                r, c = np.minimum(r, c), np.maximum(r, c)
            hit = iou_pairs(np.take(coords_a, r, axis=1),
                            np.take(coords_b, c, axis=1)) > thresh
            keys.append(r[hit] * len(b) + c[hit])
    return np.divmod(np.sort(np.concatenate(keys)), len(b))


def _sweep_hits(a: np.ndarray, b: np.ndarray, a_alive: np.ndarray,
                b_alive: np.ndarray, thresh: float, same: bool = False):
    """An iterator of ``(i, hit columns)`` for rows of ``a`` alive when
    reached.

    Hits are listed by :func:`_pair_hits` when that pays (then rows without
    a hit are skipped, and with ``same`` only columns after the row are
    named) and by the slab sweep :func:`_alive_hits` otherwise.  Hits are
    in column order and may name columns the caller has cleared.
    """
    pairs = _pair_hits(a, b, thresh, same)
    if pairs is None:
        return _alive_hits(a, b, a_alive, b_alive, thresh)
    return _listed_hits(*pairs, a_alive)


def _listed_hits(rows: np.ndarray, cols: np.ndarray, a_alive: np.ndarray):
    """Yield ``(i, hit columns)`` for each row of the hit pairs ``(rows,
    cols)``, sorted by row, that is alive when reached."""
    bounds = np.append(np.flatnonzero(np.diff(rows, prepend=-1)), len(rows))
    for i, lo, hi in zip(rows[bounds[:-1]].tolist(), bounds[:-1].tolist(),
                         bounds[1:].tolist()):
        if a_alive[i]:
            yield i, cols[lo:hi]


def nms(boxes: np.ndarray, scores: np.ndarray,
        iou_thresh: float = DEFAULT_NMS_IOU):
    """Greedy non-maximum suppression over one class.

    Candidates are visited by descending score (ties toward the lower
    original index); each kept box discards all remaining boxes overlapping
    it with IoU strictly above ``iou_thresh``.  Returns the kept (boxes,
    scores) in kept order.

    The ranked boxes are swept against themselves by :func:`_sweep_hits`:
    a box still open when reached is kept and closes itself and its hits;
    a box never reached (it has no hits) and never closed is kept too.
    """
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    order = np.argsort(-scores, kind="stable")
    ranked = boxes[order]
    open_ = np.ones(len(order), dtype=bool)
    kept = np.zeros(len(order), dtype=bool)
    for i, hits in _sweep_hits(ranked, ranked, open_, open_, iou_thresh,
                               same=True):
        open_[hits] = False
        open_[i] = False
        kept[i] = True
    keep = order[kept | open_]
    return boxes[keep], scores[keep]


def _orcc_keep(face_boxes: np.ndarray, face_conf: np.ndarray,
               mask_boxes: np.ndarray, mask_conf: np.ndarray,
               thresh: float = DEFAULT_ORCC_IOU):
    """The ``(face, mask)`` keep masks of :func:`orcc` over box and
    confidence arrays.

    The faces are swept against the masks by :func:`_sweep_hits`: a face's
    alive hit masks are removed up to the first one it does not beat, which
    removes the face.
    """
    face_alive = np.ones(len(face_boxes), dtype=bool)
    mask_alive = np.ones(len(mask_boxes), dtype=bool)
    for fi, hits in _sweep_hits(face_boxes, mask_boxes, face_alive,
                                mask_alive, thresh):
        live = hits[mask_alive[hits]]
        lost = np.flatnonzero(~(face_conf[fi] >= mask_conf[live]))
        if lost.size:
            live = live[:lost[0]]
            face_alive[fi] = False
        mask_alive[live] = False
    return face_alive, mask_alive


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


def postprocess(pred: Predictions, anchors: AnchorSet, image_size: float,
                conf_thresh: float = DEFAULT_CONF_THRESH,
                nms_iou: float = DEFAULT_NMS_IOU,
                orcc_iou: float = DEFAULT_ORCC_IOU) -> list[Detection]:
    """Full post-processing of raw predictions into a final detection list.

    Every row is scored, but only the rows some class keeps are decoded
    (``decode`` is row-wise, so they are the rows :func:`score_predictions`
    gives).  Each class's ``(boxes, scores)`` arrays go through
    :func:`filter_confidence` and :func:`nms`, ORCC keeps rows of them, and
    one stable sort by descending confidence merges faces then masks.
    ``Detection`` objects are made for the final list only.
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
    labels = np.repeat([FACE, MASK], [face_ok.sum(), mask_ok.sum()])
    order = np.argsort(-scores, kind="stable")
    return [Detection(box, label, conf) for box, label, conf
            in zip(boxes[order], labels[order].tolist(),
                   scores[order].tolist())]


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
