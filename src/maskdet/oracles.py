"""Independent reference implementations the package is checked against.

``maskdet selftest`` and the test suite both import them from here.
Everything here is written the dumbest way that can be right: scalar loops,
literal sort-and-scan, fixed-point iteration.  None of it shares code with
the package's vectorized paths.
"""

from __future__ import annotations

import numpy as np


def iou_ref(a, b) -> float:
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    union = ((a[2] - a[0]) * (a[3] - a[1])
             + (b[2] - b[0]) * (b[3] - b[1]) - inter)
    return inter / union if union > 0 else 0.0


def naive_conv2d(x, kernel, bias=None, stride=(1, 1), padding=(0, 0), groups=1):
    """Scalar-loop cross-correlation in float64."""
    n, c, h, w = x.shape
    out_c, cg, kh, kw = kernel.shape
    sh, sw = stride
    ph, pw = padding
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=np.float64)
    padded[:, :, ph:ph + h, pw:pw + w] = x
    out = np.zeros((n, out_c, out_h, out_w), dtype=np.float64)
    og = out_c // groups
    for b in range(n):
        for o in range(out_c):
            g = o // og
            for i in range(out_h):
                for j in range(out_w):
                    acc = 0.0
                    for ci in range(cg):
                        for u in range(kh):
                            for v in range(kw):
                                acc += (float(padded[b, g * cg + ci,
                                                     i * sh + u, j * sw + v])
                                        * float(kernel[o, ci, u, v]))
                    if bias is not None:
                        acc += float(bias[o])
                    out[b, o, i, j] = acc
    return out


def naive_pool2d(x, mode, window, stride):
    n, c, h, w = x.shape
    wh, ww = window
    sh, sw = stride
    out_h = (h - wh) // sh + 1
    out_w = (w - ww) // sw + 1
    out = np.zeros((n, c, out_h, out_w), dtype=np.float64)
    for b in range(n):
        for ch in range(c):
            for i in range(out_h):
                for j in range(out_w):
                    vals = [float(x[b, ch, i * sh + u, j * sw + v])
                            for u in range(wh) for v in range(ww)]
                    out[b, ch, i, j] = max(vals) if mode == "max" else sum(vals) / len(vals)
    return out


def naive_upsample(x, factor):
    n, c, h, w = x.shape
    out = np.zeros((n, c, h * factor, w * factor), dtype=x.dtype)
    for i in range(h * factor):
        for j in range(w * factor):
            out[:, :, i, j] = x[:, :, i // factor, j // factor]
    return out


def nms_reference(boxes, scores, thresh):
    """Quadratic NMS: a candidate survives iff it clears every kept box.

    Returns surviving indices in kept (descending-score) order.
    """
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    kept = []
    for i in order:
        if all(iou_ref(boxes[i], boxes[k]) <= thresh for k in kept):
            kept.append(i)
    return kept


def match_eval_reference(detections, gt_labels, gt_boxes, thresh):
    """Scalar-loop evaluation matching; returns {label: (tp, fp, fn)}.

    Per label, detections are visited by descending confidence (ties in
    list order); each claims the unclaimed ground truth with the highest IoU
    at or above ``thresh`` (ties to the lower index) or is a false positive.
    Every label that occurs in ``detections`` or ``gt_labels`` gets counts.
    """
    out = {}
    for label in sorted({int(v) for v in gt_labels}
                        | {d.label for d in detections}):
        gts = [j for j in range(len(gt_labels)) if gt_labels[j] == label]
        dets = [d for d in detections if d.label == label]
        order = sorted(range(len(dets)),
                       key=lambda i: (-dets[i].confidence, i))
        claimed = set()
        for i in order:
            best_j, best_v = -1, 0.0
            for j in gts:
                if j in claimed:
                    continue
                v = iou_ref(dets[i].box, gt_boxes[j])
                if v >= thresh and (best_j < 0 or v > best_v):
                    best_j, best_v = j, v
            if best_j >= 0:
                claimed.add(best_j)
        out[label] = (len(claimed), len(dets) - len(claimed),
                      len(gts) - len(claimed))
    return out


def orcc_fixed_point(faces, masks, thresh):
    """Literal nested face/mask removal loops iterated to a fixed point.

    Removed entries are skipped; a full pass with no removal terminates.
    Returns the two survivor lists (same objects, original order).
    """
    face_alive = [True] * len(faces)
    mask_alive = [True] * len(masks)
    changed = True
    while changed:
        changed = False
        for fi, face in enumerate(faces):
            for mi, mask in enumerate(masks):
                if not face_alive[fi] or not mask_alive[mi]:
                    continue
                if iou_ref(face.box, mask.box) > thresh:
                    if face.confidence >= mask.confidence:
                        mask_alive[mi] = False
                    else:
                        face_alive[fi] = False
                    changed = True
    return ([f for f, ok in zip(faces, face_alive) if ok],
            [m for m, ok in zip(masks, mask_alive) if ok])


def match_reference(anchor_corners, gt_boxes, gt_labels, pos_thresh):
    """Loop-based target assignment; returns (labels, assigned_gt_index).

    Mirrors the documented two-phase rule: threshold positives from each
    anchor's best ground truth, then forced claims (each gt takes its best
    anchor; collisions go to the higher IoU, ties to the lower gt index).
    """
    p, o = len(anchor_corners), len(gt_boxes)
    labels = np.zeros(p, dtype=np.int64)
    assigned = np.full(p, -1, dtype=np.int64)
    for i in range(p):
        best_j, best_v = -1, 0.0
        for j in range(o):
            v = iou_ref(anchor_corners[i], gt_boxes[j])
            if v > best_v:
                best_j, best_v = j, v
        if best_j >= 0 and best_v >= pos_thresh:
            assigned[i] = best_j
    claims = {}
    for j in range(o):
        best_i, best_v = -1, 0.0
        for i in range(p):
            v = iou_ref(anchor_corners[i], gt_boxes[j])
            if v > best_v:
                best_i, best_v = i, v
        if best_i >= 0 and best_v > 0:
            if best_i not in claims or best_v > claims[best_i][0]:
                claims[best_i] = (best_v, j)
    for i, (_, j) in claims.items():
        assigned[i] = j
    pos = assigned >= 0
    labels[pos] = np.asarray(gt_labels)[assigned[pos]]
    return labels, assigned
