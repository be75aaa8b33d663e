"""Output checks that share no code with maskdet.

Everything here is written from the documented behaviour (README and
docstrings), not from the implementation: box geometry, the SSD offset
decoding, the anchor layout, a plain greedy NMS, the ORCC sweep and the
greedy evaluation matcher.  Detection files round coordinates and
confidences to six decimals, so comparisons against them allow
``ROUND_EPS`` per value, and the pairwise overlap checks use the smallest
IoU that rounded boxes can stand for.
"""

from __future__ import annotations

import math

import numpy as np

ROUND_EPS = 5.1e-7           # half a unit in the sixth decimal, plus slack
VARIANCES = (0.1, 0.2)
STRIDES = (8, 16, 32)
ANCHOR_SIDES = (2.0, 4.0)    # in units of the stride
FACE, MASK = 1, 2
CLASS_NAMES = {FACE: "face", MASK: "mask"}
BLOCK = 512                  # rows per block in the pairwise checks


def pairwise_iou(a, b) -> np.ndarray:
    """IoU of every box in ``a`` against every box in ``b`` (corner form).

    The arithmetic follows the documented formula term by term, so values
    equal the program's bit for bit; an empty union gives 0.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    ix = np.maximum(0.0, np.minimum(a[:, None, 2], b[None, :, 2])
                    - np.maximum(a[:, None, 0], b[None, :, 0]))
    iy = np.maximum(0.0, np.minimum(a[:, None, 3], b[None, :, 3])
                    - np.maximum(a[:, None, 1], b[None, :, 1]))
    inter = ix * iy
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0)
    return out


def iou_lower_bound(a, b, eps=ROUND_EPS) -> np.ndarray:
    """Smallest IoU the boxes can have had before rounding each value by eps."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    ix = np.maximum(0.0, np.minimum(a[:, None, 2], b[None, :, 2])
                    - np.maximum(a[:, None, 0], b[None, :, 0]) - 2 * eps)
    iy = np.maximum(0.0, np.minimum(a[:, None, 3], b[None, :, 3])
                    - np.maximum(a[:, None, 1], b[None, :, 1]) - 2 * eps)
    inter = ix * iy
    area_a = (a[:, 2] - a[:, 0] + 2 * eps) * (a[:, 3] - a[:, 1] + 2 * eps)
    area_b = (b[:, 2] - b[:, 0] + 2 * eps) * (b[:, 3] - b[:, 1] + 2 * eps)
    return inter / (area_a[:, None] + area_b[None, :] - inter)


def _pairs_above(a, b, thresh, same=False) -> int:
    """Number of (i, j) pairs whose IoU surely exceeds ``thresh``."""
    found = 0
    for start in range(0, len(a), BLOCK):
        low = iou_lower_bound(a[start:start + BLOCK], b, ROUND_EPS)
        if same:    # each unordered pair once, never a box with itself
            rows = np.arange(start, start + low.shape[0])[:, None]
            low = np.where(np.arange(len(b))[None, :] > rows, low, 0.0)
        found += int(np.count_nonzero(low > thresh))
    return found


def check_image(image: dict, tc: float, nms_iou: float, orcc_iou: float) -> list[str]:
    """Problems with one image's detections as written by ``maskdet detect``."""
    problems = []
    name = image["id"]
    objects = image["objects"]
    conf = np.array([o["confidence"] for o in objects], dtype=np.float64)
    boxes = np.array([o["box"] for o in objects], dtype=np.float64).reshape(-1, 4)
    labels = np.array([o["class"] for o in objects])
    if np.any(conf < tc - ROUND_EPS):
        problems.append(f"{name}: confidence below --tc {tc}: {conf.min()}")
    if np.any(np.diff(conf) > 0):
        problems.append(f"{name}: confidences not sorted descending")
    w, h = image["width"], image["height"]
    inside = ((boxes[:, 0] >= -ROUND_EPS) & (boxes[:, 1] >= -ROUND_EPS)
              & (boxes[:, 2] <= w + ROUND_EPS) & (boxes[:, 3] <= h + ROUND_EPS)
              & (boxes[:, 0] <= boxes[:, 2] + ROUND_EPS)
              & (boxes[:, 1] <= boxes[:, 3] + ROUND_EPS))
    if not np.all(inside):
        problems.append(f"{name}: {int(np.sum(~inside))} box(es) outside the "
                        f"{w}x{h} image, first {boxes[~inside][0].tolist()}")
    for cls in ("face", "mask"):
        sel = boxes[labels == cls]
        n = _pairs_above(sel, sel, nms_iou, same=True)
        if n:
            problems.append(f"{name}: {n} {cls} pair(s) overlap above the "
                            f"NMS IoU {nms_iou}")
    n = _pairs_above(boxes[labels == "face"], boxes[labels == "mask"], orcc_iou)
    if n:
        problems.append(f"{name}: {n} face/mask pair(s) overlap above the "
                        f"ORCC IoU {orcc_iou}")
    return problems


# -- recomputing detections from raw head outputs -----------------------------

def anchors_center_size(input_size: int) -> np.ndarray:
    """Default anchors in the documented canonical order, (cx, cy, w, h)."""
    rows = []
    for stride in STRIDES:
        g = math.ceil(input_size / stride)
        for i in range(g):
            for j in range(g):
                for scale in ANCHOR_SIDES:
                    side = scale * stride
                    rows.append(((j + 0.5) * stride, (i + 0.5) * stride,
                                 side, side))
    return np.array(rows, dtype=np.float64)


def decode_boxes(loc, anchors, size: float) -> np.ndarray:
    """SSD offsets with variances (0.1, 0.2) to corner boxes clipped to [0, size]."""
    t = np.asarray(loc, dtype=np.float64)
    cx = anchors[:, 0] + t[:, 0] * VARIANCES[0] * anchors[:, 2]
    cy = anchors[:, 1] + t[:, 1] * VARIANCES[0] * anchors[:, 3]
    w = anchors[:, 2] * np.exp(t[:, 2] * VARIANCES[1])
    h = anchors[:, 3] * np.exp(t[:, 3] * VARIANCES[1])
    boxes = np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=1)
    return np.clip(boxes, 0.0, size)


def greedy_nms(boxes, scores, thresh):
    """Plain greedy NMS: visit by descending score, ties to the lower index."""
    order = sorted(range(len(scores)), key=lambda i: -scores[i])
    suppressed = np.zeros(len(scores), dtype=bool)
    keep = []
    for pos, i in enumerate(order):
        if suppressed[i]:
            continue
        keep.append(i)
        rest = np.array(order[pos + 1:], dtype=np.int64)
        if rest.size:
            over = pairwise_iou(boxes[i:i + 1], boxes[rest])[0]
            suppressed[rest[over > thresh]] = True
    return keep


def orcc_sweep(faces, masks, thresh):
    """The documented cross-class sweep over (box, confidence) lists.

    Faces in order against masks in order, skipping removed masks; on an
    overlap above ``thresh`` the lower confidence is removed (a tie removes
    the mask) and a removed face stops comparing.  Only pairs above the
    threshold can change anything, so the sweep visits just those.
    """
    face_alive = [True] * len(faces)
    mask_alive = [True] * len(masks)
    if faces and masks:
        over = pairwise_iou([f[0] for f in faces], [m[0] for m in masks]) > thresh
        for fi, (_, fconf) in enumerate(faces):
            for mi in np.flatnonzero(over[fi]):
                if not mask_alive[mi]:
                    continue
                if fconf >= masks[mi][1]:
                    mask_alive[mi] = False
                else:
                    face_alive[fi] = False
                    break
    return ([f for f, ok in zip(faces, face_alive) if ok],
            [m for m, ok in zip(masks, mask_alive) if ok])


def recompute_detections(loc, cls, input_size, width, height, tc, nms_iou,
                         orcc_iou):
    """Final (label, box in source pixels, confidence) list from raw outputs."""
    z = np.asarray(cls, dtype=np.float64)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    boxes = decode_boxes(loc, anchors_center_size(input_size), float(input_size))
    kept = {}
    for label in (FACE, MASK):
        idx = np.flatnonzero(probs[:, label] >= tc)
        b, s = boxes[idx], probs[idx, label]
        kept[label] = [(b[i], float(s[i])) for i in greedy_nms(b, s, nms_iou)]
    faces, masks = orcc_sweep(kept[FACE], kept[MASK], orcc_iou)
    merged = ([(FACE, b, c) for b, c in faces] + [(MASK, b, c) for b, c in masks])
    merged.sort(key=lambda d: -d[2])
    scale = np.array([width / input_size, height / input_size] * 2)
    return [(label, box * scale, conf) for label, box, conf in merged]


def compare_detections(expected, image: dict) -> list[str]:
    """Problems between recomputed detections and one written image record."""
    objects = image["objects"]
    if len(expected) != len(objects):
        return [f"{image['id']}: recomputed {len(expected)} detections, "
                f"program wrote {len(objects)}"]
    for k, ((label, box, conf), obj) in enumerate(zip(expected, objects)):
        if (CLASS_NAMES[label] != obj["class"]
                or abs(conf - obj["confidence"]) > ROUND_EPS
                or np.max(np.abs(box - np.array(obj["box"]))) > ROUND_EPS
                + 1e-12 * np.max(np.abs(box))):
            return [f"{image['id']}: detection {k} differs: recomputed "
                    f"{CLASS_NAMES[label]} {box.tolist()} {conf}, program "
                    f"wrote {obj}"]
    return []


# -- evaluation ----------------------------------------------------------------

def greedy_match_counts(pred_images, gt_images, iou_thresh=0.5) -> dict:
    """TP/FP/FN per class by the documented greedy matcher.

    Per class, detections in descending confidence (ties keep file order)
    each claim the unclaimed ground truth of highest IoU, the first one on a
    tie, when that IoU reaches the threshold.  Boxes are clipped to the
    image as the file loader does.
    """
    preds = {p["id"]: p for p in pred_images}
    counts = {name: {"tp": 0, "fp": 0, "fn": 0} for name in ("face", "mask")}

    def clipped(obj, w, h):
        x0, y0, x1, y1 = obj["box"]
        return [min(max(x0, 0.0), w), min(max(y0, 0.0), h),
                min(max(x1, 0.0), w), min(max(y1, 0.0), h)]

    for gt in gt_images:
        w, h = gt["width"], gt["height"]
        dets = preds.get(gt["id"], {"objects": []})["objects"]
        for name in ("face", "mask"):
            mine = sorted((d for d in dets if d["class"] == name),
                          key=lambda d: -d["confidence"])
            truth = [clipped(o, w, h) for o in gt["objects"] if o["class"] == name]
            claimed = [False] * len(truth)
            c = counts[name]
            for d in mine:
                best, best_iou = -1, -1.0
                if truth:
                    row = pairwise_iou([clipped(d, w, h)], truth)[0]
                    for j, v in enumerate(row):
                        if not claimed[j] and v > best_iou:
                            best, best_iou = j, v
                if best >= 0 and best_iou >= iou_thresh:
                    claimed[best] = True
                    c["tp"] += 1
                else:
                    c["fp"] += 1
            c["fn"] += claimed.count(False)
    return counts


def compare_eval(report: dict, counts: dict) -> list[str]:
    """Problems between ``maskdet eval``'s JSON report and a recount."""
    problems = []
    for name, expected in counts.items():
        got = report["classes"][name]
        for key in ("tp", "fp", "fn"):
            if got[key] != expected[key]:
                problems.append(f"eval {name} {key}: program {got[key]}, "
                                f"recount {expected[key]}")
    return problems
