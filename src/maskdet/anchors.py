"""Default anchor generation, box geometry, offset coding and target assignment.

Boxes in corner form are arrays [x_min, y_min, x_max, y_max]; anchors are
arrays [cx, cy, w, h] in center-size form, both in pixels and float64 (box
geometry stays in 64-bit so encode/decode round trips are exact to well
below a hundredth of a pixel).

The anchor ordering is a hard contract shared with the detection heads:
level-major (shallowest stride first), then grid cells row-major, then the
anchor index within the cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# class labels used throughout the package
BACKGROUND, FACE, MASK = 0, 1, 2

# side lengths of the square anchors at one cell, in units of the stride
ANCHOR_SIDE_SCALES = (2.0, 4.0)

DEFAULT_VARIANCES = (0.1, 0.2)


@dataclass(frozen=True)
class LevelLayout:
    """Grid geometry of one detection level."""

    grid_h: int
    grid_w: int
    anchors_per_cell: int
    stride: int

    @property
    def count(self) -> int:
        return self.grid_h * self.grid_w * self.anchors_per_cell


@dataclass(frozen=True)
class AnchorSet:
    """Ordered default anchors plus the per-level layout that produced them."""

    anchors: np.ndarray          # (p, 4) center-size, float64
    layout: tuple[LevelLayout, ...]

    def __len__(self) -> int:
        return self.anchors.shape[0]

    def corners(self) -> np.ndarray:
        """All anchors converted to corner form, shape (p, 4)."""
        return center_to_corner(self.anchors)


@dataclass(frozen=True)
class MatchResult:
    """Per-anchor regression targets and class labels from target assignment.

    Rows whose label is 0 (background) carry unspecified loc targets; they
    are never read by the loss.
    """

    loc_targets: np.ndarray      # (p, 4) encoded offsets, float64
    labels: np.ndarray           # (p,) int64 in {0, 1, 2}


def corner_to_center(boxes: np.ndarray) -> np.ndarray:
    """[x_min, y_min, x_max, y_max] -> [cx, cy, w, h] on the last axis."""
    boxes = np.asarray(boxes, dtype=np.float64)
    w = boxes[..., 2] - boxes[..., 0]
    h = boxes[..., 3] - boxes[..., 1]
    cx = boxes[..., 0] + 0.5 * w
    cy = boxes[..., 1] + 0.5 * h
    return np.stack([cx, cy, w, h], axis=-1)


def center_to_corner(boxes: np.ndarray) -> np.ndarray:
    """[cx, cy, w, h] -> [x_min, y_min, x_max, y_max] on the last axis."""
    boxes = np.asarray(boxes, dtype=np.float64)
    half_w = 0.5 * boxes[..., 2]
    half_h = 0.5 * boxes[..., 3]
    return np.stack([boxes[..., 0] - half_w, boxes[..., 1] - half_h,
                     boxes[..., 0] + half_w, boxes[..., 1] + half_h], axis=-1)


def generate_anchors(config) -> AnchorSet:
    """Build the default anchor set for a model configuration.

    Per level with stride s the grid is ``config.grid_sizes()``'s
    ceil(input_size / s); cell (i, j) centers its anchors at
    ((j + 0.5) * s, (i + 0.5) * s) and carries square anchors with sides 2s
    and 4s (anchor index 0 and 1), one per ``ANCHOR_SIDE_SCALES`` entry.
    """
    levels = []
    parts = []
    a = len(ANCHOR_SIDE_SCALES)
    for stride, g in zip(config.strides, config.grid_sizes()):
        centers = (np.arange(g, dtype=np.float64) + 0.5) * stride
        block = np.empty((g, g, a, 4), dtype=np.float64)
        block[..., 0] = centers[None, :, None]
        block[..., 1] = centers[:, None, None]
        sides = np.array([scale * stride for scale in ANCHOR_SIDE_SCALES])
        block[..., 2] = sides[None, None, :]
        block[..., 3] = sides[None, None, :]
        parts.append(block.reshape(-1, 4))
        levels.append(LevelLayout(g, g, a, stride))
    return AnchorSet(np.concatenate(parts, axis=0), tuple(levels))


def iou(a, b) -> float:
    """Intersection over union of two corner-form boxes; 0 when the union is empty."""
    return float(iou_matrix(np.reshape(a, (1, 4)), np.reshape(b, (1, 4)))[0, 0])


@np.errstate(invalid="ignore", over="ignore")
def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two corner-form box arrays, shape (len_a, len_b).

    Every value lies in [0, 1], never NaN: a pair whose union is not
    positive (empty, inverted or non-finite boxes) gets 0.  The pairwise
    steps reuse three (len_a, len_b) buffers in place.
    """
    a = np.asarray(boxes_a, dtype=np.float64)
    b = np.asarray(boxes_b, dtype=np.float64)
    ix = np.minimum(a[:, None, 2], b[None, :, 2])
    tmp = np.maximum(a[:, None, 0], b[None, :, 0])
    ix -= tmp
    np.maximum(ix, 0.0, out=ix)     # the ufunc np.clip(ix, 0.0, None) calls
    iy = np.minimum(a[:, None, 3], b[None, :, 3])
    np.maximum(a[:, None, 1], b[None, :, 1], out=tmp)
    iy -= tmp
    np.maximum(iy, 0.0, out=iy)
    inter = np.multiply(ix, iy, out=ix)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = np.add(area_a[:, None], area_b[None, :], out=iy)
    union -= inter
    out = tmp
    out.fill(0.0)
    np.divide(inter, union, out=out, where=union > 0)
    return out


def encode(gt, anchor, variances=DEFAULT_VARIANCES) -> np.ndarray:
    """Encode corner-form ground-truth boxes as offsets from center-size anchors.

    t = ((gcx - cx) / (w * v0), (gcy - cy) / (h * v0),
         ln(gw / w) / v1, ln(gh / h) / v1)

    Accepts a single box pair or aligned (..., 4) arrays.
    """
    g = corner_to_center(gt)
    a = np.asarray(anchor, dtype=np.float64)
    v0, v1 = variances
    if np.any(g[..., 2] <= 0) or np.any(g[..., 3] <= 0):
        raise ValueError("encode requires ground-truth boxes with positive extents")
    t_xy = (g[..., :2] - a[..., :2]) / (a[..., 2:] * v0)
    t_wh = np.log(g[..., 2:] / a[..., 2:]) / v1
    return np.concatenate([t_xy, t_wh], axis=-1)


def decode(offsets, anchor, variances=DEFAULT_VARIANCES,
           image_size: float | None = None) -> np.ndarray:
    """Invert :func:`encode`, returning corner-form boxes.

    When ``image_size`` is given, coordinates are clipped to [0, image_size].
    A size offset too large for float64 decodes to an infinite size, so its
    box is clipped to the image or, unclipped, dropped as non-finite.
    """
    t = np.asarray(offsets, dtype=np.float64)
    a = np.asarray(anchor, dtype=np.float64)
    center = a[..., :2] + t[..., :2] * variances[0] * a[..., 2:]
    with np.errstate(over="ignore"):
        size = a[..., 2:] * np.exp(t[..., 2:] * variances[1])
    boxes = center_to_corner(np.concatenate([center, size], axis=-1))
    if image_size is not None:
        boxes = np.clip(boxes, 0.0, float(image_size))
    return boxes


def match_targets(anchor_set: AnchorSet, gt_boxes, gt_labels,
                  pos_thresh: float = 0.35) -> MatchResult:
    """Assign every anchor a class label and, for positives, encoded offsets.

    Two-phase rule: first every ground truth claims its highest-IoU anchor
    (anchor-index ties break low; when several ground truths claim the same
    anchor the highest IoU wins, gt-index ties break low); then every
    unclaimed anchor whose best IoU is >= ``pos_thresh`` takes its best
    ground truth's label.  Everything else is background.  A ground truth
    with zero IoU against all anchors claims nothing.
    """
    p = len(anchor_set)
    gt_boxes = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)
    gt_labels = np.asarray(gt_labels, dtype=np.int64).reshape(-1)
    if gt_boxes.shape[0] != gt_labels.shape[0]:
        raise ValueError(f"{gt_boxes.shape[0]} ground-truth boxes but "
                         f"{gt_labels.shape[0]} labels")
    labels = np.zeros(p, dtype=np.int64)
    loc_targets = np.zeros((p, 4), dtype=np.float64)
    if gt_boxes.shape[0] == 0:
        return MatchResult(loc_targets, labels)

    if np.any((gt_labels != FACE) & (gt_labels != MASK)):
        raise ValueError(f"ground-truth labels must be {FACE} (face) or "
                         f"{MASK} (mask)")
    widths = gt_boxes[:, 2] - gt_boxes[:, 0]
    heights = gt_boxes[:, 3] - gt_boxes[:, 1]
    if np.any(widths <= 0) or np.any(heights <= 0):
        raise ValueError("degenerate (zero-area) ground-truth box rejected")

    overlaps = iou_matrix(anchor_set.corners(), gt_boxes)   # (p, o)
    best_gt = overlaps.argmax(axis=1)
    best_gt_iou = overlaps[np.arange(p), best_gt]

    assigned_gt = np.where(best_gt_iou >= pos_thresh, best_gt, -1)

    # forced claims: gt -> its best anchor; collisions go to the higher IoU
    claim_iou: dict[int, float] = {}
    claim_gt: dict[int, int] = {}
    for j in range(gt_boxes.shape[0]):
        i = int(overlaps[:, j].argmax())
        v = float(overlaps[i, j])
        if v > 0 and v > claim_iou.get(i, 0.0):
            claim_iou[i] = v
            claim_gt[i] = j
    for i, j in claim_gt.items():
        assigned_gt[i] = j

    positive = assigned_gt >= 0
    labels[positive] = gt_labels[assigned_gt[positive]]
    if np.any(positive):
        loc_targets[positive] = encode(gt_boxes[assigned_gt[positive]],
                                       anchor_set.anchors[positive])
    return MatchResult(loc_targets, labels)
