"""Multibox training objective, computed forward only.

Combines smooth-L1 localization loss over positive anchors with softmax
cross-entropy confidence loss over positives plus hard-mined negatives:

    total = (conf_neg + conf_pos + alpha * loc) / N

where N is the number of positive (matched) anchors; by convention the
total is 0 when there are no positives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import log_softmax


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    l_conf_pos: float
    l_conf_neg: float
    l_loc: float
    n_pos: int
    n_neg: int
    normalizer: int


def smooth_l1(x):
    """Piecewise loss: 0.5*x^2 for |x| < 1, |x| - 0.5 otherwise."""
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x)
    return np.where(a < 1.0, 0.5 * x * x, a - 0.5)


def smooth_l1_grad(x):
    """Analytic derivative of smooth_l1: x inside the quadratic region, sign(x) outside."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(np.abs(x) < 1.0, x, np.sign(x))


def cross_entropy(logits, label: int) -> float:
    """Softmax cross-entropy of one logit vector against a class index."""
    return float(-log_softmax(np.asarray(logits, dtype=np.float64))[int(label)])


def cross_entropy_rows(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-row cross-entropy for (m, k) logits against (m,) labels."""
    ls = log_softmax(logits)
    rows = np.arange(ls.shape[0])
    return -ls[rows, np.asarray(labels, dtype=np.int64)]


def cross_entropy_grad(logits, label: int) -> np.ndarray:
    """Gradient of cross_entropy w.r.t. the logits: softmax - one_hot."""
    p = np.exp(log_softmax(np.asarray(logits, dtype=np.float64)))
    p[int(label)] -= 1.0
    return p


def hard_negative_mining(conf_loss: np.ndarray, labels: np.ndarray,
                         ratio: int = 3) -> np.ndarray:
    """Indices of the hardest background anchors, at most ratio * n_pos of them.

    Ties break toward the lower anchor index.  With no positives a single
    hardest negative is still selected (when any negative exists).
    """
    conf_loss = np.asarray(conf_loss, dtype=np.float64)
    labels = np.asarray(labels)
    if conf_loss.shape != labels.shape:
        raise ValueError(f"loss vector length {conf_loss.shape} does not "
                         f"match labels {labels.shape}")
    neg_idx = np.flatnonzero(labels == 0)
    n_pos = int(np.count_nonzero(labels != 0))
    k = min(ratio * n_pos, neg_idx.size) if n_pos > 0 else min(1, neg_idx.size)
    if k == 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(-conf_loss[neg_idx], kind="stable")
    return np.sort(neg_idx[order[:k]])


def multibox_loss(pred, targets, alpha: float = 1.0, ratio: int = 3) -> LossBreakdown:
    """Combined detection loss of predictions against matched targets.

    ``pred`` carries (p, 4) offsets and (p, 3) logits; ``targets`` carries
    (p, 4) encoded offsets and (p,) labels from target assignment.
    """
    loc_pred = np.asarray(pred.loc, dtype=np.float64)
    cls_pred = np.asarray(pred.cls, dtype=np.float64)
    loc_t = np.asarray(targets.loc_targets, dtype=np.float64)
    labels = np.asarray(targets.labels, dtype=np.int64)
    if loc_pred.shape[0] != labels.shape[0]:
        raise ValueError(f"{loc_pred.shape[0]} prediction rows vs "
                         f"{labels.shape[0]} target rows")

    pos = labels != 0
    n_pos = int(pos.sum())

    l_loc = float(smooth_l1(loc_pred[pos] - loc_t[pos]).sum())
    l_conf_pos = float(cross_entropy_rows(cls_pred[pos], labels[pos]).sum())

    background_loss = cross_entropy_rows(cls_pred, np.zeros(labels.shape[0],
                                                            dtype=np.int64))
    mined = hard_negative_mining(background_loss, labels, ratio)
    l_conf_neg = float(background_loss[mined].sum())

    total = (l_conf_neg + l_conf_pos + alpha * l_loc) / n_pos if n_pos > 0 else 0.0
    return LossBreakdown(total=total, l_conf_pos=l_conf_pos,
                         l_conf_neg=l_conf_neg, l_loc=l_loc, n_pos=n_pos,
                         n_neg=int(mined.size), normalizer=n_pos)
