"""maskdet: a from-scratch single-shot face-mask detector on numpy.

The package splits along the pipeline:

- :mod:`maskdet.kernels` — NCHW tensor kernels (conv, pool, activations, ...)
- :mod:`maskdet.model` — backbone, FPN neck, context-attention heads
- :mod:`maskdet.anchors` — default anchors, IoU, offset coding, matching
- :mod:`maskdet.loss` — multibox loss with hard negative mining
- :mod:`maskdet.postproc` — scoring, NMS and cross-class removal (ORCC)
- :mod:`maskdet.evaluate` — per-class precision/recall
- :mod:`maskdet.weights_io` / :mod:`maskdet.images` /
  :mod:`maskdet.annotations` — external formats
- :mod:`maskdet.cli` — the ``maskdet`` command
- :mod:`maskdet.oracles` — scalar-loop reference implementations that
  ``maskdet selftest`` and the test suite check the package against
"""

from .anchors import (AnchorSet, MatchResult, decode, encode,
                      generate_anchors, iou, iou_matrix, match_targets)
from .evaluate import EvalCounts, match_for_eval, precision_recall
from .kernels import (ConvParams, Tensor, activate, add_scaled,
                      concat_channels, conv2d, global_pool, linear, pool2d,
                      upsample_nearest)
from .loss import (LossBreakdown, cross_entropy, hard_negative_mining,
                   multibox_loss, smooth_l1)
from .model import (Model, ModelConfig, Predictions, backbone_forward,
                    build_model, channel_attention, context_attention_forward,
                    fpn_forward, init_reference_weights, kaiming_init,
                    model_forward, spatial_attention, weight_manifest)
from .postproc import Detection, detect, filter_confidence, nms, orcc, postprocess, score_predictions
from .weights_io import WeightsFormatError, load_weights, save_weights

__version__ = "0.1.0"

__all__ = [
    "AnchorSet", "ConvParams", "Detection", "EvalCounts", "LossBreakdown",
    "MatchResult", "Model", "ModelConfig", "Predictions", "Tensor",
    "WeightsFormatError", "activate", "add_scaled", "backbone_forward",
    "build_model", "channel_attention", "concat_channels",
    "context_attention_forward", "conv2d", "cross_entropy", "decode",
    "detect", "encode", "filter_confidence", "fpn_forward",
    "generate_anchors", "global_pool", "hard_negative_mining",
    "init_reference_weights", "iou", "iou_matrix", "kaiming_init", "linear",
    "load_weights", "match_for_eval", "match_targets", "model_forward",
    "multibox_loss", "nms", "orcc", "pool2d", "postprocess",
    "precision_recall", "save_weights", "score_predictions", "smooth_l1",
    "spatial_attention", "upsample_nearest", "weight_manifest",
]
