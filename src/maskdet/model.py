"""The detection network: reference backbone, FPN neck and context-attention heads.

The network follows the backbone / neck / heads decomposition.  A small
reference backbone of five depthwise-separable stages (each halving the
spatial extent) taps feature maps at strides 8, 16 and 32; an FPN merges
high-level semantics down the pyramid; each level then runs a multi-branch
context module gated by channel and spatial attention before two 1x1
prediction convolutions emit box offsets and class logits.

Predictions are flattened in a canonical row order shared with
:mod:`maskdet.anchors`: level-major (shallowest stride first), grid cells
row-major, then anchor index within the cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .anchors import ANCHOR_SIDE_SCALES
# add_scaled and upsample_nearest are not called here, since the FPN merge
# runs in place, but bench/tracer.py wraps both by name in this namespace.
from .kernels import (ConvParams, Tensor, activate, add_scaled,  # noqa: F401
                      concat_channels, conv2d, global_pool, linear, sigmoid,
                      upsample_nearest)

# (in_channels, out_channels) of the five backbone stages; taps after the
# last three give pyramid inputs at strides 8, 16 and 32
BACKBONE_STAGES = ((3, 16), (16, 24), (24, 32), (32, 64), (64, 128))
BACKBONE_TAPS = (2, 3, 4)          # stage indices (0-based) that feed the FPN


@dataclass(frozen=True)
class ModelConfig:
    """Settings of the detector; defaults match the reference setup.

    Only ``input_size``, ``strides`` and ``fpn_channels`` are settable.  The
    rest of the reference architecture is fixed: the class constants below
    read like fields but cannot be passed in.
    """

    anchors_per_cell: ClassVar[int] = len(ANCHOR_SIDE_SCALES)
    num_classes: ClassVar[int] = 3         # background, face, mask
    # weight of the top-down path; fpn_forward's in-place merge relies on 1
    fpn_coeff: ClassVar[float] = 1.0
    cbam_reduction: ClassVar[int] = 4      # channel-attention MLP C -> C/4

    input_size: int = 640
    strides: tuple[int, int, int] = (8, 16, 32)
    fpn_channels: int = 64

    def __post_init__(self):
        if self.input_size < 1:
            raise ValueError(f"input_size must be positive, got {self.input_size}")
        if len(self.strides) != 3:
            raise ValueError(f"exactly three detection levels are supported, "
                             f"got strides {self.strides}")
        if list(self.strides) != sorted(set(self.strides)) or min(self.strides) < 1:
            raise ValueError(f"strides must be strictly increasing positive "
                             f"integers, got {self.strides}")
        if self.fpn_channels < 4 or self.fpn_channels % 4 != 0:
            raise ValueError(f"fpn_channels must be positive and divisible by "
                             f"4 (context branch split), got "
                             f"{self.fpn_channels}")

    @property
    def num_levels(self) -> int:
        return len(self.strides)

    def grid_sizes(self) -> tuple[int, ...]:
        return tuple(math.ceil(self.input_size / s) for s in self.strides)


def weight_manifest(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Names and shapes of every weight tensor the architecture requires.

    Naming scheme (all convolutions 'weight' (out_c, in_c/groups, kh, kw)
    plus 'bias' (out_c,); MLP 'weight' (in, out) plus 'bias' (out,)):

    backbone.stage{1..5}.{dw,pw}   depthwise 3x3 stride-2 + pointwise 1x1
    fpn.lateral{0,1,2}             1x1 from backbone tap to fpn_channels
    fpn.smooth{0,1}                3x3 after each top-down merge
    head{L}.ctx.b1.conv1           branch 1: one 3x3 -> C/2
    head{L}.ctx.b2.conv{1,2}       branch 2: two 3x3 -> C/4
    head{L}.ctx.b3.conv{1,2,3}     branch 3: three 3x3 -> C/4
    head{L}.att.mlp.fc{1,2}        shared channel-attention MLP C -> C/r -> C
    head{L}.att.spatial            7x7 over the (max, mean) 2-channel map
    head{L}.loc / head{L}.cls      1x1 heads emitting A*4 / A*3 channels
    """
    manifest: dict[str, tuple[int, ...]] = {}

    def conv(name, out_c, in_c, k):
        manifest[f"{name}.weight"] = (out_c, in_c, k, k)
        manifest[f"{name}.bias"] = (out_c,)

    for idx, (in_c, out_c) in enumerate(BACKBONE_STAGES, start=1):
        conv(f"backbone.stage{idx}.dw", in_c, 1, 3)
        conv(f"backbone.stage{idx}.pw", out_c, in_c, 1)

    c = config.fpn_channels
    tap_channels = [BACKBONE_STAGES[t][1] for t in BACKBONE_TAPS]
    for lvl, tap_c in enumerate(tap_channels):
        conv(f"fpn.lateral{lvl}", c, tap_c, 1)
    for lvl in range(len(tap_channels) - 1):
        conv(f"fpn.smooth{lvl}", c, c, 3)

    half, quarter = c // 2, c // 4
    hidden = c // config.cbam_reduction
    a = config.anchors_per_cell
    for lvl in range(config.num_levels):
        h = f"head{lvl}"
        conv(f"{h}.ctx.b1.conv1", half, c, 3)
        conv(f"{h}.ctx.b2.conv1", quarter, c, 3)
        conv(f"{h}.ctx.b2.conv2", quarter, quarter, 3)
        conv(f"{h}.ctx.b3.conv1", quarter, c, 3)
        conv(f"{h}.ctx.b3.conv2", quarter, quarter, 3)
        conv(f"{h}.ctx.b3.conv3", quarter, quarter, 3)
        manifest[f"{h}.att.mlp.fc1.weight"] = (c, hidden)
        manifest[f"{h}.att.mlp.fc1.bias"] = (hidden,)
        manifest[f"{h}.att.mlp.fc2.weight"] = (hidden, c)
        manifest[f"{h}.att.mlp.fc2.bias"] = (c,)
        conv(f"{h}.att.spatial", 1, 2, 7)
        conv(f"{h}.loc", a * 4, c, 1)
        conv(f"{h}.cls", a * config.num_classes, c, 1)
    return manifest


def _same_conv(kernel, bias, stride=1, groups=1) -> ConvParams:
    """Every conv of the reference model keeps its input's extent up to
    stride, so its padding is ``kernel_size // 2``."""
    return ConvParams(kernel, bias, stride, kernel.shape[-1] // 2, groups)


@dataclass(frozen=True)
class Model:
    """A validated, immutable detector: configuration plus named weights."""

    config: ModelConfig
    weights: dict[str, np.ndarray]

    def conv_params(self, name: str, stride=1, groups=1) -> ConvParams:
        return _same_conv(self.weights[f"{name}.weight"],
                          self.weights[f"{name}.bias"], stride, groups)

    def fused_conv_params(self, names) -> ConvParams:
        """One conv over the same input whose output channels are those of
        ``names`` in order, concatenated from the stored tensors."""
        w = self.weights
        return _same_conv(np.concatenate([w[f"{n}.weight"] for n in names]),
                          np.concatenate([w[f"{n}.bias"] for n in names]))


@dataclass(frozen=True)
class Predictions:
    """Flattened multi-level head outputs in canonical anchor row order."""

    loc: np.ndarray    # (p, 4) float32 offsets in encode space
    cls: np.ndarray    # (p, 3) float32 raw logits

    @property
    def count(self) -> int:
        return self.loc.shape[0]


def build_model(config: ModelConfig, weights: dict[str, np.ndarray]) -> Model:
    """Validate a weight store against the manifest and wrap it as a Model.

    Fails at construction (missing tensor, wrong shape or a NaN/inf value)
    rather than deferring the fault to forward time.  Extra tensors are
    ignored.
    """
    reference = ModelConfig().strides
    if tuple(config.strides) != reference:
        raise ValueError(f"the reference backbone taps strides {reference}; "
                         f"got {config.strides}")
    manifest = weight_manifest(config)
    for name, shape in manifest.items():
        if name not in weights:
            raise ValueError(f"weight store is missing tensor '{name}'")
        found = tuple(weights[name].shape)
        if found != shape:
            raise ValueError(f"weight tensor '{name}' has shape {found}, "
                             f"expected {shape}")
        if not np.isfinite(weights[name]).all():
            raise ValueError(f"weight tensor '{name}' has non-finite values")
    return Model(config, dict(weights))


def _conv_relu(x: Tensor, params: ConvParams) -> Tensor:
    """conv2d followed by a ReLU applied in place to the fresh output.

    The ReLU stays outside conv2d, so conv2d's result is the plain
    convolution that its checks compare against a float64 dot product.
    """
    out = conv2d(x, params)
    return np.maximum(out, 0, out=out)


def backbone_forward(model: Model, image: Tensor):
    """Run the reference backbone; returns feature maps at strides 8/16/32."""
    s = model.config.input_size
    if image.shape != (1, 3, s, s):
        raise ValueError(f"expected image of shape (1, 3, {s}, {s}), got "
                         f"{image.shape}")
    x = image
    taps = []
    for idx, (in_c, _) in enumerate(BACKBONE_STAGES, start=1):
        x = _conv_relu(x, model.conv_params(f"backbone.stage{idx}.dw",
                                            stride=2, groups=in_c))
        x = _conv_relu(x, model.conv_params(f"backbone.stage{idx}.pw"))
        if idx - 1 in BACKBONE_TAPS:
            taps.append(x)
    return tuple(taps)


def fpn_forward(model: Model, features):
    """Top-down feature pyramid over the three backbone taps.

    Lateral 1x1 convolutions unify channel counts; each level below the top
    adds the (nearest-neighbor) upsampled level above, scaled by the fixed
    ``ModelConfig.fpn_coeff`` of 1, then passes a 3x3 smoothing convolution.
    When adjacent grids are not an exact 2x ratio the upsampled map is
    cropped top-left to fit.

    The merge adds the cropped upsampled map into the lateral conv's own
    float32 output.  With a coefficient of 1 this equals
    ``add_scaled(lateral, up, 1.0)`` bit for bit: 1 * b is exact, and the
    float64 sum of two float32 values, rounded to float32, is their
    correctly rounded float32 sum, because 53 >= 2 * 24 + 2.
    """
    laterals = [conv2d(f, model.conv_params(f"fpn.lateral{lvl}"))
                for lvl, f in enumerate(features)]
    outputs = [None] * len(laterals)
    outputs[-1] = laterals[-1]
    for lvl in range(len(laterals) - 2, -1, -1):
        merged = laterals[lvl]
        h, w = merged.shape[2], merged.shape[3]
        top = outputs[lvl + 1]
        merged += top.repeat(2, 2)[:, :, :h].repeat(2, 3)[:, :, :, :w]
        outputs[lvl] = conv2d(merged, model.conv_params(f"fpn.smooth{lvl}"))
    return tuple(outputs)


def channel_attention(feature: Tensor, fc1_w, fc1_b, fc2_w, fc2_b) -> Tensor:
    """Scale each channel by a gate built from global pooling and a shared MLP.

    gate = sigmoid(MLP(global_avg) + MLP(global_max)) with MLP(v) =
    fc2(relu(fc1(v))); the gate lies strictly in (0, 1).
    """
    n, c = feature.shape[:2]
    # avg rows then max rows, so one pass through the shared MLP serves both
    pooled = np.concatenate([global_pool(feature, "avg"),
                             global_pool(feature, "max")]).reshape(2 * n, c)
    hidden = activate(linear(pooled, fc1_w, fc1_b), "relu")
    logits = linear(hidden, fc2_w, fc2_b).astype(np.float64)
    gates = sigmoid(logits[:n] + logits[n:])
    return feature * gates[:, :, None, None]


def spatial_attention(feature: Tensor, conv_w, conv_b) -> Tensor:
    """Scale each spatial position by a gate from a 7x7 conv over (max, mean).

    The 2-channel map stacks the per-position channel-wise maximum (channel
    0) and mean (channel 1); a 7x7 convolution with padding 3 plus sigmoid
    yields the H x W gate.
    """
    mx = feature.max(axis=1, keepdims=True)
    mean = feature.mean(axis=1, keepdims=True, dtype=np.float64).astype(np.float32)
    stacked = concat_channels([mx, mean])
    gate = sigmoid(conv2d(stacked, _same_conv(conv_w, conv_b)))
    return feature * gate


def context_attention_forward(model: Model, feature: Tensor, level: int) -> Tensor:
    """One detection head's context module plus CBAM gates; shape-preserving.

    Three parallel branches of one/two/three 3x3 convolutions (ReLU between
    stacked convolutions) concatenate back to the input width in branch
    order C/2, C/4, C/4, then pass channel and spatial attention.  The
    branches' first convolutions all read ``feature``, so they run as one
    fused convolution whose output is split by channel.
    """
    h = f"head{level}"
    c = feature.shape[1]
    first = conv2d(feature, model.fused_conv_params(
        [f"{h}.ctx.b{i}.conv1" for i in (1, 2, 3)]))
    b1, b2, b3 = np.split(first, [c // 2, 3 * c // 4], axis=1)

    # b2 and b3 are views of ``first``'s own channels, so ReLU runs in place
    np.maximum(b2, 0, out=b2)
    b2 = conv2d(b2, model.conv_params(f"{h}.ctx.b2.conv2"))

    np.maximum(b3, 0, out=b3)
    b3 = _conv_relu(b3, model.conv_params(f"{h}.ctx.b3.conv2"))
    b3 = conv2d(b3, model.conv_params(f"{h}.ctx.b3.conv3"))

    out = concat_channels([b1, b2, b3])
    w = model.weights
    out = channel_attention(out, w[f"{h}.att.mlp.fc1.weight"],
                            w[f"{h}.att.mlp.fc1.bias"],
                            w[f"{h}.att.mlp.fc2.weight"],
                            w[f"{h}.att.mlp.fc2.bias"])
    return spatial_attention(out, w[f"{h}.att.spatial.weight"],
                             w[f"{h}.att.spatial.bias"])


def flatten_head_map(head_map: Tensor, anchors_per_cell: int) -> np.ndarray:
    """Reshape one level's (1, A*k, H, W) head output to canonical (H*W*A, k) rows.

    Channel a*k + j holds coordinate j of anchor hypothesis a; row
    (i*W + j)*A + a of the result holds cell (i, j), anchor a.
    """
    _, channels, h, w = head_map.shape
    a = anchors_per_cell
    k = channels // a
    return head_map[0].reshape(a, k, h, w).transpose(2, 3, 0, 1).reshape(-1, k)


def model_forward(model: Model, image: Tensor) -> Predictions:
    """Full forward pass: backbone, FPN, per-level heads, canonical flattening.

    Each level's loc and cls 1x1 convolutions run as one fused convolution
    whose output is split by channel at 4*A.
    """
    a = model.config.anchors_per_cell
    taps = backbone_forward(model, image)
    pyramid = fpn_forward(model, taps)
    loc_rows, cls_rows = [], []
    for lvl, feat in enumerate(pyramid):
        refined = context_attention_forward(model, feat, lvl)
        head_map = conv2d(refined, model.fused_conv_params(
            [f"head{lvl}.loc", f"head{lvl}.cls"]))
        loc_map, cls_map = np.split(head_map, [4 * a], axis=1)
        loc_rows.append(flatten_head_map(loc_map, a))
        cls_rows.append(flatten_head_map(cls_map, a))
    return Predictions(np.concatenate(loc_rows, axis=0),
                       np.concatenate(cls_rows, axis=0))


def kaiming_init(shape, fan_mode: str = "in", seed=0) -> np.ndarray:
    """Normal init with std sqrt(2 / fan); deterministic for a fixed seed.

    fan_in of an (out, in, kh, kw) kernel is in*kh*kw; fan_out is out*kh*kw.
    For an (in, out) matrix they are in and out.  ``seed`` may be an int or
    a numpy SeedSequence.
    """
    shape = tuple(int(s) for s in shape)
    if fan_mode not in ("in", "out"):
        raise ValueError(f"fan_mode must be 'in' or 'out', got {fan_mode!r}")
    if len(shape) == 1:
        fan = shape[0]
    elif fan_mode == "in":
        fan = int(np.prod(shape[1:]))
    else:
        fan = shape[0] * int(np.prod(shape[2:]))
    if fan == 0:
        raise ValueError(f"zero fan for shape {shape}")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, math.sqrt(2.0 / fan), size=shape).astype(np.float32)


def init_reference_weights(config: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Kaiming-initialized weight store for the reference architecture.

    Weight tensors draw from kaiming_init (fan-in mode) with per-tensor
    seeds spawned from ``seed`` in manifest order; biases are zero.
    """
    manifest = weight_manifest(config)
    children = np.random.SeedSequence(seed).spawn(len(manifest))
    store: dict[str, np.ndarray] = {}
    for (name, shape), child in zip(manifest.items(), children):
        if name.endswith(".bias"):
            store[name] = np.zeros(shape, dtype=np.float32)
        else:
            store[name] = kaiming_init(shape, "in", child)
    return store
