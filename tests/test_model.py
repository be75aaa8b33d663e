import numpy as np
import pytest

from maskdet.anchors import generate_anchors
from maskdet import model as model_module
from maskdet.kernels import (ConvParams, activate, add_scaled, concat_channels,
                             conv2d, upsample_nearest)
from maskdet.model import (BACKBONE_STAGES, BACKBONE_TAPS, Model, ModelConfig,
                           Predictions, backbone_forward, build_model,
                           channel_attention, context_attention_forward,
                           flatten_head_map, fpn_forward,
                           init_reference_weights, kaiming_init,
                           model_forward, spatial_attention, weight_manifest)
from maskdet.oracles import naive_conv2d
from conftest import TINY

rng = np.random.default_rng(42)


def tiny_features(seed=0):
    """Random backbone-tap-shaped features for input size 32."""
    r = np.random.default_rng(seed)
    return tuple(r.standard_normal((1, c, g, g)).astype(np.float32)
                 for c, g in zip((32, 64, 128), (4, 2, 1)))


# ----------------------------------------------------------- ModelConfig

def test_config_validation():
    with pytest.raises(ValueError, match="divisible by 4"):
        ModelConfig(fpn_channels=10)
    for channels in (0, -4):
        with pytest.raises(ValueError, match="positive and divisible by 4"):
            ModelConfig(fpn_channels=channels)


def test_config_fixed_architecture_constants():
    config = ModelConfig()
    assert (config.anchors_per_cell, config.num_classes, config.fpn_coeff,
            config.cbam_reduction) == (2, 3, 1.0, 4)
    assert ModelConfig.anchors_per_cell == 2
    for name in ("strides", "anchors_per_cell", "num_classes", "fpn_coeff",
                 "cbam_reduction"):
        with pytest.raises(TypeError, match=name):
            ModelConfig(**{name: 1})


def test_conv_params_padding_from_kernel(tiny_model):
    w = tiny_model.weights
    for name, stride, groups, pad in [("backbone.stage1.dw", 2, 3, 1),
                                      ("backbone.stage1.pw", 1, 1, 0),
                                      ("fpn.smooth0", 1, 1, 1),
                                      ("head0.att.spatial", 1, 1, 3)]:
        params = tiny_model.conv_params(name, stride=stride, groups=groups)
        assert params.padding == (pad, pad)
        assert (params.stride, params.groups) == ((stride, stride), groups)
        # the stored array itself, so a layer is known by its kernel's identity
        assert params.kernel is w[f"{name}.weight"]
        assert params.bias is w[f"{name}.bias"]
    fused = tiny_model.fused_conv_params(["head0.loc", "head0.cls"])
    assert fused.padding == (0, 0) and fused.kernel.shape == (14, 8, 1, 1)


def test_config_grid_sizes():
    assert ModelConfig(input_size=640).grid_sizes() == (80, 40, 20)
    assert ModelConfig(input_size=840).grid_sizes() == (105, 53, 27)
    assert TINY.grid_sizes() == (4, 2, 1)


# ------------------------------------------------------------ build_model

def test_build_model_happy_path(tiny_store):
    model = build_model(TINY, tiny_store)
    assert isinstance(model, Model)
    assert set(weight_manifest(TINY)) <= set(model.weights)


def test_build_model_missing_weight(tiny_store):
    store = dict(tiny_store)
    del store["head1.loc.weight"]
    with pytest.raises(ValueError, match="missing tensor 'head1.loc.weight'"):
        build_model(TINY, store)


def test_build_model_transposed_shape(tiny_store):
    store = dict(tiny_store)
    store["fpn.lateral0.weight"] = store["fpn.lateral0.weight"].transpose(1, 0, 2, 3)
    with pytest.raises(ValueError, match="fpn.lateral0.weight.*expected"):
        build_model(TINY, store)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_build_model_rejects_non_finite_weight(tiny_store, bad):
    store = dict(tiny_store)
    store["head0.cls.weight"] = store["head0.cls.weight"].copy()
    store["head0.cls.weight"][0, 0, 0, 0] = bad
    with pytest.raises(ValueError, match="'head0.cls.weight' has non-finite"):
        build_model(TINY, store)


# -------------------------------------------------------------- backbone

@pytest.mark.parametrize("size,extents", [(640, (80, 40, 20)),
                                          (840, (105, 53, 27))])
def test_backbone_extents(size, extents):
    config = ModelConfig(input_size=size)
    model = build_model(config, init_reference_weights(config, 0))
    image = rng.standard_normal((1, 3, size, size)).astype(np.float32)
    taps = backbone_forward(model, image)
    assert tuple(t.shape[2] for t in taps) == extents
    assert tuple(t.shape[3] for t in taps) == extents
    assert tuple(t.shape[1] for t in taps) == tuple(
        BACKBONE_STAGES[i][1] for i in (2, 3, 4))


def test_backbone_zero_image_finite(tiny_model):
    taps = backbone_forward(tiny_model, np.zeros((1, 3, 32, 32), dtype=np.float32))
    for t in taps:
        assert np.isfinite(t).all()


def test_backbone_rejects_wrong_size(tiny_model):
    with pytest.raises(ValueError, match=r"\(1, 3, 32, 32\)"):
        backbone_forward(tiny_model, np.zeros((1, 3, 64, 64), dtype=np.float32))


# ------------------------------------------------------------------- FPN

def test_fpn_shapes(tiny_model):
    outs = fpn_forward(tiny_model, tiny_features())
    assert [o.shape for o in outs] == [(1, 8, 4, 4), (1, 8, 2, 2), (1, 8, 1, 1)]


def test_fpn_deepest_level_ignores_shallower(tiny_model):
    feats_a = tiny_features(2)
    feats_b = (feats_a[0] + 3.0, feats_a[1] * 2.0, feats_a[2])
    outs_a = fpn_forward(tiny_model, feats_a)
    outs_b = fpn_forward(tiny_model, feats_b)
    np.testing.assert_array_equal(outs_a[2], outs_b[2])


def test_fpn_hand_traced_toy(tiny_store):
    """One-hot deep feature through identity laterals and delta smoothers."""
    store = dict(tiny_store)
    c = 8
    for lvl, tap_c in ((0, 32), (1, 64), (2, 128)):
        w = np.zeros((c, tap_c, 1, 1), dtype=np.float32)
        if lvl == 2:
            w[0, 0, 0, 0] = 1.0          # pass channel 0 through
        store[f"fpn.lateral{lvl}.weight"] = w
        store[f"fpn.lateral{lvl}.bias"] = np.zeros(c, dtype=np.float32)
    for lvl in (0, 1):
        w = np.zeros((c, c, 3, 3), dtype=np.float32)
        for ch in range(c):
            w[ch, ch, 1, 1] = 1.0        # centered delta: identity smoothing
        store[f"fpn.smooth{lvl}.weight"] = w
        store[f"fpn.smooth{lvl}.bias"] = np.zeros(c, dtype=np.float32)
    model = build_model(TINY, store)

    feats = tuple(np.zeros((1, tc, g, g), dtype=np.float32)
                  for tc, g in zip((32, 64, 128), (4, 2, 1)))
    feats[2][0, 0, 0, 0] = 1.0
    p0, p1, p2 = fpn_forward(model, feats)

    np.testing.assert_array_equal(p2[0, 0], [[1.0]])
    np.testing.assert_array_equal(p1[0, 0], np.ones((2, 2)))
    np.testing.assert_array_equal(p0[0, 0], np.ones((4, 4)))
    assert not p0[0, 1:].any() and not p1[0, 1:].any() and not p2[0, 1:].any()


def reference_fpn(model, features):
    """fpn_forward composed from the kernels: each merge is the float64
    ``add_scaled`` of the lateral and the cropped nearest upsampling."""
    laterals = [conv2d(f, model.conv_params(f"fpn.lateral{lvl}"))
                for lvl, f in enumerate(features)]
    outputs, merged = [None, None, laterals[2]], [None, None]
    for lvl in (1, 0):
        h, w = laterals[lvl].shape[2:]
        up = upsample_nearest(outputs[lvl + 1], 2)[:, :, :h, :w]
        merged[lvl] = add_scaled(laterals[lvl], up, ModelConfig.fpn_coeff)
        outputs[lvl] = conv2d(merged[lvl], model.conv_params(f"fpn.smooth{lvl}"))
    return tuple(outputs), merged


@pytest.mark.parametrize("size,grids", [(640, (80, 40, 20)), (100, (13, 7, 4))])
def test_fpn_in_place_merge_equals_scaled_add(size, grids, tiny_store,
                                              monkeypatch):
    """The float32 merge into the lateral's buffer is bit-identical to the
    float64 scaled add, also where the upsampled map is cropped (size 100)."""
    model = build_model(ModelConfig(input_size=size, fpn_channels=8), tiny_store)
    r = np.random.default_rng(size)
    features = tuple((r.standard_normal((1, c, g, g)) * 30).astype(np.float32)
                     for c, g in zip((32, 64, 128), grids))
    before = [f.copy() for f in features]
    conv_inputs = []

    def record(x, params):
        conv_inputs.append(x.copy())
        return conv2d(x, params)

    monkeypatch.setattr(model_module, "conv2d", record)
    got = fpn_forward(model, features)
    monkeypatch.undo()
    want, merged = reference_fpn(model, features)
    # three laterals, then smooth1 and smooth0, each on its level's merge
    assert len(conv_inputs) == 5
    np.testing.assert_array_equal(conv_inputs[3], merged[1])
    np.testing.assert_array_equal(conv_inputs[4], merged[0])
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    for f, b in zip(features, before):
        np.testing.assert_array_equal(f, b)


# ------------------------------------------------------------- attention

def test_channel_attention_zero_weights_halves_feature():
    feature = rng.standard_normal((1, 4, 3, 3)).astype(np.float32)
    z2 = np.zeros((4, 2), dtype=np.float32)
    out = channel_attention(feature, z2, np.zeros(2, dtype=np.float32),
                            z2.T.copy(), np.zeros(4, dtype=np.float32))
    np.testing.assert_array_equal(out, 0.5 * feature)


def test_channel_attention_gate_strictly_inside_unit_interval(tiny_store):
    # a ones-feature makes the output equal the gate itself
    feature = np.ones((1, 8, 4, 4), dtype=np.float32)
    out = channel_attention(feature,
                            tiny_store["head0.att.mlp.fc1.weight"],
                            tiny_store["head0.att.mlp.fc1.bias"],
                            tiny_store["head0.att.mlp.fc2.weight"],
                            tiny_store["head0.att.mlp.fc2.bias"])
    assert (out > 0).all() and (out < 1).all()


def test_channel_attention_scalar_hand_case():
    feature = np.full((1, 1, 2, 2), 0.5, dtype=np.float32)
    one = np.ones((1, 1), dtype=np.float32)
    zero = np.zeros(1, dtype=np.float32)
    out = channel_attention(feature, one, zero, one, zero)
    # gate = sigmoid(mlp(0.5) + mlp(0.5)) = sigmoid(1)
    expected = 0.5 / (1.0 + np.exp(-1.0))
    np.testing.assert_allclose(out, expected, rtol=1e-6)


def test_spatial_attention_zero_conv_halves_feature():
    feature = rng.standard_normal((1, 3, 4, 4)).astype(np.float32)
    out = spatial_attention(feature, np.zeros((1, 2, 7, 7), dtype=np.float32),
                            np.zeros(1, dtype=np.float32))
    np.testing.assert_array_equal(out, 0.5 * feature)


def test_spatial_attention_constant_feature_constant_gate():
    feature = np.full((1, 5, 9, 9), 2.5, dtype=np.float32)
    w = rng.standard_normal((1, 2, 7, 7)).astype(np.float32)
    out = spatial_attention(feature, w, np.zeros(1, dtype=np.float32))
    gate = out / 2.5
    # borders see zero padding, so only the fully-covered interior is constant
    interior = gate[:, :, 3:-3, 3:-3]
    assert interior.size > 0
    np.testing.assert_allclose(interior, interior[0, 0, 0, 0], rtol=1e-6)


def test_spatial_attention_center_tap_hand_case():
    feature = rng.standard_normal((1, 3, 3, 3)).astype(np.float32)
    w = np.zeros((1, 2, 7, 7), dtype=np.float32)
    w[0, 0, 3, 3] = 2.0     # channel 0 of the stacked map: per-position max
    w[0, 1, 3, 3] = -1.0    # channel 1: per-position mean
    bias = np.array([0.3], dtype=np.float32)
    out = spatial_attention(feature, w, bias)
    mx = feature.max(axis=1, keepdims=True)
    mean = feature.mean(axis=1, keepdims=True)
    gate = 1.0 / (1.0 + np.exp(-(2.0 * mx - mean + 0.3)))
    np.testing.assert_allclose(out, feature * gate, atol=1e-5)


def test_spatial_attention_matches_naive_conv_oracle():
    feature = rng.standard_normal((1, 4, 5, 5)).astype(np.float32)
    w = rng.standard_normal((1, 2, 7, 7)).astype(np.float32)
    bias = rng.standard_normal(1).astype(np.float32)
    out = spatial_attention(feature, w, bias)
    stacked = np.concatenate([feature.max(axis=1, keepdims=True),
                              feature.mean(axis=1, keepdims=True)], axis=1)
    logits = naive_conv2d(stacked.astype(np.float64), w.astype(np.float64),
                          bias.astype(np.float64), (1, 1), (3, 3), 1)
    gate = 1.0 / (1.0 + np.exp(-logits))
    np.testing.assert_allclose(out, feature * gate, atol=1e-5)


# ------------------------------------------------------ context attention

def test_context_attention_preserves_shape(tiny_model):
    feature = rng.standard_normal((1, 8, 4, 4)).astype(np.float32)
    out = context_attention_forward(tiny_model, feature, 0)
    assert out.shape == feature.shape


def bypass_gates(store, level):
    """Force both attention gates of one head to exactly 1."""
    store = dict(store)
    h = f"head{level}"
    store[f"{h}.att.mlp.fc1.weight"] = np.zeros_like(store[f"{h}.att.mlp.fc1.weight"])
    store[f"{h}.att.mlp.fc1.bias"] = np.zeros_like(store[f"{h}.att.mlp.fc1.bias"])
    store[f"{h}.att.mlp.fc2.weight"] = np.zeros_like(store[f"{h}.att.mlp.fc2.weight"])
    store[f"{h}.att.mlp.fc2.bias"] = np.full_like(store[f"{h}.att.mlp.fc2.bias"], 100.0)
    store[f"{h}.att.spatial.weight"] = np.zeros_like(store[f"{h}.att.spatial.weight"])
    store[f"{h}.att.spatial.bias"] = np.full_like(store[f"{h}.att.spatial.bias"], 100.0)
    return store


def test_context_attention_gate_bypass_equals_plain_context(tiny_store):
    model = build_model(TINY, bypass_gates(tiny_store, 0))
    feature = rng.standard_normal((1, 8, 4, 4)).astype(np.float32)
    got = context_attention_forward(model, feature, 0)

    def cv(name, x):
        return conv2d(x, model.conv_params(name))

    b1 = cv("head0.ctx.b1.conv1", feature)
    b2 = cv("head0.ctx.b2.conv2", activate(cv("head0.ctx.b2.conv1", feature), "relu"))
    b3 = cv("head0.ctx.b3.conv2", activate(cv("head0.ctx.b3.conv1", feature), "relu"))
    b3 = cv("head0.ctx.b3.conv3", activate(b3, "relu"))
    np.testing.assert_array_equal(got, concat_channels([b1, b2, b3]))


def test_context_branch_order_by_zeroing(tiny_store):
    feature = rng.standard_normal((1, 8, 4, 4)).astype(np.float32)
    # C=8 concatenates as branch1 -> [0:4), branch2 -> [4:6), branch3 -> [6:8)
    for tensors, zeroed in [(("b1.conv1",), slice(0, 4)),
                            (("b2.conv2",), slice(4, 6)),
                            (("b3.conv3",), slice(6, 8))]:
        store = dict(tiny_store)
        for t in tensors:
            store[f"head0.ctx.{t}.weight"] = np.zeros_like(store[f"head0.ctx.{t}.weight"])
            store[f"head0.ctx.{t}.bias"] = np.zeros_like(store[f"head0.ctx.{t}.bias"])
        out = context_attention_forward(build_model(TINY, store), feature, 0)
        assert not out[:, zeroed].any()
        others = [c for c in range(8) if not (zeroed.start <= c < zeroed.stop)]
        assert out[:, others].any()


# ----------------------------------------------------------- model_forward

def test_model_forward_row_count_and_determinism(tiny_model):
    image = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
    pred = model_forward(tiny_model, image)
    assert isinstance(pred, Predictions)
    assert pred.count == len(generate_anchors(TINY)) == 42
    assert pred.loc.shape == (42, 4) and pred.cls.shape == (42, 3)
    again = model_forward(tiny_model, image)
    np.testing.assert_array_equal(pred.loc, again.loc)
    np.testing.assert_array_equal(pred.cls, again.cls)


def unfused_forward(model, image):
    """model_forward composed from one conv per stored tensor and the
    kernels' own ReLU and scaled add: no fusion, nothing in place."""
    a = model.config.anchors_per_cell
    w = model.weights

    def cv(name, x):
        return conv2d(x, model.conv_params(name))

    x, taps = image, []
    for idx, (in_c, _) in enumerate(BACKBONE_STAGES, start=1):
        x = activate(conv2d(x, model.conv_params(f"backbone.stage{idx}.dw",
                                                 stride=2, groups=in_c)), "relu")
        x = activate(cv(f"backbone.stage{idx}.pw", x), "relu")
        taps.append(x)
    pyramid, _ = reference_fpn(model, [taps[t] for t in BACKBONE_TAPS])
    loc_rows, cls_rows = [], []
    for lvl, feat in enumerate(pyramid):
        h = f"head{lvl}.ctx"
        b1 = cv(f"{h}.b1.conv1", feat)
        b2 = cv(f"{h}.b2.conv2", activate(cv(f"{h}.b2.conv1", feat), "relu"))
        b3 = cv(f"{h}.b3.conv2", activate(cv(f"{h}.b3.conv1", feat), "relu"))
        b3 = cv(f"{h}.b3.conv3", activate(b3, "relu"))
        att = f"head{lvl}.att"
        refined = channel_attention(concat_channels([b1, b2, b3]),
                                    w[f"{att}.mlp.fc1.weight"], w[f"{att}.mlp.fc1.bias"],
                                    w[f"{att}.mlp.fc2.weight"], w[f"{att}.mlp.fc2.bias"])
        refined = spatial_attention(refined, w[f"{att}.spatial.weight"],
                                    w[f"{att}.spatial.bias"])
        loc_rows.append(flatten_head_map(cv(f"head{lvl}.loc", refined), a))
        cls_rows.append(flatten_head_map(cv(f"head{lvl}.cls", refined), a))
    return np.concatenate(loc_rows), np.concatenate(cls_rows)


@pytest.mark.parametrize("size", [32, 64, 100])
def test_model_forward_equals_unfused_composition(size, tiny_store):
    config = ModelConfig(input_size=size, fpn_channels=8)
    model = build_model(config, tiny_store)
    image = np.random.default_rng(size).standard_normal(
        (1, 3, size, size)).astype(np.float32) * 50
    pred = model_forward(model, image)
    loc, cls = unfused_forward(model, image)
    assert pred.loc.shape == loc.shape and pred.cls.shape == cls.shape
    np.testing.assert_allclose(pred.loc, loc, rtol=0, atol=1e-6)
    np.testing.assert_allclose(pred.cls, cls, rtol=0, atol=1e-6)


def sampled_conv_errors(x, params, out, extra=2, seed=0):
    """Relative errors of a few elements of ``out`` against the scalar-loop
    oracle on the patch each one reads: its minimum, its maximum and
    ``extra`` random elements."""
    _, cg, kh, kw = params.kernel.shape
    og = params.kernel.shape[0] // params.groups
    (sh, sw), (ph, pw) = params.stride, params.padding
    padded = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    picks = [out.argmin(), out.argmax(),
             *np.random.default_rng(seed).integers(out.size, size=extra)]
    errors = []
    for flat in picks:
        _, o, i, j = np.unravel_index(flat, out.shape)
        g = o // og
        patch = padded[:, g * cg:(g + 1) * cg, i * sh:i * sh + kh, j * sw:j * sw + kw]
        kernel, bias = params.kernel[o:o + 1], params.bias[o:o + 1]
        want = naive_conv2d(patch, kernel, bias)[0, 0, 0, 0]
        scale = float(np.abs(patch[0] * kernel[0]).sum()) + abs(float(bias[0]))
        errors.append(abs(float(out[0, o, i, j]) - want) / (scale + 1e-12))
    return errors


def test_forward_conv_outputs_are_plain_convolutions(tiny_store, monkeypatch):
    """What conv2d returns inside a forward pass is the convolution alone,
    as the benchmark's traced run checks it: an activation fused into
    conv2d would fail here.  The forward's in-place steps touch only
    buffers it owns: the image and every weight array are left as given."""
    config = ModelConfig(input_size=100, fpn_channels=8)
    model = build_model(config, tiny_store)
    image = (np.random.default_rng(3).standard_normal((1, 3, 100, 100))
             * 50).astype(np.float32)
    image_before = image.copy()
    weights_before = {k: v.copy() for k, v in model.weights.items()}
    calls = []

    def checked(x, params):
        out = conv2d(x, params)
        calls.append((x.copy(), params, out.copy()))
        return out

    monkeypatch.setattr(model_module, "conv2d", checked)
    model_forward(model, image)
    monkeypatch.undo()
    assert len(calls) == 33
    assert sum(out.min() < 0 for _, _, out in calls) >= 30
    for call, (x, params, out) in enumerate(calls):
        assert max(sampled_conv_errors(x, params, out, seed=call)) <= 1e-5
    np.testing.assert_array_equal(image, image_before)
    assert model.weights.keys() == weights_before.keys()
    for name, value in model.weights.items():
        np.testing.assert_array_equal(value, weights_before[name], err_msg=name)


@pytest.mark.parametrize("shape,kshape,padding,groups,view", [
    ((1, 4, 5, 5), (3, 4, 1, 1), 0, 1, False),   # 1x1 unpadded: used as is
    ((1, 8, 5, 5), (3, 4, 1, 1), 0, 1, True),    # ... on a strided view
    ((2, 4, 5, 6), (3, 4, 3, 3), 1, 1, False),   # padded
    ((1, 4, 5, 5), (4, 1, 3, 3), 1, 4, False),   # depthwise
    ((1, 4, 6, 6), (6, 2, 3, 3), 1, 2, False),   # grouped
])
def test_conv2d_leaves_input_and_returns_fresh_float32(shape, kshape, padding,
                                                        groups, view):
    r = np.random.default_rng(7)
    x = r.standard_normal(shape).astype(np.float32)
    if view:
        x = x[:, ::2]
    before = x.copy()
    params = ConvParams(r.standard_normal(kshape).astype(np.float32),
                        r.standard_normal(kshape[0]).astype(np.float32),
                        padding=padding, groups=groups)
    out = conv2d(x, params)
    np.testing.assert_array_equal(x, before)
    assert out.dtype == np.float32
    assert out.flags.c_contiguous and out.flags.owndata
    assert not np.shares_memory(out, x)
    out[...] = 0
    np.testing.assert_array_equal(x, before)


def test_flatten_head_map_canonical_order():
    a, k, h, w = 2, 4, 3, 2
    head_map = np.zeros((1, a * k, h, w), dtype=np.float32)
    for ai in range(a):
        for ci in range(k):
            for i in range(h):
                for j in range(w):
                    head_map[0, ai * k + ci, i, j] = 1000 * i + 100 * j + 10 * ai + ci
    rows = flatten_head_map(head_map, a)
    assert rows.shape == (h * w * a, k)
    for i in range(h):
        for j in range(w):
            for ai in range(a):
                row = (i * w + j) * a + ai
                np.testing.assert_array_equal(
                    rows[row], [1000 * i + 100 * j + 10 * ai + ci for ci in range(k)])


def test_permuting_anchor_hypotheses_permutes_rows(tiny_store):
    image = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
    base = model_forward(build_model(TINY, tiny_store), image)

    # swap the channel blocks of anchor hypothesis 0 and 1 in level 1's heads
    store = dict(tiny_store)
    for head, k in (("loc", 4), ("cls", 3)):
        w = tiny_store[f"head1.{head}.weight"]
        b = tiny_store[f"head1.{head}.bias"]
        store[f"head1.{head}.weight"] = np.concatenate([w[k:2 * k], w[:k]])
        store[f"head1.{head}.bias"] = np.concatenate([b[k:2 * k], b[:k]])
    perm = model_forward(build_model(TINY, store), image)

    # level 1 occupies rows 32..39; rows swap within each cell's anchor pair
    for cell in range(4):
        base_rows = 32 + cell * 2
        np.testing.assert_array_equal(perm.loc[base_rows], base.loc[base_rows + 1])
        np.testing.assert_array_equal(perm.loc[base_rows + 1], base.loc[base_rows])
        np.testing.assert_array_equal(perm.cls[base_rows], base.cls[base_rows + 1])
    # other levels untouched
    np.testing.assert_array_equal(perm.loc[:32], base.loc[:32])
    np.testing.assert_array_equal(perm.loc[40:], base.loc[40:])


def test_prediction_rows_align_with_anchor_rows(tiny_model):
    """Cross-module ordering contract: row r of Predictions belongs to the
    anchor at row r of generate_anchors for the same config."""
    anchor_set = generate_anchors(TINY)
    offsets = np.cumsum([0] + [l.count for l in anchor_set.layout])
    for lvl, layout in enumerate(anchor_set.layout):
        for i in range(layout.grid_h):
            for j in range(layout.grid_w):
                for a in range(layout.anchors_per_cell):
                    row = offsets[lvl] + (i * layout.grid_w + j) * 2 + a
                    s = layout.stride
                    np.testing.assert_array_equal(
                        anchor_set.anchors[row][:2],
                        [(j + 0.5) * s, (i + 0.5) * s])


@pytest.mark.parametrize("size", [32, 64])
def test_row_count_matches_anchor_count(size, tiny_store):
    config = ModelConfig(input_size=size, fpn_channels=8)
    model = build_model(config, tiny_store)
    image = np.random.default_rng(size).standard_normal((1, 3, size, size)).astype(np.float32)
    assert model_forward(model, image).count == len(generate_anchors(config))


# ----------------------------------------------------------- kaiming init

def test_kaiming_deterministic():
    a = kaiming_init((16, 8, 3, 3), seed=9)
    b = kaiming_init((16, 8, 3, 3), seed=9)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, kaiming_init((16, 8, 3, 3), seed=10))


def test_kaiming_std_matches_fan():
    sample = kaiming_init((100, 100), seed=1)
    expected = np.sqrt(2.0 / 100.0)
    assert abs(sample.std() - expected) / expected < 0.05


def test_kaiming_fan_values():
    # fan_in of (16, 8, 3, 3) is 72: std should be sqrt(2/72)
    sample = kaiming_init((16, 8, 3, 3), seed=3)
    assert abs(sample.std() - np.sqrt(2 / 72)) < 0.05 * np.sqrt(2 / 72) * 5


def test_kaiming_errors():
    with pytest.raises(ValueError, match="zero fan"):
        kaiming_init((5, 0, 3, 3), seed=0)


def test_reference_weights_deterministic_and_complete(tiny_store):
    again = init_reference_weights(TINY, seed=123)
    assert set(again) == set(weight_manifest(TINY))
    for name in again:
        np.testing.assert_array_equal(again[name], tiny_store[name])
    other = init_reference_weights(TINY, seed=124)
    assert any(not np.array_equal(other[n], again[n]) for n in again
               if n.endswith(".weight"))
