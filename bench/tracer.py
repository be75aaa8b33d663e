"""Spans and counters recorded around calls into maskdet's public functions.

A function is wrapped in the namespace where its caller looks it up, for
example ``maskdet.model.conv2d`` for the model's convolutions or
``maskdet.cli.run_detect`` for the CLI's per-image call, so the program is
not edited.  Each span is ``[name, start, end, parent, group, extra]``:
``parent`` is the index of the enclosing span (-1 at the top), ``group``
names the image (``r<round>/<image id>``) or the CLI call
(``r<round>/detect``, ``r<round>/eval<i>``) it belongs to, and ``extra``
holds a per-span payload such as a conv layer's FLOPs.  Spans stay in
memory until the run ends; the metrics are derived from them afterwards.

:class:`Stamps` is the untraced run's hook: one timestamp pair per image
and one end stamp per detect call, nothing else.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

perf_counter = time.perf_counter

# functions the model calls through the ``maskdet.model`` namespace that are
# kernels other than conv2d
OTHER_KERNELS = ("activate", "add_scaled", "concat_channels", "global_pool",
                 "linear", "sigmoid", "upsample_nearest")
CONV_SAMPLES = 3          # output elements checked per conv layer


def _conv_kind(params) -> str:
    out_c, _, kh, kw = params.kernel.shape
    if params.groups > 1:
        return "depthwise"
    if kh == 1 and kw == 1:
        return "pointwise"
    return "dense"


def conv_cost(x, params, out):
    """(FLOPs, bytes) of one conv2d call, from tensor shapes alone.

    FLOPs count a multiply and an add per kernel tap per output element;
    bytes are the float32 input, kernel, bias and output, each once.
    """
    out_c, in_per_group, kh, kw = params.kernel.shape
    flops = 2 * out.size * in_per_group * kh * kw
    nbytes = 4 * (x.size + params.kernel.size + out.size
                  + (0 if params.bias is None else params.bias.size))
    return flops, nbytes


def conv_samples(x, params, out, rng):
    """A few output elements of a conv call with the inputs that made them.

    Returns (patch, kernel row, bias, computed value) tuples; the patch is
    cut from ``x`` with explicit zero padding, so the check that uses it is
    independent of the kernel's own padding and windowing.
    """
    n, c, h, w = x.shape
    out_c, cg, kh, kw = params.kernel.shape
    og = out_c // params.groups
    sh, sw = params.stride
    ph, pw = params.padding
    samples = []
    for _ in range(CONV_SAMPLES):
        o = int(rng.integers(out_c))
        i = int(rng.integers(out.shape[2]))
        j = int(rng.integers(out.shape[3]))
        g = o // og
        patch = np.zeros((cg, kh, kw))
        for u in range(kh):
            for v in range(kw):
                r, s = i * sh - ph + u, j * sw - pw + v
                if 0 <= r < h and 0 <= s < w:
                    patch[:, u, v] = x[0, g * cg:(g + 1) * cg, r, s]
        bias = 0.0 if params.bias is None else float(params.bias[o])
        samples.append((patch, np.array(params.kernel[o], dtype=np.float64),
                        bias, float(out[0, o, i, j])))
    return samples


class Patches:
    """Module attributes replaced by wrappers, undone by :meth:`restore`."""

    def __init__(self):
        self._undo = []

    def patch(self, module, attr, make) -> None:
        """Replace ``module.attr`` by ``make(original)``."""
        orig = getattr(module, attr)
        setattr(module, attr, make(orig))
        self._undo.append((module, attr, orig))

    def restore(self) -> None:
        for module, attr, orig in reversed(self._undo):
            setattr(module, attr, orig)
        self._undo.clear()


class Stamps(Patches):
    """Untraced hooks: image start/end and detect-call end timestamps.

    ``ids`` holds the image id (file stem) of each start stamp.
    """

    def __init__(self, cli):
        super().__init__()
        self.ids, self.starts, self.ends, self.saved = [], [], [], []

        def image_start(orig):
            def wrapper(path, *args, **kwargs):
                self.ids.append(path.stem)
                self.starts.append(perf_counter())
                return orig(path, *args, **kwargs)
            return wrapper

        def stamp_after(stamps):
            def make(orig):
                def wrapper(*args, **kwargs):
                    result = orig(*args, **kwargs)
                    stamps.append(perf_counter())
                    return result
                return wrapper
            return make

        self.patch(cli, "load_ppm", image_start)
        self.patch(cli, "run_detect", stamp_after(self.ends))
        self.patch(cli, "save_detections", stamp_after(self.saved))

    def reset(self):
        for stamps in (self.ids, self.starts, self.ends, self.saved):
            stamps.clear()


class Tracer(Patches):
    """Span recorder that wraps maskdet functions in place."""

    def __init__(self, seed: int = 0):
        super().__init__()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.group = ""
        self.round = 0
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.layer_names: dict[int, str] = {}
        self.conv_checks: dict[str, list] = {}
        self._rng = np.random.default_rng(seed)

    # -- recording -------------------------------------------------------
    def open(self, name: str) -> list:
        span = [name, perf_counter(), 0.0,
                self.stack[-1] if self.stack else -1, self.group, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = perf_counter()
        self.stack.pop()

    def wrap(self, module, attr, name, before=None, after=None):
        """Replace ``module.attr`` by a spanned call to the original.

        ``before(args)`` runs ahead of the span (it may set the group);
        ``after(span, args, result)`` runs once the span is closed.
        """
        def make(orig):
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args)
                span = self.open(name)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    self.close(span)
                if after is not None:
                    after(span, args, result)
                return result
            return wrapper

        self.patch(module, attr, make)

    def count_calls(self, module, attr) -> list:
        """Replace ``module.attr`` by a call that only bumps a counter.

        Returns the one-element list holding the count, so a caller can move
        it into ``counters`` at a span boundary; a dict update per call would
        cost more than the call being counted.
        """
        calls = [0]

        def make(orig):
            def wrapper(*args, **kwargs):
                calls[0] += 1
                return orig(*args, **kwargs)
            return wrapper

        self.patch(module, attr, make)
        return calls

    # -- the maskdet call graph ------------------------------------------
    def install(self, maskdet):
        cli, model, postproc, annotations = (maskdet.cli, maskdet.model,
                                             maskdet.postproc,
                                             maskdet.annotations)
        wrap, bump = self.wrap, self.counters

        def image_group(args):
            self.group = f"r{self.round}/{args[0].stem}"

        def detect_group(args):
            self.group = f"r{self.round}/detect"

        def remember_layers(span, args, result):
            self.layer_names = {
                id(result.weights[name]): name[:-len(".weight")]
                for name, shape in model.weight_manifest(result.config).items()
                if name.endswith(".weight") and len(shape) == 4}

        def conv_done(span, args, out):
            x, params = args
            layer = self.layer_names.get(id(params.kernel), "unnamed")
            flops, nbytes = conv_cost(x, params, out)
            span[5] = (layer, _conv_kind(params), flops, nbytes, list(x.shape),
                       list(params.kernel.shape), params.groups,
                       list(params.stride))
            if layer not in self.conv_checks:
                self.conv_checks[layer] = conv_samples(x, params, out,
                                                       self._rng)

        def filtered(span, args, result):
            boxes = result[0]
            g = self.group
            bump[(g, "after_filter")] += len(boxes)
            area = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
            bump[(g, "zero_area_after_filter")] += int(np.sum(area <= 0))

        def nms_done(span, args, result):
            bump[(self.group, "after_nms")] += len(result[0])

        def orcc_done(span, args, result):
            bump[(self.group, "iou_calls")] += iou_calls[0]
            iou_calls[0] = 0
            before = len(args[0]) + len(args[1])
            bump[(self.group, "orcc_removed")] += before - len(result[0]) - len(result[1])

        def post_done(span, args, result):
            bump[(self.group, "final")] += len(result)

        def serialized(span, args, result):
            bump[(self.group, "bytes_out")] += len(result.encode("utf-8"))
            bump[(self.group, "images")] += len(args[0])

        def matched(span, args, result):
            bump[(self.group, "dets_matched")] += len(args[0])

        wrap(cli, "load_weights", "weights_io.load_weights")
        wrap(cli, "build_model", "model.build_model", after=remember_layers)
        wrap(cli, "generate_anchors", "anchors.generate_anchors")
        wrap(cli, "load_ppm", "images.load_ppm", before=image_group)
        wrap(cli, "preprocess", "images.preprocess")
        wrap(cli, "run_detect", "postproc.detect")
        wrap(cli, "save_detections", "annotations.save_detections",
             before=detect_group)
        wrap(annotations, "serialize_detections",
             "annotations.serialize_detections", after=serialized)
        wrap(cli, "load_detections", "annotations.load_detections")
        wrap(cli, "load_annotations", "annotations.load_annotations")
        wrap(cli, "match_for_eval", "evaluate.match_for_eval", after=matched)

        wrap(postproc, "model_forward", "model.model_forward")
        wrap(postproc, "postprocess", "postproc.postprocess", after=post_done)
        wrap(postproc, "score_predictions", "postproc.score_predictions")
        wrap(postproc, "decode", "anchors.decode")
        wrap(postproc, "filter_confidence", "postproc.filter_confidence",
             after=filtered)
        wrap(postproc, "nms", "postproc.nms", after=nms_done)
        wrap(postproc, "orcc", "postproc.orcc", after=orcc_done)
        iou_calls = self.count_calls(postproc, "iou")    # ORCC's only callee

        wrap(model, "backbone_forward", "model.backbone_forward")
        wrap(model, "fpn_forward", "model.fpn_forward")
        wrap(model, "context_attention_forward",
             "model.context_attention_forward")
        wrap(model, "channel_attention", "model.channel_attention")
        wrap(model, "spatial_attention", "model.spatial_attention")
        wrap(model, "conv2d", "kernels.conv2d", after=conv_done)
        for name in OTHER_KERNELS:
            wrap(model, name, f"kernels.{name}")

    # -- export ------------------------------------------------------------
    def to_json(self) -> dict:
        return {"spans": [[n, s, e, p, g, x] for n, s, e, p, g, x in self.spans],
                "counters": [[g, n, v] for (g, n), v in self.counters.items()]}
