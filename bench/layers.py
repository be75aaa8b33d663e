"""Per-layer metrics derived from a traced run's spans and counters.

Per-image values are medians over every traced image; counts are per-image
totals (both classes together), also as medians.  Set-up spans are taken per
``maskdet detect`` call and eval spans per successful ``maskdet eval`` call.
A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from tracer import OTHER_KERNELS

CONV_KINDS = ("depthwise", "pointwise", "dense")
COUNTS = ("after_filter", "zero_area_after_filter", "after_nms", "iou_calls",
          "orcc_removed", "final")

# per-image span sums reported as "<metric>": "<span name>"
IMAGE_SPANS = {
    "images.load_ppm_ms": "images.load_ppm",
    "images.preprocess_ms": "images.preprocess",
    "model.forward_ms": "model.model_forward",
    "model.backbone_ms": "model.backbone_forward",
    "model.fpn_ms": "model.fpn_forward",
    "model.channel_attention_ms": "model.channel_attention",
    "model.spatial_attention_ms": "model.spatial_attention",
    "kernels.conv2d_ms": "kernels.conv2d",
    "postproc.postprocess_ms": "postproc.postprocess",
    "postproc.score_ms": "postproc.score_predictions",
    "anchors.decode_ms": "anchors.decode",
    "postproc.filter_ms": "postproc.filter_confidence",
    "postproc.nms_ms": "postproc.nms",
    "postproc.orcc_ms": "postproc.orcc",
}
SETUP_SPANS = {
    "weights_io.load_ms": "weights_io.load_weights",
    "model.build_ms": "model.build_model",
    "anchors.generate_ms": "anchors.generate_anchors",
}
EVAL_SPANS = {
    "annotations.load_detections_ms": "annotations.load_detections",
    "annotations.load_annotations_ms": "annotations.load_annotations",
    "evaluate.match_ms": "evaluate.match_for_eval",
}


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def layer_metrics(tracer, rounds, untraced: int) -> dict:
    """Per-layer metrics from ``tracer``'s spans over the traced ``rounds``.

    The first ``untraced`` rounds ran without tracing, on the image set that
    the first traced round revisits; ``trace.overhead_ms`` compares them.
    """
    spans = tracer.spans
    dur = [1e3 * (s[2] - s[1]) for s in spans]
    children = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]] += dur[i]

    sums = defaultdict(lambda: defaultdict(float))    # group -> key -> value
    first_start, detect_end = {}, {}
    for i, (name, start, end, parent, group, extra) in enumerate(spans):
        g = sums[group]
        g[name] += dur[i]
        g[name + "#self"] += dur[i] - children[i]
        if name == "images.load_ppm":
            first_start[group] = start
        elif name == "postproc.detect":
            detect_end[group] = end
        elif name == "model.context_attention_forward" or (
                name == "kernels.conv2d" and parent >= 0
                and spans[parent][0] == "model.model_forward"):
            g["heads"] += dur[i]
        if name in (f"kernels.{k}" for k in OTHER_KERNELS):
            g["other"] += dur[i]
        if extra is not None:
            layer, kind, flops, nbytes = extra[:4]
            g[f"conv.{layer}.ms"] += dur[i]
            g[f"conv_{kind}"] += dur[i]
            g["calls"] += 1
            g["gflop"] += flops / 1e9
            g["mbytes"] += nbytes / 1e6
    for (group, name), value in tracer.counters.items():
        sums[group][name] += value

    image_groups = [k for k in sums if k in first_start]
    detect_groups = [k for k in sums if k.endswith("/detect")]
    ok_evals = {f"r{r}/eval{i}" for r, rnd in enumerate(rounds)
                for i, ev in enumerate(rnd["evals"]) if ev["code"] == 0}
    eval_groups = [k for k in sums if k in ok_evals]

    def per_image(key):
        return _median(sums[g][key] for g in image_groups)

    out = {metric: per_image(span) for metric, span in IMAGE_SPANS.items()}
    out["model.heads_ms"] = per_image("heads")
    out["kernels.conv2d_calls"] = per_image("calls")
    out["kernels.conv2d_gflop"] = per_image("gflop")
    out["kernels.conv2d_gflops"] = _median(
        sums[g]["gflop"] / (sums[g]["kernels.conv2d"] / 1e3)
        for g in image_groups if sums[g]["kernels.conv2d"] > 0)
    out["kernels.conv2d_mbytes"] = per_image("mbytes")
    for kind in CONV_KINDS:
        out[f"kernels.conv2d_{kind}_ms"] = per_image(f"conv_{kind}")
    out["kernels.other_ms"] = per_image("other")
    for layer in sorted(set(tracer.layer_names.values())):
        out[f"conv.{layer}.ms"] = per_image(f"conv.{layer}.ms")
    out["postproc.self_ms"] = per_image("postproc.postprocess#self")
    for name in COUNTS:
        prefix = "anchors" if name == "iou_calls" else "postproc"
        out[f"{prefix}.{name}"] = per_image(name)
    out["postproc.nms_keep_ratio"] = _median(
        sums[g]["after_nms"] / sums[g]["after_filter"]
        for g in image_groups if sums[g]["after_filter"] > 0)

    for metric, span in SETUP_SPANS.items():
        out[metric] = _median(sums[g][span] for g in detect_groups)
    out["annotations.serialize_ms"] = _median(
        sums[g]["annotations.serialize_detections"] / sums[g]["images"]
        for g in detect_groups if sums[g]["images"])
    out["annotations.bytes_out"] = _median(
        sums[g]["bytes_out"] / sums[g]["images"]
        for g in detect_groups if sums[g]["images"])
    images_per_call = {g: sum(1 for k in image_groups
                              if k.split("/")[0] == g.split("/")[0])
                       for g in detect_groups}
    out["cli.detect_self_ms"] = _median(
        sums[g]["cli.detect#self"] / images_per_call[g]
        for g in detect_groups if images_per_call[g])

    for metric, span in EVAL_SPANS.items():
        out[metric] = _median(sums[g][span] for g in eval_groups)
    out["evaluate.dets_matched"] = _median(sums[g]["dets_matched"]
                                           for g in eval_groups)
    out["cli.eval_self_ms"] = _median(sums[g]["cli.eval#self"]
                                      for g in eval_groups)

    # traced minus untraced time of the same image, each side its fastest
    # pass: the machine's speed can change between two rounds by more than
    # tracing costs, and the fastest pass is the one least slowed
    untraced_ms = defaultdict(list)
    for rnd in rounds[:untraced]:
        for image_id, ms in zip(rnd["detect"].get("image_ids", []),
                                rnd["detect"].get("image_ms", [])):
            untraced_ms[image_id].append(ms)
    traced_ms = defaultdict(list)
    for g in image_groups:
        r, image_id = g.split("/", 1)
        if (g in detect_end and image_id in untraced_ms
                and rounds[int(r[1:])]["set"] == rounds[0]["set"]):
            traced_ms[image_id].append(1e3 * (detect_end[g] - first_start[g]))
    overhead = [min(ms) - min(untraced_ms[image_id])
                for image_id, ms in traced_ms.items()]
    out["trace.overhead_ms"] = _median(overhead)
    return out


def conv_check_errors(checks) -> dict:
    """Compare sampled conv outputs with explicit float64 dot products.

    The error of a sample is |computed - expected| over the sum of the
    absolute products plus |bias|, so it is a relative error of the
    accumulation; float32 output rounding alone stays below 1e-7.
    """
    worst, failing = 0.0, []
    for layer, samples in checks.items():
        for patch, kernel, bias, got in samples:
            terms = patch * kernel
            expected = float(terms.sum()) + bias
            scale = float(np.abs(terms).sum()) + abs(bias) + 1e-12
            err = abs(got - expected) / scale
            worst = max(worst, err)
            if err > 1e-5:
                failing.append(layer)
    return {"layers": len(checks), "worst_rel_error": worst,
            "failing": sorted(set(failing))}
