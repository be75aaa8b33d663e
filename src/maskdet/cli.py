"""Command-line interface.

Subcommands:

    detect        run the full pipeline on a PPM image or a directory of them
    eval          per-class precision/recall of detections against ground truth
    anchors       print the anchor count and per-level layout for a config
    init-weights  write a Kaiming-initialized weight store
    selftest      run the embedded oracle suites

Exit codes: 0 success, 1 runtime error, 2 argument error.  Detection boxes
are reported in source-image pixels (rescaled from the square network
input).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .annotations import (CLASS_NAMES, ImageRecord, load_annotations,
                          load_detections, loads_back, save_detections)
from .anchors import FACE, MASK, generate_anchors
from .evaluate import (DEFAULT_EVAL_IOU, EvalCounts, match_for_eval,
                       precision_recall)
from .images import load_ppm, preprocess
from .model import ModelConfig, build_model, init_reference_weights
from .postproc import (DEFAULT_CONF_THRESH, DEFAULT_NMS_IOU, DEFAULT_ORCC_IOU,
                       detect as run_detect)
from .selftest import run_selftest
from .weights_io import load_weights, save_weights

REFERENCE_STRIDES = ModelConfig().strides
MIN_INPUT_SIZE = max(REFERENCE_STRIDES)   # one cell of the coarsest grid


def _parse_strides(text: str) -> tuple[int, ...]:
    """Comma-separated strides that pass ``ModelConfig``'s strides rule."""
    try:
        strides = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"strides must be comma-separated "
                                         f"integers, got {text!r}")
    try:
        return ModelConfig(strides=strides).strides
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_unit_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text!r}")
    return value


def _int_at_least(minimum: int, why: str = ""):
    """An argparse type for integers no smaller than ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}{why}, "
                                             f"got {text!r}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the ``maskdet`` command line."""
    parser = argparse.ArgumentParser(prog="maskdet",
                                     description="Face-mask detector toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="detect faces and masks in PPM images")
    p.add_argument("--weights", required=True, help="weights container path")
    p.add_argument("--input", required=True,
                   help="a .ppm file or a directory of .ppm files")
    p.add_argument("--out", required=True, help="output detections JSON")
    p.add_argument("--size", default=640,
                   type=_int_at_least(MIN_INPUT_SIZE, " (the largest stride)"),
                   help=f"network input size, at least {MIN_INPUT_SIZE}")
    p.add_argument("--tc", type=_parse_unit_float,
                   default=DEFAULT_CONF_THRESH,
                   help="confidence threshold in [0, 1]")
    p.add_argument("--nms", type=_parse_unit_float, default=DEFAULT_NMS_IOU,
                   help="NMS IoU threshold in [0, 1]")
    p.add_argument("--orcc", type=_parse_unit_float,
                   default=DEFAULT_ORCC_IOU,
                   help="cross-class removal IoU threshold in [0, 1]")

    p = sub.add_parser("eval", help="precision/recall of detections vs ground truth")
    p.add_argument("--pred", required=True, help="detections JSON")
    p.add_argument("--gt", required=True, help="ground-truth annotations JSON")
    p.add_argument("--iou", type=_parse_unit_float,
                   default=DEFAULT_EVAL_IOU,
                   help="matching IoU threshold in [0, 1]")

    p = sub.add_parser("anchors", help="print anchor count and layout")
    p.add_argument("--size", type=_int_at_least(1), required=True,
                   help="input size in pixels, at least 1")
    p.add_argument("--strides", type=_parse_strides,
                   default=REFERENCE_STRIDES,
                   help="comma-separated level strides (default %(default)s)")

    p = sub.add_parser("init-weights", help="write Kaiming-initialized weights")
    p.add_argument("--out", required=True, help="output weights path")
    p.add_argument("--seed", type=_int_at_least(0), required=True,
                   help="master RNG seed")

    sub.add_parser("selftest", help="run the embedded oracle suites")
    return parser


@functools.cache
def _kept_parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call and kept for the
    process: parsing leaves a parser as it was, and building one costs a
    third of a small ``eval`` call."""
    return build_parser()


def _cmd_detect(args) -> int:
    config = ModelConfig(input_size=args.size)
    model = build_model(config, load_weights(args.weights))
    anchor_set = generate_anchors(config)

    source = Path(args.input)
    if source.is_dir():
        paths = sorted(source.glob("*.ppm"))
        if not paths:
            raise FileNotFoundError(f"no .ppm files in directory {source}")
    elif source.exists():
        paths = [source]
    else:
        raise FileNotFoundError(f"input not found: {source}")

    records = []
    for path in paths:
        pixels = load_ppm(path)
        height, width = pixels.shape[:2]
        image = preprocess(pixels, config.input_size)
        labels, boxes, confidences = run_detect(
            model, image, anchor_set, conf_thresh=args.tc, nms_iou=args.nms,
            orcc_iou=args.orcc)
        boxes = boxes * np.array([width / config.input_size,
                                  height / config.input_size] * 2)
        ok = loads_back(boxes, width, height)
        records.append(ImageRecord(path.stem, width, height, labels[ok],
                                   boxes[ok], confidences[ok]))
    save_detections(records, args.out)
    return 0


def _cmd_eval(args) -> int:
    preds = {rec.image_id: rec for rec in load_detections(args.pred)}
    gts = load_annotations(args.gt)
    gt_ids = {rec.image_id for rec in gts}
    unknown = sorted(set(preds) - gt_ids)
    if unknown:
        raise ValueError(f"prediction file has image ids missing from ground "
                         f"truth: {', '.join(unknown)}")

    totals = EvalCounts.zero()
    for gt in gts:
        pred = preds.get(gt.image_id)
        if pred is not None and (pred.width, pred.height) != (gt.width, gt.height):
            raise ValueError(f"image '{gt.image_id}': prediction is "
                             f"{pred.width}x{pred.height} but ground truth is "
                             f"{gt.width}x{gt.height}")
        dets = pred if pred is not None else []
        totals = totals + match_for_eval(dets, gt.labels, gt.boxes,
                                         iou_thresh=args.iou)
    metrics = precision_recall(totals)
    report = {"iou_threshold": args.iou, "classes": {}}
    for label in (FACE, MASK):
        name = CLASS_NAMES[label]
        precision, recall = metrics[label]
        counts = totals.for_label(label)
        print(f"{name} precision={precision:.6f} recall={recall:.6f}")
        report["classes"][name] = {"tp": counts.tp, "fp": counts.fp,
                                   "fn": counts.fn,
                                   "precision": round(precision, 6),
                                   "recall": round(recall, 6)}
    print(json.dumps(report, separators=(",", ":")))
    return 0


def _cmd_anchors(args) -> int:
    config = ModelConfig(input_size=args.size, strides=args.strides)
    anchor_set = generate_anchors(config)
    print(f"total anchors: {len(anchor_set)}")
    for lvl, layout in enumerate(anchor_set.layout):
        print(f"level {lvl}: stride {layout.stride}, grid "
              f"{layout.grid_h}x{layout.grid_w}, {layout.anchors_per_cell} "
              f"anchors/cell -> {layout.count}")
    return 0


def _cmd_init_weights(args) -> int:
    config = ModelConfig()
    store = init_reference_weights(config, args.seed)
    save_weights(store, args.out)
    params = sum(int(np.prod(a.shape)) for a in store.values())
    print(f"wrote {len(store)} tensors ({params} parameters) to {args.out}")
    return 0


def main(argv=None) -> int:
    try:
        args = _kept_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "detect":
            return _cmd_detect(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "anchors":
            return _cmd_anchors(args)
        if args.command == "init-weights":
            return _cmd_init_weights(args)
        if args.command == "selftest":
            return 0 if run_selftest() else 1
    except Exception as exc:    # runtime failures -> exit 1, message on stderr
        print(f"maskdet: error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
