"""Seeded inputs for the benchmark: PPM scenes, ground truth and weight stores.

Everything the detector is given comes from here, and the same seed always
gives byte-identical files.  A scene is low-frequency colour noise around the
detector's preprocessing means with ``OBJECTS_PER_SCENE`` non-overlapping
heads drawn into it.  A head is a skin-toned ellipse with two eyes; half of
them also wear a mask, a coloured rectangle over the lower half with ear
loops.  Every scene has the same mix of classes, sizes and colours; the seed
shuffles them and draws placement and noise.  Scene ``i`` has source size
``SOURCE_SIZES[i % 4]``, and a set of scenes holds consecutive indices.  The ground truth is the bounding box of each
ellipse, labelled face or mask.

The weight store comes from a fixed seed, because a detector serves many
images with one set of weights (and because the weight seed alone moved
post-processing cost per image fourfold).  This calibrated store starts from
``init_reference_weights(ModelConfig(), CALIBRATED_SEED)``.  Every
``head*.loc.weight`` is multiplied by ``loc_scale`` so decoded boxes stay near
their anchors, every ``head*.cls.weight`` by ``cls_scale``, and
``head*.cls.bias`` becomes ``(0, face_bias, mask_bias)`` per anchor, a
negative offset of both foreground classes against background.  The four
numbers are fitted on ``CALIBRATION_SCENES`` scenes from the raw head outputs
of the unscaled store (see :func:`calibrate`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SOURCE_SIZES = ((640, 480), (800, 600), (512, 512), (480, 640))
OBJECTS_PER_SCENE = 8
OBJECT_SIDE = (36, 110)          # ellipse width range in source pixels
MEAN_RGB = (123.0, 117.0, 104.0)  # the detector's preprocessing means
BG_CELL = 12                     # background noise grid spacing, pixels
BG_NOISE = 30.0                  # its amplitude around MEAN_RGB
FINE_NOISE = 3.0                 # per-pixel noise on top
CALIBRATED_SEED = 3               # weights and calibration scenes
SETS = 8                         # image sets per workload, one per round in turn
SCENES_PER_SET = 4

# calibration targets on the calibration scenes: the 99.9th percentile of
# |offset| after scaling, and the number of anchors per image that pass the
# sparse threshold (both classes together) and the dense threshold (each class)
LOC_TARGET = 1.0
SPARSE_TC, SPARSE_PASS = 0.5, 100
DENSE_TC, DENSE_PASS = 0.05, 700
CALIBRATION_SCENES = 2

SKIN = ((224, 172, 140), (198, 134, 98), (141, 85, 54), (255, 205, 170),
        (170, 110, 80))
MASK_COLOURS = ((235, 240, 245), (150, 190, 230), (40, 40, 45),
                (120, 200, 190))


@dataclass(frozen=True)
class SceneObject:
    label: str                      # "face" or "mask"
    box: tuple[float, float, float, float]


def _ellipse(img, cx, cy, rx, ry, colour):
    h, w = img.shape[:2]
    y0, y1 = max(0, int(cy - ry)), min(h, int(math.ceil(cy + ry)) + 1)
    x0, x1 = max(0, int(cx - rx)), min(w, int(math.ceil(cx + rx)) + 1)
    yy, xx = np.mgrid[y0:y1, x0:x1]
    inside = ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 <= 1.0
    img[y0:y1, x0:x1][inside] = colour


def _rect(img, x0, y0, x1, y1, colour):
    h, w = img.shape[:2]
    img[max(0, int(y0)):min(h, int(y1)), max(0, int(x0)):min(w, int(x1))] = colour


def render_scene(rng: np.random.Generator, width: int, height: int):
    """One scene as (h, w, 3) uint8 RGB pixels plus its ground-truth objects."""
    # low-frequency noise: a coarse random grid, bilinearly upsampled, so
    # that nearest-neighbour resizing to the network input barely changes it
    gh, gw = height // BG_CELL + 2, width // BG_CELL + 2
    coarse = rng.normal(0.0, BG_NOISE, size=(gh, gw, 3))
    fy = np.arange(height) / BG_CELL
    fx = np.arange(width) / BG_CELL
    y0, x0 = fy.astype(int), fx.astype(int)
    wy, wx = (fy - y0)[:, None, None], (fx - x0)[None, :, None]
    img = ((1 - wy) * ((1 - wx) * coarse[y0][:, x0] + wx * coarse[y0][:, x0 + 1])
           + wy * ((1 - wx) * coarse[y0 + 1][:, x0] + wx * coarse[y0 + 1][:, x0 + 1]))
    img = img + np.array(MEAN_RGB) + rng.normal(0.0, FINE_NOISE, size=img.shape)
    img = np.clip(img, 0, 255).astype(np.uint8)

    objects: list[SceneObject] = []
    placed: list[tuple[float, float, float, float]] = []
    # every scene holds the same mix of classes, sizes and colours, shuffled;
    # only placement and noise vary, so the work per scene varies little
    n = OBJECTS_PER_SCENE
    labels = rng.permutation(["face", "mask"] * (n // 2))
    sides = rng.permutation(np.linspace(*OBJECT_SIDE, n))
    for k, label in enumerate(labels):
        for _ in range(200):
            rx = sides[k] / 2
            ry = rx * rng.uniform(1.15, 1.35)
            cx = rng.uniform(rx, width - rx)
            cy = rng.uniform(ry, height - ry)
            box = (cx - rx, cy - ry, cx + rx, cy + ry)
            if all(box[2] < p[0] or p[2] < box[0] or box[3] < p[1] or p[3] < box[1]
                   for p in placed):
                break
        else:
            raise RuntimeError("could not place a non-overlapping object")
        placed.append(box)
        skin = SKIN[k % len(SKIN)]
        _ellipse(img, cx, cy, rx, ry, skin)
        eye_r = max(1.5, rx * 0.12)
        for side in (-1, 1):
            _ellipse(img, cx + side * rx * 0.38, cy - ry * 0.2, eye_r, eye_r,
                     (25, 20, 20))
        if label == "mask":
            colour = MASK_COLOURS[k % len(MASK_COLOURS)]
            _rect(img, cx - rx * 0.85, cy + ry * 0.05, cx + rx * 0.85,
                  cy + ry * 0.8, colour)
            for side in (-1, 1):
                _rect(img, cx + side * rx * 0.85 - 1, cy - ry * 0.1,
                      cx + side * rx * 0.85 + 1, cy + ry * 0.3, colour)
        else:
            _rect(img, cx - rx * 0.3, cy + ry * 0.45, cx + rx * 0.3,
                  cy + ry * 0.52, (120, 40, 40))
        x0, y0 = max(0.0, box[0]), max(0.0, box[1])
        x1, y1 = min(float(width), box[2]), min(float(height), box[3])
        objects.append(SceneObject(str(label), (round(x0, 3), round(y0, 3),
                                                round(x1, 3), round(y1, 3))))
    return img, objects


def scene_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def write_scenes(out_dir: Path, seed: int, first: int, count: int):
    """Write scenes ``first`` .. ``first + count - 1`` as PPM files.

    Returns the ground-truth records.
    """
    from maskdet.images import save_ppm

    out_dir.mkdir(parents=True, exist_ok=True)
    scenes = [(f"scene-{i:03d}", scene_rng(seed, i), SOURCE_SIZES[i % 4])
              for i in range(first, first + count)]
    records = []
    for name, rng, (width, height) in scenes:
        pixels, objects = render_scene(rng, width, height)
        save_ppm(out_dir / f"{name}.ppm", pixels)
        records.append({"id": name, "width": width, "height": height,
                        "objects": [{"class": o.label, "box": list(o.box)}
                                    for o in objects]})
    return records


def write_json(path: Path, records) -> None:
    path.write_text(json.dumps({"images": records}, separators=(",", ":")) + "\n")


def _softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _bisect(f, lo, hi, steps=50):
    """Root of the increasing function ``f`` on [lo, hi] by bisection."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fit_cls_head(z):
    """Fit (cls_scale, face_bias, mask_bias) to raw logits ``z`` of shape (n, 3).

    For a given scale, each foreground bias is set to the smallest value at
    which ``DENSE_PASS`` anchors per image reach ``DENSE_TC`` in that class
    (the other class's bias held fixed; a few alternations settle both).  The
    scale is bisected so that ``SPARSE_PASS`` anchors per image reach
    ``SPARSE_TC`` in either class: a smaller scale flattens the softmax, so
    fewer anchors reach the high threshold for the same low-threshold count.
    """
    images = z.shape[0] / 16800
    dense_n = int(round(DENSE_PASS * images))
    logit_tc = math.log(DENSE_TC / (1 - DENSE_TC))

    def biases(scale):
        b = np.zeros(3)
        for _ in range(6):
            for k, j in ((1, 2), (2, 1)):
                # p_k >= tc  <=>  b_k >= logit(tc) + log(e^z0 + e^(zj+bj)) - zk
                need = (logit_tc + np.logaddexp(scale * z[:, 0],
                                                scale * z[:, j] + b[j])
                        - scale * z[:, k])
                b[k] = np.partition(need, dense_n - 1)[dense_n - 1]
        return b

    def sparse_excess(log_scale):
        scale = math.exp(log_scale)
        p = _softmax(z * scale + biases(scale))
        return np.sum(p[:, 1:].max(axis=1) >= SPARSE_TC) - SPARSE_PASS * images

    scale = math.exp(_bisect(sparse_excess, math.log(1e-4), math.log(10.0),
                             steps=40))
    b = biases(scale)
    return scale, float(b[1]), float(b[2])


def calibrate(store, config, scenes):
    """Fit the calibration on the raw head outputs for ``scenes``.

    The uncalibrated heads have zero bias, so their outputs are linear in
    the head weights: scaling a weight scales its output.  ``loc_scale``
    brings the 99.9th percentile of |offset| to ``LOC_TARGET``; the cls
    head is fitted by :func:`fit_cls_head`.
    """
    from maskdet.images import preprocess
    from maskdet.model import build_model, model_forward

    model = build_model(config, store)
    preds = [model_forward(model, preprocess(px, config.input_size))
             for px in scenes]
    loc = np.concatenate([p.loc for p in preds]).astype(np.float64)
    cls = np.concatenate([p.cls for p in preds]).astype(np.float64)
    loc_scale = LOC_TARGET / float(np.quantile(np.abs(loc), 0.999))
    cls_scale, face_bias, mask_bias = fit_cls_head(cls)
    return {"loc_scale": loc_scale, "cls_scale": cls_scale,
            "face_bias": face_bias, "mask_bias": mask_bias}


def calibrated_store(config, seed: int, scenes):
    from maskdet.model import init_reference_weights

    store = init_reference_weights(config, seed)
    fit = calibrate(store, config, scenes)
    a, k = config.anchors_per_cell, config.num_classes
    for lvl in range(config.num_levels):
        store[f"head{lvl}.loc.weight"] = (store[f"head{lvl}.loc.weight"]
                                          * np.float32(fit["loc_scale"]))
        store[f"head{lvl}.cls.weight"] = (store[f"head{lvl}.cls.weight"]
                                          * np.float32(fit["cls_scale"]))
        bias = np.zeros(a * k, dtype=np.float32)
        bias[1::k] = fit["face_bias"]
        bias[2::k] = fit["mask_bias"]
        store[f"head{lvl}.cls.bias"] = bias
    return store, fit


def generate(out_dir: Path, seed: int) -> dict:
    """Write one workload's inputs under ``out_dir``; returns their manifest.

    The scenes are split into ``SETS`` directories ``set<j>/`` of
    ``SCENES_PER_SET`` each, each with its own ``images/`` and ``gt.json``.
    The calibrated weight store is ``weights.rfmw``.
    """
    from maskdet.model import ModelConfig
    from maskdet.weights_io import save_weights

    config = ModelConfig()
    objects = 0
    for j in range(SETS):
        set_dir = out_dir / f"set{j}"
        records = write_scenes(set_dir / "images", seed, j * SCENES_PER_SET,
                               SCENES_PER_SET)
        write_json(set_dir / "gt.json", records)
        objects += sum(len(r["objects"]) for r in records)
    calib = [render_scene(scene_rng(CALIBRATED_SEED, i), 640, 640)[0]
             for i in range(CALIBRATION_SCENES)]
    store, fit = calibrated_store(config, CALIBRATED_SEED, calib)
    info = {"seed": seed, "weights_seed": CALIBRATED_SEED, "sets": SETS,
            "images_per_set": SCENES_PER_SET, "objects": objects,
            "calibration": fit}
    save_weights(store, out_dir / "weights.rfmw")
    return info

