"""Annotation and detection interchange in a small canonical JSON dialect.

Schema::

    {"images": [{"id": str, "width": int, "height": int,
                 "objects": [{"class": "face" | "mask",
                              "box": [x_min, y_min, x_max, y_max],
                              "confidence": float     # detections only
                             }, ...]}, ...]}

Serialization is canonical: compact separators, keys in the order shown,
floats rendered with six decimal places and a trailing newline, so equal
data always produces byte-identical files.  Validation clips boxes to the
image extents and rejects non-finite numbers, inverted or zero-area boxes,
unknown class strings and missing fields, always naming the offending image
id.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .anchors import FACE, MASK

CLASS_NAMES = {FACE: "face", MASK: "mask"}
CLASS_LABELS = {name: label for label, name in CLASS_NAMES.items()}


class AnnotationError(ValueError):
    """Raised for malformed annotation or detection files."""


@dataclass
class AnnotatedObject:
    label: int                       # FACE or MASK
    box: np.ndarray                  # (4,) float64 corner form
    confidence: float | None = None  # present in detection files


@dataclass
class ImageRecord:
    image_id: str
    width: int
    height: int
    objects: list[AnnotatedObject]

    def labels(self) -> np.ndarray:
        return np.array([o.label for o in self.objects], dtype=np.int64)

    def boxes(self) -> np.ndarray:
        if not self.objects:
            return np.zeros((0, 4), dtype=np.float64)
        return np.stack([o.box for o in self.objects])


def _clip_box(box, width, height) -> np.ndarray | None:
    """``box`` clipped to a ``width`` x ``height`` image, as a new array.

    Returns None when the clipped box has no positive width or height: the
    loaders reject such a box as degenerate.
    """
    w, h = float(width), float(height)
    box = np.minimum(np.maximum(np.asarray(box, dtype=np.float64), 0.0),
                     np.array([w, h, w, h]))
    x_min, y_min, x_max, y_max = box.tolist()
    if x_min >= x_max or y_min >= y_max:
        return None
    return box


def loads_back(box, width, height) -> bool:
    """Whether ``box`` survives being written and loaded again.

    Files carry six decimals, so a box thinner than that can load with zero
    width or height although it had a positive extent when written.
    """
    return _clip_box([float(_fmt(v)) for v in box], width, height) is not None


def _parse_image(entry, with_confidence: bool) -> ImageRecord:
    image_id = entry.get("id")
    if not isinstance(image_id, str):
        raise AnnotationError(f"image entry missing string 'id': {entry!r}")

    def need(obj, key, where):
        if key not in obj:
            raise AnnotationError(f"image '{image_id}': missing field "
                                  f"'{key}' in {where}")
        return obj[key]

    width = need(entry, "width", "image entry")
    height = need(entry, "height", "image entry")
    objects = []
    for obj in need(entry, "objects", "image entry"):
        cls = need(obj, "class", "object")
        if cls not in CLASS_LABELS:
            raise AnnotationError(f"image '{image_id}': unknown class "
                                  f"'{cls}' (expected 'face' or 'mask')")
        box = np.asarray(need(obj, "box", "object"), dtype=np.float64)
        if box.shape != (4,):
            raise AnnotationError(f"image '{image_id}': box must have 4 "
                                  f"coordinates, got {box.tolist()}")
        if not np.isfinite(box).all():
            raise AnnotationError(f"image '{image_id}': non-finite box "
                                  f"{box.tolist()}")
        if box[0] > box[2] or box[1] > box[3]:
            raise AnnotationError(f"image '{image_id}': inverted box "
                                  f"{box.tolist()}")
        box = _clip_box(box, width, height)
        if box is None:
            raise AnnotationError(f"image '{image_id}': degenerate box "
                                  f"{obj['box']} after clipping to "
                                  f"{width}x{height}")
        confidence = None
        if with_confidence:
            confidence = float(need(obj, "confidence", "object"))
            if not math.isfinite(confidence):
                raise AnnotationError(f"image '{image_id}': non-finite "
                                      f"confidence {confidence}")
        objects.append(AnnotatedObject(CLASS_LABELS[cls], box, confidence))
    return ImageRecord(image_id, int(width), int(height), objects)


def _load(path, with_confidence: bool) -> list[ImageRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise AnnotationError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("images"), list):
        raise AnnotationError(f"{path}: expected an object with an 'images' array")
    records = [_parse_image(entry, with_confidence) for entry in doc["images"]]
    seen = set()
    for rec in records:
        if rec.image_id in seen:
            raise AnnotationError(f"duplicate image id '{rec.image_id}'")
        seen.add(rec.image_id)
    return records


def load_annotations(path) -> list[ImageRecord]:
    """Load a ground-truth annotation file."""
    return _load(path, with_confidence=False)


def load_detections(path) -> list[ImageRecord]:
    """Load a detection file (objects must carry a confidence)."""
    return _load(path, with_confidence=True)


def _fmt(value: float) -> str:
    return f"{float(value):.6f}"


def serialize_detections(records: list[ImageRecord]) -> str:
    """Render detection records in the canonical byte-stable form."""
    image_parts = []
    for rec in records:
        object_parts = []
        for obj in rec.objects:
            box = ",".join(_fmt(v) for v in obj.box)
            conf = 0.0 if obj.confidence is None else obj.confidence
            object_parts.append(f'{{"class":"{CLASS_NAMES[obj.label]}",'
                                f'"box":[{box}],'
                                f'"confidence":{_fmt(conf)}}}')
        image_parts.append(f'{{"id":{_json_str(rec.image_id)},'
                           f'"width":{rec.width},"height":{rec.height},'
                           f'"objects":[{",".join(object_parts)}]}}')
    return '{"images":[' + ",".join(image_parts) + "]}\n"


def _json_str(s: str) -> str:
    return json.dumps(s, ensure_ascii=False)


def save_detections(records: list[ImageRecord], path) -> None:
    """Write detection records to ``path`` in canonical form."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(serialize_detections(records))
