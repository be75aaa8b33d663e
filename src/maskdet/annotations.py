"""Annotation and detection interchange in a small canonical JSON dialect.

Schema::

    {"images": [{"id": str, "width": int, "height": int,
                 "objects": [{"class": "face" | "mask",
                              "box": [x_min, y_min, x_max, y_max],
                              "confidence": float     # detections only
                             }, ...]}, ...]}

Serialization is canonical: compact separators, keys in the order shown,
floats rendered with six decimal places and a trailing newline, so equal
data always produces byte-identical files.  Files are checked and written
one image at a time, with the image's boxes as one ``(k, 4)`` array.  The
readers require ``width`` and ``height`` to be integers of at least 1 and
every box value and confidence to be a JSON number (never a string, bool
or null), clip boxes to the extents and reject non-finite numbers (an
integer too large for a float counts), inverted or zero-area boxes,
unknown class strings and missing fields; the writer refuses non-finite
values.  Every error names the offending image id, or the file when it
cannot be read as JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .anchors import FACE, MASK

CLASS_NAMES = {FACE: "face", MASK: "mask"}
CLASS_LABELS = {name: label for label, name in CLASS_NAMES.items()}
NUMBER_TYPES = {int, float}     # what json reads a JSON number as; not bool


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
        return np.reshape([o.box for o in self.objects], (-1, 4))


def _clip_boxes(boxes: np.ndarray, width, height):
    """``(k, 4)`` boxes clipped to a ``width`` x ``height`` image, as a new
    array, and the mask of finite rows left with positive extents."""
    w, h = float(width), float(height)
    clipped = np.minimum(np.maximum(boxes, 0.0), np.array([w, h, w, h]))
    ok = (clipped[:, 0] < clipped[:, 2]) & (clipped[:, 1] < clipped[:, 3])
    return clipped, ok & np.isfinite(boxes).all(axis=1)


def loads_back(boxes, width, height) -> np.ndarray:
    """The ``(k,)`` mask of rows of one image's ``(k, 4)`` ``boxes`` that
    load back once written; the detect command writes only those rows.

    Files carry six decimals, so a box thinner than that can load with zero
    width or height although it had a positive extent when written.  A box
    with a non-finite value never loads.
    """
    written = np.reshape([float(_fmt(v)) for v in np.ravel(boxes).tolist()],
                         (-1, 4))
    return _clip_boxes(written, width, height)[1]


def _as_floats(value):
    """``value`` with each JSON number as a float and lists kept, or ``None``
    when it holds anything else.  An integer beyond the float range becomes
    an infinity of its sign, so the finiteness checks reject it."""
    if type(value) is list:
        items = [_as_floats(v) for v in value]
        return None if None in items else items
    if type(value) not in NUMBER_TYPES:
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _floats(values: list) -> np.ndarray:
    """A flat list of JSON numbers as a float64 array."""
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        return np.array(_as_floats(values), dtype=np.float64)


def _is_box(box) -> bool:
    return (type(box) is list and len(box) == 4
            and set(map(type, box)) <= NUMBER_TYPES)


def _box_fault(box) -> str:
    """Why ``box``, which is not an array of 4 JSON numbers, is rejected."""
    floats = _as_floats(box)
    if floats is None:
        return f"box values must be numbers, got {json.dumps(box)}"
    return f"box must have 4 coordinates, got {floats}"


def _parse_image(entry, with_confidence: bool) -> ImageRecord:
    """Check one image entry.  ``width`` and ``height`` must be integers >= 1.

    One plain-Python walk reads each object's ``class``, ``box`` and, in a
    detection file, ``confidence``.  The value types are then checked in
    bulk: each box must be an array of 4 JSON numbers and each confidence a
    JSON number (``true`` and ``false`` are not numbers); only when that
    fails are the objects walked again to name the first bad one.  The
    boxes are then checked as one array for non-finite, inverted and, after
    clipping, degenerate rows, and then the confidences for non-finite
    values.  Each of these checks names its first failing object, which
    need not be the first faulty one in the image.
    """
    if type(entry) is not dict:
        raise AnnotationError(f"image entry must be an object, got "
                              f"{json.dumps(entry)}")
    image_id = entry.get("id")
    if not isinstance(image_id, str):
        raise AnnotationError(f"image entry missing string 'id': {entry!r}")

    def need(obj, key, where):
        if key not in obj:
            raise AnnotationError(f"image '{image_id}': missing field "
                                  f"'{key}' in {where}")
        return obj[key]

    def extent(key):
        value = need(entry, key, "image entry")
        if type(value) is not int or value < 1:
            raise AnnotationError(f"image '{image_id}': '{key}' must be an "
                                  f"integer of at least 1, got "
                                  f"{json.dumps(value)}")
        return value

    def reject(ok, fault):      # names the first row that is not ok
        ok = np.asarray(ok, dtype=bool)
        if not ok.all():
            raise AnnotationError(f"image '{image_id}': {fault(ok.argmin())}")

    width, height = extent("width"), extent("height")
    objects = need(entry, "objects", "image entry")
    if type(objects) is not list:
        raise AnnotationError(f"image '{image_id}': 'objects' must be an "
                              f"array, got {json.dumps(objects)}")
    if not set(map(type, objects)) <= {dict}:
        reject([type(obj) is dict for obj in objects],
               lambda i: f"each object must be a JSON object, got "
                         f"{json.dumps(objects[i])}")
    labels, rows, confidences = [], [], []
    for obj in objects:
        cls = need(obj, "class", "object")
        if type(cls) is not str or cls not in CLASS_LABELS:
            raise AnnotationError(f"image '{image_id}': unknown class "
                                  f"'{cls}' (expected 'face' or 'mask')")
        labels.append(CLASS_LABELS[cls])
        rows.append(need(obj, "box", "object"))
        if with_confidence:
            confidences.append(need(obj, "confidence", "object"))
    arrays = set(map(type, rows)) <= {list}
    values = [v for row in rows for v in row] if arrays else []
    if not (arrays and set(map(len, rows)) <= {4}
            and set(map(type, values)) <= NUMBER_TYPES):
        reject([_is_box(row) for row in rows], lambda i: _box_fault(rows[i]))
    if not set(map(type, confidences)) <= NUMBER_TYPES:
        reject([type(c) in NUMBER_TYPES for c in confidences],
               lambda i: f"confidence must be a number, got "
                         f"{json.dumps(confidences[i])}")
    boxes = _floats(values).reshape(-1, 4)
    reject(np.isfinite(boxes).all(axis=1),
           lambda i: f"non-finite box {boxes[i].tolist()}")
    reject((boxes[:, 0] <= boxes[:, 2]) & (boxes[:, 1] <= boxes[:, 3]),
           lambda i: f"inverted box {boxes[i].tolist()}")
    clipped, ok = _clip_boxes(boxes, width, height)
    reject(ok, lambda i: f"degenerate box {rows[i]} after clipping to "
                         f"{width}x{height}")
    if with_confidence:
        scores = _floats(confidences)
        reject(np.isfinite(scores),
               lambda i: f"non-finite confidence {scores[i]}")
        confidences = scores.tolist()
    else:
        confidences = [None] * len(labels)
    objects = [AnnotatedObject(*f) for f in zip(labels, clipped, confidences)]
    return ImageRecord(image_id, width, height, objects)


def _load(path, with_confidence: bool) -> list[ImageRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        # bad syntax, bad UTF-8 or an integer beyond int()'s digit limit
        except ValueError as exc:
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
    """Render detection records in the canonical byte-stable form.

    Raises AnnotationError naming the image when a box or confidence is not
    finite, because no reader accepts such a file.
    """
    image_parts = []
    for rec in records:
        boxes = rec.boxes()
        confs = [0.0 if o.confidence is None else o.confidence
                 for o in rec.objects]
        if not (np.isfinite(boxes).all() and np.isfinite(confs).all()):
            raise AnnotationError(f"image '{rec.image_id}': cannot write a "
                                  f"non-finite box or confidence")
        object_parts = [f'{{"class":"{CLASS_NAMES[obj.label]}",'
                        f'"box":[{",".join(map(_fmt, box))}],'
                        f'"confidence":{_fmt(conf)}}}'
                        for obj, box, conf in zip(rec.objects, boxes.tolist(),
                                                  confs)]
        image_id = json.dumps(rec.image_id, ensure_ascii=False)
        image_parts.append(f'{{"id":{image_id},'
                           f'"width":{rec.width},"height":{rec.height},'
                           f'"objects":[{",".join(object_parts)}]}}')
    return '{"images":[' + ",".join(image_parts) + "]}\n"


def save_detections(records: list[ImageRecord], path) -> None:
    """Write detection records to ``path`` in canonical form.

    The records are rendered before ``path`` is opened, so a record that
    cannot be written leaves ``path`` as it was.
    """
    text = serialize_detections(records)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
