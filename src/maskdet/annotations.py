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
readers require ``width`` and ``height`` to be integers of at least 1, clip
boxes to them and reject non-finite numbers, inverted or zero-area boxes,
unknown class strings and missing fields; the writer refuses non-finite
values.  Every error names the offending image id.
"""

from __future__ import annotations

import json
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


def _parse_image(entry, with_confidence: bool) -> ImageRecord:
    """Check one image entry.  ``width`` and ``height`` must be integers >= 1.

    One plain-Python walk reads each object's ``class``, ``box`` and, in a
    detection file, ``confidence``.  The boxes are then checked as one array
    for non-finite, inverted and, after clipping, degenerate rows, and then
    the confidences for non-finite values.  The first check that fails names
    its first object, which need not be the first faulty one in the image.
    """
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
        if not ok.all():
            raise AnnotationError(f"image '{image_id}': {fault(ok.argmin())}")

    width, height = extent("width"), extent("height")
    labels, rows, confidences = [], [], []
    for obj in need(entry, "objects", "image entry"):
        cls = need(obj, "class", "object")
        if cls not in CLASS_LABELS:
            raise AnnotationError(f"image '{image_id}': unknown class "
                                  f"'{cls}' (expected 'face' or 'mask')")
        labels.append(CLASS_LABELS[cls])
        rows.append(need(obj, "box", "object"))
        confidences.append(float(need(obj, "confidence", "object"))
                           if with_confidence else None)
    try:
        boxes = np.array(rows or np.empty((0, 4)), dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        boxes = None
    if boxes is None or boxes.shape[1:] != (4,):
        # a malformed box: converted alone, each raises its own error
        alone = [np.asarray(row, dtype=np.float64) for row in rows]
        reject(np.array([box.shape == (4,) for box in alone]),
               lambda i: f"box must have 4 coordinates, got "
                         f"{alone[i].tolist()}")
    reject(np.isfinite(boxes).all(axis=1),
           lambda i: f"non-finite box {boxes[i].tolist()}")
    reject((boxes[:, 0] <= boxes[:, 2]) & (boxes[:, 1] <= boxes[:, 3]),
           lambda i: f"inverted box {boxes[i].tolist()}")
    clipped, ok = _clip_boxes(boxes, width, height)
    reject(ok, lambda i: f"degenerate box {rows[i]} after clipping to "
                         f"{width}x{height}")
    if with_confidence:
        reject(np.isfinite(confidences),
               lambda i: f"non-finite confidence {confidences[i]}")
    objects = [AnnotatedObject(*f) for f in zip(labels, clipped, confidences)]
    return ImageRecord(image_id, width, height, objects)


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
