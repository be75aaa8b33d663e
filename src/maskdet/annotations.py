"""Annotation and detection interchange in a small canonical JSON dialect.

Schema::

    {"images": [{"id": str, "width": int, "height": int,
                 "objects": [{"class": "face" | "mask",
                              "box": [x_min, y_min, x_max, y_max],
                              "confidence": float     # detections only
                             }, ...]}, ...]}

Serialization is canonical: compact separators, keys in the order shown,
floats rendered with six decimal places and a trailing newline, so equal
data always produces byte-identical files.  In memory an image is an
:class:`ImageRecord` that holds its objects as aligned arrays (labels,
``(k, 4)`` boxes and confidences), and files are checked and written one
such record at a time; a record without confidences writes 0.  The
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
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .anchors import FACE, MASK

CLASS_NAMES = {FACE: "face", MASK: "mask"}
CLASS_LABELS = {name: label for label, name in CLASS_NAMES.items()}
NUMBER_TYPES = {int, float}     # what json reads a JSON number as; not bool


class AnnotationError(ValueError):
    """Raised for malformed annotation or detection files."""


@dataclass
class ImageRecord:
    """One image's objects as aligned arrays, row by row: ``labels`` is
    ``(k,)`` int64 (FACE or MASK), ``boxes`` is ``(k, 4)`` float64 corner
    form and ``confidences`` is ``(k,)`` float64, or None in an annotation
    file."""

    image_id: str
    width: int
    height: int
    labels: np.ndarray
    boxes: np.ndarray
    confidences: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.labels)


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
    with a non-finite value never loads.  Six-decimal rounding is monotonic
    and keeps 0 and the integer image extents, so it commutes with clipping:
    a clipped box that is not positive stays so, and rounding moves a
    clipped side by at most 1e-6.  Only the rows left with a positive width
    or height of at most 2e-6 are therefore formatted and clipped again as
    the loader will read them.
    """
    boxes = np.reshape(np.asarray(boxes, dtype=np.float64), (-1, 4))
    clipped, ok = _clip_boxes(boxes, width, height)
    extents = np.minimum(clipped[:, 2] - clipped[:, 0],
                         clipped[:, 3] - clipped[:, 1])
    thin = ok & (extents <= 2e-6)
    if thin.any():
        written = [float(_fmt(v)) for v in boxes[thin].ravel().tolist()]
        ok[thin] = _clip_boxes(np.reshape(written, (-1, 4)), width, height)[1]
    return ok


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

    The objects are read by column: one comprehension each for ``class``,
    ``box`` and, in a detection file, ``confidence``.  The classes are
    checked in bulk to be exactly ``str`` and then turned into labels by a
    dict lookup.  Only when a field is missing, a class is not exactly a
    ``str`` or a class is unknown are the objects walked one by one, to
    name the first with such a fault.  The value types are then checked in
    bulk the same way: each box must be an array of 4 JSON numbers and
    each confidence a JSON number (``true`` and ``false`` are not
    numbers), and only when that fails are the objects walked again to
    name the first bad one.  The boxes are then clipped as one array, and
    when every clipped row is finite with positive extents, which rules out
    a non-finite or inverted row as clipping is monotone, that one test
    clears them all.  Otherwise they are checked in turn for non-finite,
    inverted and, after clipping, degenerate rows.  Then the confidences
    are checked for non-finite values.  Each of these checks names its
    first failing object, which need not be the first faulty one in the
    image.
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
        if value > sys.float_info.max:
            raise AnnotationError(f"image '{image_id}': '{key}' is too large "
                                  f"for a float, got an integer of "
                                  f"{len(str(value))} digits")
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
    try:
        classes = [obj["class"] for obj in objects]
        rows = [obj["box"] for obj in objects]
        confidences = ([obj["confidence"] for obj in objects]
                       if with_confidence else [])
        labels = ([CLASS_LABELS[cls] for cls in classes]
                  if set(map(type, classes)) <= {str} else None)
    except KeyError:        # a missing field or an unknown class
        labels = None
    if labels is None:      # names the first object with a bad field
        for obj in objects:
            cls = need(obj, "class", "object")
            if type(cls) is not str or cls not in CLASS_LABELS:
                raise AnnotationError(f"image '{image_id}': unknown class "
                                      f"'{cls}' (expected 'face' or 'mask')")
            need(obj, "box", "object")
            if with_confidence:
                need(obj, "confidence", "object")
    arrays = set(map(type, rows)) <= {list}
    values = list(chain.from_iterable(rows)) if arrays else []
    if not (arrays and set(map(len, rows)) <= {4}
            and set(map(type, values)) <= NUMBER_TYPES):
        reject([_is_box(row) for row in rows], lambda i: _box_fault(rows[i]))
    if not set(map(type, confidences)) <= NUMBER_TYPES:
        reject([type(c) in NUMBER_TYPES for c in confidences],
               lambda i: f"confidence must be a number, got "
                         f"{json.dumps(confidences[i])}")
    boxes = _floats(values).reshape(-1, 4)
    clipped, ok = _clip_boxes(boxes, width, height)
    if not ok.all():    # the first check that fails names its first bad row
        reject(np.isfinite(boxes).all(axis=1),
               lambda i: f"non-finite box {boxes[i].tolist()}")
        reject((boxes[:, 0] <= boxes[:, 2]) & (boxes[:, 1] <= boxes[:, 3]),
               lambda i: f"inverted box {boxes[i].tolist()}")
        reject(ok, lambda i: f"degenerate box {rows[i]} after clipping to "
                             f"{width}x{height}")
    scores = None
    if with_confidence:
        scores = _floats(confidences)
        reject(np.isfinite(scores),
               lambda i: f"non-finite confidence {scores[i]}")
    return ImageRecord(image_id, width, height,
                       np.array(labels, dtype=np.int64), clipped, scores)


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


# One detection object in canonical form.  Each ``%.6f`` renders a value
# exactly as ``_fmt`` does.
OBJECT_TEMPLATE = ('{"class":"%s","box":[%.6f,%.6f,%.6f,%.6f],'
                   '"confidence":%.6f}')


def serialize_detections(records: list[ImageRecord]) -> str:
    """Render detection records in the canonical byte-stable form.

    Raises AnnotationError naming the image when a box or confidence is not
    finite, because no reader accepts such a file.
    """
    image_parts = []
    for rec in records:
        confs = (np.zeros(len(rec)) if rec.confidences is None
                 else rec.confidences)
        if not (np.isfinite(rec.boxes).all() and np.isfinite(confs).all()):
            raise AnnotationError(f"image '{rec.image_id}': cannot write a "
                                  f"non-finite box or confidence")
        object_parts = [OBJECT_TEMPLATE % (CLASS_NAMES[label], *box, conf)
                        for label, box, conf in zip(rec.labels.tolist(),
                                                    rec.boxes.tolist(),
                                                    confs.tolist())]
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
