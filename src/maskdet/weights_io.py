"""On-disk weights container.

Layout: 4-byte magic ``RFMW``, a 4-byte little-endian manifest length, a
UTF-8 JSON manifest (array of {"name", "shape", "offset"} objects, offsets
in bytes relative to the start of the blob section), then the raw
little-endian float32 blobs, contiguous and in manifest order.  Loading
validates the magic, the manifest, every offset and the total length, so a
corrupt file never yields a partially usable store.

A loaded store maps names to read-only float32 arrays; saving a store and
reloading it reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

MAGIC = b"RFMW"


class WeightsFormatError(ValueError):
    """Raised for any structural problem in a weights file."""


def save_weights(store: dict[str, np.ndarray], path) -> None:
    """Serialize an ordered name -> tensor map to the container format."""
    manifest = []
    blobs = []
    offset = 0
    for name, arr in store.items():
        data = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        manifest.append({"name": name, "shape": list(arr.shape),
                         "offset": offset})
        blobs.append(data)
        offset += len(data)
    manifest_bytes = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(manifest_bytes)))
        fh.write(manifest_bytes)
        for data in blobs:
            fh.write(data)


def load_weights(path) -> dict[str, np.ndarray]:
    """Load and validate a weights container; arrays come back read-only."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise WeightsFormatError(f"bad magic {raw[:4]!r}, expected {MAGIC!r}")
    if len(raw) < 8:
        raise WeightsFormatError("file truncated before manifest length")
    (manifest_len,) = struct.unpack("<I", raw[4:8])
    manifest_end = 8 + manifest_len
    if len(raw) < manifest_end:
        raise WeightsFormatError("file truncated inside manifest")
    try:
        manifest = json.loads(raw[8:manifest_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WeightsFormatError(f"malformed manifest: {exc}") from exc
    if not isinstance(manifest, list):
        raise WeightsFormatError("malformed manifest: expected a JSON array")

    blob = raw[manifest_end:]
    store: dict[str, np.ndarray] = {}
    expected_offset = 0
    for entry in manifest:
        if (not isinstance(entry, dict)
                or not isinstance(entry.get("name"), str)
                or not isinstance(entry.get("shape"), list)
                or type(entry.get("offset")) is not int):
            raise WeightsFormatError(f"malformed manifest entry: {entry!r}")
        name = entry["name"]
        if name in store:
            raise WeightsFormatError(f"duplicate tensor name '{name}'")
        shape = tuple(entry["shape"])
        if any(type(s) is not int or s < 0 for s in shape):
            raise WeightsFormatError(f"invalid shape {shape} for '{name}'")
        if entry["offset"] != expected_offset:
            raise WeightsFormatError(f"tensor '{name}' at offset "
                                     f"{entry['offset']}, expected "
                                     f"{expected_offset} (blobs must be "
                                     f"contiguous)")
        nbytes = math.prod(shape) * 4
        if expected_offset + nbytes > len(blob):
            raise WeightsFormatError(f"blob for '{name}' truncated: needs "
                                     f"{nbytes} bytes at offset "
                                     f"{expected_offset}, blob section has "
                                     f"{len(blob)}")
        arr = np.frombuffer(blob, dtype="<f4", count=nbytes // 4,
                            offset=expected_offset)
        try:
            store[name] = arr.reshape(shape)    # a view of bytes: read-only
        except ValueError as exc:
            raise WeightsFormatError(f"invalid shape {shape} for "
                                     f"'{name}': {exc}") from exc
        expected_offset += nbytes
    if expected_offset != len(blob):
        raise WeightsFormatError(f"blob section has {len(blob)} bytes but "
                                 f"manifest accounts for {expected_offset}")
    return store
