"""Binary PPM (P6) ingestion and network input preprocessing.

The detector eats (1, 3, s, s) float32 tensors in blue-green-red channel
order with per-channel means subtracted and no further scaling.  PPM was
chosen as the one mandatory image format because it decodes exactly with no
codec dependency; converting other formats is the caller's concern.
"""

from __future__ import annotations

import numpy as np

DEFAULT_MEANS = (104.0, 117.0, 123.0)    # BGR order


def load_ppm(path) -> np.ndarray:
    """Read an 8-bit binary PPM into an (h, w, 3) uint8 RGB array."""
    with open(path, "rb") as fh:
        data = fh.read()

    pos = 0

    def next_token():
        nonlocal pos
        while pos < len(data):
            ch = data[pos:pos + 1]
            if ch == b"#":
                while pos < len(data) and data[pos:pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif ch.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError(f"{path}: truncated PPM header")
        return data[start:pos]

    def next_int(field):    # ASCII decimal digits, with an optional "-"
        token = next_token()
        try:
            if token.removeprefix(b"-").isdigit():
                return int(token)
        except ValueError:      # more digits than int() reads
            pass
        raise ValueError(f"{path}: PPM {field} must be an integer, got "
                         f"{token!r}")

    magic = next_token()
    if magic != b"P6":
        raise ValueError(f"{path}: unsupported format {magic!r}, expected "
                         f"binary PPM (P6)")
    width = next_int("width")
    height = next_int("height")
    if width < 1 or height < 1:
        raise ValueError(f"{path}: image extents must be positive, got "
                         f"width {width} and height {height}")
    maxval = next_int("maxval")
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}, only 8-bit "
                         f"(255) PPM is accepted")
    pos += 1    # single whitespace byte after maxval
    expected = width * height * 3
    pixels = data[pos:pos + expected]
    if len(pixels) < expected:
        raise ValueError(f"{path}: truncated pixel data ({len(pixels)} of "
                         f"{expected} bytes)")
    extra = len(data) - pos - expected
    if extra > 0:
        raise ValueError(f"{path}: {extra} bytes after the pixel data "
                         f"(multi-image PPM is not supported)")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width, 3).copy()


def save_ppm(path, pixels: np.ndarray) -> None:
    """Write an (h, w, 3) uint8 RGB array as binary PPM."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError(f"expected (h, w, 3) pixels, got {pixels.shape}")
    h, w = pixels.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def _nearest(source: int, target: int) -> np.ndarray:
    """Source index of each of ``target`` nearest-neighbour samples."""
    return (np.arange(target) * source) // target


def resize_nearest(pixels: np.ndarray, target_h: int, target_w: int) -> np.ndarray:
    """Nearest-neighbor resize of an (h, w, c) array."""
    h, w = pixels.shape[:2]
    return pixels[_nearest(h, target_h)][:, _nearest(w, target_w)]


def preprocess(pixels: np.ndarray, target_size: int,
               means=DEFAULT_MEANS) -> np.ndarray:
    """RGB pixels -> (1, 3, s, s) float32 BGR tensor with means subtracted.

    Each plane is gathered by rows, then by columns, with the
    :func:`resize_nearest` indices, and its mean is subtracted as it is
    written into the float32 output.
    """
    h, w = pixels.shape[:2]
    rows, cols = _nearest(h, target_size), _nearest(w, target_size)
    out = np.empty((1, 3, target_size, target_size), dtype=np.float32)
    for plane, channel in enumerate((2, 1, 0)):    # RGB -> BGR
        picked = np.take(pixels[:, :, channel], rows, axis=0, mode="clip")
        np.subtract(np.take(picked, cols, axis=1, mode="clip"),
                    np.float32(means[plane]), out=out[0, plane])
    return out


def load_image(path, target_size: int, means=DEFAULT_MEANS) -> np.ndarray:
    """Load a PPM and preprocess it into a network input tensor."""
    return preprocess(load_ppm(path), target_size, means)
