import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskdet.annotations import (OBJECT_TEMPLATE, AnnotationError,
                                 ImageRecord, _fmt, _parse_image,
                                 load_annotations, load_detections,
                                 loads_back, save_detections,
                                 serialize_detections)
from maskdet.anchors import FACE, MASK
from maskdet.images import load_image, load_ppm, preprocess, resize_nearest, save_ppm
from maskdet.weights_io import (MAGIC, WeightsFormatError, load_weights,
                                save_weights)


# ------------------------------------------------------------- weights

def random_store(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "backbone.stage1.dw.weight": rng.standard_normal((3, 1, 3, 3)).astype(np.float32),
        "backbone.stage1.dw.bias": rng.standard_normal(3).astype(np.float32),
        "head0.loc.weight": rng.standard_normal((8, 64, 1, 1)).astype(np.float32),
    }


def test_weights_round_trip_bit_exact(tmp_path):
    store = random_store()
    path = tmp_path / "w.rfmw"
    save_weights(store, path)
    loaded = load_weights(path)
    assert list(loaded) == list(store)
    for name in store:
        assert loaded[name].dtype == np.float32
        np.testing.assert_array_equal(loaded[name], store[name])
    # saving the loaded store reproduces the file byte for byte
    path2 = tmp_path / "w2.rfmw"
    save_weights(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_loaded_weights_are_read_only(tmp_path):
    path = tmp_path / "w.rfmw"
    save_weights(random_store(), path)
    loaded = load_weights(path)
    arr = next(iter(loaded.values()))
    with pytest.raises(ValueError):
        arr[0] = 0


def test_weights_bad_magic(tmp_path):
    path = tmp_path / "w.rfmw"
    save_weights(random_store(), path)
    raw = path.read_bytes()
    bad = tmp_path / "bad.rfmw"
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(WeightsFormatError, match="magic"):
        load_weights(bad)


def test_weights_truncated_blob(tmp_path):
    path = tmp_path / "w.rfmw"
    save_weights(random_store(), path)
    trunc = tmp_path / "trunc.rfmw"
    trunc.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(WeightsFormatError, match="truncated"):
        load_weights(trunc)


def test_weights_trailing_garbage(tmp_path):
    path = tmp_path / "w.rfmw"
    save_weights(random_store(), path)
    grown = tmp_path / "grown.rfmw"
    grown.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
    with pytest.raises(WeightsFormatError, match="accounts for"):
        load_weights(grown)


def craft_container(manifest, blob: bytes) -> bytes:
    m = json.dumps(manifest, separators=(",", ":")).encode()
    return MAGIC + struct.pack("<I", len(m)) + m + blob


def test_weights_duplicate_name(tmp_path):
    manifest = [{"name": "a", "shape": [1], "offset": 0},
                {"name": "a", "shape": [1], "offset": 4}]
    path = tmp_path / "dup.rfmw"
    path.write_bytes(craft_container(manifest, b"\x00" * 8))
    with pytest.raises(WeightsFormatError, match="duplicate"):
        load_weights(path)


def test_weights_malformed_manifest(tmp_path):
    path = tmp_path / "mal.rfmw"
    path.write_bytes(MAGIC + struct.pack("<I", 5) + b"{oops" )
    with pytest.raises(WeightsFormatError, match="malformed manifest"):
        load_weights(path)


def test_weights_manifest_not_a_list(tmp_path):
    path = tmp_path / "obj.rfmw"
    path.write_bytes(craft_container({"name": "a"}, b""))
    with pytest.raises(WeightsFormatError, match="array"):
        load_weights(path)


def test_weights_shape_product_mismatch(tmp_path):
    # manifest promises 2 floats (8 bytes) but the blob has 4
    manifest = [{"name": "a", "shape": [2], "offset": 0}]
    path = tmp_path / "short.rfmw"
    path.write_bytes(craft_container(manifest, b"\x00" * 4))
    with pytest.raises(WeightsFormatError, match="truncated"):
        load_weights(path)


def test_weights_non_contiguous_offset(tmp_path):
    manifest = [{"name": "a", "shape": [1], "offset": 4}]
    path = tmp_path / "gap.rfmw"
    path.write_bytes(craft_container(manifest, b"\x00" * 8))
    with pytest.raises(WeightsFormatError, match="contiguous"):
        load_weights(path)


@pytest.mark.parametrize("entry, message", [
    ({"name": "a", "shape": [True, 2], "offset": 0}, "invalid shape .* for 'a'"),
    ({"name": "a", "shape": [2], "offset": False}, "malformed manifest entry"),
])
def test_weights_manifest_booleans_are_not_integers(tmp_path, entry, message):
    path = tmp_path / "bool.rfmw"
    path.write_bytes(craft_container([entry], b"\x00" * 8))
    with pytest.raises(WeightsFormatError, match=message):
        load_weights(path)


@pytest.mark.parametrize("shape", [
    [4294967296, 4294967296], [18446744073709551616], [1] * 65,
    [3, 2**62 + 1], [2**63], [0, 2**70],
])
def test_weights_shape_beyond_int64_names_tensor(tmp_path, shape):
    path = tmp_path / "huge.rfmw"
    path.write_bytes(craft_container([{"name": "a", "shape": shape,
                                       "offset": 0}], b"\x00" * 4))
    with pytest.raises(WeightsFormatError, match="for 'a'"):
        load_weights(path)


def test_weights_truncated_header(tmp_path):
    path = tmp_path / "tiny.rfmw"
    path.write_bytes(b"RFMW\x10")
    with pytest.raises(WeightsFormatError, match="truncated"):
        load_weights(path)


# ----------------------------------------------------------------- PPM

def write_ppm(tmp_path, pixels, name="img.ppm"):
    path = tmp_path / name
    save_ppm(path, pixels)
    return path


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, (5, 7, 3), dtype=np.uint8)
    path = write_ppm(tmp_path, pixels)
    np.testing.assert_array_equal(load_ppm(path), pixels)


@pytest.mark.parametrize("header, error", [
    (b"P6\n# a comment\n2 1\n# another\n255\n", None),
    (b"P6#x 2 1 255\n", "unsupported format b'P6#x'"),
    (b"P6\v2\f1\v255\f", None),
    (b"P6 # ended by a carriage return\r2 1 #\r\r255\r", None),
], ids=["comments", "hash-in-token", "vt-ff", "cr-comment"])
def test_ppm_header_comments(tmp_path, header, error):
    # "#" starts a comment only where a token could start
    path = tmp_path / "c.ppm"
    path.write_bytes(header + bytes(6))
    if error is None:
        assert load_ppm(path).shape == (1, 2, 3)
    else:
        with pytest.raises(ValueError, match=re.escape(error)):
            load_ppm(path)


def test_ppm_wrong_magic(tmp_path):
    path = tmp_path / "p5.ppm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(ValueError, match="unsupported format"):
        load_ppm(path)


def test_ppm_truncated_pixels(tmp_path):
    path = tmp_path / "t.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
    with pytest.raises(ValueError, match="truncated pixel data"):
        load_ppm(path)


def test_ppm_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "two.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(12) + b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(ValueError, match="two.ppm: 23 bytes after the pixel data"):
        load_ppm(path)


def test_ppm_wide_maxval_rejected(tmp_path):
    path = tmp_path / "m.ppm"
    path.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
    with pytest.raises(ValueError, match="maxval"):
        load_ppm(path)


@pytest.mark.parametrize("extents", [b"0 5", b"5 0", b"-3 5", b"5 -3"])
def test_ppm_non_positive_extent_rejected(tmp_path, extents):
    path = tmp_path / "z.ppm"
    path.write_bytes(b"P6\n" + extents + b"\n255\n" + bytes(75))
    width, height = extents.decode().split()
    with pytest.raises(ValueError, match=f"z.ppm.*width {width} and height "
                                         f"{height}"):
        load_ppm(path)


@pytest.mark.parametrize("header, field", [(b"x 5\n255", "width"),
                                           (b"5 x\n255", "height"),
                                           (b"5 5\nx", "maxval"),
                                           (b"1_0 +2\n255", "width"),
                                           (b"10 +2\n255", "height")])
def test_ppm_non_integer_header_field_names_file(tmp_path, header, field):
    # int() would read "1_0" as 10 and "+2" as 2; a header takes digits only
    path = tmp_path / "n.ppm"
    path.write_bytes(b"P6\n" + header + b"\n" + bytes(75))
    token = header.split()[["width", "height", "maxval"].index(field)]
    with pytest.raises(ValueError, match=re.escape(
            f"n.ppm: PPM {field} must be an integer, got {token!r}")):
        load_ppm(path)


def test_ppm_header_integer_beyond_digit_limit_names_file(tmp_path):
    path = tmp_path / "long.ppm"
    path.write_bytes(b"P6\n" + b"9" * 5000 + b" 5\n255\n" + bytes(75))
    with pytest.raises(ValueError, match="long.ppm: PPM width must be an "
                                         "integer, got b'9999"):
        load_ppm(path)


@pytest.mark.parametrize("header, message", [
    (b"P6\n" + b"9" * (1 << 20) + b" 5\n255", "PPM width must be an integer, "
                                           "got b'9999"),
    (b"P" + b"6" * ((1 << 20) - 1) + b"\n5 5\n255", "unsupported format b'P666"),
], ids=["width", "magic"])
def test_ppm_long_header_token_is_cut_in_the_message(tmp_path, header, message):
    path = tmp_path / "big.ppm"
    path.write_bytes(header + b"\n" + bytes(75))
    with pytest.raises(ValueError) as error:
        load_ppm(path)
    text = str(error.value)
    assert len(text) < 200
    assert text.startswith(f"{path}: {message}")
    assert f"'... ({1 << 20} bytes)" in text


@pytest.mark.parametrize("header, message", [
    (b"9" * 4000 + b" " + b"9" * 4000 + b"\n255",
     "truncated pixel data (75 of over 10**32 bytes)"),
    (b"5 5\n" + b"9" * 4000, "unsupported maxval over 10**32, only 8-bit"),
    (b"-" + b"9" * 4000 + b" 5\n255",
     "image extents must be positive, got width below -10**32 and height 5"),
], ids=["extents", "maxval", "negative-width"])
def test_ppm_huge_header_integers_are_bounded_in_the_message(tmp_path, header,
                                                            message):
    # 4 000 digits parse as integers, but an integer of over 4 300 digits,
    # such as the width x height x 3 product here, cannot be formatted
    path = tmp_path / "huge.ppm"
    path.write_bytes(b"P6\n" + header + b"\n" + bytes(75))
    with pytest.raises(ValueError) as error:
        load_ppm(path)
    text = str(error.value)
    assert len(text) < 200
    assert text.startswith(f"{path}: {message}")


def test_ppm_header_padded_with_megabytes_loads(tmp_path):
    pixels = np.arange(18, dtype=np.uint8).reshape(2, 3, 3)
    path = tmp_path / "padded.ppm"
    path.write_bytes(b"P6" + b" \t\n\v\f\r" * ((4 << 20) // 6) + b"3 2\n#"
                     + b"c" * (4 << 20) + b"\n255\n" + pixels.tobytes())
    np.testing.assert_array_equal(load_ppm(path), pixels)


def reference_ppm(path):
    """Plain reference for ``load_ppm``: the same checks and messages, with
    tokens from a loop that steps through the header byte by byte."""
    data = path.read_bytes()
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

    def shown(token):   # at most 32 bytes, then the length
        if len(token) > 32:
            return f"{token[:32]!r}... ({len(token)} bytes)"
        return repr(token)

    def next_int(field):    # the generated tokens are far below int()'s limit
        token = next_token()
        if token.removeprefix(b"-").isdigit():
            return int(token)
        raise ValueError(f"{path}: PPM {field} must be an integer, got "
                         f"{shown(token)}")

    magic = next_token()
    if magic != b"P6":
        raise ValueError(f"{path}: unsupported format {shown(magic)}, "
                         f"expected binary PPM (P6)")
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
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width, 3)


PPM_SPACE = [b" ", b"\t", b"\n", b"\v", b"\f", b"\r"]
PPM_PIECES = [b"P6", *(bytes([d]) for d in b"0123456789"), b"-", b"#",
              *PPM_SPACE, b"x", b"\x00", b"\xff"]
ppm_junk = st.lists(st.sampled_from(PPM_PIECES), max_size=6).map(b"".join)
ppm_note = st.lists(st.sampled_from([p for p in PPM_PIECES
                                     if p not in (b"\n", b"\r")]),
                    max_size=6).map(b"".join)
ppm_comment = st.tuples(st.just(b"#"), ppm_note,
                        st.sampled_from([b"\n", b"\r"] * 2 + [b""])
                        ).map(b"".join)
ppm_gap_part = st.one_of(st.just(b""), st.sampled_from(PPM_SPACE), ppm_comment)
# whitespace first: a "#" right after a token is part of that token
ppm_gap = st.tuples(st.sampled_from(PPM_SPACE), ppm_gap_part,
                    ppm_gap_part).map(b"".join)


@st.composite
def ppm_files(draw):
    """Four header tokens, each well-formed or (one time in six) junk, split
    by whitespace and comments or (one time in six) by nothing, then about
    as many pixel bytes as the header asks for."""
    width, height = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    mostly = st.sampled_from([True] * 5 + [False])
    header = b""
    for token in (b"P6", b"%d" % width, b"%d" % height, b"255"):
        header += draw(ppm_gap) if draw(mostly) else b""
        header += token if draw(mostly) else draw(ppm_junk)
    size = max(width * height * 3 + draw(st.sampled_from([0, 0, -1, 1])), 0)
    return (header + draw(st.sampled_from([b"\n", b"\r", b" ", b"#", b""]))
            + draw(st.binary(min_size=size, max_size=size)))


@settings(max_examples=300, deadline=None)
@given(ppm_files())
def test_ppm_header_pattern_matches_the_byte_loop(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("ppm") / "h.ppm"
    path.write_bytes(data)
    outcomes = []
    for load in (load_ppm, reference_ppm):
        try:
            outcomes.append(load(path))
        except ValueError as error:
            outcomes.append(str(error))
    got, want = outcomes
    if isinstance(want, str):
        assert got == want
    else:
        np.testing.assert_array_equal(got, want, strict=True)


def test_image_of_means_preprocesses_to_zero(tmp_path):
    # means are (104, 117, 123) in BGR, so the RGB pixel is (123, 117, 104)
    pixels = np.full((4, 4, 3), (123, 117, 104), dtype=np.uint8)
    tensor = load_image(write_ppm(tmp_path, pixels), 4)
    assert tensor.shape == (1, 3, 4, 4)
    np.testing.assert_array_equal(tensor, 0.0)


def test_resize_nearest_replicates_2x():
    pixels = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
    out = resize_nearest(pixels, 4, 4)
    for i in range(4):
        for j in range(4):
            np.testing.assert_array_equal(out[i, j], pixels[i // 2, j // 2])


def test_red_pixel_bgr_means(tmp_path):
    pixels = np.zeros((1, 1, 3), dtype=np.uint8)
    pixels[0, 0] = (255, 0, 0)
    tensor = load_image(write_ppm(tmp_path, pixels), 1)
    np.testing.assert_allclose(tensor[0, :, 0, 0], [-104.0, -117.0, 132.0])


@pytest.mark.parametrize("height, width", [(480, 640), (600, 800), (512, 512),
                                           (640, 480), (33, 1001), (700, 7)])
def test_preprocess_is_the_resized_bgr_image_minus_means(height, width):
    pixels = np.random.default_rng(height).integers(0, 256, (height, width, 3),
                                                    dtype=np.uint8)
    means = np.array([104.0, 117.0, 123.0], dtype=np.float32)
    for size in (640, 97):
        want = (resize_nearest(pixels, size, size)[:, :, ::-1]
                .transpose(2, 0, 1).astype(np.float32) - means[:, None, None])
        got = preprocess(pixels, size)
        assert got.shape == (1, 3, size, size) and got.dtype == np.float32
        assert np.array_equal(got[0], want)


def test_preprocess_shape_and_dtype():
    rng = np.random.default_rng(1)
    pixels = rng.integers(0, 256, (30, 50, 3), dtype=np.uint8)
    tensor = preprocess(pixels, 16)
    assert tensor.shape == (1, 3, 16, 16)
    assert tensor.dtype == np.float32


# ------------------------------------------------------------ annotations

def ann_doc(objects, image="img0", width=100, height=80):
    return {"images": [{"id": image, "width": width, "height": height,
                        "objects": objects}]}


def write_json(tmp_path, doc, name="a.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_annotations_empty(tmp_path):
    path = write_json(tmp_path, {"images": []})
    assert load_annotations(path) == []


def test_annotations_happy_path(tmp_path):
    doc = ann_doc([{"class": "face", "box": [1, 2, 30, 40]},
                   {"class": "mask", "box": [5, 5, 50, 60]}])
    recs = load_annotations(write_json(tmp_path, doc))
    assert len(recs) == 1
    rec = recs[0]
    assert rec.image_id == "img0" and rec.width == 100
    assert rec.labels.dtype == np.int64 and rec.labels.tolist() == [FACE, MASK]
    np.testing.assert_array_equal(rec.boxes[0], [1, 2, 30, 40])
    assert rec.confidences is None and len(rec) == 2


def test_annotations_unknown_class_names_image(tmp_path):
    doc = ann_doc([{"class": "hat", "box": [0, 0, 10, 10]}])
    with pytest.raises(AnnotationError, match="img0.*unknown class 'hat'"):
        load_annotations(write_json(tmp_path, doc))


def test_annotations_inverted_box(tmp_path):
    doc = ann_doc([{"class": "face", "box": [20, 0, 10, 10]}])
    with pytest.raises(AnnotationError, match="img0.*inverted box"):
        load_annotations(write_json(tmp_path, doc))


def test_annotations_missing_field_names_image(tmp_path):
    doc = ann_doc([{"class": "face"}])
    with pytest.raises(AnnotationError, match="img0.*missing field 'box'"):
        load_annotations(write_json(tmp_path, doc))


def test_annotations_box_clipped_to_extents(tmp_path):
    doc = ann_doc([{"class": "face", "box": [-5, -5, 120, 90]},
                   {"class": "mask", "box": [5, 1, 150, 40]}])
    rec = load_annotations(write_json(tmp_path, doc))[0]
    assert rec.boxes.dtype == np.float64
    np.testing.assert_array_equal(rec.boxes, [[0, 0, 100, 80], [5, 1, 100, 40]])
    empty = load_detections(write_json(tmp_path, ann_doc([]), "e.json"))[0]
    assert empty.labels.shape == (0,) and empty.labels.dtype == np.int64
    assert empty.boxes.shape == (0, 4) and empty.confidences.shape == (0,)


def test_annotations_fully_outside_box_rejected(tmp_path):
    doc = ann_doc([{"class": "face", "box": [200, 200, 300, 300]}])
    with pytest.raises(AnnotationError, match="img0.*degenerate"):
        load_annotations(write_json(tmp_path, doc))


@pytest.mark.parametrize("box, ok", [
    ([10, 20, 30, 40], True),
    ([10, 20, 30, 20 + 2e-6], True),        # rounds to 20.000002
    ([10, 20, 30, 20 + 2e-7], False),       # rounds to a zero-height box
    ([100, 0, 120, 10], False),             # outside the 100 px width
    ([-5, 70, 10, 80 + 1e-3], True),        # clipped, still positive
])
def test_loads_back_agrees_with_loader(tmp_path, box, ok):
    boxes = np.array([box], dtype=np.float64)
    mask = loads_back(boxes, 100, 80)
    assert mask.shape == (1,) and mask.dtype == bool and mask[0] == ok
    path = tmp_path / "d.json"
    save_detections([ImageRecord("img0", 100, 80, np.array([FACE]), boxes,
                                 np.array([0.5]))], path)
    if ok:
        assert len(load_detections(path)[0]) == 1
    else:
        with pytest.raises(AnnotationError, match="img0.*degenerate"):
            load_detections(path)


@pytest.mark.parametrize("box", [
    [float("nan"), 0, 5, 5],
    [0, 0, float("inf"), 5],                # would clip to a finite box
    [0, 0, 5, float("nan")],
])
def test_loads_back_rejects_non_finite_rows_like_loader(tmp_path, box):
    assert loads_back(np.array([box]), 100, 80).tolist() == [False]
    # the writer refuses these rows, so write them as json does
    path = write_json(tmp_path, ann_doc([
        {"class": "face", "box": box, "confidence": 0.5}]))
    with pytest.raises(AnnotationError, match="img0.*non-finite box"):
        load_detections(path)


def written_then_loaded(boxes, width, height):
    """Mask of rows that load: every value printed with six decimals and
    read back, then clipped and checked as the loader does."""
    written = np.array([[float(f"{v:.6f}") for v in row] for row in boxes],
                       dtype=np.float64).reshape(-1, 4)
    clipped = np.clip(written, 0.0, [width, height, width, height])
    return (np.isfinite(written).all(axis=1)
            & (clipped[:, 0] < clipped[:, 2]) & (clipped[:, 1] < clipped[:, 3]))


def thin_boxes(rng, width, height, count):
    """``count`` boxes with extents near six decimals, corners on and just
    past the image edges or on 5e-7 steps, and some non-finite values."""
    def corners(limit):
        return np.choose(rng.integers(0, 5, count), [
            rng.uniform(-5.0, limit + 5.0, count),
            rng.choice([0.0, float(limit), -1e-7, limit + 1e-7], count),
            rng.integers(0, limit + 1, count) + 5e-7 * rng.integers(-3, 4, count),
            np.round(rng.uniform(0, limit, count), 6) + 5e-7,
            np.round(rng.uniform(0, limit, count), 6) - 5e-7])

    def extents():
        return np.choose(rng.integers(0, 4, count), [
            rng.uniform(1e-7, 3e-6, count), -rng.uniform(1e-7, 3e-6, count),
            5e-7 * rng.integers(0, 7, count), rng.uniform(0.0, 20.0, count)])

    x0, y0 = corners(width), corners(height)
    boxes = np.stack([x0, y0, x0 + extents(), y0 + extents()], axis=1)
    bad = rng.random(count) < 0.05
    boxes[bad, rng.integers(0, 4, bad.sum())] = rng.choice(
        [math.nan, math.inf, -math.inf], bad.sum())
    return boxes


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_loads_back_matches_formatting_every_value(seed):
    rng = np.random.default_rng(seed)
    width, height = (int(v) for v in rng.integers(1, 2000, 2))
    boxes = thin_boxes(rng, width, height, 50)
    mask = loads_back(boxes, width, height)
    assert mask.tolist() == written_then_loaded(boxes, width, height).tolist()


def test_loads_back_masks_each_row_of_an_image():
    boxes = np.array([[10, 20, 30, 40], [0, 0, 5, float("nan")],
                      [100, 0, 120, 10], [-5, 70, 10, 80.001]])
    assert loads_back(boxes, 100, 80).tolist() == [True, False, False, True]
    assert loads_back(np.zeros((0, 4)), 100, 80).shape == (0,)


@pytest.mark.parametrize("field", ["width", "height"])
@pytest.mark.parametrize("value", ["640", 12.7, -5, 0, True, None])
def test_annotations_extent_must_be_a_positive_integer(tmp_path, field, value):
    doc = ann_doc([{"class": "face", "box": [0, 0, 10, 10]}], image="im3")
    doc["images"][0][field] = value
    with pytest.raises(AnnotationError,
                       match=f"im3.*'{field}' must be an integer of at least 1"):
        load_annotations(write_json(tmp_path, doc))


@pytest.mark.parametrize("loader", [load_annotations, load_detections])
@pytest.mark.parametrize("field", ["width", "height"])
def test_annotations_extent_too_large_for_a_float(tmp_path, field, loader):
    doc = ann_doc([], image="im4")
    doc["images"][0][field] = 10**400
    with pytest.raises(AnnotationError,
                       match=f"im4.*'{field}' is too large for a float, got "
                             f"an integer of 401 digits"):
        loader(write_json(tmp_path, doc))


@pytest.mark.parametrize("box, error, message", [
    ([1, 2, 3], AnnotationError, r"box must have 4 coordinates, got \[1.0, 2.0, 3.0\]$"),
    ([[1], [2], [3], [4]], AnnotationError,
     r"got \[\[1.0\], \[2.0\], \[3.0\], \[4.0\]\]$"),
    (5, AnnotationError, r"got 5.0$"),
    ([1, 2, "x", 4], AnnotationError,
     r"img0': box values must be numbers, got \[1, 2, \"x\", 4\]$"),
    ([1, 2, [3], 4], AnnotationError,
     r"img0': box must have 4 coordinates, got \[1.0, 2.0, \[3.0\], 4.0\]$"),
])
def test_malformed_box_raises_its_own_error_among_good_boxes(tmp_path, box,
                                                             error, message):
    doc = ann_doc([{"class": "face", "box": [0, 0, 10, 10]},
                   {"class": "mask", "box": box},
                   {"class": "face", "box": [5, 5, 20, 20]}])
    with pytest.raises(error, match=message):
        load_annotations(write_json(tmp_path, doc))


GOOD_OBJECT = {"class": "face", "box": [0, 0, 10, 10], "confidence": 0.9}


def with_object(**fields):
    return ann_doc([GOOD_OBJECT, dict(GOOD_OBJECT, **fields)])


@pytest.mark.parametrize("doc, message", [
    (with_object(box=[1, 2, "5", 4]),
     r"img0': box values must be numbers, got \[1, 2, \"5\", 4\]$"),
    (with_object(box=[1, 2, True, 4]),
     r"img0': box values must be numbers, got \[1, 2, true, 4\]$"),
    (with_object(box="abcd"), r"img0': box values must be numbers, got \"abcd\"$"),
    (with_object(box={"a": 1}), r"img0': box values must be numbers"),
    (with_object(box=[1, 2, None, 4]), r"img0': box values must be numbers"),
    (with_object(box=[0, 0, 10 ** 400, 5]), r"img0': non-finite box \[0.0, 0.0, inf, 5.0\]$"),
    (with_object(box=[-10 ** 400, 0, 5, 5]), r"img0': non-finite box \[-inf, 0.0, 5.0, 5.0\]$"),
    (with_object(confidence="0.5"), r"img0': confidence must be a number, got \"0.5\"$"),
    (with_object(confidence=True), r"img0': confidence must be a number, got true$"),
    (with_object(confidence=None), r"img0': confidence must be a number, got null$"),
    (with_object(confidence=10 ** 400), r"img0': non-finite confidence inf$"),
    (with_object(**{"class": ["face"]}), r"img0': unknown class"),
    (ann_doc([GOOD_OBJECT, 5]), r"img0': each object must be a JSON object, got 5$"),
    (ann_doc(5), r"img0': 'objects' must be an array, got 5$"),
    (ann_doc("xy"), r"img0': 'objects' must be an array, got \"xy\"$"),
    ({"images": [ann_doc([])["images"][0], 1]}, r"image entry must be an object, got 1$"),
])
def test_loader_requires_json_types(tmp_path, doc, message):
    with pytest.raises(AnnotationError, match=message):
        load_detections(write_json(tmp_path, doc))


def test_several_faulty_objects_name_the_first_failing_check(tmp_path):
    # object 0 is degenerate after clipping, object 1 is not finite: the
    # non-finite check runs first, so it names object 1
    doc = ann_doc([{"class": "face", "box": [200, 200, 300, 300]},
                   {"class": "face", "box": [0, 0, float("inf"), 5]}])
    with pytest.raises(AnnotationError, match=r"non-finite box \[0.0, 0.0, inf"):
        load_annotations(write_json(tmp_path, doc))


def test_annotations_duplicate_image_id(tmp_path):
    doc = {"images": [ann_doc([])["images"][0], ann_doc([])["images"][0]]}
    with pytest.raises(AnnotationError, match="duplicate image id"):
        load_annotations(write_json(tmp_path, doc))


def test_detections_require_confidence(tmp_path):
    doc = ann_doc([{"class": "face", "box": [0, 0, 10, 10]}])
    with pytest.raises(AnnotationError, match="missing field 'confidence'"):
        load_detections(write_json(tmp_path, doc))


def test_non_finite_box_and_confidence_rejected(tmp_path):
    # json writes and reads the NaN / Infinity / -Infinity literals
    nan, inf = float("nan"), float("inf")
    for box in ([nan, 0, 5, 5], [0, 0, inf, 5], [-inf, 0, 5, 5]):
        doc = ann_doc([{"class": "face", "box": box}])
        with pytest.raises(AnnotationError, match="img0.*non-finite box"):
            load_annotations(write_json(tmp_path, doc))
    doc = ann_doc([{"class": "mask", "box": [0, 0, 5, 5], "confidence": nan}])
    with pytest.raises(AnnotationError, match="img0.*non-finite confidence"):
        load_detections(write_json(tmp_path, doc))


def test_detections_round_trip_byte_identical(tmp_path):
    records = [ImageRecord("img0", 64, 64, np.array([FACE, MASK, FACE]),
                           np.array([[1.0, 2.0, 30.0, 40.0],
                                     [0.5, 0.25, 20.0, 20.0],
                                     [3.0, 3.0, 9.0, 9.0]]),
                           np.array([0.912345, 0.5, 1.0]))]
    path = tmp_path / "dets.json"
    save_detections(records, path)
    first = path.read_bytes()
    reloaded = load_detections(path)
    path2 = tmp_path / "dets2.json"
    save_detections(reloaded, path2)
    assert first == path2.read_bytes()
    assert b'"confidence":0.912345' in first
    assert b'"confidence":0.500000' in first


def test_serialize_uses_six_decimal_places():
    rec = ImageRecord("x", 10, 10, np.array([FACE]),
                      np.array([[0.0, 0.0, 5.0, 5.0]]), np.array([0.25]))
    text = serialize_detections([rec])
    assert '"box":[0.000000,0.000000,5.000000,5.000000]' in text
    assert text.endswith("\n")
    json.loads(text)    # stays valid JSON


EDGE_VALUES = [-0.0, 0.0, 5e-7, -5e-7, 2.5e-7, 1.5e-6, 0.1234565,
               0.9999995, 639.9999995, 1e15, 1e15 + 0.5, 123456789.1234565,
               0, 3, 640, -7]


def fmt_object(name, box, confidence):
    """One object rendered field by field with ``_fmt``."""
    return (f'{{"class":"{name}","box":[{",".join(map(_fmt, box))}],'
            f'"confidence":{_fmt(confidence)}}}')


@pytest.mark.parametrize("value", EDGE_VALUES)
def test_object_template_renders_values_as_fmt(value):
    """Each ``%.6f`` of the object template gives ``_fmt``'s text, on
    negative zero, values that round at the sixth decimal, 1e15 and ints."""
    box = [value, 1.0, value, 2.0]
    assert (OBJECT_TEMPLATE % ("mask", *box, value)
            == fmt_object("mask", box, value))


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_object_template_matches_fmt_on_any_finite_float(value):
    assert (OBJECT_TEMPLATE % ("face", *[value] * 5)
            == fmt_object("face", [value] * 4, value))


def test_serializer_writes_edge_values_as_fmt():
    boxes = np.array(EDGE_VALUES[:12], dtype=np.float64).reshape(-1, 4)
    confidences = np.array([-0.0, 0.9999995, 1e15])
    rec = ImageRecord("e", 10, 10, np.array([FACE, MASK, FACE]), boxes,
                      confidences)
    objects = map(fmt_object, ["face", "mask", "face"], boxes.tolist(),
                  confidences.tolist())
    assert serialize_detections([rec]) == (
        '{"images":[{"id":"e","width":10,"height":10,"objects":['
        + ",".join(objects) + "]}]}\n")


@pytest.mark.parametrize("box, confidence", [
    ([0.0, 0.0, float("nan"), 5.0], 0.5),
    ([0.0, 0.0, 5.0, 5.0], float("inf")),
    ([-float("inf"), 0.0, 5.0, 5.0], 0.5),
])
def test_writer_refuses_non_finite_values(tmp_path, box, confidence):
    good = ImageRecord("ok", 10, 10, np.array([FACE]),
                       np.array([[0.0, 0.0, 5.0, 5.0]]), np.array([0.25]))
    bad = ImageRecord("img7", 10, 10, np.array([FACE, MASK]),
                      np.array([[1.0, 1.0, 4.0, 4.0], box]),
                      np.array([0.75, confidence]))
    with pytest.raises(AnnotationError, match="img7.*non-finite"):
        serialize_detections([good, bad])
    path = tmp_path / "d.json"
    with pytest.raises(AnnotationError, match="img7"):
        save_detections([good, bad], path)
    assert not path.exists()
    path.write_bytes(b"previous")
    with pytest.raises(AnnotationError, match="img7"):
        save_detections([bad], path)
    assert path.read_bytes() == b"previous"


def test_annotations_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(AnnotationError, match="not valid JSON"):
        load_annotations(path)


@pytest.mark.parametrize("text", [
    b'{"images": [{"id": "a", "width": 10, "height": 10, "objects": '
    b'[{"class": "face", "box": [0, 0, ' + b"9" * 5000 + b', 5]}]}]}',
    b'{"images": [{"id": "\xff"}]}',
])
def test_unreadable_json_names_the_file(tmp_path, text):
    path = tmp_path / "odd.json"
    path.write_bytes(text)
    with pytest.raises(AnnotationError, match="odd.json: not valid JSON"):
        load_annotations(path)


# ------------------------------------------------- column read vs per object

def reference_floats(value):
    """``value`` with each JSON number as a float and lists kept, or None
    when it holds anything else; an integer beyond the float range becomes
    an infinity of its sign."""
    if type(value) is list:
        items = [reference_floats(v) for v in value]
        return None if None in items else items
    if type(value) not in (int, float):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def reference_parse(entry, with_confidence):
    """One image entry read one object at a time: first each object's fields
    and class, in file order, then each check over every object in turn,
    naming the first object that fails it.  Returns labels, clipped boxes
    and confidences as lists."""
    image_id, width, height = entry["id"], entry["width"], entry["height"]
    objects = entry["objects"]

    def fail(message):
        raise AnnotationError(f"image '{image_id}': {message}")

    keys = ("box", "confidence") if with_confidence else ("box",)
    for obj in objects:
        if "class" not in obj:
            fail("missing field 'class' in object")
        cls = obj["class"]
        if type(cls) is not str or cls not in ("face", "mask"):
            fail(f"unknown class '{cls}' (expected 'face' or 'mask')")
        for key in keys:
            if key not in obj:
                fail(f"missing field '{key}' in object")
    for obj in objects:
        box = obj["box"]
        floats = reference_floats(box)
        if floats is None:
            fail(f"box values must be numbers, got {json.dumps(box)}")
        if not (type(box) is list and len(box) == 4
                and all(type(v) in (int, float) for v in box)):
            fail(f"box must have 4 coordinates, got {floats}")
    for obj in objects if with_confidence else []:
        if type(obj["confidence"]) not in (int, float):
            fail(f"confidence must be a number, got "
                 f"{json.dumps(obj['confidence'])}")
    boxes = [reference_floats(obj["box"]) for obj in objects]
    for box in boxes:
        if not all(math.isfinite(v) for v in box):
            fail(f"non-finite box {box}")
    for box in boxes:
        if not (box[0] <= box[2] and box[1] <= box[3]):
            fail(f"inverted box {box}")
    limits = (width, height, width, height)
    clipped = [[min(max(v, 0.0), float(limit)) for v, limit in zip(box, limits)]
               for box in boxes]
    for obj, box in zip(objects, clipped):
        if not (box[0] < box[2] and box[1] < box[3]):
            fail(f"degenerate box {obj['box']} after clipping to "
                 f"{width}x{height}")
    scores = None
    if with_confidence:
        scores = [reference_floats(obj["confidence"]) for obj in objects]
        for score in scores:
            if not math.isfinite(score):
                fail(f"non-finite confidence {score}")
    labels = [{"face": FACE, "mask": MASK}[obj["class"]] for obj in objects]
    return labels, clipped, scores


class ClassName(str):
    """A str subclass: equal to and hashed like "face", yet not a JSON
    string, so the loaders refuse it."""


def number(low, high):
    return st.integers(low, high) | st.floats(low, high)


@st.composite
def valid_object(draw, width, height):
    """An object whose box keeps a positive extent after clipping."""
    def side(limit):
        low = draw(number(-20, limit - 1))
        high = draw(number(math.floor(max(low, 0)) + 1, limit + 20))
        return low, high

    (x0, x1), (y0, y1) = side(width), side(height)
    return {"class": draw(st.sampled_from(["face", "mask"])),
            "box": [x0, y0, x1, y1],
            "confidence": draw(number(0, 1))}


NOT_A_NUMBER = [True, False, "0.5", None, [0.5], {"c": 1}]
NON_FINITE = [math.nan, math.inf, -math.inf, 10**400, -10**400]


def plant(draw, obj, fault, width, height):
    """``obj`` with one ``fault``; the box is a list of 4 numbers before."""
    obj, box = dict(obj), list(obj["box"])
    if fault.startswith("missing "):
        obj.pop(fault.split()[1], None)
    elif fault == "unknown class":
        obj["class"] = draw(st.sampled_from(["hat", "Face", "", "masks"])
                            | st.text(max_size=3))
    elif fault == "str-subclass class":
        obj["class"] = ClassName(obj["class"])
    elif fault == "list class":
        obj["class"] = [obj["class"]]
    elif fault == "non-list box":
        obj["box"] = draw(st.sampled_from([5, 2.5, "abcd", None, {"a": 1},
                                           tuple(box), [box]]))
    elif fault == "3 or 5 values":
        obj["box"] = box[:3] if draw(st.booleans()) else box + [box[-1]]
    elif fault == "true, string or null value":
        value = draw(st.sampled_from([True, "5", None]))
        if draw(st.booleans()):
            box[draw(st.integers(0, 3))] = value
            obj["box"] = box
        else:
            obj["confidence"] = value
    elif fault == "non-finite box":
        box[draw(st.integers(0, 3))] = draw(st.sampled_from(NON_FINITE))
        obj["box"] = box
    elif fault == "inverted box":
        axis = draw(st.integers(0, 1))
        box[axis], box[axis + 2] = box[axis + 2], box[axis]
        obj["box"] = box
    elif fault == "degenerate box":
        obj["box"] = draw(st.sampled_from([
            [box[0], box[1], box[0], box[3]],
            [box[0], box[1], box[2], box[1]],
            [width + 1, 0, width + 5, 5], [-9, 0, 0, height],
            [0, height, 5, height + 3]]))
    elif fault == "non-number confidence":
        obj["confidence"] = draw(st.sampled_from(NOT_A_NUMBER))
    elif fault == "non-finite confidence":
        obj["confidence"] = draw(st.sampled_from(NON_FINITE))
    else:
        raise AssertionError(fault)
    return obj


FAULTS = ["missing class", "missing box", "missing confidence",
          "unknown class", "str-subclass class", "list class", "non-list box",
          "3 or 5 values", "true, string or null value", "non-finite box",
          "inverted box", "degenerate box", "non-number confidence",
          "non-finite confidence"]


# faults of a box's or a confidence's value, whose checks run in bulk
VALUE_FAULTS = ["non-list box", "3 or 5 values", "true, string or null value",
                "non-finite box", "inverted box", "degenerate box",
                "non-number confidence", "non-finite confidence"]


@st.composite
def image_entries(draw):
    """An image entry, valid or with one planted fault, sometimes with a
    second, different value fault in another object, and whether it is read
    as detections."""
    width, height = draw(st.integers(1, 120)), draw(st.integers(1, 120))
    objects = draw(st.lists(valid_object(width, height), max_size=6))
    with_confidence = draw(st.booleans())
    if not with_confidence and draw(st.booleans()):
        for obj in objects:
            del obj["confidence"]
    fault = draw(st.sampled_from([None, *FAULTS]))
    if fault is not None and objects:
        at = draw(st.integers(0, len(objects) - 1))
        objects[at] = plant(draw, objects[at], fault, width, height)
        second = draw(st.sampled_from([None, *VALUE_FAULTS]))
        if second not in (None, fault) and len(objects) > 1:
            other = draw(st.integers(0, len(objects) - 2))
            other += other >= at
            objects[other] = plant(draw, objects[other], second, width,
                                   height)
    entry = {"id": "im", "width": width, "height": height, "objects": objects}
    return entry, with_confidence


@settings(max_examples=400, deadline=None)
@given(image_entries())
def test_column_read_matches_a_per_object_reader(case):
    """Valid entries give the reference's arrays and dtypes; faulty ones its
    exact error message."""
    entry, with_confidence = case
    try:
        labels, boxes, scores = reference_parse(entry, with_confidence)
    except AnnotationError as exc:
        with pytest.raises(AnnotationError) as got:
            _parse_image(entry, with_confidence)
        assert str(got.value) == str(exc)
        return
    rec = _parse_image(entry, with_confidence)
    assert (rec.image_id, rec.width, rec.height) == ("im", entry["width"],
                                                     entry["height"])
    assert rec.labels.dtype == np.int64 and rec.labels.tolist() == labels
    assert rec.boxes.dtype == np.float64 and rec.boxes.shape == (len(boxes), 4)
    np.testing.assert_array_equal(rec.boxes, np.reshape(boxes, (-1, 4)))
    if scores is None:
        assert rec.confidences is None
    else:
        assert rec.confidences.dtype == np.float64
        assert rec.confidences.tolist() == scores
