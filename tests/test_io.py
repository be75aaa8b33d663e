import json
import struct

import numpy as np
import pytest

from maskdet.annotations import (AnnotatedObject, AnnotationError, ImageRecord,
                                 load_annotations, load_detections, loads_back,
                                 save_detections, serialize_detections)
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


def test_ppm_header_comments(tmp_path):
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6\n# a comment\n2 1\n# another\n255\n" + bytes(6))
    assert load_ppm(path).shape == (1, 2, 3)


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
                                           (b"5 5\nx", "maxval")])
def test_ppm_non_integer_header_field_names_file(tmp_path, header, field):
    path = tmp_path / "n.ppm"
    path.write_bytes(b"P6\n" + header + b"\n" + bytes(75))
    with pytest.raises(ValueError, match=f"n.ppm: PPM {field} must be an "
                                         f"integer, got b'x'"):
        load_ppm(path)


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
    assert rec.labels().tolist() == [FACE, MASK]
    np.testing.assert_array_equal(rec.boxes()[0], [1, 2, 30, 40])


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
    assert rec.boxes().dtype == np.float64
    np.testing.assert_array_equal(rec.boxes(), [[0, 0, 100, 80], [5, 1, 100, 40]])
    assert ImageRecord("e", 1, 1, []).boxes().shape == (0, 4)


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
    save_detections([ImageRecord("img0", 100, 80,
                                 [AnnotatedObject(FACE, boxes[0], 0.5)])], path)
    if ok:
        assert len(load_detections(path)[0].objects) == 1
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
    records = [ImageRecord("img0", 64, 64, [
        AnnotatedObject(FACE, np.array([1.0, 2.0, 30.0, 40.0]), 0.912345),
        AnnotatedObject(MASK, np.array([0.5, 0.25, 20.0, 20.0]), 0.5),
        AnnotatedObject(FACE, np.array([3.0, 3.0, 9.0, 9.0]), 1.0),
    ])]
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
    rec = ImageRecord("x", 10, 10, [
        AnnotatedObject(FACE, np.array([0.0, 0.0, 5.0, 5.0]), 0.25)])
    text = serialize_detections([rec])
    assert '"box":[0.000000,0.000000,5.000000,5.000000]' in text
    assert text.endswith("\n")
    json.loads(text)    # stays valid JSON


@pytest.mark.parametrize("box, confidence", [
    ([0.0, 0.0, float("nan"), 5.0], 0.5),
    ([0.0, 0.0, 5.0, 5.0], float("inf")),
    ([-float("inf"), 0.0, 5.0, 5.0], 0.5),
])
def test_writer_refuses_non_finite_values(tmp_path, box, confidence):
    good = ImageRecord("ok", 10, 10, [
        AnnotatedObject(FACE, np.array([0.0, 0.0, 5.0, 5.0]), 0.25)])
    bad = ImageRecord("img7", 10, 10, [
        AnnotatedObject(FACE, np.array([1.0, 1.0, 4.0, 4.0]), 0.75),
        AnnotatedObject(MASK, np.array(box), confidence)])
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
