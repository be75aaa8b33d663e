import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maskdet.cli import build_parser, main
from maskdet.images import save_ppm
from maskdet.model import ModelConfig, init_reference_weights
from maskdet.weights_io import load_weights, save_weights


@pytest.fixture()
def ppm(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, (48, 64, 3), dtype=np.uint8)
    path = tmp_path / "scene.ppm"
    save_ppm(path, pixels)
    return path


def test_anchors_subcommand_reports_16800(capsys):
    assert main(["anchors", "--size", "640"]) == 0
    out = capsys.readouterr().out
    assert "16800" in out
    assert "stride 8" in out and "80x80" in out


def test_anchors_custom_strides(capsys):
    assert main(["anchors", "--size", "320", "--strides", "8,16,32"]) == 0
    assert "total anchors: 4200" in capsys.readouterr().out


def test_argument_errors_exit_2():
    assert main(["anchors"]) == 2                      # missing --size
    assert main(["frobnicate"]) == 2                   # unknown command
    assert main(["anchors", "--size", "640", "--strides", "a,b"]) == 2
    detect = ["detect", "--weights", "w", "--input", "i", "--out", "o"]
    assert main(detect + ["--tc", "2"]) == 2
    assert main(detect + ["--tc", "-0.1"]) == 2
    assert main(detect + ["--tc", "nan"]) == 2
    assert main(detect + ["--nms", "-3", "--orcc", "7"]) == 2
    assert main(detect + ["--orcc", "1.5"]) == 2
    assert main(detect + ["--nms", "x"]) == 2
    assert main(detect + ["--size", "1"]) == 2
    assert main(detect + ["--size", "16"]) == 2
    assert main(detect + ["--size", "0"]) == 2
    assert main(detect + ["--size", "-5"]) == 2
    assert main(detect + ["--size", "x"]) == 2
    assert main(["eval", "--pred", "p", "--gt", "g", "--iou", "1.01"]) == 2
    assert main(["anchors", "--size", "0"]) == 2
    assert main(["anchors", "--size", "-5"]) == 2
    assert main(["anchors", "--size", "x"]) == 2
    assert main(["init-weights", "--out", "w", "--seed", "-1"]) == 2


@pytest.mark.parametrize("strides,message", [
    ("8,16", "exactly three detection levels"),
    ("8,16,32,64", "exactly three detection levels"),
    ("16,8,32", "strictly increasing positive integers"),
    ("8,8,32", "strictly increasing positive integers"),
    ("0,16,32", "strictly increasing positive integers"),
    ("8,16,x", "comma-separated integers"),
])
def test_anchors_bad_strides_are_argument_errors(strides, message, capsys):
    assert main(["anchors", "--size", "640", "--strides", strides]) == 2
    err = capsys.readouterr().err
    assert "argument --strides" in err and message in err


def test_detect_size_accepts_largest_stride_and_up():
    detect = ["detect", "--weights", "w", "--input", "i", "--out", "o"]
    for size in (32, 840):
        assert build_parser().parse_args(detect + ["--size", str(size)]).size == size


def test_eval_fixture_prints_metrics(tmp_path, capsys):
    gt = {"images": [{"id": "im", "width": 100, "height": 100, "objects": [
        {"class": "face", "box": [0, 0, 10, 10]},
        {"class": "face", "box": [50, 50, 70, 70]},
    ]}]}
    pred = {"images": [{"id": "im", "width": 100, "height": 100, "objects": [
        {"class": "face", "box": [0, 0, 10, 10], "confidence": 0.9},
        {"class": "face", "box": [50, 50, 70, 70], "confidence": 0.8},
        {"class": "face", "box": [90, 90, 99, 99], "confidence": 0.7},
    ]}]}
    gt_path = tmp_path / "gt.json"
    gt_path.write_text(json.dumps(gt))
    pred_path = tmp_path / "pred.json"
    pred_path.write_text(json.dumps(pred))
    assert main(["eval", "--pred", str(pred_path), "--gt", str(gt_path)]) == 0
    out = capsys.readouterr().out
    assert "face precision=0.666667 recall=1.000000" in out
    assert "mask precision=0.000000 recall=0.000000" in out
    report = json.loads(out.strip().splitlines()[-1])
    assert report["classes"]["face"] == {"tp": 2, "fp": 1, "fn": 0,
                                         "precision": 0.666667, "recall": 1.0}


def test_eval_unknown_pred_id_fails(tmp_path, capsys):
    gt = {"images": [{"id": "a", "width": 10, "height": 10, "objects": []}]}
    pred = {"images": [{"id": "b", "width": 10, "height": 10, "objects": []}]}
    gt_path = tmp_path / "gt.json"
    gt_path.write_text(json.dumps(gt))
    pred_path = tmp_path / "pred.json"
    pred_path.write_text(json.dumps(pred))
    assert main(["eval", "--pred", str(pred_path), "--gt", str(gt_path)]) == 1
    assert "missing from ground truth" in capsys.readouterr().err


def test_eval_size_mismatch_exits_1(tmp_path, capsys):
    gt = {"images": [{"id": "im", "width": 10, "height": 10, "objects": []}]}
    pred = {"images": [{"id": "im", "width": 20, "height": 10, "objects": []}]}
    gt_path = tmp_path / "gt.json"
    gt_path.write_text(json.dumps(gt))
    pred_path = tmp_path / "pred.json"
    pred_path.write_text(json.dumps(pred))
    assert main(["eval", "--pred", str(pred_path), "--gt", str(gt_path)]) == 1
    captured = capsys.readouterr()
    assert "image 'im': prediction is 20x10 but ground truth is 10x10" in captured.err
    assert captured.out == ""


def test_eval_non_finite_values_exit_1(tmp_path, capsys):
    head = '{"images":[{"id":"im","width":10,"height":10,"objects":'
    files = {
        "gt": '[{"class":"face","box":[NaN,0,5,5]}]}]}',
        "pred": '[{"class":"face","box":[0,0,5,5],"confidence":NaN}]}]}',
        "clean_gt": '[{"class":"face","box":[0,0,5,5]}]}]}',
        "clean_pred": '[{"class":"face","box":[0,0,5,5],"confidence":0.5}]}]}',
    }
    paths = {}
    for name, tail in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(head + tail)
    for pred, gt in (("pred", "gt"), ("clean_pred", "gt"), ("pred", "clean_gt")):
        code = main(["eval", "--pred", str(paths[pred]), "--gt", str(paths[gt])])
        assert code == 1
        assert "image 'im': non-finite" in capsys.readouterr().err
    assert main(["eval", "--pred", str(paths["clean_pred"]),
                 "--gt", str(paths["clean_gt"])]) == 0


def test_eval_rejects_non_integer_extent(tmp_path, capsys):
    gt = {"images": [{"id": "im", "width": 12.7, "height": 10,
                      "objects": [{"class": "face", "box": [0, 0, 12.5, 5]}]}]}
    pred = {"images": [{"id": "im", "width": 12, "height": 10, "objects": []}]}
    gt_path = tmp_path / "gt.json"
    gt_path.write_text(json.dumps(gt))
    pred_path = tmp_path / "pred.json"
    pred_path.write_text(json.dumps(pred))
    assert main(["eval", "--pred", str(pred_path), "--gt", str(gt_path)]) == 1
    captured = capsys.readouterr()
    assert "image 'im': 'width' must be an integer of at least 1, got 12.7" \
        in captured.err
    assert captured.out == ""


def test_eval_rejects_a_string_confidence(tmp_path, capsys):
    head = '{"images":[{"id":"im","width":10,"height":10,"objects":'
    gt_path, pred_path = tmp_path / "gt.json", tmp_path / "pred.json"
    gt_path.write_text(head + '[{"class":"face","box":[0,0,5,5]}]}]}')
    pred_path.write_text(
        head + '[{"class":"face","box":[0,0,5,5],"confidence":"0.5"}]}]}')
    assert main(["eval", "--pred", str(pred_path), "--gt", str(gt_path)]) == 1
    captured = capsys.readouterr()
    assert "image 'im': confidence must be a number, got \"0.5\"" \
        in captured.err
    assert captured.out == ""


def test_detect_missing_input_exits_1(tmp_path, capsys):
    weights = tmp_path / "w.rfmw"
    assert main(["init-weights", "--out", str(weights), "--seed", "1"]) == 0
    missing = tmp_path / "nope.ppm"
    code = main(["detect", "--weights", str(weights), "--input", str(missing),
                 "--out", str(tmp_path / "out.json")])
    assert code == 1
    assert "nope.ppm" in capsys.readouterr().err


def test_detect_missing_weights_exits_1(tmp_path, ppm, capsys):
    code = main(["detect", "--weights", str(tmp_path / "absent.rfmw"),
                 "--input", str(ppm), "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert "absent.rfmw" in capsys.readouterr().err


def test_init_weights_writes_loadable_store(tmp_path, capsys):
    path = tmp_path / "w.rfmw"
    assert main(["init-weights", "--out", str(path), "--seed", "7"]) == 0
    store = load_weights(path)
    assert "backbone.stage1.dw.weight" in store
    assert "head2.cls.bias" in store
    out = capsys.readouterr().out
    assert "tensors" in out
    # deterministic: same seed twice gives the same file
    path2 = tmp_path / "w2.rfmw"
    assert main(["init-weights", "--out", str(path2), "--seed", "7"]) == 0
    assert path.read_bytes() == path2.read_bytes()


def test_detect_end_to_end_writes_detections(tmp_path, ppm, capsys):
    weights = tmp_path / "w.rfmw"
    main(["init-weights", "--out", str(weights), "--seed", "3"])
    out_path = tmp_path / "dets.json"
    code = main(["detect", "--weights", str(weights), "--input", str(ppm),
                 "--out", str(out_path), "--size", "320", "--tc", "0.6"])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert len(doc["images"]) == 1
    entry = doc["images"][0]
    assert entry["id"] == "scene"
    assert entry["width"] == 64 and entry["height"] == 48
    for obj in entry["objects"]:
        assert obj["class"] in ("face", "mask")
        assert obj["confidence"] >= 0.6
        x0, y0, x1, y1 = obj["box"]
        assert 0 <= x0 <= x1 <= 64 and 0 <= y0 <= y1 <= 48


def test_detect_with_overflowing_weights_exits_1(tmp_path, ppm, capsys):
    # every weight stays finite, so the store loads, but the forward pass
    # overflows float32
    weights = tmp_path / "w.rfmw"
    assert main(["init-weights", "--out", str(weights), "--seed", "7"]) == 0
    store = load_weights(weights)
    save_weights({name: value * 1e4 for name, value in store.items()},
                 weights)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(["detect", "--weights", str(weights), "--input", str(ppm),
                     "--out", str(tmp_path / "o.json"), "--size", "320"])
    assert code == 1
    assert "non-finite values" in capsys.readouterr().err


def test_detect_goes_through_the_benchmark_hooks(tmp_path, monkeypatch):
    """The benchmark times each image from ``cli.load_ppm`` to
    ``cli.run_detect`` and each call to ``cli.save_detections``; a detect
    run that bypassed those names would leave it with no image times."""
    import maskdet.cli as cli

    calls = {}

    def counted(name):
        orig = getattr(cli, name)
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)
        monkeypatch.setattr(cli, name, wrapper)

    for name in ("load_ppm", "run_detect", "save_detections"):
        counted(name)
    images = tmp_path / "images"
    images.mkdir()
    rng = np.random.default_rng(1)
    for stem in ("a", "b"):
        save_ppm(images / f"{stem}.ppm",
                 rng.integers(0, 256, (40, 56, 3), dtype=np.uint8))
    weights = tmp_path / "w.rfmw"
    assert main(["init-weights", "--out", str(weights), "--seed", "3"]) == 0
    out = tmp_path / "dets.json"
    assert main(["detect", "--weights", str(weights), "--input", str(images),
                 "--out", str(out), "--size", "64"]) == 0
    assert calls == {"load_ppm": 2, "run_detect": 2, "save_detections": 1}
    images = json.loads(out.read_text())["images"]
    assert [image["id"] for image in images] == ["a", "b"]


def test_benchmark_tracer_installs_on_a_detect_and_eval_run(tmp_path,
                                                            monkeypatch):
    """The benchmark's tracer wraps maskdet functions by name; a renamed or
    removed one would break every traced benchmark run."""
    import maskdet.cli
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "bench"))
    from tracer import Tracer

    images = tmp_path / "images"
    images.mkdir()
    rng = np.random.default_rng(2)
    for stem in ("a", "b"):
        save_ppm(images / f"{stem}.ppm",
                 rng.integers(0, 256, (40, 56, 3), dtype=np.uint8))
    gt = tmp_path / "gt.json"
    gt.write_text(json.dumps({"images": [
        {"id": stem, "width": 56, "height": 40, "objects": []}
        for stem in ("a", "b")]}))
    weights, dets = tmp_path / "w.rfmw", tmp_path / "dets.json"
    tracer = Tracer(seed=0)
    try:
        tracer.install(maskdet)
        assert main(["init-weights", "--out", str(weights), "--seed", "3"]) == 0
        assert main(["detect", "--weights", str(weights), "--input",
                     str(images), "--out", str(dets), "--size", "64",
                     "--tc", "0.05"]) == 0
        assert main(["eval", "--pred", str(dets), "--gt", str(gt)]) == 0
    finally:
        tracer.restore()
    names = {span[0] for span in tracer.spans}
    assert {"annotations.serialize_detections",
            "evaluate.match_for_eval"} <= names
    written = sum(len(image["objects"])
                  for image in json.loads(dets.read_text())["images"])
    matched = sum(value for (_, name), value in tracer.counters.items()
                  if name == "dets_matched")
    assert written > 0 and matched == written
    assert maskdet.cli.run_detect is maskdet.postproc.detect


def test_detect_output_loads_in_eval(tmp_path, capsys):
    """Kaiming weights decode thousands of zero-area boxes; none is written."""
    rng = np.random.default_rng(0)
    image = tmp_path / "scene.ppm"
    save_ppm(image, rng.integers(0, 256, (480, 640, 3), dtype=np.uint8))
    weights = tmp_path / "w.rfmw"
    assert main(["init-weights", "--out", str(weights), "--seed", "7"]) == 0
    dets = tmp_path / "dets.json"
    assert main(["detect", "--weights", str(weights), "--input", str(image),
                 "--out", str(dets)]) == 0
    assert json.loads(dets.read_text())["images"][0]["objects"]
    gt = tmp_path / "gt.json"
    gt.write_text(json.dumps({"images": [{"id": "scene", "width": 640,
                                          "height": 480, "objects": []}]}))
    assert main(["eval", "--pred", str(dets), "--gt", str(gt)]) == 0


threshold = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=15, deadline=None)
@example(seed=7, size=33, height=48, width=64, tc=0.0, nms=1.0, orcc=0.0)
@given(seed=st.integers(0, 2**16), size=st.integers(32, 100),
       height=st.integers(1, 80), width=st.integers(1, 80),
       tc=threshold, nms=threshold, orcc=threshold)
def test_every_detect_output_loads_in_eval(seed, size, height, width, tc,
                                           nms, orcc):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_weights(init_reference_weights(ModelConfig(), seed), tmp / "w.rfmw")
        rng = np.random.default_rng(seed)
        save_ppm(tmp / "im.ppm",
                 rng.integers(0, 256, (height, width, 3), dtype=np.uint8))
        assert main(["detect", "--weights", str(tmp / "w.rfmw"),
                     "--input", str(tmp / "im.ppm"), "--out", str(tmp / "d.json"),
                     "--size", str(size), "--tc", repr(tc), "--nms", repr(nms),
                     "--orcc", repr(orcc)]) == 0
        (tmp / "gt.json").write_text(json.dumps({"images": [
            {"id": "im", "width": width, "height": height, "objects": []}]}))
        assert main(["eval", "--pred", str(tmp / "d.json"),
                     "--gt", str(tmp / "gt.json")]) == 0


def test_detect_bytes_do_not_depend_on_blas_threads(tmp_path):
    """The same 640 input gives the same file with one BLAS thread (conv
    bands on every CPU), with the library's default thread count (bands on
    the calling thread) and pinned to one CPU."""
    save_weights(init_reference_weights(ModelConfig(), 7), tmp_path / "w.rfmw")
    rng = np.random.default_rng(5)
    save_ppm(tmp_path / "im.ppm",
             rng.integers(0, 256, (640, 640, 3), dtype=np.uint8))
    src = str(Path(__file__).resolve().parents[1] / "src")
    cpu = min(os.sched_getaffinity(0))
    outputs = []
    for threads, pinned in (("1", False), (None, False), (None, True)):
        env = {k: v for k, v in os.environ.items() if k not in
               ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"d-{threads}-{pinned}.json"
        subprocess.run([sys.executable, "-m", "maskdet.cli", "detect",
                        "--weights", str(tmp_path / "w.rfmw"),
                        "--input", str(tmp_path / "im.ppm"), "--out", str(out)],
                       env=env, check=True, timeout=120,
                       preexec_fn=(lambda: os.sched_setaffinity(0, {cpu}))
                       if pinned else None)
        outputs.append(out.read_bytes())
    assert json.loads(outputs[0])["images"][0]["objects"]
    assert outputs[0] == outputs[1] == outputs[2]


def test_detect_directory_mode(tmp_path, capsys):
    rng = np.random.default_rng(1)
    img_dir = tmp_path / "imgs"
    img_dir.mkdir()
    for name in ("b.ppm", "a.ppm"):
        save_ppm(img_dir / name,
                 rng.integers(0, 256, (32, 32, 3), dtype=np.uint8))
    weights = tmp_path / "w.rfmw"
    main(["init-weights", "--out", str(weights), "--seed", "4"])
    out_path = tmp_path / "dets.json"
    code = main(["detect", "--weights", str(weights), "--input", str(img_dir),
                 "--out", str(out_path), "--size", "320"])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert [e["id"] for e in doc["images"]] == ["a", "b"]   # sorted order


def test_detect_empty_directory_exits_1(tmp_path, capsys):
    img_dir = tmp_path / "empty"
    img_dir.mkdir()
    weights = tmp_path / "w.rfmw"
    main(["init-weights", "--out", str(weights), "--seed", "5"])
    code = main(["detect", "--weights", str(weights), "--input", str(img_dir),
                 "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert "no .ppm files" in capsys.readouterr().err


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") >= 7 and "[FAIL]" not in out
