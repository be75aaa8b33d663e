"""maskdet benchmark: seeded detect/eval workloads, checked and timed.

    python3 bench/run.py --workload sparse-640 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run generates the workload's inputs from ``--seed`` under
``.bench_work/``, times ``maskdet detect``'s set-up in fresh interpreters,
runs the timed closed loop in a fresh worker process (``worker.py``), checks
every output with code that shares nothing with the program (``checks.py``),
and prints one JSON object as its last line: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  Lines before it record
the machine, the inputs and any failed operation.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
NMS_IOU, ORCC_IOU, EVAL_IOU = 0.4, 0.5, 0.5
# fresh interpreters timed per run, after a warm-up that writes the .pyc
# files; half run before the worker and half after it, so that the median
# spans more than one stretch of the machine's speed
SETUP_REPEATS = 21
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 150
# An eval call takes about 10 ms on sparse-640 and 70 ms on dense-640.  The
# machine's speed can shift by up to 2x from one second to the next, so each
# round repeats its timed eval into a burst of 0.1-0.4 s: one call would
# sample the speed of a single moment per round.

WORKLOADS = {
    # trained-like traffic: model and kernels do nearly all the work
    "sparse-640": {"tc": 0.5, "evals": 10},
    # mAP-style low threshold: post-processing does most of the work
    "dense-640": {"tc": 0.05, "evals": 6},
}

END_TO_END_UNITS = {"setup_s": "s", "images_per_s": "images/s",
                    "image_ms_p50": "ms", "eval_dets_per_s": "dets/s",
                    "peak_rss_mb": "MB"}

SETUP_SNIPPET = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import maskdet.cli as cli
config = cli.ModelConfig(input_size=640)
model = cli.build_model(config, cli.load_weights(sys.argv[2]))
anchors = cli.generate_anchors(config)
print(time.perf_counter() - start)
"""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def measure_setup(weights: Path, repeats: int) -> list[float]:
    """Seconds from ``import maskdet.cli`` to anchors, in fresh interpreters."""
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC),
                              str(weights)], env=child_env(), cwd=ROOT,
                             capture_output=True, text=True, timeout=60,
                             check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS}


def count_ops(rounds) -> tuple[int, int, list[str]]:
    """(attempted, failed, failure messages) over whole rounds.

    Each image of a detect call is one operation, and each eval call is
    one; a failed detect call fails all of its images.
    """
    attempted = failed = 0
    messages = []
    for rnd in rounds:
        det = rnd["detect"]
        attempted += det["images"]
        if det["code"] != 0:
            failed += det["images"]
            messages.append(f"detect: {det['stderr']}")
        for ev in rnd["evals"]:
            attempted += 1
            if ev["code"] != 0:
                failed += 1
                messages.append(f"eval: {ev['stderr']}")
    return attempted, failed, messages


def end_to_end(rounds, setup_s: float, peak_rss_mb: float) -> dict:
    image_ms, images, batch_s, eval_dets, eval_s = [], 0, 0.0, 0, 0.0
    for rnd in rounds:
        det = rnd["detect"]
        if det["code"] == 0:
            image_ms += det["image_ms"]
            images += det["images"]
            batch_s += det["batch_s"]
        for ev in rnd["evals"]:
            if ev["code"] == 0:
                eval_dets += ev["dets"]
                eval_s += ev["wall_s"]
    return {"setup_s": setup_s,
            "images_per_s": images / batch_s if batch_s else 0.0,
            "image_ms_p50": statistics.median(image_ms) if image_ms else 0.0,
            "eval_dets_per_s": eval_dets / eval_s if eval_s else 0.0,
            "peak_rss_mb": peak_rss_mb}


def layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    return {"kernels.conv2d_gflop": "GFLOP", "kernels.conv2d_gflops": "GFLOP/s",
            "kernels.conv2d_mbytes": "MB", "annotations.bytes_out": "B",
            "postproc.nms_keep_ratio": "ratio"}.get(name, "count")


def check_outputs(work: Path, spec: dict, rounds) -> list[str]:
    """Independent checks of every output; returns the problems found."""
    import checks

    problems = []
    used = sorted({rnd["set"] for rnd in rounds})
    for name in used:
        hashes = {rnd["detect"].get("sha256") for rnd in rounds
                  if rnd["set"] == name and rnd["detect"]["code"] == 0}
        if len(hashes) > 1:
            problems.append(f"{name}: detect output differs between rounds")
        for image in json.loads((work / name / "dets.json").read_text())["images"]:
            problems += checks.check_image(image, spec["tc"], NMS_IOU, ORCC_IOU)

    # one image recomputed from the model's raw outputs
    from maskdet.images import load_ppm, preprocess
    from maskdet.model import ModelConfig, build_model, model_forward
    from maskdet.weights_io import load_weights

    config = ModelConfig()
    image = json.loads((work / used[0] / "dets.json").read_text())["images"][-1]
    pixels = load_ppm(work / used[0] / "images" / f"{image['id']}.ppm")
    pred = model_forward(build_model(config, load_weights(work / "weights.rfmw")),
                         preprocess(pixels, config.input_size))
    expected = checks.recompute_detections(
        pred.loc, pred.cls, config.input_size, image["width"], image["height"],
        spec["tc"], NMS_IOU, ORCC_IOU)
    problems += checks.compare_detections(expected, image)

    for name in used:
        gt = json.loads((work / name / "gt.json").read_text())["images"]
        outputs = {ev["stdout"] for rnd in rounds if rnd["set"] == name
                   for ev in rnd["evals"] if ev["code"] == 0}
        if not outputs:
            continue
        if len(outputs) > 1:
            problems.append(f"{name}: eval differs between rounds")
        report = json.loads(sorted(outputs)[0].strip().splitlines()[-1])
        pred_images = json.loads((work / name / "dets.json").read_text())["images"]
        problems += [f"{name}: {p}" for p in checks.compare_eval(
            report, checks.greedy_match_counts(pred_images, gt, EVAL_IOU))]
    return problems


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import scenes

    spec = dict(WORKLOADS[workload], workload=workload, seed=seed,
                nms=NMS_IOU, orcc=ORCC_IOU)
    work = ROOT / ".bench_work" / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = scenes.generate(work, seed)
        (work / "spec.json").write_text(json.dumps(spec))
        weights = work / "weights.rfmw"
        setup_times = measure_setup(weights, SETUP_REPEATS // 2 + 1)[1:]
        subprocess.run([sys.executable, str(BENCH / "worker.py"),
                        "--work", str(work), "--src", str(SRC),
                        "--seconds", str(seconds), "--trace", str(trace)],
                       env=child_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S,
                       check=True)
        setup_times += measure_setup(weights, SETUP_REPEATS - len(setup_times))
        setup_s = statistics.median(setup_times)
        result = json.loads((work / "result.json").read_text())
        rounds = result["rounds"]
        attempted, failed, messages = count_ops(rounds)
        problems = check_outputs(work, spec, rounds)
        if trace:
            conv = result["conv_check"]
            if conv["failing"]:
                problems.append(f"conv layers off their float64 dot products: "
                                f"{conv['failing']}")
            metrics = {name: {"value": value, "unit": layer_unit(name)}
                       for name, value in result["layers"].items()}
            out_dir = ROOT / ".bench_work"
            shutil.copy(work / "trace.json",
                        out_dir / f"trace-{workload}-s{seed}.json")
        else:
            values = end_to_end(rounds, setup_s, result["peak_rss_mb"])
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
        print(json.dumps({"environment": environment(), "workload": workload,
                          "inputs": inputs, "rounds": len(rounds),
                          "round_summary": [
                              {"image_ms": [round(v, 1) for v in
                                            r["detect"].get("image_ms", [])],
                               "evals": [[e["dets"], round(e["wall_s"], 4)]
                                         for e in r["evals"]]}
                              for r in rounds],
                          "traced_rounds": result["traced_rounds"]}))
        for message in sorted(set(messages)):
            print(f"failed: {message}")
        for problem in problems:
            print(f"check: {problem}")
        return {"correct": not problems, "attempted": attempted,
                "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "maskdet" / "cli.py").is_file():
        print(f"bench: no maskdet sources under {SRC}; run from a source "
              f"checkout", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
