"""One workload's timed loop, run in a fresh process by ``bench/run.py``.

The loop is one client in a closed loop: it runs a round of ``maskdet``
commands through ``maskdet.cli.main`` (the console script's entry point),
waits for each to finish, and starts the next round while the measuring
time lasts.  A round is one ``maskdet detect`` over one image set, then each
``maskdet eval`` the workload lists on that set.  Untraced, round ``r`` runs
set ``r % SETS``.  Every round runs the same commands on a set of the same
make-up, so failures are the same share of every run, and cycling through
the sets puts more distinct images into a run.

Untraced, the only hooks are one timestamp pair and the id of each image.
Traced (``--trace 1``), the first ``UNTRACED_ROUNDS`` rounds stay untraced
on set 0, the baseline for the tracing overhead; the first of them also pays
the process's one-time costs.  The traced rounds that follow record spans
(see ``tracer.py``) and start again at set 0, so the overhead compares the
same images.  Results go to ``result.json`` in the work directory; spans and the
per-layer metrics to ``trace.json`` there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

perf_counter = time.perf_counter
UNTRACED_ROUNDS = 2     # traced runs: the overhead baseline, on set 0


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _count_objects(path: Path) -> int:
    doc = json.loads(path.read_text())
    return sum(len(image["objects"]) for image in doc["images"])


def run_round(cli, spec, work: Path, stamps, tracer, index: int,
              set_index: int) -> dict:
    set_dir = work / f"set{set_index}"
    images = sorted((set_dir / "images").glob("*.ppm"))
    dets = set_dir / "dets.json"
    argv = ["detect", "--weights", str(work / "weights.rfmw"),
            "--input", str(set_dir / "images"), "--out", str(dets),
            "--tc", repr(spec["tc"]), "--nms", repr(spec["nms"]),
            "--orcc", repr(spec["orcc"])]
    if stamps is not None:
        stamps.reset()
    span = None
    if tracer is not None:
        tracer.round, tracer.group = index, f"r{index}/detect"
        span = tracer.open("cli.detect")
    start = perf_counter()
    code, _, err = _run_cli(cli, argv)
    end = perf_counter()
    if span is not None:
        tracer.close(span)
    result = {"set": set_dir.name,
              "detect": {"code": code, "stderr": err.strip(),
                         "images": len(images), "wall_s": end - start}}
    if stamps is not None and code == 0:
        result["detect"]["image_ids"] = list(stamps.ids)
        result["detect"]["image_ms"] = [1e3 * (e - s) for s, e in
                                        zip(stamps.starts, stamps.ends)]
        result["detect"]["batch_s"] = stamps.saved[-1] - stamps.starts[0]
    if code == 0:
        result["detect"]["sha256"] = hashlib.sha256(dets.read_bytes()).hexdigest()
    result["evals"] = []
    dets_count = _count_objects(dets) if code == 0 else 0
    for i in range(spec["evals"]):
        argv = ["eval", "--pred", str(dets), "--gt", str(set_dir / "gt.json")]
        if tracer is not None:
            tracer.group = f"r{index}/eval{i}"
            span = tracer.open("cli.eval")
        start = perf_counter()
        code, out, err = _run_cli(cli, argv)
        end = perf_counter()
        if tracer is not None:
            tracer.close(span)
        result["evals"].append({"code": code, "stdout": out,
                                "stderr": err.strip(), "wall_s": end - start,
                                "dets": dets_count})
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import maskdet
    import maskdet.cli as cli
    from scenes import SETS
    from tracer import Stamps, Tracer

    spec = json.loads((args.work / "spec.json").read_text())
    rounds = []
    stamps = Stamps(cli)
    tracer = None
    start = perf_counter()
    while True:
        r = len(rounds)
        if not args.trace:
            set_index = r % SETS
        else:
            set_index = max(0, r - UNTRACED_ROUNDS) % SETS
        rounds.append(run_round(cli, spec, args.work, stamps, tracer, r,
                                set_index))
        if args.trace and tracer is None:
            if len(rounds) < UNTRACED_ROUNDS:
                continue
            # at least one traced round always follows the untraced ones
            stamps.restore()
            stamps = None
            tracer = Tracer(seed=spec["seed"])
            tracer.install(maskdet)
        elif perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"rounds": rounds, "peak_rss_mb": peak_rss_mb,
              "traced_rounds": (len(rounds) - UNTRACED_ROUNDS
                                if tracer is not None else 0)}
    if tracer is not None:
        tracer.restore()
        from layers import conv_check_errors, layer_metrics
        result["layers"] = layer_metrics(tracer, rounds, UNTRACED_ROUNDS)
        result["conv_check"] = conv_check_errors(tracer.conv_checks)
        trace = dict(tracer.to_json(), layers=result["layers"])
        (args.work / "trace.json").write_text(json.dumps(trace))
    (args.work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
