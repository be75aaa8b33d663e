"""Conv-layer table (markdown) from a traced run's span file.

    python3 bench/report.py .bench_work/trace-sparse-640-s1.json

Each row is one conv layer: input and kernel shapes, groups, stride, FLOPs
and bytes computed from the shapes (see ``tracer.conv_cost``), and the
layer's ``conv.<layer>.ms`` metric (the median time per image, see
``layers.py``) with the rate it implies.
"""

from __future__ import annotations

import json
import sys


def conv_table(trace: dict) -> str:
    shapes = {}
    for *_, extra in trace["spans"]:
        if extra is not None:
            shapes.setdefault(extra[0], extra)
    rows = ["| layer | input | kernel | groups | stride | MFLOP | MB | ms | GFLOP/s |",
            "|---|---|---|---|---|---|---|---|---|"]
    total = [0.0, 0.0, 0.0]
    for layer, (_, kind, flops, nbytes, x, k, groups, stride) in shapes.items():
        ms = trace["layers"][f"conv.{layer}.ms"]
        total[0] += flops / 1e6
        total[1] += nbytes / 1e6
        total[2] += ms
        rows.append(f"| {layer} | {'x'.join(map(str, x))} | "
                    f"{'x'.join(map(str, k))} | {groups} | {stride[0]} | "
                    f"{flops / 1e6:.1f} | {nbytes / 1e6:.2f} | {ms:.2f} | "
                    f"{flops / 1e6 / ms:.2f} |")
    rows.append(f"| total | | | | | {total[0]:.1f} | {total[1]:.2f} | "
                f"{total[2]:.2f} | {total[0] / total[2]:.2f} |")
    return "\n".join(rows)


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        print(conv_table(json.load(fh)))
