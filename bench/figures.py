"""Print the reference figures of bench/README.md as Markdown.

    python3 bench/figures.py

Measures, once per workload: the tour ratios of the solver, Christofides and
double tree against the benchmark's references, and one traced run with its
per-layer table and tracing overhead. Also prints the machine's nproc and the
Python and numpy versions. Takes a few minutes.
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import subprocess
import sys

import numpy as np

import refs
import run


# Seconds that are not a layer's share of the traced run_s.
SETUP_AND_TOTALS = ("io.load_s", "metric.normalize_s", "trace.run_s", "trace.overhead_s")


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def baseline_ratios(io, metric, runner, workload: str) -> dict:
    workdir = run.BENCH / "work" / f"figures-{workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        manifest = run.write_instances(io, workload, workdir)
        references = run.compute_references(manifest, workdir)
        ratios = {}
        for inst, ref in zip(manifest, references):
            d = refs.load_distances(inst["path"], inst["format"])
            space = metric.normalize(io.load_instance(inst["path"], inst["format"]))
            for mode in ("solve", "baseline"):
                report = runner.run(dict(inst["config"], mode=mode, space=space))
                for method, entry in report["results"].items():
                    # christofides_exact or christofides_tree, by odd-vertex count
                    method = "christofides" if method.startswith("christofides") else method
                    ratios.setdefault(method, []).append(
                        refs.tour_weight(d, entry["tour"]) / refs.reference(ref))
        return {method: geomean(values) for method, values in ratios.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced(workload: str) -> dict:
    out = subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                          "--seed", "0", "--seconds", "1", "--trace", "1"],
                         capture_output=True, text=True, check=True)
    metrics = json.loads(out.stdout.splitlines()[-1])["metrics"]
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    if set(metrics) != {m["name"] for m in declared}:
        raise SystemExit(f"{workload}: traced metrics differ from BENCHMARK.json")
    return metrics


def main() -> int:
    io, metric, runner = run.import_nettsp()
    print(f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"numpy {np.__version__}\n")

    print("| workload | solve | christofides | double_tree | nearest_neighbor |")
    print("|---|---|---|---|---|")
    for workload in run.WORKLOADS:
        r = baseline_ratios(io, metric, runner, workload)
        print(f"| `{workload}` | {r['solve']:.4f} | {r['christofides']:.4f} | "
              f"{r['double_tree']:.4f} | {r['nearest_neighbor']:.4f} |")

    tables = {w: traced(w) for w in run.WORKLOADS}
    print("\n| metric | " + " | ".join(f"`{w}`" for w in tables) + " |")
    print("|---|" + "---|" * len(tables))
    for name in next(iter(tables.values())):
        cells = []
        for m in tables.values():
            value = m[name]["value"]
            if m[name]["unit"] == "s" and name not in SETUP_AND_TOTALS:
                share = 100 * value / m["trace.run_s"]["value"]
                cells.append(f"{value:.3f} ({share:.1f}%)")
            elif isinstance(value, float):
                cells.append(f"{value:.4g}")
            else:
                cells.append(str(value))
        print(f"| `{name}` | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
