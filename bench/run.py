"""Benchmark of `tsp run --mode solve`, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's instances with nettsp's generators, writes them to
files, computes independent references for them in a separate process, loads
and normalizes them (the timed set-up), then calls nettsp.runner.run with
mode "solve" on each instance in whole rounds until S seconds have passed.
Every call is checked against the references. The last line of standard
output is one JSON object: with --trace 0 the end-to-end metrics, with
--trace 1 the per-layer metrics of one more round run under bench/spans.py.

Run it from the root of a source checkout: nettsp is imported from src/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One process, one core: numpy, first imported by refs, must not start a
# thread pool of its own.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import refs  # noqa: E402
import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Set-up repeats at least this often and this long: a tiny set-up takes
# 2 ms, and the first few tens of ms after the reference process ends run
# at about half speed.
SETUP_REPEATS = 9
SETUP_MIN_S = 0.5


def _uniform(ns, seeds, **cfg):
    return [("uniform2d", n, seed, {}, cfg) for n in ns for seed in seeds]


# Each instance is (family, n, generator seed, generator params, solver
# config); the solver is seeded with the generator seed, as in
# `tsp gen --seed k` followed by `tsp run --seed k`. The instances are pinned
# and --seed changes none of them: solve cost is heavy-tailed in both the
# geometry and the solver's random radii, tour ratios of drawn instances
# spread wider than a quality bound worth keeping, and larger instances raise
# BudgetExceeded on some seeds (see README.md).
WORKLOADS = {
    # The runner's Held-Karp bound (n <= 18) does almost all the work.
    "exact_small": [
        (family, n, 0, {}, {}) for family, n in
        (("uniform2d", 18), ("clustered", 17), ("line", 16), ("matrix_random_metric", 18))
    ],
    # Portal DP over one cluster tree; the dense scan runs and never fires.
    "sparse_mid": (
        _uniform((40, 50, 60), range(4))
        + [("line", 160, 0, {}, {}), ("clustered", 160, 0, {"clusters": 4}, {})]
    ),
    # q = 2 makes the dense scan fire, so split and splice run.
    "dense_split": [
        ("clustered", n, 0, {"clusters": 4}, {"q": 2.0}) for n in (160, 180, 200)
    ],
    # Two radius guesses per center: carving under option enumeration.
    "radius_guess": _uniform((20,), range(5), guesses=2),
}


def fail(msg: str):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="has no effect: the instances are pinned (see bench/README.md)")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_nettsp():
    src = ROOT / "src"
    if not (src / "nettsp" / "__init__.py").is_file():
        fail(f"no nettsp sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    from nettsp import io, metric, runner
    return io, metric, runner


def write_instances(io, workload: str, workdir: Path) -> list:
    """Generate the workload's instances into files; returns the manifest."""
    manifest = []
    for i, (family, n, seed, params, cfg) in enumerate(WORKLOADS[workload]):
        space = io.generate_instance(family, n, seed, params)
        if space.coords is not None:
            path, fmt = workdir / f"{i:02d}.csv", "points_csv"
            path.write_text("".join(f"{x!r},{y!r}\n" for x, y in space.coords.tolist()))
        else:
            path, fmt = workdir / f"{i:02d}.json", "points_json"
            path.write_text(json.dumps({"matrix": space.matrix.tolist()}))
        manifest.append({"path": str(path), "format": fmt, "family": family,
                         "spacing": params.get("spacing", 1.0),
                         "config": dict(cfg, mode="solve", seed=seed)})
    return manifest


def compute_references(manifest: list, workdir: Path) -> list:
    """Reference figures from bench/refs.py, run in a process of its own."""
    path = workdir / "manifest.json"
    path.write_text(json.dumps(manifest))
    out = subprocess.run([sys.executable, str(BENCH / "refs.py"), str(path)],
                         capture_output=True, text=True, timeout=150)
    if out.returncode != 0:
        fail(f"reference computation failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def load_all(io, metric, manifest):
    return [metric.normalize(io.load_instance(inst["path"], inst["format"]))
            for inst in manifest]


def run_round(runner, ops, dense: bool, tally: dict, tracer=None):
    """Solve and check each (config, distances, references) operation once.

    Returns the seconds spent inside runner.run and the tour ratio of each
    operation that passed its checks, by index.
    """
    total, ratios = 0.0, {}
    for i, (config, d, ref) in enumerate(ops):
        tally["attempted"] += 1
        t0 = time.perf_counter()
        try:
            report = runner.run(config)
        except Exception as exc:  # a raising solve is a failed operation
            report, problems = None, [f"raised {exc!r}"]
        total += time.perf_counter() - t0
        if tracer is not None:
            tracer.end_instance(report)
        if report is not None:
            problems = refs.check_solve(report, d, ref, need_dense=dense)
            tally["incorrect"] += bool(problems)
        if problems:
            tally["failed"] += 1
            print(f"bench: instance {i}: {'; '.join(problems)}", file=sys.stderr)
            continue
        ratios[i] = report["results"]["solve"]["weight_denormalized"] / refs.reference(ref)
    return total, ratios


def main(argv=None) -> int:
    args = parse_args(argv)
    io, metric, runner = import_nettsp()

    workdir = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        manifest = write_instances(io, args.workload, workdir)
        references = compute_references(manifest, workdir)
        dists = [refs.load_distances(m["path"], m["format"]) for m in manifest]

        setup_times = []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
            t0 = time.perf_counter()
            spaces = load_all(io, metric, manifest)
            setup_times.append(time.perf_counter() - t0)
        if any(sp.n != len(d) for sp, d in zip(spaces, dists)):
            fail("a loaded instance has the wrong number of points")
        ops = [(dict(m["config"], space=sp), d, ref)
               for m, sp, d, ref in zip(manifest, spaces, dists, references)]

        dense = args.workload == "dense_split"
        tally = {"attempted": 0, "failed": 0, "incorrect": 0}
        round_times, ratios = [], {}
        start = time.perf_counter()
        while True:
            seconds, got = run_round(runner, ops, dense, tally)
            round_times.append(seconds)
            for i, r in got.items():
                if ratios.setdefault(i, r) != r:
                    tally["failed"] += 1
                    tally["incorrect"] += 1
                    print(f"bench: instance {i} changed its tour between rounds",
                          file=sys.stderr)
            if time.perf_counter() - start >= args.seconds:
                break
        run_s = statistics.median(round_times)

        if args.trace:
            tracer = spans.Tracer()
            with tracer:
                load_all(io, metric, manifest)
                traced_s, _ = run_round(runner, ops, dense, tally, tracer)
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in tracer.metrics().items()}
            metrics["trace.run_s"] = {"value": traced_s, "unit": "s"}
            metrics["trace.overhead_s"] = {"value": traced_s - run_s, "unit": "s"}
        else:
            logs = [math.log(r) for r in ratios.values()]
            metrics = {
                "run_s": {"value": run_s, "unit": "s"},
                "tour_ratio": {"value": math.exp(sum(logs) / len(logs)) if logs else 0.0,
                               "unit": "ratio"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "unit": "MB"},
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"correct": tally["incorrect"] == 0,
                      "attempted": tally["attempted"],
                      "failed": tally["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
