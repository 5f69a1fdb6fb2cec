"""Reference values and tour checks that share no code with nettsp.

The benchmark judges every solve against figures computed here: an exact
optimum by a subset DP of its own (n <= 18), the closed-form optimum of a
line, and a minimum spanning tree. Instance files are parsed here too, so a
fault in the package's loader cannot hide behind the same fault in the check.

Run as a script it reads a manifest of instance files and prints one JSON
object of references, so that the memory the DP takes stays out of the
process whose peak memory the benchmark reports:

    python3 bench/refs.py MANIFEST.json
"""

from __future__ import annotations

import json
import sys

import numpy as np

EXACT_MAX = 18
REL = 1e-9


def point_distances(coords: np.ndarray) -> np.ndarray:
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def load_distances(path: str, fmt: str) -> np.ndarray:
    """Distance matrix of an instance file, in the file's own units."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "points_csv":
        rows = [ln.split(",") for ln in text.splitlines() if ln.strip()]
        return point_distances(np.array([[float(a), float(b)] for a, b in rows]))
    if fmt == "points_json":
        return np.array(json.loads(text)["matrix"], dtype=float)
    raise ValueError(f"unsupported instance format {fmt!r}")


def exact_optimum(d: np.ndarray) -> float:
    """Optimal closed-tour weight by a subset DP over the points 1..n-1.

    dp[mask, k] is the cheapest path from point 0 through the points of
    ``mask`` ending at point k + 1; masks are filled in order of size.
    """
    n = len(d)
    if n == 1:
        return 0.0
    if n == 2:
        return 2.0 * float(d[0, 1])
    m = n - 1
    size = 1 << m
    masks = np.arange(size)
    popcount = np.zeros(size, dtype=np.int64)
    for b in range(m):
        popcount += (masks >> b) & 1
    inner = d[1:, 1:]
    dp = np.full((size, m), np.inf)
    dp[1 << np.arange(m), np.arange(m)] = d[0, 1:]
    for count in range(2, m + 1):
        layer = masks[popcount == count]
        for k in range(m):
            ending = layer[(layer >> k) & 1 == 1]
            dp[ending, k] = (dp[ending ^ (1 << k)] + inner[:, k]).min(axis=1)
    return float((dp[size - 1] + d[1:, 0]).min())


def mst_weight(d: np.ndarray) -> float:
    """Weight of a minimum spanning tree by Prim's scan."""
    n = len(d)
    if n < 2:
        return 0.0
    best = d[0].copy()
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best[0] = np.inf
    total = 0.0
    for _ in range(n - 1):
        j = int(np.argmin(np.where(in_tree, np.inf, best)))
        total += float(best[j])
        in_tree[j] = True
        best = np.minimum(best, d[j])
    return total


def line_optimum(n: int, spacing: float) -> float:
    """Any optimal tour of n equally spaced collinear points walks out and back."""
    return 2.0 * (n - 1) * spacing


def references(inst: dict) -> dict:
    """Reference figures for one manifest entry."""
    d = load_distances(inst["path"], inst["format"])
    n = len(d)
    out = {"n": n, "mst": mst_weight(d), "exact": None}
    if n <= EXACT_MAX:
        out["exact"] = exact_optimum(d)
    elif inst["family"] == "line":
        out["exact"] = line_optimum(n, inst.get("spacing", 1.0))
    return out


def close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def reference(ref: dict) -> float:
    """The exact optimum where one is known, else the MST weight."""
    return ref["exact"] if ref["exact"] is not None else ref["mst"]


def tour_weight(d: np.ndarray, tour) -> float:
    seq = list(tour)
    return float(sum(d[seq[i], seq[(i + 1) % len(seq)]] for i in range(len(seq))))


def check_solve(report: dict, d: np.ndarray, ref: dict, need_dense: bool = False) -> list:
    """Reasons the solve report fails its checks; empty when it passes.

    ``d`` holds the original (not normalized) distances; the report's weights
    and bounds are in normalized units except ``weight_denormalized``.
    """
    n = len(d)
    solve = report["results"]["solve"]
    tour = [int(p) for p in solve["tour"]]
    if sorted(tour) != list(range(n)):
        return [f"tour is not a permutation of the {n} points"]
    problems = []
    weight = tour_weight(d, tour)
    if not close(weight, solve["weight_denormalized"]):
        problems.append(f"recomputed weight {weight!r} != reported "
                        f"{solve['weight_denormalized']!r}")
    if weight < reference(ref) * (1 - REL):
        problems.append(f"weight {weight!r} below the reference {reference(ref)!r}")
    scale = report["instance"]["scale"]
    bounds = report["lower_bounds"]
    if not close(bounds["mst"] / scale, ref["mst"]):
        problems.append(f"lower_bounds.mst {bounds['mst'] / scale!r} != {ref['mst']!r}")
    if "exact" in bounds and (ref["exact"] is None
                              or not close(bounds["exact"] / scale, ref["exact"])):
        problems.append(f"lower_bounds.exact {bounds['exact'] / scale!r} != {ref['exact']!r}")
    if need_dense and not any(e.get("mode") == "dense" for e in report["recursion_trace"]):
        problems.append("recursion_trace holds no dense entry")
    return problems


def main(argv) -> int:
    with open(argv[1], "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    print(json.dumps([references(inst) for inst in manifest]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
