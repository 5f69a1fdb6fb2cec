"""Run orchestration and structured reports.

Reports are JSON with insertion-ordered keys and floats rounded to 12
significant digits. Timing lives under keys ending in "_seconds"; everything
else is reproducible byte for byte from the instance, the seed, and the
parameters.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import fields

import numpy as np

from .errors import ConfigError, TooLarge
from .io import instance_digest
from .lightdp import draw_radius_samples, tree_from_samples
from .metric import MetricSpace, estimate_doubling, normalize
from .nets import build_hierarchy, verify_nets
from .oracles import (HELD_KARP_MAX, brute_force_tsp, christofides,
                      held_karp_tsp, nearest_neighbor_tsp)
from .partition import estimate_cut_probability
from .sparse import SolveParams, check_local_tour_bounds, find_dense_region, solve_tsp
from .tours import (double_tree_tour, edges_weight, make_net_respecting,
                    is_net_respecting, tour_weight)

MODES = ("solve", "baseline", "oracle", "partition_stats", "lemma_checks")
SOLVER_KEYS = ("eps", "s", "q", "delta", "m_cap", "guesses")
CONFIG_KEYS = ("space", "mode", "seed") + SOLVER_KEYS


def _round12(obj):
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float(f"{obj:.12g}")
        return None if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, (np.floating,)):
        return _round12(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def render_report(report: dict) -> str:
    return json.dumps(_round12(report), indent=2) + "\n"


def strip_timing(text: str) -> str:
    return "\n".join(ln for ln in text.splitlines() if "_seconds" not in ln)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _tour_entry(space, tour, weight, lower):
    entry = {
        "weight": weight,
        "weight_denormalized": weight / space.scale,
        "tour": list(tour.seq),
    }
    if lower and lower > 0:
        entry["ratio_to_lower_bound"] = weight / lower
    return entry


def run(config: dict) -> dict:
    """Execute one pipeline mode and assemble the report dict."""
    unknown = [key for key in config if key not in CONFIG_KEYS]
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}; accepted keys: "
                          f"{', '.join(CONFIG_KEYS)}")
    mode = config.get("mode")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    space = config.get("space")
    if not isinstance(space, MetricSpace):
        raise ConfigError("config['space'] must be a MetricSpace")
    if space.n == 0:
        raise ConfigError("config['space'] has no points")

    raw_params = {k: config[k] for k in SOLVER_KEYS if k in config}
    try:
        params = SolveParams(seed=config.get("seed", 0), **raw_params)
    except ValueError as exc:
        raise ConfigError(f"bad solver parameters: {exc}")
    seed = int(params.seed)

    if space.n >= 2 and abs(space.min_gap()[0] - 1.0) > 1e-9:
        space = normalize(space)
    est = estimate_doubling(space, seed=seed)
    if params.ddim is None:
        params.ddim = est.ddim_upper

    report = {
        "instance": {
            "n": space.n,
            "digest": instance_digest(space),
            "diameter": space.diameter(),
            "min_gap": space.min_gap()[0] if space.n >= 2 else 0.0,
            "scale": space.scale,
            "ddim_upper": est.ddim_upper,
            "lambda_upper": est.lambda_upper,
        },
        "mode": mode,
        "seed": seed,
        "params": {f.name: getattr(params, f.name) for f in fields(params) if f.name != "seed"},
        "theory": params.theoretical_note(space.n, params.ddim),
        "results": {},
        "timings": {},
    }
    results = report["results"]
    lower = edges_weight(space, space.mst_edges)
    report["lower_bounds"] = {"mst": lower}
    exact = None
    if space.n <= HELD_KARP_MAX and mode in ("solve", "baseline", "oracle"):
        oracle, dt = _timed(held_karp_tsp, space)
        report["lower_bounds"]["exact"] = oracle.weight
        report["timings"]["oracle_seconds"] = dt
        exact = oracle
    bound = exact.weight if exact else lower

    if mode == "oracle":
        if exact is None:
            raise TooLarge(f"n={space.n} exceeds the exact oracle ceiling")
        results["held_karp"] = _tour_entry(space, exact.tour, exact.weight, None)
        results["held_karp"]["exact"] = True
        if space.n <= 10:
            bf, dt = _timed(brute_force_tsp, space)
            results["brute"] = _tour_entry(space, bf.tour, bf.weight, None)
            results["brute"]["exact"] = True
            report["timings"]["brute_seconds"] = dt
        return report

    if mode == "solve":
        (tour, solve_report), dt = _timed(solve_tsp, space, params)
        report["timings"]["solve_seconds"] = dt
        results["solve"] = _tour_entry(space, tour, solve_report["weight"], bound)
        report["recursion_trace"] = solve_report["trace"]
        return report

    if mode == "baseline":
        ch, dt = _timed(christofides, space)
        results[ch.method] = _tour_entry(space, ch.tour, ch.weight, bound)
        report["timings"]["christofides_seconds"] = dt
        dt_tour = double_tree_tour(space)
        results["double_tree"] = _tour_entry(space, dt_tour,
                                             tour_weight(space, dt_tour), bound)
        nn = nearest_neighbor_tsp(space)
        results["nearest_neighbor"] = _tour_entry(space, nn.tour, nn.weight, bound)
        return report

    h = build_hierarchy(space, params.s)
    rng = np.random.default_rng(seed)

    if mode == "partition_stats":
        net_report = verify_nets(h, ddim_upper=params.ddim, seed=seed)
        tree = tree_from_samples(space, h,
                                 draw_radius_samples(h, params.guesses, params.ddim, rng))
        results["nets"] = {"ok": net_report.ok, "level_sizes": net_report.level_sizes}
        results["clustering"] = {
            "nodes": sum(map(len, tree)),
            "max_branching": max((len(kids) for clusters in tree[1:]
                                  for options in clusters.values() for kids in options),
                                 default=0),
        }
        # Points 0, 2 and 4, each paired with its nearest neighbour (the first
        # at the least distance): far-apart pairs are cut by every carving.
        pairs = []
        level = min(1, h.top)
        take = min(space.n, 6)
        for u in range(0, take - 1, 2):
            row = np.where(np.arange(space.n) == u, np.inf, space.row(u))
            v = int(np.argmin(row))
            freq = estimate_cut_probability(space, h, u, v, level, 400,
                                            params.ddim, np.random.default_rng(seed + u))
            pairs.append({"u": u, "v": v, "level": level, "distance": float(row[v]),
                          "cut_frequency": freq})
        results["cut_samples"] = pairs
        return report

    # lemma_checks: battery of inequality probes on this instance.
    net_report = verify_nets(h, ddim_upper=params.ddim, seed=seed)
    checks = {"nets_ok": net_report.ok}
    base = double_tree_tour(space)
    checks["double_tree_within_2mst"] = tour_weight(space, base) <= 2 * lower * (1 + 1e-9)
    nr = make_net_respecting(space, base, h, params.eps)
    ok_nr, _ = is_net_respecting(nr, h, params.eps)
    ratio = tour_weight(space, nr) / max(tour_weight(space, base), 1e-300)
    checks["net_respecting_ok"] = ok_nr
    checks["net_respecting_ratio"] = ratio
    checks["net_respecting_ratio_bound"] = 1 + 16 * params.eps
    u = 0
    radius = space.diameter() / 4 if space.n > 1 else 1.0
    local = check_local_tour_bounds(space, nr, u, radius, params.eps, params.s, params.ddim)
    checks["local_lower_holds"] = local.lower_holds
    checks["local_upper_holds"] = local.upper_holds
    checks["local_slack_upper"] = local.upper_bound - local.inside_weight
    dense = find_dense_region(space, h, params.q)
    checks["dense_region"] = None if dense is None else {
        "level": dense[0], "v": dense[1], "q_star": dense[2]}
    results["lemma_checks"] = checks
    return report
