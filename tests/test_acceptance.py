"""Acceptance battery: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. Statistical thresholds are
frozen here; the end-to-end median-ratio cap was fixed after the first full
calibration run (observed median 1.0308 over the same population) and must
not be retuned.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from nettsp.errors import DegenerateSplit
from nettsp.io import generate_instance
from nettsp.lightdp import make_flat_tree, solve_light_tour
from nettsp.metric import ball, estimate_doubling, from_points, normalize
from nettsp.nets import build_hierarchy, verify_nets
from nettsp.oracles import (brute_force_matching, brute_force_tsp, christofides,
                            held_karp_tsp)
from nettsp.partition import estimate_cut_probability
from nettsp.runner import render_report, run, strip_timing
from nettsp.sparse import (SolveParams, choose_split_radius, find_dense_region,
                           solve_tsp, split_instance)
from nettsp.tours import (Tour, cross_points, crossing_transitions, dedupe_visits,
                          edges_weight, is_net_respecting, make_net_respecting,
                          mst, odd_matching_by_tree, patch_crossings,
                          stitch_subtours, tour_weight)

REL = 1e-9
E2E_MEDIAN_RATIO_CAP = 1.10   # frozen after calibration; do not retune


def _report(num, text):
    print(f"\n[criterion {num:2d}] PASS: {text}")


def rand_space(seed, n):
    return normalize(from_points(np.random.default_rng(seed).random((n, 2))))


def dense_fixture(seed):
    """Jittered tight grid clump plus a sparse far field; dense at level 0."""
    rng = np.random.default_rng(20_000 + seed)
    pts = []
    for gx in range(5):
        for gy in range(5):
            if len(pts) < 22:
                pts.append((gx + rng.uniform(-0.25, 0.25),
                            gy + rng.uniform(-0.25, 0.25)))
    for fx in range(5):
        for fy in range(2):
            pts.append((50 + 40 * fx + rng.uniform(-4, 4),
                        50 + 40 * fy + rng.uniform(-4, 4)))
    return normalize(from_points(pts))


def test_criterion_01_net_invariants():
    t0 = time.time()
    kinds = ("uniform2d", "clustered", "line", "matrix_random_metric")
    checked = 0
    for i in range(100):
        n = 10 + (i % 20) * 10
        kind = kinds[i % 4]
        params = {"clusters": 3, "spread": 0.05, "separation": 5.0} if kind == "clustered" else None
        space = generate_instance(kind, n, seed=i, params=params)
        space = normalize(space)
        h = build_hierarchy(space, 6.0)
        est = estimate_doubling(space, audit_balls=24, seed=i)
        report = verify_nets(h, ddim_upper=est.ddim_upper, audit_balls=12, seed=i)
        assert report.ok, (i, kind, n, report.violations[:3])
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60, f"net invariant sweep took {elapsed:.1f}s"
    _report(1, f"{checked} hierarchies pass packing/covering/nesting and the "
               f"count bound in {elapsed:.1f}s")


def test_criterion_02_mst_tour_sandwich():
    t0 = time.time()
    for i in range(200):
        rng = np.random.default_rng(i)
        n = int(rng.integers(4, 13))
        space = rand_space(1_000 + i, n)
        tree_w = edges_weight(space, mst(space, range(n)))
        opt = held_karp_tsp(space).weight
        assert tree_w <= opt * (1 + REL), (i, tree_w, opt)
        assert opt <= 2 * tree_w * (1 + REL), (i, opt, tree_w)
    elapsed = time.time() - t0
    assert elapsed < 120, f"sandwich sweep took {elapsed:.1f}s"
    _report(2, f"200 instances satisfy mst <= exact <= 2*mst in {elapsed:.1f}s")


def test_criterion_03_net_respecting_conversion():
    eps_values = (1 / 8, 1 / 16, 1 / 32)
    for i in range(200):
        rng = np.random.default_rng(3_000 + i)
        n = int(rng.integers(5, 51))
        space = rand_space(4_000 + i, n)
        h = build_hierarchy(space, 6.0)
        eps = eps_values[i % 3]
        tour = Tour(tuple(rng.permutation(n)), closed=bool(rng.integers(0, 2)))
        converted = make_net_respecting(space, tour, h, eps)
        ok, violation = is_net_respecting(converted, h, eps)
        assert ok, (i, violation)
        assert converted.visits() >= tour.visits()
        ratio = tour_weight(space, converted) / max(tour_weight(space, tour), 1e-300)
        assert ratio <= (1 + 16 * eps) * (1 + REL), (i, ratio, eps)
    _report(3, "200 conversions are net-respecting within the 1+16*eps ratio")


def test_criterion_04_patching_and_stitching():
    matching_checks = 0
    for i in range(500):
        rng = np.random.default_rng(5_000 + i)
        n = int(rng.integers(6, 21))
        space = rand_space(6_000 + i, n)
        tour = Tour(tuple(rng.permutation(n)), closed=bool(rng.integers(0, 2)))
        cluster = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
        chat = cross_points(tour, cluster)
        tree_w = edges_weight(space, mst(space, chat)) if chat else 0.0
        patched = patch_crossings(space, tour, cluster)
        assert len(crossing_transitions(patched, cluster)) <= 2, i
        assert patched.visits() >= tour.visits(), i
        assert tour_weight(space, patched) <= tour_weight(space, tour) + 4 * tree_w + REL, i

        # stitch a decomposition of a closed tour of the same instance
        pts = list(rng.permutation(n))
        chunks = [c for c in np.array_split(np.asarray(pts), int(rng.integers(1, 4)))
                  if len(c)]
        subtours, cross = [], set()
        for ch in chunks:
            ch = [int(x) for x in ch]
            if rng.integers(0, 2):
                subtours.append(Tour(tuple(ch), closed=True))
                cross.add(ch[0])
            else:
                subtours.append(Tour(tuple(ch), closed=False))
                cross.update((ch[0], ch[-1]))
        stitched = stitch_subtours(space, subtours, sorted(cross))
        assert stitched.closed, i
        assert stitched.visits() >= set(pts), i
        total = sum(tour_weight(space, t) for t in subtours)
        cross_tree = edges_weight(space, mst(space, sorted(cross)))
        assert tour_weight(space, stitched) <= total + 2 * cross_tree + REL, i

        # matching oracle cross-check on small odd sets
        odd_size = 2 * int(rng.integers(1, min(6, n // 2) + 1))
        if odd_size <= 12:
            odd = sorted(rng.choice(n, size=odd_size, replace=False).tolist())
            tree = mst(space, range(n))
            pairs = odd_matching_by_tree(space, tree, odd)
            w_tree = sum(space.dist(a, b) for a, b in pairs)
            _, w_opt = brute_force_matching(space, odd)
            assert w_opt <= w_tree + REL, i
            assert w_tree <= edges_weight(space, tree) + REL, i
            matching_checks += 1
    _report(4, f"500 patch/stitch rounds hold all bounds; "
               f"{matching_checks} matching-oracle cross-checks")


def test_criterion_05_cut_probability_shape():
    # Translate-equivalent pair classes on a periodic line, so one constant
    # meaningfully bounds every triple; two levels and two distances each.
    space = from_points([(float(i), 0.0) for i in range(200)])
    h = build_hierarchy(space, 6.0)
    dd = estimate_doubling(space, seed=1).ddim_upper
    triples = []
    for u in (42, 49, 56, 63, 79):
        triples.append((u, u + 2, 1))
        triples.append((u, u + 3, 1))
    for u in (32, 69, 106, 143, 180):
        triples.append((u, u + 12, 2))
    for u in (26, 63, 100, 137, 174):
        triples.append((u, u + 18, 2))
    assert len(triples) == 20
    xs, ps = [], []
    for idx, (u, v, lvl) in enumerate(triples):
        freq = estimate_cut_probability(space, h, u, v, lvl, 10_000, dd,
                                        np.random.default_rng(50_000 + idx))
        xs.append(dd * space.dist(u, v) / 6.0 ** lvl)
        ps.append(freq)
    xs = np.asarray(xs)
    ps = np.asarray(ps)
    fit_c = float((ps * xs).sum() / (xs * xs).sum())
    worst = float((ps / (fit_c * xs)).max())
    assert worst <= 1.5, (fit_c, worst)

    # frequency is nonincreasing in the level, within 2 sigma
    trials = 10_000
    mono_pairs = [(42, 44), (49, 51), (32, 44), (63, 66), (106, 118)]
    for u, v in mono_pairs:
        freqs, sigs = [], []
        for lvl in (1, 2, 3):
            f = estimate_cut_probability(space, h, u, v, lvl, trials, dd,
                                         np.random.default_rng(60_000 + u + lvl))
            freqs.append(f)
            sigs.append(math.sqrt(max(f * (1 - f), 1e-4) / trials))
        for a in range(2):
            slack = 2 * math.hypot(sigs[a], sigs[a + 1])
            assert freqs[a + 1] <= freqs[a] + slack, (u, v, freqs)
    _report(5, f"20 triples fit C={fit_c:.3f} with max excess {worst:.2f}x <= 1.5x; "
               "frequencies nonincreasing in level within 2 sigma")


def test_criterion_06_dp_oracle_equivalence():
    t0 = time.time()
    for i in range(50):
        rng = np.random.default_rng(7_000 + i)
        n = int(rng.integers(3, 9))
        space = rand_space(8_000 + i, n)
        h = build_hierarchy(space, 6.0)
        tree = make_flat_tree(space)
        res = solve_light_tour(space, h, tree, m_cap=n,
                               portal_chooser=lambda members, level: list(range(space.n)))
        oracle = brute_force_tsp(space)
        assert abs(res.cost - oracle.weight) <= 1e-9, (i, res.cost, oracle.weight)
    elapsed = time.time() - t0
    assert elapsed < 300, f"oracle equivalence took {elapsed:.1f}s"
    _report(6, f"50 flat-tree runs equal brute force exactly in {elapsed:.1f}s")


def test_criterion_07_end_to_end_quality():
    ratios = []
    for seed in range(100):
        n = 10 + seed % 9
        space = normalize(generate_instance("uniform2d", n, seed=seed))
        tour, _ = solve_tsp(space, SolveParams(seed=seed))
        opt = held_karp_tsp(space).weight
        w = tour_weight(space, tour)
        assert tour.closed, seed
        assert tour.visits() == set(range(n)) and len(tour.seq) == n, seed
        assert w >= opt - REL, (seed, w, opt)
        ratios.append(w / opt)
    med = float(np.median(ratios))
    assert med <= E2E_MEDIAN_RATIO_CAP, med
    _report(7, f"100 solves valid and >= optimum; median ratio {med:.4f} "
               f"<= {E2E_MEDIAN_RATIO_CAP} (frozen), max {max(ratios):.4f}")


def test_criterion_08_dense_split_correctness():
    for seed in range(50):
        space = dense_fixture(seed)
        allp = set(range(space.n))
        h = build_hierarchy(space, 6.0)
        hit = find_dense_region(space, h, 2.0)
        assert hit is not None, seed
        level, v, q_star = hit
        radius = choose_split_radius(space, v, level, 1 / 12, 6.0)
        sr = split_instance(space, h, v, level, radius, 1 / 12, 0.05)
        s1, s2 = set(sr.s1), set(sr.s2)
        assert s1 | s2 == allp, seed
        assert s1 & s2, seed
        assert s2 < allp, seed
        assert s1 >= set(int(p) for p in ball(space, v, sr.h)), seed

        dd = estimate_doubling(space, seed=seed).ddim_upper
        big = edges_weight(space, mst(space, ball(space, v, 13 * 6.0 ** level)))
        assert big < 2 ** (5 * dd) * q_star * 6.0 ** level, seed

        tour, report = solve_tsp(space, SolveParams(seed=seed, q=2.0))
        assert tour.visits() == allp and len(tour.seq) == space.n, seed
        assert "dense" in [t.get("mode") for t in report["trace"]], seed
    _report(8, "50 engineered instances split validly and splice to full tours; "
               "ball MST growth bound holds")


def test_criterion_09_determinism():
    space = generate_instance("uniform2d", 12, seed=5)
    old = os.environ.get("TSP_THREADS")
    outs = {}
    try:
        for threads in ("0", "4"):
            os.environ["TSP_THREADS"] = threads
            for mode in ("solve", "partition_stats"):
                text = strip_timing(render_report(
                    run({"space": space, "mode": mode, "seed": 42})))
                outs.setdefault(mode, []).append(text)
        os.environ["TSP_THREADS"] = "0"
        repeat = strip_timing(render_report(
            run({"space": space, "mode": "solve", "seed": 42})))
    finally:
        if old is None:
            os.environ.pop("TSP_THREADS", None)
        else:
            os.environ["TSP_THREADS"] = old
    for mode, versions in outs.items():
        assert versions[0] == versions[1], f"{mode} differs across TSP_THREADS"
    assert repeat == outs["solve"][0], "repeat run differs"
    _report(9, "reports byte-identical (timings excluded) across repeats and "
               "TSP_THREADS in {0, 4}")


def test_criterion_10_christofides_ratio():
    for i in range(100):
        rng = np.random.default_rng(9_000 + i)
        n = int(rng.integers(4, 15))
        space = rand_space(10_000 + i, n)
        res = christofides(space)
        assert res.method == "christofides_exact", i
        opt = held_karp_tsp(space).weight
        assert res.weight <= 1.5 * opt * (1 + REL), (i, res.weight / opt)
    _report(10, "100 instances within the 1.5 ratio (exact matching mode)")
