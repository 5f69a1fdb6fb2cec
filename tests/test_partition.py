import math
import re
from collections import Counter

import numpy as np
import pytest

from nettsp.lightdp import draw_radius_samples, tree_from_samples
from nettsp.metric import REL_TOL, from_points, normalize, within
from nettsp.nets import build_hierarchy
from nettsp.partition import (distinct_carvings, estimate_cut_probability, partition_with_radii,
                              radius_ppf)


def rand_space(seed, n):
    return normalize(from_points(np.random.default_rng(seed).random((n, 2))))


# --------------------------------------------------------------- sampling

def test_samples_in_support():
    sp = rand_space(0, 60)
    h = build_hierarchy(sp, 6.0)
    samples = draw_radius_samples(h, 4, 2.0, np.random.default_rng(0))
    assert sum(radii.size for radii in samples) >= 200
    for level, radii in enumerate(samples):
        assert radii.shape == (len(h.net(level)), 4)
        assert np.all((h.radius(level) <= radii) & (radii <= 2 * h.radius(level)))


@pytest.mark.parametrize("guesses", [1, 2, 3])
def test_radius_draws_fill_each_level_center_by_center(guesses):
    # one array per level, equal bit for bit to one scalar draw per
    # (level, center, guess) in that order
    sp = rand_space(13, 80)
    h = build_hierarchy(sp, 6.0)
    samples = draw_radius_samples(h, guesses, 2.5, np.random.default_rng(guesses))
    rng = np.random.default_rng(guesses)
    assert len(samples) == h.top + 1 >= 3
    for level, radii in enumerate(samples):
        assert radii.tolist() == [[float(radius_ppf(h.radius(level), 2.5, rng.random()))
                                   for _ in range(guesses)] for _ in h.net(level)]
    for ddim in (0.99, math.nan):
        with pytest.raises(ValueError, match="ddim >= 1"):
            draw_radius_samples(h, guesses, ddim, rng)


def test_empirical_cdf_close_to_analytic():
    # density proportional to 2**(-beta r / a) on [a, 2a], beta = 8 ddim
    a, beta = 1.0, 16.0
    rng = np.random.default_rng(1)
    samples = np.sort(radius_ppf(a, beta / 8, rng.random(100_000)))
    emp = np.arange(1, len(samples) + 1) / len(samples)
    cdf = (1 - 2.0 ** (-beta * (samples - a) / a)) / (1 - 2.0 ** -beta)
    sup = np.abs(cdf - emp).max()
    assert sup < 0.01


def test_median_below_midpoint():
    # decreasing density concentrates mass near a
    rng = np.random.default_rng(2)
    med = np.median(radius_ppf(4.0, 1.0, rng.random(50_000)))
    assert med < 1.5 * 4.0


# -------------------------------------------------------------- partition

def drawn_carving(space, subset, h, level, seed):
    """Carve ``subset`` with each level center's radius drawn from ``seed``;
    returns the carving and the radii it was carved with, by center."""
    radii = draw_radius_samples(h, 1, 2.0, np.random.default_rng(seed))[level][:, 0]
    part = partition_with_radii(space, subset, h, level, radii)
    return part, dict(zip(h.net(level).tolist(), radii.tolist()))


def clusters_of(part):
    """center -> the sorted members of its cluster in ``part``."""
    out = {}
    for p, c in sorted(part.assign_center.items()):
        out.setdefault(c, []).append(p)
    return out


def carved_children(part):
    """The carving's clusters as sorted member tuples, as distinct_carvings lists them."""
    return tuple(sorted(tuple(v) for v in clusters_of(part).values()))


def test_single_point_single_cluster():
    sp = rand_space(3, 30)
    h = build_hierarchy(sp, 6.0)
    part, _ = drawn_carving(sp, [7], h, min(1, h.top), 0)
    assert clusters_of(part) == {part.assign_center[7]: [7]}


def test_top_level_single_cluster():
    sp = rand_space(4, 50)
    h = build_hierarchy(sp, 6.0)
    part, _ = drawn_carving(sp, range(sp.n), h, h.top, 1)
    assert len(clusters_of(part)) == 1


def test_partition_deterministic_given_seed():
    sp = rand_space(5, 100)
    h = build_hierarchy(sp, 6.0)
    lvl = min(2, h.top)
    p1, r1 = drawn_carving(sp, range(sp.n), h, lvl, 7)
    p2, r2 = drawn_carving(sp, range(sp.n), h, lvl, 7)
    assert p1.assign_center == p2.assign_center
    assert r1 == r2
    # and re-simulating from captured radii reproduces the assignment
    p3 = partition_with_radii(sp, range(sp.n), h, lvl, [r1[c] for c in h.net(lvl).tolist()])
    assert p3.assign_center == p1.assign_center


def test_partition_is_true_partition():
    sp = rand_space(6, 120)
    h = build_hierarchy(sp, 6.0)
    part, radii = drawn_carving(sp, range(sp.n), h, min(1, h.top), 3)
    clusters = clusters_of(part)
    seen = sorted(p for mem in clusters.values() for p in mem)
    assert seen == list(range(sp.n))
    for c, mem in clusters.items():
        r = radii[c]
        assert all(sp.dist(c, p) <= r * (1 + 1e-9) for p in mem)


def carving_loop(space, subset, h, level, radii):
    """The per-center loop the cover matrix replaced: each center in carving
    order claims its still-unassigned points inside its ball."""
    subset = np.asarray(sorted(set(int(p) for p in subset)), dtype=np.intp)
    centers = h.net(level)
    d = space.pairwise(centers, subset)
    assign_center = {}
    unassigned = np.ones(len(subset), dtype=bool)
    for rank, c in enumerate(centers):
        r = radii[int(c)]
        hit = unassigned & (d[rank] <= r + REL_TOL * max(1.0, r))
        for t in np.flatnonzero(hit):
            assign_center[int(subset[t])] = int(c)
        unassigned &= ~hit
        if not unassigned.any():
            break
    if unassigned.any():
        raise AssertionError(f"points {subset[unassigned].tolist()} not covered at level {level}")
    return assign_center


@pytest.mark.parametrize("seed", range(6))
def test_cover_matrix_carving_matches_the_carving_loop(seed):
    rng = np.random.default_rng(seed)
    sp = rand_space(seed + 20, int(rng.integers(15, 60)))
    h = build_hierarchy(sp, 6.0)
    seen = Counter()
    for level in range(h.top + 1):
        centers = h.net(level)
        subset = np.sort(rng.choice(sp.n, size=int(rng.integers(1, sp.n + 1)), replace=False))
        d = sp.pairwise(centers, subset)
        # each center's radius puts one point exactly at r, or at r * (1 + 1e-9)
        for stretch in (1.0, 1.0 + 1e-9):
            for _ in range(3):
                pick = rng.integers(len(subset), size=len(centers))
                r = d[np.arange(len(centers)), pick] / stretch
                radii = dict(zip(centers.tolist(), r.tolist()))
                # one radius each: distinct_carvings walks the carving loop once
                choices = r[:, None]
                try:
                    want = carving_loop(sp, subset, h, level, radii)
                except AssertionError as err:
                    with pytest.raises(AssertionError, match=f"^{re.escape(str(err))}$"):
                        partition_with_radii(sp, subset, h, level, r)
                    with pytest.raises(AssertionError, match=f"^{re.escape(str(err))}$"):
                        distinct_carvings(sp, subset, h, level, choices)
                    seen["uncovered"] += 1
                    continue
                part = partition_with_radii(sp, subset, h, level, r)
                # same assignment, inserted in the same (carving) order
                assert list(part.assign_center.items()) == list(want.items())
                assert distinct_carvings(sp, subset, h, level, choices) == [carved_children(part)]
                seen["on rim"] += sum(sp.dist(c, p) == radii[c]
                                      for p, c in part.assign_center.items())
    assert seen["uncovered"] > 0 and seen["on rim"] > 0


def test_distinct_carvings_walks_more_centers_than_the_recursion_limit():
    # 1,500 points 3 apart: at level 0 each center's ball holds only itself at
    # both radii, so the one walk is 1,500 centers deep
    sp = from_points([(3.0 * i, 0.0) for i in range(1500)])
    h = build_hierarchy(sp, 6.0)
    radii = np.tile([1.0, 1.5], (len(h.net(0)), 1))
    assert distinct_carvings(sp, range(sp.n), h, 0, radii) == [tuple((p,) for p in range(sp.n))]


# ------------------------------------------------------------- clustering

def tree_clusters(tree):
    """Every cluster of ``tree`` as (level, members), level by level from the bottom."""
    return [(level, members) for level, clusters in enumerate(tree)
            for members in clusters]


def test_two_point_hierarchy_outcomes():
    sp = from_points([(0.0, 0.0), (1.0, 0.0)])
    h = build_hierarchy(sp, 6.0)
    for seed in range(10):
        tree = tree_from_samples(sp, h, draw_radius_samples(h, 1, 1.0,
                                                            np.random.default_rng(seed)))
        assert list(tree[-1]) == [(0, 1)]
        for level, members in tree_clusters(tree):
            if level >= 1:
                assert members == (0, 1)


def test_tree_every_point_once_per_level():
    sp = rand_space(8, 200)
    h = build_hierarchy(sp, 6.0)
    samples = draw_radius_samples(h, 1, 2.5, np.random.default_rng(4))
    tree = tree_from_samples(sp, h, samples)
    by_level = {}
    for level, members in tree_clusters(tree):
        by_level.setdefault(level, []).extend(members)
    for level in range(h.top + 1):
        if level in by_level:
            assert sorted(by_level[level]) == list(range(sp.n))
    for level, members in tree_clusters(tree):
        # the cluster lies in one center's drawn ball, of radius at most 2 s^level
        radii = samples[level][:, 0]
        (center,) = set(partition_with_radii(sp, members, h, level, radii).assign_center.values())
        r = radii[h.net(level).tolist().index(center)]
        assert r <= 2 * 6.0 ** level * (1 + 1e-9)
        assert all(sp.dist(center, p) <= r * (1 + 1e-9) for p in members)
        (kids,) = tree[level][members]       # a level-0 cluster's kids are its points
        assert sorted(p for ch in kids for p in ch) == sorted(members)


# ---------------------------------------------------------- cut frequency

def test_cut_probability_same_point():
    sp = rand_space(9, 40)
    h = build_hierarchy(sp, 6.0)
    assert estimate_cut_probability(sp, h, 5, 5, 1, 10, 2.0,
                                    np.random.default_rng(0)) == 0.0


def test_cut_probability_far_pair_always_cut():
    sp = rand_space(10, 60)
    h = build_hierarchy(sp, 6.0)
    d = sp.pairwise()
    far = None
    for u in range(sp.n):
        for v in range(u + 1, sp.n):
            if d[u, v] > 4 * 6.0:
                far = (u, v)
                break
        if far:
            break
    assert far is not None
    f = estimate_cut_probability(sp, h, far[0], far[1], 1, 300, 2.0,
                                 np.random.default_rng(1))
    assert f == 1.0


def test_cut_probability_matches_partition_semantics():
    sp = rand_space(11, 50)
    h = build_hierarchy(sp, 6.0)
    lvl = min(1, h.top)
    u, v = 3, 17
    fast = estimate_cut_probability(sp, h, u, v, lvl, 64, 2.0,
                                    np.random.default_rng(5))
    centers = h.net(lvl)
    cut = 0
    draws = np.random.default_rng(5).random((64, len(centers)))
    for radii in radius_ppf(h.radius(lvl), 2.0, draws):
        part = partition_with_radii(sp, range(sp.n), h, lvl, radii)
        cut += part.assign_center[u] != part.assign_center[v]
    assert fast == pytest.approx(cut / 64)


@pytest.mark.parametrize("seed", range(4))
def test_cut_estimate_rims_follow_within(seed):
    # Level 0 (a = 1), both points centers, one trial: the rng draws center
    # 0's radius r, and point 1 lies at r (1 + 1.5 REL_TOL), past the rule's
    # rim r + REL_TOL r. A rim at r + 2a REL_TOL would cover it, as r <= 4a/3.
    radii = radius_ppf(1.0, 1.0, np.random.default_rng(seed).random((1, 2)))
    r = float(radii[0, 0])
    d = r * (1 + 1.5 * REL_TOL)
    sp = from_points([(0.0, 0.0), (d, 0.0)])
    h = build_hierarchy(sp, 6.0)
    assert sp.dist(0, 1) == d <= r + 2 * REL_TOL and not within(d, r)
    carve = partition_with_radii(sp, [0, 1], h, 0, radii[0])
    assert carve.assign_center == {0: 0, 1: 1}
    assert estimate_cut_probability(sp, h, 0, 1, 0, 1, 1.0, np.random.default_rng(seed)) == 1.0


def test_cut_frequency_monotone_in_level():
    sp = rand_space(12, 80)
    h = build_hierarchy(sp, 6.0)
    assert h.top >= 2
    trials = 3000
    u, v = 0, 1
    freqs = []
    for lvl in (1, 2):
        freqs.append(estimate_cut_probability(sp, h, u, v, lvl, trials, 2.5,
                                              np.random.default_rng(lvl)))
    sig = [math.sqrt(max(f * (1 - f), 1e-4) / trials) for f in freqs]
    assert freqs[1] <= freqs[0] + 2 * math.hypot(sig[0], sig[1]) + 1e-12
