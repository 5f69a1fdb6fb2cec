import hashlib
import heapq
import itertools
import math

import numpy as np
import pytest

from nettsp.errors import Disconnected, OddParity
from nettsp.metric import from_points, normalize, restrict
from nettsp.nets import build_hierarchy
from nettsp.oracles import brute_force_matching, held_karp_tsp
from nettsp.tours import (Tour, cross_points, crossing_transitions,
                          dedupe_visits, double_tree_tour, edges_weight,
                          is_net_respecting, make_net_respecting, mst,
                          odd_matching_by_tree, patch_crossings,
                          stitch_subtours, tour_weight)


def rand_space(seed, n):
    return normalize(from_points(np.random.default_rng(seed).random((n, 2))))


def unit_triangle():
    return from_points([(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)])


# ---------------------------------------------------------------- weights

def test_weight_single_point():
    sp = rand_space(0, 5)
    assert tour_weight(sp, Tour((2,), closed=True)) == 0.0


def test_weight_unit_triangle():
    assert tour_weight(unit_triangle(), Tour((0, 1, 2))) == pytest.approx(3.0)


def test_weight_matches_independent_sum():
    sp = rand_space(1, 10)
    perm = list(np.random.default_rng(2).permutation(10))
    t = Tour(tuple(perm), closed=True)
    expected = sum(sp.dist(perm[i], perm[(i + 1) % 10]) for i in range(10))
    assert tour_weight(sp, t) == pytest.approx(expected)


# -------------------------------------------------------------------- mst

def test_mst_singleton():
    assert mst(rand_space(5, 4), [2]) == []


def test_mst_equilateral_weight():
    sp = unit_triangle()
    assert edges_weight(sp, mst(sp, range(3))) == pytest.approx(2.0)


def _prufer_decode(code, n):
    degree = [1] * n
    for c in code:
        degree[c] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for c in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, c))
        degree[c] -= 1
        if degree[c] == 1:
            heapq.heappush(leaves, c)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


@pytest.mark.parametrize("seed,n", [(0, 5), (1, 6), (2, 7), (3, 8)])
def test_mst_matches_exhaustive_tree_enumeration(seed, n):
    sp = rand_space(seed + 20, n)
    got = edges_weight(sp, mst(sp, range(n)))
    best = math.inf
    for code in itertools.product(range(n), repeat=n - 2):
        w = sum(sp.dist(u, v) for u, v in _prufer_decode(code, n))
        best = min(best, w)
    assert got == pytest.approx(best)


# ------------------------------------------------------------ double tree

def test_double_tree_singleton():
    t = double_tree_tour(restrict(rand_space(6, 5), [3]))
    assert t.seq == (0,) and t.closed


def test_double_tree_three_collinear():
    sp = from_points([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    t = double_tree_tour(sp)
    assert tour_weight(sp, t) == pytest.approx(4.0)


@pytest.mark.parametrize("seed", range(6))
def test_mst_weight_growth_bound(seed):
    from nettsp.metric import estimate_doubling
    rng = np.random.default_rng(seed + 900)
    n = int(rng.integers(20, 60))
    sp = rand_space(seed + 910, n)
    dd = estimate_doubling(sp, seed=seed).ddim_upper
    for _ in range(5):
        k = int(rng.integers(2, n))
        subset = sorted(rng.choice(n, size=k, replace=False).tolist())
        w = edges_weight(sp, mst(sp, subset))
        diam = max(sp.dist(a, b) for a in subset for b in subset)
        assert w <= 4 * k ** (1 - 1 / dd) * diam + 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_double_tree_sandwich(seed):
    n = 6 + seed
    sp = rand_space(seed + 30, n)
    t = double_tree_tour(sp)
    w = tour_weight(sp, t)
    opt = held_karp_tsp(sp).weight
    tree_w = edges_weight(sp, mst(sp, range(n)))
    assert opt - 1e-9 <= w <= 2 * tree_w + 1e-9


# ---------------------------------------------------- net-respecting form

def test_make_net_respecting_fixed_point():
    sp = rand_space(7, 25)
    h = build_hierarchy(sp, 6.0)
    t = double_tree_tour(sp)
    nr = make_net_respecting(sp, t, h, 0.125)
    assert is_net_respecting(nr, h, 0.125)[0]
    again = make_net_respecting(sp, nr, h, 0.125)
    assert again.seq == nr.seq


def test_short_transition_untouched():
    sp = rand_space(8, 12)
    h = build_hierarchy(sp, 6.0)
    # any transition shorter than 1/eps already connects bottom-level points
    pair = min(((i, j) for i in range(12) for j in range(i + 1, 12)),
               key=lambda p: sp.dist(*p))
    t = Tour(pair, closed=False)
    if sp.dist(*pair) < 8.0:
        out = make_net_respecting(sp, t, h, 0.125)
        assert out.seq == t.seq


@pytest.mark.parametrize("seed", range(6))
def test_net_respecting_ratio(seed):
    rng = np.random.default_rng(seed + 50)
    n = int(rng.integers(10, 31))
    sp = rand_space(seed + 60, n)
    h = build_hierarchy(sp, 6.0)
    eps = 0.125
    t = Tour(tuple(rng.permutation(n)), closed=True)
    nr = make_net_respecting(sp, t, h, eps)
    ok, _ = is_net_respecting(nr, h, eps)
    assert ok
    assert nr.visits() >= t.visits()
    assert tour_weight(sp, nr) <= (1 + 16 * eps) * tour_weight(sp, t) + 1e-9


def test_is_net_respecting_detects_violation():
    sp = from_points([(float(i), 0.0) for i in range(400)])
    h = build_hierarchy(sp, 6.0)
    u, v = 1, 289
    level = h.level_of_value(0.125 * sp.dist(u, v))
    assert level >= 1
    assert not h.in_net(u, level) and not h.in_net(v, level)
    ok, violation = is_net_respecting(Tour((u, v), closed=False), h, 0.125)
    assert not ok and violation[0] == 0 and violation[1] == (u, v)


def test_is_net_respecting_agrees_with_direct_check(seed=0):
    rng = np.random.default_rng(seed)
    sp = rand_space(9, 20)
    h = build_hierarchy(sp, 6.0)
    eps = 1 / 16
    t = Tour(tuple(rng.permutation(20)), closed=True)
    ok, violation = is_net_respecting(t, h, eps)
    expect_ok = True
    for x, y in t.transitions():
        lvl = h.level_of_value(eps * sp.dist(x, y))
        if lvl >= 0 and not (h.in_net(x, lvl) and h.in_net(y, lvl)):
            expect_ok = False
            break
    assert ok == expect_ok


# ------------------------------------------------------------- matchings

def test_matching_empty():
    sp = rand_space(10, 5)
    assert odd_matching_by_tree(sp, mst(sp, range(5)), []) == []


def test_matching_path_ends():
    sp = from_points([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    tree = mst(sp, range(3))
    pairs = odd_matching_by_tree(sp, tree, [0, 2])
    assert pairs == [(0, 2)] or pairs == [(2, 0)]
    assert sp.dist(0, 2) <= edges_weight(sp, tree) + 1e-9


def test_matching_odd_parity_raises():
    sp = rand_space(11, 5)
    with pytest.raises(OddParity):
        odd_matching_by_tree(sp, mst(sp, range(5)), [0, 1, 2])


@pytest.mark.parametrize("seed", range(10))
def test_matching_between_optimum_and_tree_weight(seed):
    rng = np.random.default_rng(seed + 70)
    n = int(rng.integers(6, 12))
    sp = rand_space(seed + 80, n)
    tree = mst(sp, range(n))
    k = 2 * int(rng.integers(1, min(5, n // 2) + 1))
    odd = sorted(rng.choice(n, size=k, replace=False).tolist())
    pairs = odd_matching_by_tree(sp, tree, odd)
    w = sum(sp.dist(a, b) for a, b in pairs)
    _, opt = brute_force_matching(sp, odd)
    assert opt - 1e-9 <= w <= edges_weight(sp, tree) + 1e-9
    assert sorted(p for pair in pairs for p in pair) == odd


# --------------------------------------------------------------- patching

def test_patch_already_light_is_identity():
    sp = rand_space(12, 8)
    t = Tour(tuple(range(8)), closed=True)
    cluster = [0, 1, 2, 3]  # contiguous block crosses twice
    assert len(crossing_transitions(t, cluster)) == 2
    assert patch_crossings(sp, t, cluster).seq == t.seq


def test_patch_four_crossings_two_point_cluster():
    sp = rand_space(13, 8)
    t = Tour((0, 4, 1, 5, 2, 6, 3, 7), closed=True)
    cluster = [0, 1, 2, 3]
    assert len(crossing_transitions(t, cluster)) == 8
    chat = cross_points(t, cluster)
    bound = tour_weight(sp, t) + 4 * edges_weight(sp, mst(sp, chat))
    out = patch_crossings(sp, t, cluster)
    assert len(crossing_transitions(out, cluster)) <= 2
    assert out.visits() >= t.visits()
    assert tour_weight(sp, out) <= bound + 1e-9


def patch_case(seed):
    """(space, tour, cluster) of the patching sweep's case ``seed``."""
    rng = np.random.default_rng(seed + 90)
    n = int(rng.integers(5, 16))
    sp = rand_space(seed + 101, n)
    t = Tour(tuple(rng.permutation(n)), closed=bool(rng.integers(0, 2)))
    csize = int(rng.integers(1, n))
    cluster = sorted(rng.choice(n, size=csize, replace=False).tolist())
    return sp, t, cluster


@pytest.mark.parametrize("seed", range(60))
def test_patch_random_sweep(seed):
    sp, t, cluster = patch_case(seed)
    w0 = tour_weight(sp, t)
    chat = cross_points(t, cluster)
    tree_w = edges_weight(sp, mst(sp, chat)) if chat else 0.0
    out = patch_crossings(sp, t, cluster)
    bound = w0 + 4 * tree_w
    if len(crossing_transitions(t, cluster)) <= 2:
        assert out.seq == t.seq
        return
    assert len(crossing_transitions(out, cluster)) <= 2
    assert out.visits() >= t.visits()
    assert tour_weight(sp, out) <= bound + 1e-9
    if not t.closed:
        assert out.endpoints == t.endpoints


# -------------------------------------------------------------- stitching

def test_stitch_single_closed_subtour():
    sp = rand_space(14, 6)
    t = Tour((0, 1, 2, 3), closed=True)
    out = stitch_subtours(sp, [t], [0])
    assert out.closed and out.visits() >= t.visits()
    assert tour_weight(sp, out) <= tour_weight(sp, t) + 1e-9


def test_stitch_two_subtours_on_square():
    sp = from_points([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    t1 = Tour((0, 1), closed=False)
    t2 = Tour((2, 3), closed=False)
    cross = [0, 1, 2, 3]
    out = stitch_subtours(sp, [t1, t2], cross)
    assert out.closed and out.visits() == {0, 1, 2, 3}
    bound = 2.0 + 2 * edges_weight(sp, mst(sp, cross))
    assert tour_weight(sp, out) <= bound + 1e-9


def test_stitch_disconnected_raises():
    sp = from_points([(0.0, 0.0), (1.0, 0.0), (50.0, 0.0), (51.0, 0.0)])
    t1 = Tour((0, 1), closed=True)
    t2 = Tour((2, 3), closed=True)
    with pytest.raises(Disconnected):
        stitch_subtours(sp, [t1, t2], [0])


def stitch_case(seed):
    """(space, subtours, cross points) of the stitching sweep's case ``seed``."""
    rng = np.random.default_rng(seed + 400)
    n = int(rng.integers(6, 16))
    sp = rand_space(seed + 500, n)
    pts = list(rng.permutation(n))
    chunks = np.array_split(np.asarray(pts), int(rng.integers(1, 4)))
    subtours, cross = [], set()
    for ch in chunks:
        ch = [int(x) for x in ch]
        if not ch:
            continue
        if rng.integers(0, 2):
            subtours.append(Tour(tuple(ch), closed=True))
            cross.add(ch[0])
        else:
            subtours.append(Tour(tuple(ch), closed=False))
            cross.update((ch[0], ch[-1]))
    return sp, subtours, sorted(cross)


@pytest.mark.parametrize("seed", range(40))
def test_stitch_random_sweep(seed):
    sp, subtours, cross = stitch_case(seed)
    out = stitch_subtours(sp, subtours, cross)
    total = sum(tour_weight(sp, t) for t in subtours)
    tree_w = edges_weight(sp, mst(sp, cross))
    assert out.closed
    assert out.visits() >= set().union(*[t.visits() for t in subtours])
    assert tour_weight(sp, out) <= total + 2 * tree_w + 1e-9


def test_patched_and_stitched_sweep_tours_are_pinned():
    """Every sweep case's exact output, not just its bounds, so a change in
    the Euler assembly's edge order or tie-breaking shows here."""
    outs = [patch_crossings(*patch_case(seed)) for seed in range(60)]
    outs += [stitch_subtours(*stitch_case(seed)) for seed in range(40)]
    text = repr([(t.seq, t.closed) for t in outs])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "32ad77487bdf8437379d357700882e80dcfd840534de3766ec9fea0c3f0180b3")


def test_dedupe_visits():
    sp = rand_space(15, 6)
    t = Tour((0, 3, 1, 3, 2, 0, 4), closed=True)
    out = dedupe_visits(t)
    assert out.seq == (0, 3, 1, 2, 4)
    assert tour_weight(sp, out) <= tour_weight(sp, t) + 1e-9
