import itertools
import math
from functools import reduce
from operator import add

import numpy as np
import pytest

from nettsp import oracles
from nettsp.errors import OddParity, TooLarge
from nettsp.io import generate_instance
from nettsp.metric import from_matrix, from_points, normalize, validate_metric
from nettsp.oracles import (MATCHING_EXACT_MAX, _exact_matching, brute_force_matching,
                            brute_force_tsp, christofides, held_karp_tsp, nearest_neighbor_tsp)
from nettsp.tours import edges_weight, mst, odd_matching_by_tree, tour_weight


def rand_space(seed, n):
    return normalize(from_points(np.random.default_rng(seed).random((n, 2))))


def test_brute_unit_triangle():
    sp = from_points([(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)])
    assert brute_force_tsp(sp).weight == pytest.approx(3.0)


def test_brute_unit_square_perimeter():
    sp = from_points([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    res = brute_force_tsp(sp)
    assert res.weight == pytest.approx(4.0)
    assert res.exact


def test_brute_too_large():
    with pytest.raises(TooLarge):
        brute_force_tsp(rand_space(0, 11))


# Held-Karp on the benchmark's exact_small instances (generator seed 0,
# normalized), captured before the kernel's pull-form rewrite: min-plus is
# exact under any grouping, so the tour and the weight's last bit must hold.
HELD_KARP_PINNED = [
    ("uniform2d", 18, [0, 7, 6, 5, 1, 10, 9, 16, 4, 13, 2, 3, 11, 14, 8, 15, 12, 17],
     "278.9573929473582"),
    ("clustered", 17, [0, 14, 8, 10, 2, 1, 15, 11, 5, 13, 3, 9, 7, 4, 6, 16, 12],
     "1652.7784028875838"),
    ("line", 16, [0] + list(range(15, 0, -1)), "30.0"),
    ("matrix_random_metric", 18,
     [0, 13, 14, 17, 7, 8, 16, 4, 9, 11, 12, 6, 5, 10, 2, 15, 3, 1], "35.86028046202596"),
]


@pytest.mark.parametrize("kind, n, tour, weight", HELD_KARP_PINNED)
def test_held_karp_pinned_on_exact_small(kind, n, tour, weight):
    res = held_karp_tsp(normalize(generate_instance(kind, n, 0)))
    assert list(res.tour.seq) == tour
    assert repr(res.weight) == weight


@pytest.mark.parametrize("seed", range(8))
def test_brute_matches_held_karp(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    sp = rand_space(seed + 10, n)
    assert held_karp_tsp(sp).weight == pytest.approx(brute_force_tsp(sp).weight,
                                                     abs=1e-9)


def test_held_karp_two_points():
    sp = normalize(from_points([(0.0, 0.0), (0.3, 0.4)]))
    res = held_karp_tsp(sp)
    assert res.weight == pytest.approx(2.0 * sp.dist(0, 1))


def test_held_karp_tour_is_consistent():
    sp = rand_space(1, 12)
    res = held_karp_tsp(sp)
    assert res.tour.visits() == set(range(12))
    assert tour_weight(sp, res.tour) == pytest.approx(res.weight)


def test_held_karp_mst_sandwich():
    sp = rand_space(2, 15)
    res = held_karp_tsp(sp)
    tree_w = edges_weight(sp, mst(sp, range(15)))
    assert tree_w - 1e-9 <= res.weight <= 2 * tree_w + 1e-9


def test_held_karp_too_large():
    with pytest.raises(TooLarge):
        held_karp_tsp(rand_space(3, 19))


def closed_sum(d, seq):
    """The closed tour's weight, summed left to right from ``seq[0]``."""
    weight = 0.0
    for a, b in zip(seq, seq[1:] + seq[:1]):
        weight += d[a][b]
    return weight


def enumerated_optimum(d):
    """The least closed_sum over every order of points 1..n-1 after 0, so
    over both directions of every cycle."""
    d = np.asarray(d).tolist()
    return min(closed_sum(d, (0,) + perm) for perm in itertools.permutations(range(1, len(d))))


def near_symmetric_space():
    """8 random points whose distances above the diagonal gain up to 5e-10:
    symmetric only within REL_TOL, so the two directions of a cycle differ."""
    rng = np.random.default_rng(3)
    d = from_points(rng.random((8, 2))).pairwise() + np.triu(rng.random((8, 8)) * 5e-10, 1)
    return from_matrix(d)


def star_space(n, center):
    d = np.full((n, n), 2.0)
    d[center, :] = d[:, center] = 1.0
    np.fill_diagonal(d, 0.0)
    return from_matrix(d)


def equilateral_space(n):
    return from_matrix(1.0 - np.eye(n))


def test_brute_scores_both_directions_on_a_near_symmetric_matrix():
    sp = near_symmetric_space()
    validate_metric(sp)
    assert not np.array_equal(sp.pairwise(), sp.pairwise().T)
    # scoring each cycle in one direction only gave 2.5792081146033774
    assert repr(enumerated_optimum(sp.pairwise())) == "2.5792081134139"
    assert repr(brute_force_tsp(sp).weight) == "2.5792081134139"
    assert repr(held_karp_tsp(sp).weight) == "2.5792081134139"


@pytest.mark.parametrize("kind", ["uniform2d", "clustered", "line", "matrix_random_metric"])
def test_brute_force_weight_is_the_left_to_right_sum_held_karp_reports(kind):
    # adding both edges at 0 first put the two oracles 1-2 ulp apart on 16
    # of these 84 instances
    coincide = 0
    for n in range(2, 9):
        for seed in range(3):
            sp = normalize(generate_instance(kind, n, seed))
            d = sp.pairwise().tolist()
            brute, exact = brute_force_tsp(sp), held_karp_tsp(sp)
            assert repr(brute.weight) == repr(closed_sum(d, brute.tour.seq))
            cycle = exact.tour.seq
            if brute.tour.seq in (cycle, cycle[:1] + cycle[:0:-1]):
                assert repr(brute.weight) == repr(exact.weight)
                coincide += 1
    assert coincide


@pytest.mark.parametrize("shape, n", [
    (shape, n) for shape in ("points-0", "points-1", "star-first", "star-last", "equilateral")
    for n in range(1, 10)] + [("near-symmetric", 8)])
def test_held_karp_equals_a_full_enumeration(shape, n):
    if shape.startswith("points"):
        sp = from_points(np.random.default_rng(100 * n + int(shape[-1])).random((n, 2)))
    elif shape.startswith("star"):
        sp = star_space(n, 0 if shape == "star-first" else n - 1)
    elif shape == "equilateral":
        sp = equilateral_space(n)
    else:                        # its own backward table
        sp = near_symmetric_space()
    d = sp.pairwise()
    res = held_karp_tsp(sp)
    seq = res.tour.seq
    assert seq[0] == 0 and sorted(seq) == list(range(n))
    assert res.weight == closed_sum(d, seq) == enumerated_optimum(d)
    # the returned direction: the lower sum, ties to the lower last point
    back = seq[:1] + seq[:0:-1]
    assert (res.weight, seq[-1]) <= (closed_sum(d, back), back[-1])


@pytest.mark.parametrize("space", [
    normalize(generate_instance("uniform2d", 18, 0)),
    normalize(generate_instance("matrix_random_metric", 18, 0)),
    near_symmetric_space()], ids=["uniform2d-18", "matrix_random_metric-18", "near-symmetric-8"])
def test_held_karp_fills_its_tables_only_to_half_depth(monkeypatch, space):
    built = []
    group_targets = oracles._group_targets

    def counting(layer, k):
        built.append(int(np.bitwise_count(layer[0])))
        return group_targets(layer, k)

    monkeypatch.setattr(oracles, "_group_targets", counting)
    held_karp_tsp(space)
    k = space.n - 1
    h = (k + 2) // 2
    forward = list(range(2, h + 1))
    if np.array_equal(space.pairwise(), space.pairwise().T):
        assert built == forward                     # 17 groups: 8 layers, not 16
    else:                                           # its own backward table
        assert built == forward + list(range(2, k - h + 2))


def test_christofides_three_points_exact():
    sp = rand_space(4, 3)
    res = christofides(sp)
    assert res.weight == pytest.approx(held_karp_tsp(sp).weight)


@pytest.mark.parametrize("seed", range(10))
def test_christofides_ratio(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 15))
    sp = rand_space(seed + 20, n)
    res = christofides(sp)
    assert res.method == "christofides_exact"
    assert res.tour.visits() == set(range(n))
    assert res.weight <= 1.5 * held_karp_tsp(sp).weight + 1e-9


def test_christofides_collinear_doubles_length():
    sp = from_points([(float(i), 0.0) for i in range(7)])
    res = christofides(sp)
    assert res.weight == pytest.approx(2.0 * 6.0)


def test_christofides_tree_mode_for_many_odd():
    sp = rand_space(5, 60)
    res = christofides(sp)
    assert res.method == "christofides_tree"
    assert res.tour.visits() == set(range(60))


def test_matching_two_vertices():
    sp = rand_space(6, 5)
    pairs, w = brute_force_matching(sp, [1, 3])
    assert pairs == [(1, 3)]
    assert w == pytest.approx(sp.dist(1, 3))


def test_matching_unit_square():
    sp = from_points([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    _, w = brute_force_matching(sp, range(4))
    assert w == pytest.approx(2.0)


def test_matching_parity_and_size_errors():
    sp = rand_space(7, 20)
    with pytest.raises(OddParity):
        brute_force_matching(sp, [0, 1, 2])
    with pytest.raises(TooLarge):
        brute_force_matching(sp, range(14))


def test_matching_oracle_below_tree_matching():
    sp = rand_space(8, 12)
    tree = mst(sp, range(12))
    odd = list(range(10))
    _, opt = brute_force_matching(sp, odd)
    tree_pairs = odd_matching_by_tree(sp, tree, odd)
    tree_w = sum(sp.dist(a, b) for a, b in tree_pairs)
    assert opt <= tree_w + 1e-9


def old_matching_dp(space, verts):
    """The bitmask matching DP Christofides used before the subset path
    kernel took over: the lowest free vertex is paired first."""
    k = len(verts)
    d = space.pairwise(verts, verts)
    size = 1 << k
    dp = np.full(size, np.inf)
    choice = np.full(size, -1, dtype=np.int64)
    dp[0] = 0.0
    for mask in range(size):
        if not np.isfinite(dp[mask]):
            continue
        free = [t for t in range(k) if not mask & (1 << t)]
        if not free:
            continue
        a = free[0]
        for b in free[1:]:
            nm = mask | (1 << a) | (1 << b)
            w = dp[mask] + d[a, b]
            if w < dp[nm]:
                dp[nm] = w
                choice[nm] = a * k + b
    pairs = []
    mask = size - 1
    while mask:
        enc = int(choice[mask])
        a, b = divmod(enc, k)
        pairs.append((int(verts[a]), int(verts[b])))
        mask ^= (1 << a) | (1 << b)
    return pairs, float(dp[size - 1])


def pair_set(pairs):
    return {tuple(sorted(pair)) for pair in pairs}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("k", range(2, MATCHING_EXACT_MAX + 1, 2))
def test_exact_matching_pairs_equal_the_old_dps_on_random_points(k, seed):
    sp = rand_space(100 + seed, 40)
    verts = sorted(np.random.default_rng(seed).choice(40, size=k, replace=False).tolist())
    pairs, w = _exact_matching(sp, verts)
    assert pair_set(pairs) == pair_set(old_matching_dp(sp, verts)[0])
    assert sorted(p for pair in pairs for p in pair) == verts
    # summed in path order, left to right from 0.0
    assert reduce(add, (sp.dist(a, b) for a, b in pairs), 0.0) == w


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("k", range(2, 13, 2))
def test_exact_matching_weight_equals_brute_force_on_tied_integer_matrices(k, seed):
    rng = np.random.default_rng(seed)
    n = k + 3
    d = rng.integers(2, 5, size=(n, n)).astype(float)       # any such triangle holds
    d = np.triu(d, 1) + np.triu(d, 1).T
    sp = from_matrix(d)
    verts = sorted(rng.choice(n, size=k, replace=False).tolist())
    pairs, w = _exact_matching(sp, verts)
    assert w == brute_force_matching(sp, verts)[1]
    assert sorted(p for pair in pairs for p in pair) == verts
    assert sum(sp.dist(a, b) for a, b in pairs) == w


def test_christofides_tours_equal_the_old_dps(monkeypatch):
    grid = ([generate_instance("uniform2d", n, seed) for n in range(4, 48) for seed in range(6)]
            + [generate_instance("matrix_random_metric", n, 1) for n in range(4, 30)])
    new = [christofides(sp) for sp in grid]
    monkeypatch.setattr(oracles, "_exact_matching", old_matching_dp)
    old = [christofides(sp) for sp in grid]
    for a, b in zip(new, old):
        assert (a.tour.seq, repr(a.weight), a.method) == (b.tour.seq, repr(b.weight), b.method)
    assert sum(res.method == "christofides_exact" for res in new) == 232


def test_christofides_of_one_point_has_no_odd_vertex_to_match():
    sp = from_points([(0.5, 0.5)])
    assert _exact_matching(sp, []) == ([], 0.0)
    res = christofides(sp)
    assert (res.tour.seq, res.weight, res.method) == ((0,), 0.0, "christofides_exact")


def old_nearest_neighbor_seq(space):
    """The per-step scan nearest_neighbor_tsp made before it took one argmin
    per step: the nearest unvisited point, ties to the lowest index."""
    seq = [0]
    remaining = set(range(1, space.n))
    while remaining:
        row = space.row(seq[-1])
        nxt = min(remaining, key=lambda p: (row[p], p))
        seq.append(nxt)
        remaining.discard(nxt)
    return tuple(seq)


@pytest.mark.parametrize("kind, n", [("uniform2d", 200), ("line", 300),
                                     ("matrix_random_metric", 200), ("uniform2d", 1),
                                     ("grid", 12)])
def test_nearest_neighbor_equals_the_per_step_scan(kind, n):
    if kind == "grid":                  # many equidistant candidates: the tie rule decides
        sp = from_points([(float(i), float(j)) for i in range(n) for j in range(n)])
    else:
        sp = generate_instance(kind, n, 0)
    assert nearest_neighbor_tsp(sp).tour.seq == old_nearest_neighbor_seq(sp)


def test_nearest_neighbor_valid():
    sp = rand_space(9, 25)
    res = nearest_neighbor_tsp(sp)
    assert res.tour.visits() == set(range(25))
    assert not res.exact
