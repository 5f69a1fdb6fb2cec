import math

import numpy as np
import pytest

from nettsp.errors import OddParity, TooLarge
from nettsp.io import generate_instance
from nettsp.metric import from_points, normalize
from nettsp.oracles import (brute_force_matching, brute_force_tsp,
                            christofides, held_karp_tsp, nearest_neighbor_tsp)
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


def test_nearest_neighbor_valid():
    sp = rand_space(9, 25)
    res = nearest_neighbor_tsp(sp)
    assert res.tour.visits() == set(range(25))
    assert not res.exact
