"""Instances of hard shapes, each solved end to end by the runner.

At n <= 18 the runner also runs Held-Karp, so every small solve is checked
against the exact optimum in its own report. The larger shapes are checked
against the MST bound in their report and, for the grid, its known optimum.
"""

import numpy as np
import pytest

from nettsp.metric import from_matrix, from_points
from nettsp.runner import run


def star(n):
    """Point 0 at distance 1 from every other point, which lie 2 apart."""
    d = np.full((n, n), 2.0)
    d[0, :] = d[:, 0] = 1.0
    np.fill_diagonal(d, 0.0)
    return from_matrix(d)


def equilateral(n):
    return from_matrix(1.0 - np.eye(n))


def ultrametric(n):
    """d(i, j) = 2^(b + 1), b the highest set bit of i XOR j."""
    return from_matrix([[2.0 ** (i ^ j).bit_length() if i != j else 0.0 for j in range(n)]
                        for i in range(n)])


def exponential_line(n):
    return from_points(2.0 ** np.arange(n))


def grid(n):
    """The first n points of a grid 4 wide, row by row."""
    i = np.arange(n)
    return from_points(np.stack([i % 4, i // 4], axis=1).astype(float))


def two_blobs(n):
    """Two random blobs in the unit square, 1e9 apart: the first holds
    ceil(n / 2) points."""
    pts = np.random.default_rng(n).random((n, 2))
    pts[(n + 1) // 2:, 0] += 1e9
    return from_points(pts)


@pytest.mark.parametrize("n", [2, 3, 9, 16, 18])
@pytest.mark.parametrize("shape", [star, equilateral, ultrametric, exponential_line, grid,
                                   two_blobs], ids=lambda shape: shape.__name__)
def test_small_shapes_solve_to_a_tour_no_lighter_than_the_optimum(shape, n):
    report = run({"space": shape(n), "mode": "solve", "seed": 0})
    solve = report["results"]["solve"]
    exact = report["lower_bounds"]["exact"]
    assert sorted(solve["tour"]) == list(range(n))
    assert solve["weight"] >= exact * (1 - 1e-9)
    optimum = {star: 2 * n - 2, equilateral: n}.get(shape)
    if optimum is not None:
        assert solve["weight"] == exact == optimum


def ten_dimensional(n):
    return from_points(np.random.default_rng(0).random((n, 10)))


def unit_grid(n):
    """The n x n unit grid; its optimum is n * n for even n."""
    i = np.arange(n * n)
    return from_points(np.stack([i % n, i // n], axis=1).astype(float))


# The weights are pinned at their last bit: the exact tables are min-plus
# over the same float sums under any blocking, so no kernel change moves them.
@pytest.mark.parametrize("space, optimum, weight", [
    (ten_dimensional(120), None, "201.61343150688677"),
    (unit_grid(20), 400.0, "433.15849883094495"),
], ids=["ten-dimensional-120", "unit-grid-20x20"])
def test_larger_shapes_solve_to_a_valid_tour_above_their_bounds(space, optimum, weight):
    report = run({"space": space, "mode": "solve", "seed": 0})
    solve = report["results"]["solve"]
    assert sorted(solve["tour"]) == list(range(space.n))
    assert solve["weight"] >= report["lower_bounds"]["mst"]
    if optimum is not None:
        assert solve["weight"] >= optimum
    assert repr(solve["weight"]) == weight
