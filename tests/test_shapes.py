"""Small instances of hard shapes, each solved end to end by the runner.

At these sizes (n <= 18) the runner also runs Held-Karp, so every solve is
checked against the exact optimum in its own report.
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
