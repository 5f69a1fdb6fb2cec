"""Tests of the benchmark's independent references and checks.

    python3 -m pytest bench/test_refs.py
"""

import itertools
import json

import numpy as np
import pytest

import refs


def brute_optimum(d):
    n = len(d)
    return min(refs.tour_weight(d, (0,) + perm)
               for perm in itertools.permutations(range(1, n)))


@pytest.mark.parametrize("n", range(2, 10))
@pytest.mark.parametrize("seed", range(3))
def test_exact_optimum_matches_permutation_search(n, seed):
    rng = np.random.default_rng(seed)
    d = refs.point_distances(rng.random((n, 2)))
    assert refs.exact_optimum(d) == pytest.approx(brute_optimum(d), rel=1e-12)


def test_exact_optimum_on_a_matrix_and_a_line():
    rng = np.random.default_rng(7)
    raw = rng.uniform(1, 10, (8, 8))
    raw = (raw + raw.T) / 2
    np.fill_diagonal(raw, 0)
    assert refs.exact_optimum(raw) == pytest.approx(brute_optimum(raw), rel=1e-12)
    line = refs.point_distances(np.array([[2.5 * i, 0.0] for i in range(12)]))
    assert refs.exact_optimum(line) == pytest.approx(refs.line_optimum(12, 2.5), rel=1e-12)


def test_mst_weight_of_a_square_and_a_star():
    square = refs.point_distances(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float))
    assert refs.mst_weight(square) == pytest.approx(3.0)
    star = np.array([[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]], dtype=float)
    assert refs.mst_weight(star) == pytest.approx(3.0)


def _report(tour, d, scale=2.0, exact=None, trace=None):
    """A solve report as nettsp.runner.run shapes it, in normalized units."""
    weight = refs.tour_weight(d, tour)
    bounds = {"mst": refs.mst_weight(d) * scale}
    if exact is not None:
        bounds["exact"] = exact * scale
    return {"instance": {"scale": scale},
            "lower_bounds": bounds,
            "results": {"solve": {"tour": list(tour), "weight": weight * scale,
                                  "weight_denormalized": weight}},
            "recursion_trace": trace or [{"n": len(d), "depth": 0, "mode": "sparse"}]}


@pytest.fixture
def square():
    d = refs.point_distances(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float))
    return d, {"n": 4, "mst": refs.mst_weight(d), "exact": refs.exact_optimum(d)}


def test_check_accepts_an_optimal_tour(square):
    d, ref = square
    assert refs.check_solve(_report((0, 1, 2, 3), d, exact=ref["exact"]), d, ref) == []


@pytest.mark.parametrize("tour", [(0, 1, 2, 2), (0, 1, 2), (0, 1, 2, 3, 1), (0, 1, 2, 4)])
def test_check_rejects_a_repeated_or_missing_point(square, tour):
    d, ref = square
    report = _report((0, 1, 2, 3), d, exact=ref["exact"])
    report["results"]["solve"]["tour"] = list(tour)
    assert refs.check_solve(report, d, ref)


def test_check_rejects_a_weight_below_the_reference(square):
    d, ref = square
    low = dict(ref, exact=ref["exact"] * 1.5)
    problems = refs.check_solve(_report((0, 1, 2, 3), d, exact=low["exact"]), d, low)
    assert any("below the reference" in p for p in problems)


def test_check_rejects_a_misreported_weight_or_bound(square):
    d, ref = square
    report = _report((0, 2, 1, 3), d, exact=ref["exact"])
    report["results"]["solve"]["weight_denormalized"] *= 1 + 1e-6
    report["lower_bounds"]["mst"] *= 1.01
    report["lower_bounds"]["exact"] *= 0.99
    problems = refs.check_solve(report, d, ref)
    assert len(problems) == 3


def test_check_requires_a_dense_entry_when_asked(square):
    d, ref = square
    report = _report((0, 1, 2, 3), d, exact=ref["exact"])
    assert refs.check_solve(report, d, ref, need_dense=True)
    report["recursion_trace"].append({"n": 3, "depth": 0, "mode": "dense"})
    assert refs.check_solve(report, d, ref, need_dense=True) == []


def test_references_read_the_instance_files(tmp_path):
    pts = np.random.default_rng(3).random((7, 2))
    csv = tmp_path / "p.csv"
    csv.write_text("".join(f"{x!r},{y!r}\n" for x, y in pts.tolist()))
    d = refs.point_distances(pts)
    got = refs.references({"path": str(csv), "format": "points_csv", "family": "uniform2d"})
    assert got == {"n": 7, "mst": refs.mst_weight(d), "exact": refs.exact_optimum(d)}

    mat = tmp_path / "m.json"
    mat.write_text(json.dumps({"matrix": d.tolist()}))
    got = refs.references({"path": str(mat), "format": "points_json", "family": "x"})
    assert got["exact"] == pytest.approx(refs.exact_optimum(d), rel=1e-12)

    line = tmp_path / "line.csv"
    line.write_text("".join(f"{2.0 * i!r},0.0\n" for i in range(30)))
    got = refs.references({"path": str(line), "format": "points_csv", "family": "line",
                           "spacing": 2.0})
    assert got["exact"] == refs.line_optimum(30, 2.0) == pytest.approx(got["mst"] * 2)
