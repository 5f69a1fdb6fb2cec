import math
import warnings

import numpy as np
import pytest

from nettsp.errors import DegenerateInstance, InvalidMetric
from nettsp.metric import (MetricSpace, annulus, ball, estimate_doubling,
                           from_matrix, from_points, normalize, restrict,
                           validate_metric)


def grid(k):
    return from_points([(x, y) for x in range(k) for y in range(k)])


def test_validate_collinear_passes():
    sp = from_points([(0.0,), (1.0,), (2.0,)])
    assert validate_metric(sp).passed


def test_validate_matrix_triangle_violation():
    mat = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
    report = validate_metric(from_matrix(mat))
    assert not report.passed
    triples = {v[:3] for v in report.violations}
    assert (0, 2, 1) in triples
    slack = [v[3] for v in report.violations if v[:3] == (0, 2, 1)][0]
    assert slack == pytest.approx(3.0)


def test_validate_uniform_random_exhaustive():
    sp = from_points(np.random.default_rng(0).random((50, 2)))
    report = validate_metric(sp)
    assert report.passed and report.checks["triangle_exhaustive"]


def test_validate_sampled_path_large_instance():
    sp = from_points(np.random.default_rng(1).random((210, 2)))
    report = validate_metric(sp)
    assert report.passed and not report.checks["triangle_exhaustive"]


@pytest.mark.parametrize("space, message", [
    (from_points([(0.0, 0.0), (1.0, math.nan), (2.0, 2.0)]),
     "non-finite coordinate at (1, 1)"),
    (from_points([(0.0, 0.0), (1.0, 1.0), (-math.inf, 2.0)]),
     "non-finite coordinate at (2, 0)"),
    (from_points([(0.0, 0.0), (1e200, 0.0)]), "non-finite distance at (0, 1)"),
    (from_matrix([[0, math.inf], [math.inf, 0]]), "non-finite distance at (0, 1)"),
    (from_matrix([[0, -1], [-1, 0]]), "negative distance at (0, 1)"),
    (from_matrix([[0, 1], [1, 0.5]]), "non-zero diagonal distance at (1, 1)"),
    (from_matrix([[0, 1], [2, 0]]), "asymmetric distance at (0, 1)"),
])
def test_validate_raises_named_check_without_warnings(space, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InvalidMetric) as err:
            validate_metric(space)
    assert str(err.value).startswith(message + ": ")
    assert not caught


def test_normalize_two_points_scale():
    sp = normalize(from_points([(0.0, 0.0), (0.25, 0.0)]))
    assert sp.dist(0, 1) == pytest.approx(1.0)
    assert sp.scale == pytest.approx(4.0)


def test_normalize_identity():
    sp = normalize(from_points([(0.0, 0.0), (1.0, 0.0), (5.0, 0.0)]))
    again = normalize(sp)
    assert again.scale / sp.scale == pytest.approx(1.0)
    assert again.min_gap()[0] == pytest.approx(1.0)


def test_normalize_random_min_gap_exactly_one():
    pts = np.random.default_rng(3).random((20, 2))
    sp = normalize(from_points(pts))
    gap, _ = sp.min_gap()
    assert gap == pytest.approx(1.0, rel=1e-12)


def test_normalize_rejects_duplicates():
    with pytest.raises(DegenerateInstance):
        normalize(from_points([(0.0, 0.0), (0.0, 0.0), (1.0, 1.0)]))


def test_normalize_snap_grid():
    pts = np.random.default_rng(5).random((30, 2)) * 100
    sp = normalize(from_points(pts), eps=0.04, snap=True)
    assert sp.min_gap()[0] == pytest.approx(1.0)


def test_ball_zero_radius():
    sp = grid(4)
    assert ball(sp, 5, 0.0).tolist() == [5]


def test_ball_full_radius():
    sp = grid(4)
    assert len(ball(sp, 0, sp.diameter())) == sp.n


def test_ball_grid_plus_shape():
    sp = grid(5)
    center = 2 * 5 + 2
    got = sorted(ball(sp, center, 1.0).tolist())
    expected = sorted([center, center - 1, center + 1, center - 5, center + 5])
    assert got == expected


def test_annulus_empty_when_equal_radii():
    sp = grid(4)
    assert len(annulus(sp, 0, 1.0, 1.0)) == 0


def test_annulus_all_but_center():
    sp = grid(4)
    got = annulus(sp, 0, 0.0, sp.diameter())
    assert sorted(got.tolist()) == list(range(1, sp.n))


def test_annulus_matches_brute_force():
    sp = grid(6)
    r1, r2 = 1.0, 2.0
    got = set(annulus(sp, 0, r1, r2).tolist())
    row = sp.row(0)
    expected = {p for p in range(sp.n) if row[p] > r1 + 1e-12 and row[p] <= r2 * (1 + 1e-9)}
    assert got == expected


def test_ball_and_annulus_brute_force_n500():
    sp = from_points(np.random.default_rng(11).random((500, 2)))
    rng = np.random.default_rng(12)
    row_cache = {}
    for _ in range(20):
        c = int(rng.integers(0, 500))
        radius = float(rng.uniform(0, sp.diameter()))
        row = row_cache.setdefault(c, sp.row(c))
        expected = {p for p in range(500) if row[p] <= radius * (1 + 1e-9)}
        assert set(ball(sp, c, radius).tolist()) == expected


def test_doubling_two_points():
    est = estimate_doubling(from_points([(0.0, 0.0), (3.0, 0.0)]))
    assert 1 <= est.lambda_upper <= 2
    assert est.ddim_upper >= 1.0


def test_doubling_line_at_most_two():
    sp = from_points([(float(i), 0.0) for i in range(40)])
    est = estimate_doubling(sp, audit_balls=64, seed=0)
    assert est.ddim_upper <= 2.0


def test_doubling_uniform_2d_recorded_ceiling():
    # Empirical ceiling; recorded rather than pinned to a sharp constant.
    sp = from_points(np.random.default_rng(2).random((120, 2)))
    est = estimate_doubling(sp, audit_balls=96, seed=2)
    assert 1.0 <= est.ddim_upper <= 4.5


def test_restrict_preserves_distances():
    sp = from_points(np.random.default_rng(4).random((12, 2)))
    idx = [2, 5, 7, 11]
    sub = restrict(sp, idx)
    for a in range(4):
        for b in range(4):
            assert sub.dist(a, b) == pytest.approx(sp.dist(idx[a], idx[b]))


def test_matrix_space_round_trip():
    rng = np.random.default_rng(8)
    pts = rng.random((9, 2))
    dense = from_points(pts)
    mat = from_matrix(dense.pairwise())
    for i in range(9):
        for j in range(9):
            assert mat.dist(i, j) == pytest.approx(dense.dist(i, j))
