import ast
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from nettsp import metric, sparse
from nettsp.errors import DegenerateInstance, InvalidMetric, TriangleViolation
from nettsp.io import generate_instance
from nettsp.metric import (EXHAUSTIVE_MAX, REL_TOL, DoublingEstimate, MetricSpace, _local_blocks,
                           _prim, ball, estimate_doubling, fold_weight, from_matrix, from_points, mst,
                           normalize, restrict, tree_weights, validate_metric, within)
from nettsp.nets import build_hierarchy
from nettsp.sparse import SolveParams, find_dense_region, solve_tsp
from nettsp.tours import edges_weight, tour_weight


def grid(k):
    return from_points([(x, y) for x in range(k) for y in range(k)])


def triangle_verdict(space):
    """None when validate_metric passes ``space``, else the (i, j, k, slack)
    its TriangleViolation names, read back from the message."""
    try:
        validate_metric(space)
    except TriangleViolation as err:
        named = re.search(r"\(i, j, k, slack\): (\(.*?\));", str(err)).group(1)
        return ast.literal_eval(named)
    return None


def test_validate_collinear_passes():
    sp = from_points([(0.0,), (1.0,), (2.0,)])
    assert validate_metric(sp) is None


def test_validate_matrix_triangle_violation():
    sp = from_matrix([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    with pytest.raises(TriangleViolation) as err:
        validate_metric(sp)
    assert str(err.value) == ("triangle inequality fails, first violating (i, j, k, slack): "
                              "(0, 2, 1, 3.0); close the matrix under shortest paths")
    assert triangle_verdict(sp) == first_pivot_violation(sp) == (0, 2, 1, 3.0)


def test_validate_uniform_random_exhaustive():
    sp = from_points(np.random.default_rng(0).random((50, 2)))
    assert validate_metric(sp) is None


def test_validate_sampled_path_large_instance():
    sp = from_points(np.random.default_rng(1).random((210, 2)))
    assert validate_metric(sp) is None


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


def test_validate_raises_the_first_failed_check_in_order():
    # a coincident pair (2, 3) is reported before the violated triangle 0-2 via 1
    d = np.array([[0, 1, 5, 1], [1, 0, 1, 1], [5, 1, 0, 0], [1, 1, 0, 0]], dtype=float)
    with pytest.raises(DegenerateInstance, match=r"^points 2 and 3 coincide; deduplicate first$"):
        validate_metric(from_matrix(d))
    # and an asymmetric entry before both
    d[0, 1] = 2.0
    with pytest.raises(InvalidMetric, match=r"^asymmetric distance at \(0, 1\): "):
        validate_metric(from_matrix(d))
    with pytest.raises(DegenerateInstance, match=r"^points 0 and 2 coincide; deduplicate first$"):
        validate_metric(from_points([(0.0, 0.0), (1.0, 1.0), (0.0, 0.0)]))


@pytest.mark.parametrize("check", [validate_metric, normalize])
def test_distinct_points_whose_distance_underflows_are_told_to_scale_up(check):
    space = generate_instance("uniform2d", 60, 0)
    tiny = from_points(space.coords * 2.0 ** -600)
    gap, (i, j) = tiny.min_gap()
    assert gap == 0 and not np.array_equal(tiny.coords[i], tiny.coords[j])
    with pytest.raises(DegenerateInstance, match=(
            rf"^points {i} and {j} coincide; their coordinates differ, but their distance "
            r"underflows to 0: scale the coordinates up$")):
        check(tiny)


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


@pytest.mark.parametrize("space_at", [
    lambda far: from_points([0.0, 1.0, far]),
    lambda far: from_matrix([[0.0, 1.0, far], [1.0, 0.0, far], [far, far, 0.0]]),
], ids=["points", "matrix"])
def test_normalize_rejects_a_diameter_over_2_to_the_500_min_gaps(space_at):
    with pytest.raises(InvalidMetric, match=(
            r"^the diameter is 2\^501\.0 times the smallest distance, over 2\^500: drop far "
            r"points, or rescale so near points lie farther apart$")):
        normalize(space_at(2.0 ** 501))
    assert normalize(space_at(2.0 ** 500)).diameter() == 2.0 ** 500


@pytest.mark.parametrize("n", [2, EXHAUSTIVE_MAX + 1], ids=["every-triple", "sampled"])
def test_triangle_sums_that_overflow_raise_no_warning(n):
    # an inf sum exceeds every finite distance, so it hides no violation
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        validate_metric(from_matrix(1e308 * (1 - np.eye(n))))


def test_fold_weight_adds_each_rows_kept_terms_left_to_right_from_zero():
    d = from_points(np.random.default_rng(0).random((30, 2))).pairwise()
    u, v = np.random.default_rng(1).integers(0, 30, size=(2, 40, 25))
    keep = np.random.default_rng(2).random((40, 25)) < 0.5
    for row, w in enumerate(fold_weight(d, u, v, where=keep).tolist()):
        want = 0.0
        for a, b in zip(u[row][keep[row]], v[row][keep[row]]):
            want += d[a, b]
        assert w == want
    assert fold_weight(d, u[0], v[0]).tolist() == fold_weight(d, u, v)[0] != 0.0
    assert fold_weight(d, [], []).tolist() == 0.0


def test_within_is_inclusive_at_rel_tol_of_the_radius_or_of_one():
    for r in (0.0, 0.5, 1.0, 13.0, 1e6):
        rim = r + REL_TOL * max(1.0, r)
        assert within(rim, r) and not within(np.nextafter(rim, math.inf), r)
    d = np.array([[0.5 + 0.5 * REL_TOL], [13 + 6.5 * REL_TOL], [13 + 13.5 * REL_TOL]])
    assert within(d, np.array([0.5, 13.0])).tolist() == [[True, True], [False, True],
                                                        [False, False]]


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
            assert sub.dist(a, b) == sp.dist(idx[a], idx[b])


def test_matrix_space_round_trip():
    rng = np.random.default_rng(8)
    pts = rng.random((9, 2))
    dense = from_points(pts)
    mat = from_matrix(dense.pairwise())
    for i in range(9):
        for j in range(9):
            assert mat.dist(i, j) == pytest.approx(dense.dist(i, j))


# Per-call formulas the distance matrix replaced, kept as references.
def fresh_pairwise(space, rows, cols):
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if space.matrix is not None:
        return space.matrix[np.ix_(rows, cols)].astype(float)
    diff = space.coords[rows][:, None, :] - space.coords[cols][None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def fresh_row(space, i):
    if space.matrix is not None:
        return space.matrix[i].astype(float)
    diff = space.coords - space.coords[i]
    return np.sqrt(np.sum(diff * diff, axis=1))


def fresh_min_gap(space):
    best, pair = math.inf, (0, 0)
    for i in range(space.n - 1):
        r = fresh_row(space, i)[i + 1:]
        j = int(np.argmin(r))
        if r[j] < best:
            best, pair = float(r[j]), (i, i + 1 + j)
    return best, pair


def cached_spaces():
    """Fresh spaces (empty caches) in two, one and three dimensions and as a matrix."""
    rng = np.random.default_rng(11)
    pts = rng.random((23, 2)) * 1e3
    return [
        from_points(pts),
        from_points(rng.random(17) * 50),
        from_points(rng.normal(size=(19, 3))),
        from_matrix(fresh_pairwise(from_points(pts), range(23), range(23)) + 0.25
                    - 0.25 * np.eye(23)),
    ]


@pytest.mark.parametrize("first", ["pairwise", "row", "diameter", "min_gap", "dist"])
@pytest.mark.parametrize("which", range(4), ids=["2d", "1d", "3d", "matrix"])
def test_cached_queries_equal_the_per_call_formulas(which, first):
    sp = cached_spaces()[which]
    n = sp.n
    # whichever query fills the matrix, every query then reads the same values
    {"pairwise": lambda: sp.pairwise([1], [0]), "row": lambda: sp.row(n - 1),
     "diameter": sp.diameter, "min_gap": sp.min_gap,
     "dist": lambda: sp.dist(n - 1, 0)}[first]()
    rng = np.random.default_rng(which)
    everything = np.arange(n)
    for _ in range(5):
        rows = rng.choice(n, size=int(rng.integers(1, n)), replace=True)
        cols = rng.permutation(n)[: int(rng.integers(1, n))]
        assert np.array_equal(sp.pairwise(rows, cols), fresh_pairwise(sp, rows, cols))
        assert np.array_equal(sp.pairwise(rows), fresh_pairwise(sp, rows, everything))
        assert np.array_equal(sp.pairwise(None, cols), fresh_pairwise(sp, everything, cols))
        assert np.array_equal(sp.pairwise(list(rows), tuple(cols)),
                              fresh_pairwise(sp, rows, cols))
    assert np.array_equal(sp.pairwise(), fresh_pairwise(sp, everything, everything))
    for i in range(n):
        assert np.array_equal(sp.row(i), fresh_row(sp, i))
    assert sp.diameter() == float(max(fresh_row(sp, i).max() for i in range(n)))
    assert sp.min_gap() == fresh_min_gap(sp)
    d = sp.pairwise()
    assert all(sp.dist(i, j) == d[i, j] for i in range(n) for j in range(n))


def test_solve_tour_weight_sums_the_matrix_entries():
    # a per-pair np.linalg.norm would move this tour's weight in the last bit
    sp = normalize(from_points(np.random.default_rng(0).random((30, 2))))
    tour, info = solve_tsp(sp, SolveParams())
    d = sp.pairwise()
    # Python's sum over the entries in tour order, as tour_weight sums them
    want = sum(float(d[x, y]) for x, y in tour.transitions())
    assert tour_weight(sp, tour) == info["weight"] == want


def test_pairwise_returns_one_read_only_matrix():
    sp = from_points(np.random.default_rng(2).random((9, 2)))
    d = sp.pairwise()
    assert sp.pairwise() is d
    assert not d.flags.writeable and not sp.row(3).flags.writeable
    with pytest.raises(ValueError):
        d[0, 1] = 5.0
    # a submatrix is the caller's own copy
    sub = sp.pairwise([0, 1], [2, 3])
    sub[0, 0] = -1.0
    assert sp.pairwise([0], [2])[0, 0] == d[0, 2] > 0


def test_matrix_space_shares_its_values_without_touching_the_input():
    m = fresh_pairwise(grid(3), range(9), range(9))
    sp = from_matrix(m)
    assert not sp.pairwise().flags.writeable
    assert np.shares_memory(sp.pairwise(), m) and m.flags.writeable


@pytest.mark.parametrize("space, pair", [
    (from_points([(0.0, 0.0), (3.0, 0.0), (4.0, 0.0), (0.0, 1.0)]), (0, 3)),
    (from_points([(5.0, 0.0), (0.0, 0.0), (2.0, 0.0), (3.0, 0.0), (1.0, 0.0)]), (1, 4)),
    (grid(3), (0, 1)),
    (from_matrix([[0, 2, 1, 2], [2, 0, 2, 1], [1, 2, 0, 1], [2, 1, 1, 0]]), (0, 2)),
])
def test_min_gap_ties_go_to_the_first_pair_in_row_major_order(space, pair):
    assert space.min_gap() == (1.0, pair) == fresh_min_gap(space)


def test_min_gap_without_a_finite_pair():
    assert from_points([(1.0, 2.0)]).min_gap() == (math.inf, (0, 0))
    assert from_points([(0.0, 0.0), (1e200, 0.0)]).min_gap() == (math.inf, (0, 0))


def test_restrict_to_every_point_is_the_space_itself():
    sp = from_points(np.random.default_rng(5).random((7, 2)))
    assert restrict(sp, range(7)) is sp
    assert restrict(sp, [6, 5, 4, 3, 2, 1, 0]) is sp
    m = from_matrix(sp.pairwise())
    assert restrict(m, tuple(range(7))) is m
    part = restrict(sp, [0, 2, 4, 5, 6, 1])
    assert part is not sp and part.n == 6
    assert restrict(sp, [0, 0, 1, 2, 3, 4, 5]).n == 7        # a repeat is not every point


def test_validate_after_a_row_query_still_raises_without_warnings():
    sp = from_points([(0.0, 0.0), (1e200, 0.0)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert sp.row(0)[1] == math.inf
        with pytest.raises(InvalidMetric) as err:
            validate_metric(sp)
    assert str(err.value).startswith("non-finite distance at (0, 1): ")
    assert not caught


# The per-pivot triangle loop, one fresh slack matrix per pivot, kept as the
# reference: the first (i, j, k, slack) in (k, i, j) order, or None.
def first_pivot_violation(space):
    d = space.pairwise()
    tol = REL_TOL * max(1.0, float(d.max(initial=0.0)))
    for k in range(space.n):
        slack = d - (d[:, k][:, None] + d[k][None, :])
        for i, j in np.argwhere(slack > tol):
            return int(i), int(j), int(k), float(slack[i, j])
    return None


FAMILIES = ("uniform2d", "clustered", "line", "matrix_random_metric")


def non_metric(n, seed=0):
    """Random symmetric weights in [1, 10): most triangles fail."""
    raw = np.random.default_rng(seed).uniform(1.0, 10.0, size=(n, n))
    raw = (raw + raw.T) / 2.0
    np.fill_diagonal(raw, 0.0)
    return raw


def planted_slack(extra_ulps):
    """Points 0, 1, 2 close together and 17 points on a line beyond them.

    Every triangle holds except 0-2 via 1, whose slack is exactly the
    validation tolerance (17e-9, as the largest distance is 17), plus
    extra_ulps steps of d[0, 2].
    """
    m = 17
    tol = REL_TOL * m
    n = 3 + m
    d = np.zeros((n, n))
    line = np.arange(1, m + 1, dtype=float)
    d[3:, 3:] = np.abs(line[:, None] - line[None, :])
    d[:3, 3:] = line
    d[3:, :3] = line[:, None]
    d[0, 1] = d[1, 0] = d[1, 2] = d[2, 1] = tol / 2
    far = 2 * tol
    for _ in range(extra_ulps):
        far = np.nextafter(far, np.inf)
    d[0, 2] = d[2, 0] = far
    return from_matrix(d)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 60, 200])
@pytest.mark.parametrize("family", FAMILIES)
def test_triangle_closure_equals_the_pivot_loop_on_generated_metrics(family, n):
    sp = generate_instance(family, n, seed=n)
    assert triangle_verdict(sp) is None
    assert first_pivot_violation(sp) is None


def test_triangle_slack_of_exactly_the_tolerance_passes_and_one_ulp_more_fails():
    exact = planted_slack(0)
    d = exact.pairwise()
    assert d[0, 2] - (d[0, 1] + d[1, 2]) == REL_TOL * max(1.0, float(d.max()))
    assert triangle_verdict(exact) is None
    assert first_pivot_violation(exact) is None

    above = planted_slack(1)
    assert triangle_verdict(above) == first_pivot_violation(above)
    assert triangle_verdict(above)[:3] == (0, 2, 1)

    # a real violation at an earlier pivot is raised instead of the planted one
    d = exact.pairwise().copy()
    d[3, 5] = d[5, 3] = 3.0
    both = from_matrix(d)
    assert triangle_verdict(both) == first_pivot_violation(both)
    assert triangle_verdict(both)[:3] == (3, 5, 4)


@pytest.mark.parametrize("n", [30, 200])
def test_first_triangle_violation_equals_the_pivot_loop_on_non_metric_matrices(n):
    sp = from_matrix(non_metric(n))
    assert triangle_verdict(sp) == first_pivot_violation(sp) is not None


@pytest.mark.parametrize("n", [17, 60, 100, 200])
def test_a_violation_only_at_the_next_to_last_pivot_is_found(n):
    # a line with its last edge shortened: only the path through point n - 2
    # is too short, and the pivots pass in blocks of several up to n = 181
    d = np.abs(np.arange(n, dtype=float)[:, None] - np.arange(n))
    d[n - 2, n - 1] = d[n - 1, n - 2] = 0.5
    sp = from_matrix(d)
    assert triangle_verdict(sp) == first_pivot_violation(sp) == (0, n - 1, n - 2, 0.5)


def test_rejecting_a_200_point_non_metric_matrix_takes_little_memory():
    sp = from_matrix(non_metric(200))
    matrix_bytes = sp.pairwise().nbytes
    tracemalloc.start()
    try:
        with pytest.raises(TriangleViolation):
            validate_metric(sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert triangle_verdict(sp) == first_pivot_violation(sp)
    # one pivot's slack, not every violating triple
    assert peak <= matrix_bytes + 3 * 2 ** 20


def test_sampled_triangle_check_works_in_blocks_of_bounded_memory():
    sp = from_points(np.random.default_rng(3).random((400, 2)))
    matrix_bytes = sp.pairwise().nbytes
    tracemalloc.start()
    try:
        assert validate_metric(sp) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= matrix_bytes + 4 * 2 ** 20


def planted_long_edge():
    """A 210-point metric matrix but for one long edge, (2, 4), which the
    seed-0 sampler first draws in its third block of SAMPLE_BLOCK triples."""
    d = from_points(np.random.default_rng(4).random((210, 2))).pairwise().copy()
    d[2, 4] = d[4, 2] = 10.0
    return from_matrix(d)


def test_sampled_triangle_check_raises_a_drawn_violation():
    # the first violating triple the seed-0 sampler draws, pinned
    for space, first in ((from_matrix(non_metric(210)), (3, 36, 147)),
                         (planted_long_edge(), (2, 4, 33))):
        i, j, k, slack = triangle_verdict(space)
        d = space.pairwise()
        assert (i, j, k) == first
        assert slack == d[i, j] - (d[i, k] + d[k, j]) > REL_TOL * float(d.max())


# The per-ball greedy estimate_doubling ran before its covers were batched,
# kept as the reference.
def greedy_half_cover(space, center, radius):
    """Number of radius/2 balls the farthest-point greedy uses to cover B(center, radius)."""
    pts = ball(space, center, radius)
    if len(pts) == 0:
        return 1
    sub = space.pairwise(pts, pts)
    half = radius / 2.0
    thr = half + REL_TOL * max(1.0, half)
    start = int(np.flatnonzero(pts == center)[0]) if center in pts else 0
    mind = sub[start].copy()
    count = 1
    while True:
        far = int(np.argmax(mind))
        if mind[far] <= thr:
            return count
        mind = np.minimum(mind, sub[far])
        count += 1


def per_ball_doubling(space, audit_balls=64, seed=0):
    n = space.n
    if n < 2:
        return DoublingEstimate(lambda_upper=1, ddim_upper=1.0)
    rng = np.random.default_rng(seed)
    diam = space.diameter()
    lam = 1
    audited = 0
    for c in range(min(n, 4)):
        for r in (diam, diam / 2.0):
            if r > 0:
                lam = max(lam, greedy_half_cover(space, c, r))
                audited += 1
    while audited < audit_balls:
        c = int(rng.integers(0, n))
        anchor = int(rng.integers(0, n))
        r = space.dist(c, anchor) * float(rng.uniform(0.5, 1.5))
        if r <= 0:
            r = diam
        lam = max(lam, greedy_half_cover(space, c, min(r, diam)))
        audited += 1
    return DoublingEstimate(lambda_upper=lam, ddim_upper=max(1.0, math.log2(lam)))


@pytest.mark.parametrize("n", [2, 20, 120, 200])
@pytest.mark.parametrize("family", FAMILIES)
def test_batched_doubling_estimate_equals_the_per_ball_greedy(family, n):
    for seed in range(3):
        sp = generate_instance(family, n, seed=seed)
        for audit_balls in (24, 64, 96):
            assert (estimate_doubling(sp, audit_balls=audit_balls, seed=seed)
                    == per_ball_doubling(sp, audit_balls=audit_balls, seed=seed))


@pytest.mark.parametrize("space", [grid(7), grid(12), from_matrix(np.ones((9, 9)) - np.eye(9)),
                                   from_points(np.zeros((5, 2)))],
                         ids=["grid-7", "grid-12", "equidistant-9", "coincident-5"])
def test_batched_doubling_estimate_takes_the_first_of_tied_farthest_points(space):
    for seed in range(3):
        for audit_balls in (0, 8, 24, 64):
            assert (estimate_doubling(space, audit_balls=audit_balls, seed=seed)
                    == per_ball_doubling(space, audit_balls=audit_balls, seed=seed))


@pytest.mark.parametrize("n", [400, 800])
def test_sampled_triangle_check_of_a_matrix_works_in_blocks_of_bounded_memory(n):
    # the matrix twin of the coordinate test above, which no longer samples;
    # at n = 800 two n x n temporaries in the symmetry check would exceed the bound
    sp = from_matrix(from_points(np.random.default_rng(3).random((n, 2))).pairwise())
    matrix_bytes = sp.pairwise().nbytes
    tracemalloc.start()
    try:
        assert validate_metric(sp) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= matrix_bytes + 4 * 2 ** 20


def min_plus_closure(d):
    closure = d.copy()
    for k in range(d.shape[0]):
        np.minimum(closure, d[:, k, None] + d[k], out=closure)
    return closure


def adversarial_points(kind, n, dim, scale, seed=0):
    """Coordinate sets where rounding hurts the triangle inequality most."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        pts = rng.random((n, dim))
    elif kind == "near_coincident":
        # pairs a relative 1e-12 apart, far from each other
        base = rng.random((n - n // 2, dim))
        pts = np.concatenate([base, base[: n // 2] * (1 + 1e-12 * rng.random((n // 2, dim)))])
    else:
        # collinear, exact in the reals, on a line far from the origin
        direction = rng.normal(size=dim)
        pts = 1e6 + rng.random((n, 1)) * direction[None, :]
    return from_points(pts * scale)


@pytest.mark.parametrize("dim", [1, 2, 3, 50, 500])
@pytest.mark.parametrize("kind", ["uniform", "near_coincident", "collinear_far"])
def test_coordinate_reports_equal_the_triangle_scan_they_skip(kind, dim):
    n = 200 if dim <= 3 else (60 if dim == 50 else 20)
    for scale in (1e-150, 1e-20, 1.0, 1e20, 1e150):
        sp = adversarial_points(kind, n, dim, scale)
        d = sp.pairwise()
        assert np.array_equal(d, d.T) and not np.diagonal(d).any() and (d >= 0).all()
        assert first_pivot_violation(sp) is None
        gap, (i, j) = sp.min_gap()
        if gap > 0:
            assert validate_metric(sp) is None
        else:
            # squares that underflow make the nearest pairs coincide at scale 1e-150
            with pytest.raises(DegenerateInstance, match=f"^points {i} and {j} coincide;"):
                validate_metric(sp)
        # the closure slack stays inside the rounding bound the skip rests on:
        # relative rounding, plus what squares that underflow lose
        worst = float((d - min_plus_closure(d)).max())
        bound = (2 * (dim + 3) * np.finfo(float).eps * float(d.max())
                 + 3 * math.sqrt(dim * 2.0 ** -1074))
        assert worst <= bound < REL_TOL * max(1.0, float(d.max()))


def test_coordinates_skip_the_triangle_scan_up_to_the_derived_dimension():
    eps = np.finfo(float).eps
    limit = math.ceil(REL_TOL / (2 * eps)) - 4       # largest D with 2 (D + 3) eps < REL_TOL
    for dim, skips in ((1, True), (10 ** 6, True), (limit, True), (limit + 1, False)):
        # three coincident points in a stride-0 view (the shape without the
        # memory), with a triangle-violating matrix planted in the distance
        # cache: only a space that is scanned fails
        sp = MetricSpace(coords=np.broadcast_to(0.0, (3, dim)))
        sp.__dict__["_distances"] = np.array([[0.0, 1, 5], [1, 0, 1], [5, 1, 0]])
        assert (triangle_verdict(sp) is None) is skips


def test_a_coordinate_space_finds_its_min_gap_once():
    sp = from_points(np.random.default_rng(6).random((30, 2)))
    assert sp.min_gap() is sp.min_gap()
    assert sp.min_gap() == fresh_min_gap(sp)


# ---------------------------------------------------------------- lockstep Prim

def reference_mst(space, subset):
    """The per-set Prim scan the lockstep one replaced: first minimum in
    point-index order, updates only when strictly closer."""
    pts = np.asarray(sorted(set(int(p) for p in subset)), dtype=np.intp)
    if len(pts) == 1:
        return []
    d = space.pairwise(pts, pts)
    k = len(pts)
    best = d[0].copy()
    best[0] = np.inf
    origin = np.zeros(k, dtype=np.intp)
    in_tree = np.zeros(k, dtype=bool)
    in_tree[0] = True
    edges = []
    for _ in range(k - 1):
        j = int(np.argmin(best))
        u, v = int(pts[origin[j]]), int(pts[j])
        edges.append((min(u, v), max(u, v)))
        in_tree[j] = True
        best[j] = np.inf
        closer = d[j] < best
        closer &= ~in_tree
        origin[closer] = j
        best[closer] = d[j][closer]
    return sorted(edges)


def ultrametric(n):
    """d(i, j) = 2^(b + 1), b the highest set bit of i XOR j."""
    return from_matrix([[float(2 ** (i ^ j).bit_length()) if i != j else 0.0
                         for j in range(n)] for i in range(n)])


def star(n):
    """Point 0 at distance 1 from every other point, which lie 2 apart."""
    d = np.full((n, n), 2.0)
    d[0, :] = d[:, 0] = 1.0
    np.fill_diagonal(d, 0.0)
    return from_matrix(d)


def lockstep_trees(space, members, rows_per_call=16):
    """Each mask row's tree from _prim, several rows of falling size per call."""
    sizes = np.count_nonzero(members, axis=1)
    order = np.argsort(-sizes, kind="stable")
    trees = [None] * len(members)
    for start in range(0, len(order), rows_per_call):
        block = order[start:start + rows_per_call]
        width = int(sizes[block[0]])
        pts = np.argsort(~members[block], axis=1, kind="stable")[:, :width]
        lo, hi = _prim(_local_blocks(space.pairwise(), pts), sizes[block])
        for row, b in enumerate(block.tolist()):
            m = sizes[b] - 1
            trees[b] = list(zip(pts[row, lo[row, :m]].tolist(), pts[row, hi[row, :m]].tolist()))
    return trees


LOCKSTEP_SPACES = {
    **{f"{kind}-{seed}": (lambda kind=kind, seed=seed: generate_instance(kind, 50, seed))
       for kind in FAMILIES for seed in range(3)},
    "star": lambda: star(30),
    "equilateral": lambda: from_matrix(np.ones((30, 30)) - np.eye(30)),
    "grid-20": lambda: grid(20),
    "ultrametric": lambda: ultrametric(40),
}


@pytest.mark.parametrize("name", LOCKSTEP_SPACES)
def test_lockstep_trees_equal_the_per_set_prim_on_every_ball_of_every_level(name):
    sp = normalize(LOCKSTEP_SPACES[name]())
    h = build_hierarchy(sp, 6.0)
    reference = {}                        # balls with the same points share one reference
    for level in range(h.top + 1):
        inside = within(sp.pairwise(), 3 * h.radius(level))
        centers = np.flatnonzero(np.count_nonzero(inside, axis=1) >= 2)  # one-point balls skipped
        members = inside[centers]
        for row, tree, w in zip(members, lockstep_trees(sp, members),
                                tree_weights(sp, members).tolist()):
            pts = tuple(np.flatnonzero(row).tolist())
            if pts not in reference:
                reference[pts] = reference_mst(sp, pts)
                assert mst(sp, pts) == reference[pts]
            assert tree == reference[pts]
            assert w == edges_weight(sp, reference[pts])
    assert reference


def test_a_covering_level_scans_each_ball_as_its_own_block_in_bounded_memory(monkeypatch):
    sp = generate_instance("uniform2d", 300, 0)          # unit square: B(u, 3) is everything
    n = sp.n
    h = build_hierarchy(sp, 6.0)
    whole = edges_weight(sp, reference_mst(sp, range(n)))
    blocks, weights = [], []

    def recorded_prim(local, sizes):
        blocks.append(local.shape)
        return _prim(local, sizes)

    def recorded_weights(space, members):
        weights.extend(tree_weights(space, members).tolist())
        return np.asarray(weights)

    monkeypatch.setattr(metric, "_prim", recorded_prim)
    monkeypatch.setattr(sparse, "tree_weights", recorded_weights)
    sp.pairwise()                                        # the space's own matrix, built first
    tracemalloc.start()
    try:
        # every ball weighs the whole tree, over the cap whole / 2; ties go to u = 0
        assert find_dense_region(sp, h, whole / 4) == (0, 0, whole)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocks == [(1, n, n)] * 2                      # the whole tree, then the one ball
    assert weights == [whole]
    assert peak <= 2 * n * n * 8
