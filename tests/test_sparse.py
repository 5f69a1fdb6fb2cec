import math

import numpy as np
import pytest

from nettsp import runner, sparse
from nettsp.errors import DegenerateSplit, RecursionLimit
from nettsp.io import generate_instance
from nettsp.metric import (REL_TOL, ball, estimate_doubling, from_matrix, from_points,
                           normalize)
from nettsp.nets import build_hierarchy
from nettsp.oracles import held_karp_tsp
from nettsp.sparse import (SolveParams, annulus_edge_weight,
                           check_local_tour_bounds, choose_split_radius,
                           find_dense_region, is_q_sparse, solve_tsp,
                           split_instance)
from nettsp.tours import (Tour, double_tree_tour, edges_weight,
                          make_net_respecting, mst, tour_weight)


def rand_space(seed, n):
    return normalize(from_points(np.random.default_rng(seed).random((n, 2))))


def dense_fixture(seed=42, clump=25, field=12):
    """Tight clump plus a sparse far field; triggers density at a low level."""
    rng = np.random.default_rng(seed)
    a = rng.random((clump, 2)) * 6.0
    b = rng.random((field, 2)) * 200.0 + 60.0
    return normalize(from_points(np.vstack([a, b])))


# --------------------------------------------------------------- sparsity

def test_singleton_tour_sparse():
    sp = rand_space(0, 20)
    h = build_hierarchy(sp, 6.0)
    assert is_q_sparse(sp, Tour((0,), closed=True), h, 0.5).passed


def test_total_weight_q_passes():
    sp = rand_space(1, 30)
    h = build_hierarchy(sp, 6.0)
    t = double_tree_tour(sp, range(sp.n))
    assert is_q_sparse(sp, t, h, tour_weight(sp, t) + 1.0).passed


def test_witness_matches_brute_force():
    sp = dense_fixture()
    h = build_hierarchy(sp, 6.0)
    t = double_tree_tour(sp, range(sp.n))
    report = is_q_sparse(sp, t, h, 1.0)
    assert not report.passed
    w = report.witness
    inside = set(ball(sp, w["center"], 3 * 6.0 ** w["level"]).tolist())
    brute = sum(sp.dist(x, y) for x, y in t.transitions()
                if x in inside and y in inside)
    assert w["weight"] == pytest.approx(brute)
    assert brute > w["threshold"]


# ------------------------------------------------------------ dense areas

def test_find_dense_none_for_large_q():
    sp = rand_space(3, 40)
    h = build_hierarchy(sp, 6.0)
    total = edges_weight(sp, mst(sp, range(sp.n)))
    assert find_dense_region(sp, h, total + 1.0) is None


def test_find_dense_micro_cluster():
    sp = dense_fixture()
    h = build_hierarchy(sp, 6.0)
    hit = find_dense_region(sp, h, 2.0)
    assert hit is not None
    level, v, q_star = hit
    assert v < 25  # inside the clump
    assert q_star > 4.0
    # lowest qualifying level: every lower level must be below threshold
    for lvl in range(level):
        cap = 2 * 2.0 * h.radius(lvl)
        worst = max(
            edges_weight(sp, mst(sp, ball(sp, u, 3 * h.radius(lvl))))
            if len(ball(sp, u, 3 * h.radius(lvl))) > 1 else 0.0
            for u in range(sp.n))
        assert worst <= cap * (1 + 1e-9)


def test_find_dense_requires_positive_q():
    sp = rand_space(4, 10)
    h = build_hierarchy(sp, 6.0)
    with pytest.raises(ValueError):
        find_dense_region(sp, h, 0.0)


def level_maxima(sp, h):
    """(best MST weight, its center) per level over every ball B(u, 3 s^i)."""
    out = []
    for level in range(h.top + 1):
        best_w, best_v = -1.0, None
        for u in range(sp.n):
            pts = ball(sp, u, 3 * h.radius(level))
            if len(pts) < 2:
                continue
            w = edges_weight(sp, mst(sp, pts))
            if w > best_w + REL_TOL * max(1.0, best_w):
                best_w, best_v = w, u
        out.append((best_w, best_v))
    return out


def unskipped_scan(h, maxima, q):
    """The level-by-level dense scan with no level skipped."""
    for level, (best_w, best_v) in enumerate(maxima):
        if best_v is not None and best_w > 2 * q * h.radius(level) * (1 + REL_TOL):
            return level, best_v, best_w / h.radius(level)
    return None


def hub_metric(leaves=8):
    """A hub at 1 from leaves 2 apart, and a point u at 3 from every leaf and
    4 from the hub. B(u, 3) leaves the hub out, so its MST (2 leaves + 1)
    outweighs the whole MST (leaves + 3); twice the whole is the bound."""
    n = leaves + 2
    d = np.full((n, n), 2.0)
    d[0, 1:] = d[1:, 0] = 1.0       # hub 0
    d[0, -1] = d[-1, 0] = 4.0
    d[1:-1, -1] = d[-1, 1:-1] = 3.0  # u = n - 1
    np.fill_diagonal(d, 0.0)
    return from_matrix(d)


def test_dense_scan_skip_matches_the_unskipped_scan():
    spaces = [rand_space(seed, n) for seed, n in ((5, 12), (6, 30), (7, 45))]
    spaces += [dense_fixture(), hub_metric(),
               normalize(generate_instance("clustered", 60, 0, {"clusters": 4}))]
    fired = 0
    for sp in spaces:
        h = build_hierarchy(sp, 6.0)
        maxima = level_maxima(sp, h)
        whole = edges_weight(sp, mst(sp, range(sp.n)))
        qs = [0.5, 2.0, SolveParams().q]
        for level, (best_w, _) in enumerate(maxima):
            at = whole / h.radius(level)      # the skip's boundary at this level
            fires = best_w / (2 * h.radius(level))
            qs += [at, np.nextafter(at, 0.0), np.nextafter(at, np.inf),
                   at * (1 - 1e-6), at * (1 + 1e-6), fires * (1 - 1e-6), fires * (1 + 1e-6)]
        for q in qs:
            expected = unskipped_scan(h, maxima, q)
            assert find_dense_region(sp, h, q) == expected
            fired += expected is not None
    assert fired > 0


def test_dense_scan_builds_one_mst_when_no_level_can_fire(monkeypatch):
    calls = []

    def counted(space, subset):
        calls.append(subset)
        return mst(space, subset)

    monkeypatch.setattr(sparse, "mst", counted)
    sp = normalize(generate_instance("clustered", 60, 0, {"clusters": 4}))
    assert find_dense_region(sp, build_hierarchy(sp, 6.0), SolveParams().q) is None
    assert len(calls) == 1


# Tours at the time of writing. A change that keeps the solver's choices
# keeps these exactly; one that alters them must say why.
UNIFORM40_TOUR = [
    16, 1, 10, 29, 34, 27, 30, 17, 20, 21, 0, 15, 12, 37, 9, 31, 23, 32, 28, 18,
    3, 11, 14, 25, 7, 5, 6, 26, 19, 39, 8, 2, 13, 38, 35, 4, 36, 22, 33, 24]
CLUSTERED160_Q2_TOUR = [
    3, 79, 99, 159, 87, 83, 27, 15, 39, 123, 55, 19, 35, 119, 135, 63, 43, 67, 31, 103,
    95, 107, 155, 143, 7, 23, 59, 127, 11, 51, 71, 151, 47, 111, 139, 91, 115, 75, 147, 131,
    1, 113, 45, 141, 73, 57, 21, 53, 117, 109, 33, 29, 17, 81, 153, 5, 89, 41, 93, 101,
    105, 125, 65, 85, 69, 97, 145, 49, 157, 61, 133, 25, 9, 37, 149, 137, 121, 13, 77, 129,
    16, 0, 132, 120, 104, 44, 36, 48, 152, 32, 116, 92, 8, 76, 136, 28, 68, 156, 148, 52,
    144, 12, 128, 24, 56, 64, 80, 20, 112, 100, 108, 40, 84, 140, 88, 124, 4, 72, 96, 60,
    30, 106, 114, 50, 138, 2, 6, 70, 34, 102, 10, 14, 154, 38, 94, 130, 126, 42, 110, 26,
    86, 58, 134, 90, 18, 74, 98, 122, 158, 78, 118, 82, 146, 54, 142, 66, 150, 22, 46, 62]


@pytest.mark.parametrize("kind, n, params, config, tour", [
    ("uniform2d", 40, {}, {}, UNIFORM40_TOUR),
    ("clustered", 160, {"clusters": 4}, {"q": 2.0}, CLUSTERED160_Q2_TOUR),
])
def test_solve_tours_are_pinned(kind, n, params, config, tour):
    sp = normalize(generate_instance(kind, n, 0, params))
    report = runner.run(dict(config, mode="solve", seed=0, space=sp))
    assert report["results"]["solve"]["tour"] == tour


# ------------------------------------------------------------ split radius

def test_split_radius_empty_zone():
    sp = dense_fixture()
    h = choose_split_radius(sp, 0, 0, 1.0 / 12, 6.0)
    assert 12.0 <= h <= 13.0
    tree = mst(sp, range(sp.n))
    assert annulus_edge_weight(sp, tree, 0, h - 0.5, h + 0.5) == pytest.approx(0.0)


def test_split_radius_argmin_at_most_mean():
    sp = rand_space(5, 60)
    v, level, delta = 0, 0, 1.0 / 12
    h = choose_split_radius(sp, v, level, delta, 6.0)
    tree = mst(sp, range(sp.n))
    width = 6 * delta
    costs = [annulus_edge_weight(sp, tree, v, hc - width, hc + width)
             for hc in (12 + (t + 0.5) / 64 for t in range(64))]
    chosen = annulus_edge_weight(sp, tree, v, h - width, h + width)
    assert chosen <= np.mean(costs) + 1e-9


def test_split_radius_avoids_shell():
    # points concentrated in one thin shell leave an empty sub-annulus
    angles = np.linspace(0, 2 * math.pi, 40, endpoint=False)
    shell = [(12.6 * math.cos(a), 12.6 * math.sin(a)) for a in angles]
    pts = [(0.0, 0.0)] + shell + [(40.0, 0.0)]
    sp = from_points(pts)
    h = choose_split_radius(sp, 0, 0, 1.0 / 12, 6.0)
    tree = mst(sp, range(sp.n))
    width = 0.5
    assert annulus_edge_weight(sp, tree, 0, h - width, h + width) == pytest.approx(0.0)


def split_radius_loop(space, v, level, delta, s, candidates=64):
    """The candidate loop the array masks replaced: each annulus scored on
    its own by annulus_edge_weight."""
    si = s ** level
    tree = mst(space, range(space.n))
    width = 6 * delta * si
    best_h, best_c = None, math.inf
    for t in range(candidates):
        hcand = 12 * si + (t + 0.5) / candidates * si
        c = annulus_edge_weight(space, tree, v, hcand - width, hcand + width)
        if best_h is None or c < best_c - REL_TOL * max(1.0, best_c):
            best_h, best_c = hcand, c
    return float(best_h)


def test_split_radius_equals_the_candidate_loop():
    spaces = (dense_fixture(), normalize(generate_instance("clustered", 60, 0, {"clusters": 4})),
              rand_space(5, 60))
    moved = 0
    for space in spaces:
        h = build_hierarchy(space, 6.0)
        # above these levels every annulus lies past the diameter and is empty
        for level in range(h.top + 1):
            if 12 * h.radius(level) > space.diameter():
                break
            first = 12 * 6.0 ** level + 0.5 / 64 * 6.0 ** level
            for v in range(space.n):
                want = split_radius_loop(space, v, level, 1.0 / 12, 6.0)
                assert choose_split_radius(space, v, level, 1.0 / 12, 6.0) == want
                moved += want != first
    assert moved > 0        # some first annuli cut tree edges, so the argmin moves



def test_split_radius_rims_follow_the_annulus_rule():
    # level 0, delta 1/12: candidate t's annulus is (lo[t], hi[t]] around v = 0
    heights = [12 + (t + 0.5) / 64 for t in range(64)]
    lo = [r + REL_TOL * max(1.0, r) for r in (hc - 0.5 for hc in heights)]
    hi = [r + REL_TOL * max(1.0, r) for r in (hc + 0.5 for hc in heights)]
    T = 20
    # a tree edge whose near end sits exactly on lo[T], so candidate T is the
    # first to leave it out
    lower = from_points([(0.0, 0.0), (lo[T], 0.0), (lo[T] + 0.25, 0.0)])
    # an edge that candidate T is the first to leave out, and a heavier one
    # whose far end sits exactly on hi[T], so candidate T is the first to cut it
    near = 0.5 * (lo[T - 1] + lo[T])
    upper = from_points([(0.0, 0.0), (near, 0.0), (near + 0.1, 0.0),
                         (0.25 - hi[T], 0.0), (-hi[T], 0.0)])
    assert lower.row(0)[1] == lo[T] and upper.row(0)[4] == hi[T]
    for space, want in ((lower, heights[T]), (upper, heights[0])):
        assert choose_split_radius(space, 0, 0, 1.0 / 12, 6.0) == want
        assert split_radius_loop(space, 0, 0, 1.0 / 12, 6.0) == want

# ----------------------------------------------------------------- splits

def test_split_all_inside_degenerates():
    sp = rand_space(6, 15)  # diameter far below 12
    h = build_hierarchy(sp, 6.0)
    lvl = h.top
    with pytest.raises(DegenerateSplit):
        split_instance(sp, h, 0, lvl, 12.5 * h.radius(lvl), 1.0 / 12, 0.05)


def test_split_two_cluster_fixture():
    sp = dense_fixture()
    h = build_hierarchy(sp, 6.0)
    level, v, _ = find_dense_region(sp, h, 2.0)
    radius = choose_split_radius(sp, v, level, 1.0 / 12, 6.0)
    sr = split_instance(sp, h, v, level, radius, 1.0 / 12, 0.05)
    s1, s2, allp = set(sr.s1), set(sr.s2), set(range(sp.n))
    assert s1 | s2 == allp
    assert s1 & s2
    assert s2 < allp
    assert s1 >= set(int(p) for p in ball(sp, v, sr.h))
    assert sr.q_star > 0


@pytest.mark.parametrize("seed", range(5))
def test_split_random_dense_audits(seed):
    sp = dense_fixture(seed=seed + 100, clump=20 + seed, field=10)
    h = build_hierarchy(sp, 6.0)
    hit = find_dense_region(sp, h, 2.0)
    if hit is None:
        pytest.skip("fixture not dense at this seed")
    level, v, _ = hit
    radius = choose_split_radius(sp, v, level, 1.0 / 12, 6.0)
    try:
        sr = split_instance(sp, h, v, level, radius, 1.0 / 12, 0.05)
    except DegenerateSplit:
        pytest.skip("degenerate split is an allowed outcome")
    s1, s2, allp = set(sr.s1), set(sr.s2), set(range(sp.n))
    assert s1 | s2 == allp and s1 & s2 and s2 < allp


# ------------------------------------------------------------- end to end

def test_solve_single_point():
    sp = from_points([(1.0, 2.0)])
    tour, report = solve_tsp(sp, SolveParams(seed=0))
    assert tour.seq == (0,)
    assert report["weight"] == 0.0


def test_solve_three_points_exact():
    sp = rand_space(7, 3)
    tour, _ = solve_tsp(sp, SolveParams(seed=0))
    assert tour_weight(sp, tour) == pytest.approx(held_karp_tsp(sp).weight)


@pytest.mark.parametrize("seed", range(6))
def test_solve_small_instances_sandwich(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 19))
    sp = rand_space(seed + 200, n)
    tour, report = solve_tsp(sp, SolveParams(seed=seed))
    w = tour_weight(sp, tour)
    assert tour.closed and tour.visits() == set(range(n)) and len(tour.seq) == n
    assert w >= held_karp_tsp(sp).weight - 1e-9
    assert w <= 2 * edges_weight(sp, mst(sp, range(n))) + 1e-9
    assert report["weight"] == pytest.approx(w)


def test_solve_dense_instance_splices():
    sp = dense_fixture()
    tour, report = solve_tsp(sp, SolveParams(seed=3, q=2.0))
    assert tour.visits() == set(range(sp.n)) and len(tour.seq) == sp.n
    modes = [t.get("mode") for t in report["trace"]]
    assert "dense" in modes


def test_each_dense_level_builds_its_whole_mst_once(monkeypatch):
    sp = dense_fixture()
    whole = []

    def counted(space, subset):
        subset = list(subset)
        if subset == list(range(space.n)):
            whole.append(space)
        return mst(space, subset)

    monkeypatch.setattr(sparse, "mst", counted)
    _, report = solve_tsp(sp, SolveParams(seed=3, q=2.0))
    scanned = [t for t in report["trace"] if t.get("side") != "inside" and t["n"] > 1]
    assert any(t["mode"] == "dense" for t in scanned)
    # one tree per scanned sub-instance, shared by the skip bound and the split radius
    assert len(whole) == len(scanned) == len({id(space) for space in whole})
    assert whole[0] is sp                  # the depth-0 sub-instance is the space itself


def test_run_builds_the_whole_space_mst_once(monkeypatch):
    sp = normalize(generate_instance("uniform2d", 40, 0))
    whole = []

    def counted(space, subset):
        subset = list(subset)
        if space.n == sp.n and subset == list(range(space.n)):
            whole.append(space)
        return mst(space, subset)

    for module in (runner, sparse):
        monkeypatch.setattr(module, "mst", counted)
    report = runner.run({"mode": "solve", "space": sp, "seed": 0})
    assert sorted(report["results"]["solve"]["tour"]) == list(range(sp.n))
    # the lower bound's tree is the one the top level's dense scan reads
    assert len(whole) == 1


def test_split_radius_is_the_same_from_a_given_tree():
    sp = dense_fixture()
    h = build_hierarchy(sp, 6.0)
    tree = mst(sp, range(sp.n))
    level, v, q_star = find_dense_region(sp, h, 2.0)
    assert find_dense_region(sp, h, 2.0, tree) == (level, v, q_star)
    assert (choose_split_radius(sp, v, level, 1.0 / 12, 6.0, tree=tree)
            == choose_split_radius(sp, v, level, 1.0 / 12, 6.0))


def test_recursion_limit():
    sp = dense_fixture()
    with pytest.raises(RecursionLimit):
        solve_tsp(sp, SolveParams(seed=3, q=2.0, max_recursion_depth=-1))


# -------------------------------------------------------------- local law

def test_local_bounds_singleton_ball():
    sp = rand_space(8, 20)
    h = build_hierarchy(sp, 6.0)
    t = double_tree_tour(sp, range(sp.n))
    report = check_local_tour_bounds(sp, t, 0, 0.0, 0.05, 6.0, 2.0)
    assert report.mst_weight == 0.0
    assert report.lower_holds


@pytest.mark.parametrize("seed", range(4))
def test_local_upper_bound_on_best_nr_tour(seed):
    import itertools
    rng = np.random.default_rng(seed + 300)
    n = int(rng.integers(5, 8))
    sp = rand_space(seed + 310, n)
    h = build_hierarchy(sp, 6.0)
    eps = 1.0 / 8
    best, best_w = None, math.inf
    for perm in itertools.permutations(range(1, n)):
        t = make_net_respecting(sp, Tour((0,) + perm, closed=True), h, eps)
        w = tour_weight(sp, t)
        if w < best_w:
            best, best_w = t, w
    dd = estimate_doubling(sp, seed=seed).ddim_upper
    for u in range(n):
        for radius in (sp.diameter() / 4, sp.diameter() / 2):
            report = check_local_tour_bounds(sp, best, u, radius, eps, 6.0, dd)
            assert report.upper_holds
            assert report.lower_holds


def test_dense_ball_mst_growth_bound():
    sp = dense_fixture()
    h = build_hierarchy(sp, 6.0)
    level, v, q_star = find_dense_region(sp, h, 2.0)
    dd = estimate_doubling(sp, seed=0).ddim_upper
    si = h.radius(level)
    big = edges_weight(sp, mst(sp, ball(sp, v, 13 * si)))
    assert big < 2 ** (5 * dd) * q_star * si


# ----------------------------------------------------------------- params

def test_params_validation():
    with pytest.raises(ValueError):
        SolveParams(eps=0.2)
    with pytest.raises(ValueError):
        SolveParams(s=4.0)
    with pytest.raises(ValueError):
        SolveParams(delta=0.5)
    with pytest.raises(ValueError, match=r"r must be 2, got 4"):
        SolveParams(r=4)
    p = SolveParams()
    assert p.q == pytest.approx(64 * (6.0 / 0.05) ** 2)
    note = p.theoretical_note(100, 2.0)
    assert note["m_theory"] > 1
