import math
from collections import Counter

import numpy as np
import pytest

from nettsp import metric, oracles, runner, sparse, tours
from nettsp.errors import DegenerateSplit
from nettsp.io import generate_instance
from nettsp.metric import (REL_TOL, ball, estimate_doubling, from_matrix, from_points,
                           normalize, within)
from nettsp.nets import build_hierarchy
from nettsp.oracles import held_karp_tsp
from nettsp.sparse import (SolveParams, _in_annulus, check_local_tour_bounds,
                           choose_split_radius, find_dense_region, solve_tsp,
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

    for module in (metric, sparse):           # the whole tree, the balls' trees
        monkeypatch.setattr(module, "mst", counted)
    sp = normalize(generate_instance("clustered", 60, 0, {"clusters": 4}))
    assert find_dense_region(sp, build_hierarchy(sp, 6.0), SolveParams().q) is None
    assert len(calls) == 1



def test_dense_scan_of_a_firing_level_builds_at_most_the_whole_mst(monkeypatch):
    calls = []

    def counted(space, subset):
        calls.append(subset)
        return mst(space, subset)

    for module in (metric, sparse):           # the whole tree, the balls' trees
        monkeypatch.setattr(module, "mst", counted)
    sp = normalize(generate_instance("clustered", 60, 0, {"clusters": 4}))
    assert find_dense_region(sp, build_hierarchy(sp, 6.0), 2.0) is not None
    # the level's ball trees are built in lockstep, without mst
    assert len(calls) <= 1

# Tours at the time of writing. A change that keeps the solver's choices
# keeps these exactly; one that alters them must say why.
UNIFORM40_TOUR = [
    16, 1, 10, 29, 34, 27, 30, 17, 20, 21, 0, 15, 12, 37, 9, 31, 23, 32, 28, 18,
    3, 11, 14, 25, 7, 5, 6, 26, 19, 39, 8, 2, 13, 38, 35, 4, 36, 22, 33, 24]
CLUSTERED160_Q2_TOUR = [
    3, 79, 99, 159, 87, 83, 27, 15, 39, 123, 55, 19, 35, 119, 135, 63, 43, 67, 31, 103,
    95, 107, 155, 143, 7, 23, 59, 127, 11, 51, 71, 151, 47, 111, 139, 91, 115, 75, 147, 131,
    1, 77, 129, 133, 61, 157, 69, 85, 25, 9, 37, 149, 137, 121, 13, 49, 145, 97, 65, 125,
    105, 101, 93, 41, 89, 5, 153, 81, 17, 29, 33, 109, 117, 53, 21, 57, 73, 141, 45, 113,
    0, 132, 120, 104, 44, 36, 48, 152, 32, 116, 92, 8, 76, 136, 28, 68, 156, 148, 52, 144,
    12, 128, 24, 56, 64, 80, 20, 112, 100, 108, 40, 84, 140, 88, 124, 4, 72, 96, 60, 16,
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

def annulus_edge_weight(space, edges, v, r1, r2):
    """Weight of edges with both endpoints in the annulus around v, summed in
    edge order; the annulus rule runs once over v's distance row."""
    inside = _in_annulus(space.row(v), r1, r2)
    return float(sum(space.dist(a, b) for a, b in edges if inside[a] and inside[b]))


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


def split_radius_loop(space, v, level, delta, s, candidates=64, tree=None):
    """The candidate loop the array masks replaced: each annulus scored on
    its own by annulus_edge_weight, over ``tree`` (the whole MST if None)."""
    si = s ** level
    if tree is None:
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
        tree = mst(space, range(space.n))
        # above these levels every annulus lies past the diameter and is empty
        for level in range(h.top + 1):
            if 12 * h.radius(level) > space.diameter():
                break
            first = 12 * 6.0 ** level + 0.5 / 64 * 6.0 ** level
            for v in range(space.n):
                want = split_radius_loop(space, v, level, 1.0 / 12, 6.0, tree=tree)
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
    level, v, q_star = find_dense_region(sp, h, 2.0)
    assert q_star > 0
    radius = choose_split_radius(sp, v, level, 1.0 / 12, 6.0)
    sr = split_instance(sp, h, v, level, radius, 1.0 / 12, 0.05)
    s1, s2, allp = set(sr.s1), set(sr.s2), set(range(sp.n))
    assert s1 | s2 == allp
    assert s1 & s2
    assert s2 < allp
    assert s1 >= set(int(p) for p in ball(sp, v, sr.h))


def test_split_annulus_inner_rim_follows_within():
    # Level 0, delta 1/12: the annulus around v = 0 is (lo, lo + 1/6] with
    # lo = 12.5 - 1/12, k = 0 and j = 1, so every annulus point seeds its
    # 1-neighbourhood into the inside. Point 2 lies past lo by half the rule's
    # tolerance lo REL_TOL: within leaves it out of the annulus, while a rim
    # at lo + REL_TOL would put it in, and its outer neighbour 3 with it.
    lo = 12.5 - 1 / 12
    rim = lo * (1 + REL_TOL / 2)
    xs = [0.0, 8.0, rim, rim + 1.0] + [float(x) for x in range(1, 12) if x != 8]
    sp = from_points([(x, 0.0) for x in xs])
    h = build_hierarchy(sp, 6.0)
    assert sp.dist(0, 2) == rim > lo + REL_TOL and within(rim, lo)
    assert h.net(1).tolist() == [0, 1]
    sr = split_instance(sp, h, 0, 0, 12.5, 1.0 / 12, 0.05)
    assert sr.s1 == (0, 1, 2) + tuple(range(4, sp.n))    # the ball alone
    assert sr.s2 == (0, 1, 3)                           # the outside and the ball's level-1 net


def test_split_annulus_outer_rim_follows_within():
    # Level 1, delta 1/12: the annulus around v = 0 is (12, 13], and k = 0,
    # so every annulus point seeds its own 1-neighbourhood into the inside.
    # Point 2 lies past 13 by half the rule's tolerance 13 REL_TOL: within
    # puts it in the annulus, a rim at 13 + REL_TOL would leave it out.
    rim = 13 * (1 + REL_TOL / 2)
    xs = [0.0, 8.0, rim] + [float(x) for x in range(1, 12) if x != 8]
    sp = from_points([(x, 0.0) for x in xs])
    h = build_hierarchy(sp, 6.0)
    assert sp.dist(0, 2) == rim > 13 + REL_TOL and within(rim, 13.0)
    assert h.net(1).tolist() == [0, 1]
    sr = split_instance(sp, h, 0, 1, 12.5, 1.0 / 12, 0.05)
    assert sr.s1 == tuple(range(sp.n))          # the ball, and point 2 by the annulus
    assert sr.s2 == (0, 1, 2)                   # the outside and the ball's level-1 net


def set_split_instance(space, hier, v, level, split_radius, delta, eps):
    """split_instance as per-point set unions, the form before boolean masks,
    with its overlap fallback; every rim goes through within."""
    si = hier.s ** level
    k = max(0, min(hier.top, hier.level_of_value(delta * si)))
    j = max(1, min(hier.top, hier.level_of_value(eps * delta * si)))
    d = space.pairwise()
    pts = set(range(space.n))

    def near(a, b, r):
        return {q for q in b if a and within(d[sorted(a), q].min(), r)}

    def net(level, among):
        return {p for p in among if hier.in_net(p, level)}

    inner = {p for p in pts if within(d[v, p], split_radius)}
    outer = pts - inner
    if not outer:
        raise DegenerateSplit("dense ball swallowed the whole instance")
    annulus = {p for p in pts if not within(d[v, p], split_radius - delta * si)
               and within(d[v, p], split_radius + delta * si)}
    n_h = near(annulus, net(k, pts), hier.radius(k))
    s1 = inner | n_h | near(n_h, pts, hier.radius(k)) | near(inner, net(j, pts), hier.radius(j))
    k_boundary = near(outer, net(k, inner), hier.radius(k)) if k >= 1 else set()
    s2 = outer | net(j, inner) | k_boundary | near(k_boundary, pts, hier.radius(k))
    if s2 == pts:
        raise DegenerateSplit("outside portion still covers every point")
    if not s1 & s2:
        s1 = s1 | net(j, inner)
    if not s1 & s2:
        raise DegenerateSplit("no overlap between the split sides")
    return tuple(sorted(s1)), tuple(sorted(s2))


def test_split_sides_equal_the_set_reference():
    outcomes = Counter()
    for kind, params in (("clustered", {"clusters": 4}), ("uniform2d", None), ("line", None)):
        sp = normalize(generate_instance(kind, 120, 0, params))
        h = build_hierarchy(sp, 6.0)
        for level in range(h.top + 1):
            k = max(0, min(h.top, h.level_of_value(6.0 ** level / 12)))
            for v in range(0, sp.n, 17):
                radius = choose_split_radius(sp, v, level, 1.0 / 12, 6.0)
                try:
                    want = set_split_instance(sp, h, v, level, radius, 1.0 / 12, 0.05)
                except DegenerateSplit as exc:
                    with pytest.raises(DegenerateSplit, match=str(exc)):
                        split_instance(sp, h, v, level, radius, 1.0 / 12, 0.05)
                    outcomes[str(exc)] += 1
                    continue
                sr = split_instance(sp, h, v, level, radius, 1.0 / 12, 0.05)
                assert (sr.s1, sr.s2, sr.h) == want + (radius,)
                assert all(type(p) is int for p in sr.s1 + sr.s2)
                outcomes["split", min(k, 1)] += 1
    # splits with k = 0 and k >= 1, and both degenerate outcomes, all occur
    assert outcomes["split", 0] and outcomes["split", 1]
    assert len(outcomes) == 4, outcomes


def test_split_boundary_layers_take_net_points_and_their_neighbourhoods():
    # Level 3 around v = 0 at radius 2700: k = j = 1, so the annulus is
    # (2682, 2718] and neighbourhoods have radius 6. The level-1 net is
    # {0, 1, 5, 6}. Net points 1 and 5 reach the annulus, and their
    # neighbourhoods bring 2 and 7 into the inside; 6 and 8 lie within 6 of
    # annulus point 7 but of no net point that reaches the annulus, so they
    # stay out. On the outside, boundary net point 1 brings its neighbour 3.
    xs = [0, 2697, 2702, 2692, 3, 2712, 2727, 2717, 2722]
    sp = from_points([(float(x), 0.0) for x in xs])
    h = build_hierarchy(sp, 6.0)
    assert h.net(1).tolist() == [0, 1, 5, 6]
    sr = split_instance(sp, h, 0, 3, 2700.0, 1.0 / 12, 0.05)
    assert (sr.s1, sr.s2) == ((0, 1, 2, 3, 4, 5, 7), (0, 1, 2, 3, 5, 6, 7, 8))
    assert (sr.s1, sr.s2) == set_split_instance(sp, h, 0, 3, 2700.0, 1.0 / 12, 0.05)


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

    for module in (metric, sparse):
        monkeypatch.setattr(module, "mst", counted)
    _, report = solve_tsp(sp, SolveParams(seed=3, q=2.0))
    scanned = [t for t in report["trace"] if t.get("side") != "inside" and t["n"] > 1]
    assert any(t["mode"] == "dense" for t in scanned)
    # one tree per scanned sub-instance, shared by the skip bound and the split radius
    assert len(whole) == len(scanned) == len({id(space) for space in whole})
    assert whole[0] is sp                  # the depth-0 sub-instance is the space itself


def test_run_builds_the_whole_space_mst_once(monkeypatch):
    whole = []

    def counted(space, subset):
        subset = list(subset)
        if subset == list(range(space.n)):
            whole.append(space)
        return mst(space, subset)

    for module in (metric, tours, sparse, runner, oracles):
        if getattr(module, "mst", None) is mst:
            monkeypatch.setattr(module, "mst", counted)
    for mode in runner.MODES:
        # a fresh space per mode, so no mode reads a tree another one built
        sp = normalize(generate_instance("uniform2d", 40 if mode != "oracle" else 12, 0))
        whole.clear()
        report = runner.run({"mode": mode, "space": sp, "seed": 0})
        assert report["lower_bounds"]["mst"] > 0
        # the lower bound's tree is the one the dense scan, the split radius,
        # Christofides and the double tree read
        assert len(whole) == 1 and whole[0] is sp, (mode, len(whole))


@pytest.mark.parametrize("kind, n, params", [
    ("uniform2d", 40, None), ("clustered", 80, {"clusters": 4})])
def test_solve_tsp_draws_radii_with_the_runners_doubling_estimate(kind, n, params):
    # a separate doubling estimate per sub-instance gives these two a
    # different tour from the runner's whole-space one
    sp = normalize(generate_instance(kind, n, 0, params))
    tour, _ = solve_tsp(sp, SolveParams(seed=0))
    report = runner.run({"mode": "solve", "space": sp, "seed": 0})
    assert list(tour.seq) == report["results"]["solve"]["tour"]


@pytest.mark.parametrize("n", [160, 180, 200])
def test_each_peel_leaves_fewer_points_and_notes_its_inside_side(n):
    sp = normalize(generate_instance("clustered", n, 0, {"clusters": 4}))
    trace = runner.run({"mode": "solve", "space": sp, "seed": 0, "q": 2.0})["recursion_trace"]
    rest = [note for note in trace if "side" not in note]
    assert [note["depth"] for note in rest] == list(range(len(rest)))
    assert len(rest) >= 2 and all(note["mode"] == "dense" for note in rest[:-1])
    assert rest[-1]["mode"] != "dense"
    for before, after in zip(rest, rest[1:]):
        assert after["n"] == before["split"]["s2"] < before["n"]
    # each split's inside note follows the note of the split that made it
    for i, note in enumerate(trace):
        if note.get("side") == "inside":
            made_by = trace[i - 1]
            assert "side" not in made_by and made_by["mode"] == "dense"
            assert note["depth"] == made_by["depth"]
            assert note["n"] == made_by["split"]["s1"]
    assert sum(note.get("side") == "inside" for note in trace) == len(rest) - 1


# -------------------------------------------------------------- local law

def test_local_bounds_singleton_ball():
    sp = rand_space(8, 20)
    h = build_hierarchy(sp, 6.0)
    t = double_tree_tour(sp)
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
    for ddim in (0.5, 0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="ddim must be None or at least 1"):
            SolveParams(ddim=ddim)
    assert SolveParams(ddim=1).ddim == 1 and SolveParams().ddim is None
    with pytest.raises(TypeError, match=r"unexpected keyword argument 'r'"):
        SolveParams(r=4)
    p = SolveParams()
    assert p.q == pytest.approx(64 * (6.0 / 0.05) ** 2)
    note = p.theoretical_note(100, 2.0)
    assert note["m_theory"] > 1
