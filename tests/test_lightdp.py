import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from nettsp.errors import BudgetExceeded
from nettsp.io import generate_instance
from nettsp import lightdp, oracles, runner
from nettsp.lightdp import (DEFAULT_BUDGET, PortalSet, _Engine, _heuristic_order,
                            _tree_children_options, auto_portals,
                            draw_radius_samples, make_flat_tree, solve_light_tour,
                            solve_with_radius_guessing, tree_from_samples)
from nettsp.metric import REL_TOL, estimate_doubling, from_points, normalize
from nettsp.nets import build_hierarchy
from nettsp.oracles import (PULL_BLOCK, brute_force_tsp, held_karp_tsp, subset_path_step,
                            subset_path_table, subset_path_trace)
from nettsp.partition import ClusterNode, distinct_carvings, partition_with_radii
from nettsp.tours import edges_weight, mst, tour_weight


def rand_space(seed, n):
    return normalize(from_points(np.random.default_rng(seed).random((n, 2))))


def all_points_chooser(space):
    return lambda members, level: list(range(space.n))


# ---------------------------------------------------------------- portals

def test_auto_portals_nested_in_cap():
    sp = rand_space(4, 80)
    h = build_hierarchy(sp, 6.0)
    members = tuple(range(0, 30))
    small = auto_portals(sp, h, members, min(2, h.top), 4)
    big = auto_portals(sp, h, members, min(2, h.top), 12)
    assert set(small.portals) <= set(big.portals)
    # every member within the chosen pitch of some portal
    for m in members:
        assert min(sp.dist(m, p) for p in small.portals) <= small.pitch * (1 + 1e-9)


def set_auto_portals(space, h, members, level, m_cap):
    """auto_portals as a per-level pairwise query accumulated into a set,
    before it read each point's distance to the nearest member off one row."""
    members = tuple(sorted(int(p) for p in members))
    marr = np.asarray(members, dtype=np.intp)
    acc = set()
    family = []
    for j in range(max(level, 0), -1, -1):
        net = h.net(j)
        pitch = h.radius(j)
        d = space.pairwise(net, marr).min(axis=1)
        for p in net[d <= pitch + REL_TOL * max(1.0, pitch)]:
            acc.add(int(p))
        family.append((j, tuple(sorted(acc))))
    chosen = family[0]
    for j, pts in reversed(family):
        if len(pts) <= m_cap:
            chosen = (j, pts)
            break
    mset = set(members)
    j, pts = chosen
    return PortalSet(level=level, pitch_level=j, pitch=h.radius(j), portals=pts,
                     mandatory=tuple(p in mset for p in pts))


def tree_of(kind, n, seed, params=None):
    sp = normalize(generate_instance(kind, n, seed, params))
    h = build_hierarchy(sp, 6.0)
    ddim = estimate_doubling(sp, seed=seed).ddim_upper
    return sp, h, tree_from_samples(sp, h, draw_radius_samples(h, 1, ddim,
                                                               np.random.default_rng(seed)))


@pytest.mark.parametrize("kind, n, params", [
    ("uniform2d", 50, None), ("clustered", 60, {"clusters": 4})])
def test_auto_portals_equal_the_set_accumulation(kind, n, params):
    sp, h, tree = tree_of(kind, n, 0, params)
    fallbacks = 0
    for node in tree.nodes():
        for m_cap in (1, 2, 6, 24):
            got = auto_portals(sp, h, node.members, node.level, m_cap)
            assert got == set_auto_portals(sp, h, node.members, node.level, m_cap)
            assert all(type(p) is int for p in got.portals)
            fallbacks += len(got.portals) > m_cap
    assert fallbacks > 0          # some cluster took the coarsest set over its cap


# --------------------------------------------------------------- solve DP

def test_solve_single_point():
    sp = from_points([(0.0, 0.0)])
    tree = make_flat_tree(sp)
    h = build_hierarchy(sp, 6.0)
    res = solve_light_tour(sp, h, tree, 2, 2)
    assert res.tour.seq == (0,)
    assert res.cost == pytest.approx(0.0)


def test_solve_two_points_exact():
    sp = normalize(from_points([(0.0, 0.0), (0.7, 0.0)]))
    h = build_hierarchy(sp, 6.0)
    tree = make_flat_tree(sp)
    res = solve_light_tour(sp, h, tree, 2, 4)
    assert res.cost == pytest.approx(2.0)


@pytest.mark.parametrize("seed", range(10))
def test_flat_tree_equals_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    sp = rand_space(seed + 10, n)
    h = build_hierarchy(sp, 6.0)
    tree = make_flat_tree(sp)
    res = solve_light_tour(sp, h, tree, n, 2 * n,
                           portal_chooser=all_points_chooser(sp))
    assert res.cost == pytest.approx(brute_force_tsp(sp).weight, abs=1e-9)
    assert tour_weight(sp, res.tour) <= res.cost + 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_hierarchical_solve_valid_and_bounded(seed):
    rng = np.random.default_rng(seed + 40)
    n = int(rng.integers(8, 17))
    sp = rand_space(seed + 50, n)
    h = build_hierarchy(sp, 6.0)
    tree = tree_from_samples(sp, h, draw_radius_samples(h, 1, 2.5, np.random.default_rng(seed)))
    res = solve_light_tour(sp, h, tree, 6, 2)
    w = tour_weight(sp, res.tour)
    assert res.tour.closed
    assert res.tour.visits() == set(range(n)) and len(res.tour.seq) == n
    assert w <= res.cost + 1e-9
    assert w >= held_karp_tsp(sp).weight - 1e-9
    assert w <= 2 * edges_weight(sp, mst(sp, range(n))) + 1e-9


def test_audit_instances_within_r_and_portals():
    sp = rand_space(60, 14)
    h = build_hierarchy(sp, 6.0)
    tree = tree_from_samples(sp, h, draw_radius_samples(h, 1, 2.5, np.random.default_rng(0)))
    res = solve_light_tour(sp, h, tree, 6, 2)
    assert res.audit
    for level, size, instances, within in res.audit:
        assert instances <= 2
        assert within


def test_monotone_in_m_cap():
    sp = rand_space(61, 12)
    h = build_hierarchy(sp, 6.0)
    tree = tree_from_samples(sp, h, draw_radius_samples(h, 1, 2.5, np.random.default_rng(1)))
    c3 = solve_light_tour(sp, h, tree, 3, 2).cost
    c8 = solve_light_tour(sp, h, tree, 8, 2).cost
    assert c8 <= c3 + 1e-9


def test_budget_exceeded_raises():
    sp = rand_space(62, 14)
    h = build_hierarchy(sp, 6.0)
    tree = tree_from_samples(sp, h, draw_radius_samples(h, 1, 2.5, np.random.default_rng(2)))
    with pytest.raises(BudgetExceeded):
        solve_light_tour(sp, h, tree, 6, 2, budget=10)


def test_budget_message_says_what_to_change():
    sp = rand_space(62, 14)
    h = build_hierarchy(sp, 6.0)
    tree = tree_from_samples(sp, h, draw_radius_samples(h, 1, 2.5, np.random.default_rng(2)))
    with pytest.raises(BudgetExceeded, match=r"budget 10 exceeded at m_cap 6: raise the "
                                             r"budget, or pass an --m-cap below 6"):
        solve_light_tour(sp, h, tree, 6, 2, budget=10)


def leaf_cases(rng, n):
    """(members, config) pairs over 1-7 members: a closed loop at a member,
    a path between two members, and ends outside the members."""
    size = int(rng.integers(1, min(7, n) + 1))
    members = tuple(sorted(int(p) for p in rng.choice(n, size, replace=False)))
    outside = [p for p in range(n) if p not in members]
    a, b = members[0], members[-1]
    cases = [(members, ((a, a),))]
    if a != b:
        cases.append((members, ((a, b),)))
    if outside:
        o = outside[int(rng.integers(len(outside)))]
        cases += [(members, ((o, o),)), (members, (tuple(sorted((a, o))),))]
        if len(outside) > 1:
            cases.append((members, ((outside[0], outside[-1]),)))
    return cases


@pytest.mark.parametrize("seed", range(10))
def test_leaf_equals_the_best_order_by_permutation_search(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    # even seeds: random points; odd seeds: a unit grid, whose costs tie often
    sp = (rand_space(seed + 90, n) if seed % 2 == 0
          else from_points([(float(i % 3), float(i // 3)) for i in range(n)]))
    D = sp.pairwise()
    engine = _Engine(sp, build_hierarchy(sp, 6.0), 6, 2, DEFAULT_BUDGET, lambda *_: [])
    for members, config in leaf_cases(rng, n):
        (a, b), = config
        rest = [p for p in members if p not in (a, b)]
        best = min(sum(D[u, v] for u, v in zip((a,) + order, order + (b,)))
                   for order in itertools.permutations(rest))
        before = engine.ops
        cost, (kind, (seg,)) = engine._leaf(members, config)
        assert kind == "leaf"
        assert cost == best
        assert seg[0] == a and seg[-1] == b
        assert sorted(seg[1:-1]) == sorted(rest)
        assert sum(D[u, v] for u, v in zip(seg, seg[1:])) == cost
        t = len(rest)
        assert engine.ops - before == (1 if a == b else 2) * max(1, (1 << t) * (t + 1))


def guessing_solve(n, seed, guesses, budget=DEFAULT_BUDGET):
    sp = normalize(generate_instance("uniform2d", n, seed=seed))
    ddim = estimate_doubling(sp, seed=seed).ddim_upper
    return solve_with_radius_guessing(sp, build_hierarchy(sp, 6.0), guesses, 6, 2, ddim,
                                      np.random.default_rng(seed), budget=budget)


def test_heuristic_child_order_is_not_charged_to_the_budget():
    # uniform2d n = 40 seed 0 orders 19 children heuristically 10 times. Its
    # exponential work (leaf covers and subset path tables) costs 982 ops;
    # greedy + 2-opt is polynomial and adds nothing, so that budget suffices.
    res = guessing_solve(40, 0, 1, budget=982)
    assert res.stats["ops"] == 982
    with pytest.raises(BudgetExceeded):
        guessing_solve(40, 0, 1, budget=981)


# ------------------------------------------------------ subset path kernel

def random_groups(rng, k, m):
    """Small-integer entry and hop costs (many ties), exits past each group's
    own count padded to inf."""
    exits = rng.integers(1, m + 1, size=k)
    entry = rng.integers(0, 4, size=(k, m)).astype(float)
    hop = rng.integers(0, 4, size=(k, k, m, m)).astype(float)
    for c in range(k):
        entry[c, exits[c]:] = np.inf
        hop[c, :, exits[c]:, :] = np.inf
        hop[:, c, :, exits[c]:] = np.inf
    return entry, hop


def brute_path_costs(entry, hop):
    """best[mask][c, y] over every group order and exit choice."""
    k, m = entry.shape
    best = {}
    for size in range(1, k + 1):
        for order in itertools.permutations(range(k), size):
            for exits in itertools.product(range(m), repeat=size):
                cost = entry[order[0], exits[0]]
                for t in range(1, size):
                    cost += hop[order[t - 1], order[t], exits[t - 1], exits[t]]
                mask = sum(1 << c for c in order)
                row = best.setdefault(mask, np.full((k, m), np.inf))
                row[order[-1], exits[-1]] = min(row[order[-1], exits[-1]], cost)
    return best


@pytest.mark.parametrize("seed", range(8))
def test_subset_path_table_and_step_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    k, m = int(rng.integers(1, 6)), int(rng.integers(1, 4))
    entry, hop = random_groups(rng, k, m)
    table = subset_path_table(entry, hop)
    best = brute_path_costs(entry, hop)
    for mask in range(1, 1 << k):
        assert np.array_equal(table[mask], best[mask])
        for c, y in zip(*np.nonzero(np.isfinite(table[mask]))):
            if mask == 1 << c:
                continue
            prev = mask ^ (1 << c)
            sums = table[prev] + hop[:, c, :, y]
            # the step is the lowest (group, exit) that attains the table value
            ties = [(int(p), int(x)) for p, x in zip(*np.nonzero(sums == table[mask, c, y]))]
            assert subset_path_step(table, hop, mask, int(c), int(y)) == min(ties)
    full = (1 << k) - 1
    for c, y in zip(*np.nonzero(np.isfinite(table[full]))):
        path = subset_path_trace(table, hop, int(c), int(y))
        assert sorted(g for g, _ in path) == list(range(k))
        assert path[-1] == (c, y)
        cost = entry[path[0]] + sum(hop[a, b, x, z] for (a, x), (b, z) in zip(path, path[1:]))
        assert cost == table[full, c, y]


def push_subset_path_table(entry, hop):
    """The push-form kernel the pull form replaced: each layer's (mask, ci)
    rows are extended to every cj outside the mask, with a min over the
    middle (exit) axis, and folded into the targets by np.minimum."""
    k, m = entry.shape
    table = np.full((1 << k, k, m), np.inf)
    for c in range(k):
        table[1 << c, c] = entry[c]
    masks = np.arange(1 << k, dtype=np.int64)
    popcount = sum((masks >> b) & 1 for b in range(k))
    for count in range(1, k):
        layer = masks[popcount == count]
        for ci in range(k):
            sel = layer[(layer >> ci) & 1 == 1]
            arr = table[sel, ci]
            for cj in range(k):
                if cj == ci:
                    continue
                sub = (sel >> cj) & 1 == 0
                cand = np.min(arr[sub][:, :, None] + hop[ci, cj][None, :, :], axis=1)
                tgt = sel[sub] | (1 << cj)
                table[tgt, cj] = np.minimum(table[tgt, cj], cand)
    return table


@pytest.mark.parametrize("k, m", [(14, 1), (12, 6), (11, 2)])
def test_pull_kernel_equals_push_form_across_blocks(k, m):
    rng = np.random.default_rng(100 * k + m)
    entry, hop = random_groups(rng, k, m)
    # the widest layer's targets of one group span several row blocks
    assert math.comb(k - 1, (k - 1) // 2) > PULL_BLOCK // (k * m * m)
    table = subset_path_table(entry, hop)
    assert np.array_equal(table, push_subset_path_table(entry, hop))
    masks = rng.integers(1, 1 << k, size=300)
    checked = 0
    for mask in masks.tolist() + [(1 << k) - 1]:
        for c, y in zip(*np.nonzero(np.isfinite(table[mask]))):
            if mask == 1 << c:
                continue
            sums = table[mask ^ (1 << c)] + hop[:, c, :, y]
            ties = [(int(p), int(x)) for p, x in zip(*np.nonzero(sums == table[mask, c, y]))]
            assert subset_path_step(table, hop, mask, int(c), int(y)) == min(ties)
            checked += len(ties) > 1
    assert checked > 0


@pytest.mark.parametrize("rows", [1, 3, 5])
@pytest.mark.parametrize("k, m", [(1, 1), (1, 3), (4, 1), (7, 3), (9, 2)])
def test_pull_kernel_equals_push_form_at_any_block_size(monkeypatch, rows, k, m):
    rng = np.random.default_rng(10 * k + m)
    entry, hop = random_groups(rng, k, m)
    hop[np.arange(k), np.arange(k)] = np.inf          # as _hop_matrices pads a self-hop
    # PULL_BLOCK = 1 is below one row's k·m·m floats and still gives 1-row blocks
    monkeypatch.setattr(oracles, "PULL_BLOCK", 1 if rows == 1 else rows * k * m * m)
    sizes = [math.comb(k - 1, j) for j in range(1, k)]  # each run layer's targets of one group
    if rows > 1 and max(sizes, default=0) > rows:      # some layer spans blocks, the last one short
        assert any(n > rows and n % rows for n in sizes)
    assert np.array_equal(subset_path_table(entry, hop), push_subset_path_table(entry, hop))


def test_pull_kernel_working_memory_stays_near_the_table():
    k, m = 14, 1
    entry, hop = random_groups(np.random.default_rng(14), k, m)
    table_bytes = (1 << k) * k * m * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = subset_path_table(entry, hop)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.nbytes == table_bytes
    assert peak - before <= 1.75 * table_bytes
    # nothing kept past the call beyond the table, such as every layer's index arrays
    assert after - before <= 1.01 * table_bytes


@pytest.mark.parametrize("seed", range(4))
def test_traceback_weight_equals_table_cost_on_a_grid(seed):
    *_, grid = small_spaces()
    h = build_hierarchy(grid, 6.0)
    trees = [tree_from_samples(grid, h, draw_radius_samples(h, 1, 2.5, np.random.default_rng(s)))
             for s in (seed, seed + 4)]
    for tree in trees:
        for m_cap in (2, 6):
            res = solve_light_tour(grid, h, tree, m_cap, 2)
            assert tour_weight(grid, res.raw) == pytest.approx(res.cost)


def scalar_heuristic_order(entry, close, hop, exits, log=None):
    """Greedy plus 2-opt that scores one reversal at a time over unpadded
    vectors: the reference for the batched scan. Returns the order and the
    number of reversals taken; each one taken is appended to ``log`` as
    (round, i, j) when a list is given."""
    k = len(entry)

    def entry_vec(c):
        return entry[c, : exits[c]]

    def score(order):
        vecs = [entry_vec(order[0])]
        for prev, cur in zip(order, order[1:]):
            vecs.append(np.min(vecs[-1][:, None] + hop[prev, cur][: len(vecs[-1])], axis=0))
        last = order[-1]
        return float(np.min(vecs[-1][: exits[last]] + close[last, : exits[last]]))

    order = []
    remaining = set(range(k))
    pos_vec = None
    cur = None
    while remaining:
        best = None
        for cj in sorted(remaining):
            if cur is None:
                cost = float(np.min(entry_vec(cj)))
            else:
                cost = float(np.min(pos_vec[:, None] + hop[cur, cj][: len(pos_vec)]))
            if best is None or cost < best[0] - 1e-15:
                best = (cost, cj)
        cj = best[1]
        order.append(cj)
        remaining.discard(cj)
        if len(order) == 1:
            pos_vec = entry_vec(cj)
        else:
            pos_vec = np.min(pos_vec[:, None] + hop[cur, cj][: len(pos_vec)], axis=0)
        cur = cj

    moves = 0
    improved = True
    rounds = 0
    while improved and rounds < 4:
        improved = False
        rounds += 1
        base = score(order)
        for i in range(k - 1):
            for j in range(i + 1, k):
                cand = order[:i] + order[i:j + 1][::-1] + order[j + 1:]
                c = score(cand)
                if c < base - 1e-12:
                    order, base = cand, c
                    improved = True
                    moves += 1
                    if log is not None:
                        log.append((rounds, i, j))
    return order, moves


def test_batched_two_opt_matches_one_reversal_at_a_time():
    moves = 0
    for seed in range(16):
        rng = np.random.default_rng(seed)
        k, m = 13 + seed % 8, int(rng.integers(2, 5))
        entry, hop = random_groups(rng, k, m)
        exits = np.isfinite(entry).sum(axis=1)
        close = rng.integers(0, 4, size=(k, m)).astype(float)
        if seed % 2:        # distinct float costs beside the integer ties
            entry, hop, close = (x * rng.random(x.shape) for x in (entry, hop, close))
        for c in range(k):
            close[c, exits[c]:] = np.inf
        ref, taken = scalar_heuristic_order(entry, close, hop, exits)
        assert _heuristic_order(entry, close, hop) == ref
        moves += taken
    assert moves > 0


def plane_groups(rng, k, m):
    """Children as tight clumps of m portals in the unit square, threaded from
    A to B: greedy leaves long detours that 2-opt then takes out."""
    pts = rng.random((k, 1, 2)) + 0.03 * rng.standard_normal((k, m, 2))
    A, B = rng.random(2), rng.random(2)

    def dist(x, y):
        return np.sqrt(((x - y) ** 2).sum(-1))

    through = dist(pts[:, :, None], pts[:, None, :])       # through[c, enter, exit]
    entry = np.min(dist(A, pts)[:, :, None] + through, axis=1)
    step = dist(pts[:, None, :, None], pts[None, :, None, :])   # step[ci, cj, exit, enter]
    hop = np.min(step[..., None] + through[None, :, None], axis=3)
    return entry, hop, dist(pts, B)


def test_prefix_shared_two_opt_matches_scalar_scan_at_workload_widths():
    # k = 21-24 children of up to 5-6 portals: the widest orders the
    # benchmark workloads thread (sparse_mid reaches k = 24, m = 6)
    cases = []
    for seed in range(4, 8):
        k, m = 21 + seed % 4, 5 + seed % 2
        cases.append(plane_groups(np.random.default_rng(seed), k, m))
    for seed in range(2):
        rng = np.random.default_rng(seed)
        k, m = 21 + seed, 5 + seed
        entry, hop = random_groups(rng, k, m)
        close = rng.integers(0, 4, size=(k, m)).astype(float)
        if seed:
            entry, hop, close = (x * rng.random(x.shape) for x in (entry, hop, close))
        close[~np.isfinite(entry)] = np.inf
        cases.append((entry, hop, close))
    logs = []
    for entry, hop, close in cases:
        log = []
        ref, _ = scalar_heuristic_order(entry, close, hop, np.isfinite(entry).sum(axis=1), log)
        assert _heuristic_order(entry, close, hop) == ref
        logs.append(log)
    # one round takes several moves, and some move reverses a prefix (i = 0)
    assert any(max(Counter(rnd for rnd, _, _ in log).values(), default=0) > 1 for log in logs)
    assert any(i == 0 for log in logs for _, i, _ in log)
    assert {len(entry) for entry, _, _ in cases} == {21, 22, 23, 24}


def test_heuristic_child_order_traceback_on_uniform40(monkeypatch):
    widths = []

    def counted(entry, close, hop):
        widths.append(len(entry))
        return _heuristic_order(entry, close, hop)

    monkeypatch.setattr(lightdp, "_heuristic_order", counted)
    sp = normalize(generate_instance("uniform2d", 40, seed=0))
    ddim = estimate_doubling(sp, seed=0).ddim_upper
    res = solve_with_radius_guessing(sp, build_hierarchy(sp, 6.0), 1, 6, 2, ddim,
                                     np.random.default_rng(0))
    assert len(widths) >= 1 and max(widths) > _Engine.EXACT_PATH_CHILDREN
    assert sorted(res.tour.seq) == list(range(40))
    assert tour_weight(sp, res.raw) == pytest.approx(res.cost)


# ---------------------------------------------------------- radius guesses

def test_guessing_g1_matches_induced_tree():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 13))
        sp = rand_space(seed + 80, n)
        h = build_hierarchy(sp, 6.0)
        res_g = solve_with_radius_guessing(sp, h, 1, 6, 2, 2.5,
                                           np.random.default_rng(seed + 5))
        samples = draw_radius_samples(h, 1, 2.5, np.random.default_rng(seed + 5))
        tree = tree_from_samples(sp, h, samples)
        res_t = solve_light_tour(sp, h, tree, 6, 2)
        assert res_g.cost == pytest.approx(res_t.cost, abs=1e-9)
        assert res_g.tour.seq == res_t.tour.seq


def test_guessing_two_points_exact():
    sp = normalize(from_points([(0.0, 0.0), (0.4, 0.3)]))
    h = build_hierarchy(sp, 6.0)
    res = solve_with_radius_guessing(sp, h, 3, 4, 2, 1.0, np.random.default_rng(0))
    assert res.cost == pytest.approx(2.0 * sp.dist(0, 1))


@pytest.mark.parametrize("seed", [0, 3])
def test_guessing_more_options_never_hurt(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 11))
    sp = rand_space(seed + 90, n)
    h = build_hierarchy(sp, 6.0)
    samples3 = draw_radius_samples(h, 3, 2.5, np.random.default_rng(seed + 77))
    base = solve_light_tour(sp, h, tree_from_samples(sp, h, samples3), 6, 2)
    res3 = solve_with_radius_guessing(sp, h, 3, 6, 2, 2.5,
                                      np.random.default_rng(seed + 77))
    assert res3.cost <= base.cost + 1e-9
    assert tour_weight(sp, res3.tour) >= held_karp_tsp(sp).weight - 1e-9


# ------------------------------------------------- carving enumeration

def product_carvings(space, members, h, level, choices):
    """Reference enumeration: carve every radius combination of the centers
    within reach of ``members``, in product order, and drop repeats."""
    centers = [int(c) for c in h.net(level)]
    a = h.radius(level)
    dmin = space.pairwise(centers, np.asarray(members, dtype=np.intp)).min(axis=1)
    relevant = [c for c, dm in zip(centers, dmin) if dm <= 2 * a + REL_TOL * max(1.0, 2 * a)]
    guesses = len(choices[centers[0]])
    seen, outs = set(), []
    for combo in itertools.product(range(guesses), repeat=len(relevant)):
        radii = {c: choices[c][0] for c in centers}
        radii.update({c: choices[c][t] for c, t in zip(relevant, combo)})
        part = partition_with_radii(space, members, h, level, radii)
        children = tuple(sorted(tuple(v) for v in part.clusters().values()))
        if children not in seen:
            seen.add(children)
            outs.append(children)
    return outs


def small_spaces():
    yield from (rand_space(seed + 40, 8) for seed in range(3))
    # integer grid: many distances sit exactly on ball boundaries
    yield normalize(from_points([(x, y) for x in range(4) for y in range(2)]))


@pytest.mark.parametrize("guesses", [1, 2, 3])
def test_distinct_carvings_match_product_enumeration(guesses):
    checked, several = 0, 0
    for i, sp in enumerate(small_spaces()):
        h = build_hierarchy(sp, 6.0)
        samples = draw_radius_samples(h, guesses, 2.5, np.random.default_rng(i))
        for node in tree_from_samples(sp, h, samples).nodes():
            if node.level == 0:
                continue
            lvl = node.level - 1
            got = distinct_carvings(sp, node.members, h, lvl, samples[lvl])
            assert got == product_carvings(sp, node.members, h, lvl, samples[lvl])
            checked += 1
            several += len(got) > 1
    assert checked > 4
    assert (several > 0) == (guesses > 1)


def carved_tree(space, h, samples):
    """Reference builder: carve each node's members afresh with the next
    level's centers at their first radius, node by node from the top."""
    def radii_at(level):
        return {c: vals[0] for c, vals in samples[level].items()}

    top = partition_with_radii(space, range(space.n), h, h.top, radii_at(h.top))
    (center, members), = top.clusters().items()
    root = ClusterNode(level=h.top, center=center, radius=top.radii[center],
                       members=tuple(members))

    def subdivide(node):
        if node.level == 0:
            return
        lvl = node.level - 1
        part = partition_with_radii(space, node.members, h, lvl, radii_at(lvl))
        for c, mm in sorted(part.clusters().items()):
            child = ClusterNode(level=lvl, center=c, radius=part.radii[c], members=tuple(mm))
            node.children.append(child)
            subdivide(child)

    subdivide(root)
    return root


@pytest.mark.parametrize("kind", ["uniform2d", "clustered", "line", "matrix_random_metric"])
def test_owner_map_tree_equals_the_node_by_node_carve(kind):
    wide = 0
    for n in (20, 60, 160):
        for seed in range(3):
            sp = normalize(generate_instance(kind, n, seed))
            h = build_hierarchy(sp, 6.0)
            ddim = estimate_doubling(sp, seed=seed).ddim_upper
            samples = draw_radius_samples(h, 1, ddim, np.random.default_rng(seed))
            root = tree_from_samples(sp, h, samples).root
            # level, center, radius, members and child order, node for node
            assert root == carved_tree(sp, h, samples)
            for node in root.walk():
                if node.level == 0:
                    continue
                lvl = node.level - 1
                children = tuple(sorted(ch.members for ch in node.children))
                assert distinct_carvings(sp, node.members, h, lvl, samples[lvl]) == [children]
                wide += len(children) > 1
    assert wide > 0


def test_engine_asks_for_each_clusters_options_once():
    sp = rand_space(7, 14)
    h = build_hierarchy(sp, 6.0)
    tree = tree_from_samples(sp, h, draw_radius_samples(h, 1, 2.5, np.random.default_rng(7)))
    inner = _tree_children_options(tree)
    calls = Counter()

    def counting(level, members):
        calls[(level, members)] += 1
        return inner(level, members)

    engine = _Engine(sp, h, 6, 2, DEFAULT_BUDGET, counting)
    engine.solve_root(tree.root.level, tuple(tree.root.members))
    internal = {(n.level, n.members) for n in tree.nodes() if n.level > 0}
    assert set(calls) == internal
    assert set(calls.values()) == {1}
    # several portal configurations per cluster share one options call
    assert sum(1 for key in engine.memo if key[0] > 0) > len(internal)


def record_table_builds(monkeypatch):
    """Patch the engine to log the (level, children, A) key of every path
    table the kernel builds for a child order, the kernel calls that leaves
    make, and the engines that solve."""
    calls, built, leaf_calls, engines = [], [], [], []
    kernel = lightdp.subset_path_table
    path_table = _Engine._path_table
    leaf = _Engine._leaf
    solve_root = _Engine.solve_root

    def counting_kernel(entry, hop):
        calls.append(None)
        return kernel(entry, hop)

    def recording(self, level, children, A, infos, hop):
        before = len(calls)
        out = path_table(self, level, children, A, infos, hop)
        if len(calls) > before:
            built.append((level, children, A))
        return out

    def leaf_recording(self, members, config):
        before = len(calls)
        out = leaf(self, members, config)
        leaf_calls.extend([None] * (len(calls) - before))
        return out

    def keeping(self, level, members):
        engines.append((self, level))
        return solve_root(self, level, members)

    monkeypatch.setattr(lightdp, "subset_path_table", counting_kernel)
    monkeypatch.setattr(_Engine, "_path_table", recording)
    monkeypatch.setattr(_Engine, "_leaf", leaf_recording)
    monkeypatch.setattr(_Engine, "solve_root", keeping)
    return calls, built, leaf_calls, engines


@pytest.mark.parametrize("solve, tables, ops, flat, entries", [
    (lambda: guessing_solve(20, 0, 2), 64, 149_765, 98_000, 127),
    (lambda: runner.run(dict(mode="solve", seed=3,
                             space=normalize(generate_instance("uniform2d", 50, 3)))),
     116, 362_939, 67_500, 221),
], ids=["uniform2d-n20-two-guesses", "uniform2d-n50-seed3-run"])
def test_each_path_table_is_built_once_and_dropped_when_dead(monkeypatch, solve, tables,
                                                              ops, flat, entries):
    # tables, ops and entries were captured before path tables were dropped,
    # when the heuristic child order still charged 50·k² ops (flat) each time.
    calls, built, leaf_calls, engines = record_table_builds(monkeypatch)
    solve()
    assert len(built) == tables
    assert len(calls) == len(built) + len(leaf_calls)
    assert len(set(built)) == len(built)
    (engine, root_level), = engines
    assert engine.ops + flat == ops
    assert len(engine.memo) == entries
    # every table left in the cache is the root's: the others were dropped
    # once all their configurations were memoized
    left = [key for key in engine.hk_cache if key[0] == "table"]
    assert left and {key[1] for key in left} == {root_level}


def subset_dp_optimum(d):
    """Optimal closed-tour weight by a subset DP vectorized over masks."""
    m = len(d) - 1
    size = 1 << m
    masks = np.arange(size)
    popcount = sum((masks >> b) & 1 for b in range(m))
    dp = np.full((size, m), np.inf)
    dp[1 << np.arange(m), np.arange(m)] = d[0, 1:]
    for count in range(2, m + 1):
        layer = masks[popcount == count]
        for k in range(m):
            ending = layer[(layer >> k) & 1 == 1]
            dp[ending, k] = (dp[ending ^ (1 << k)] + d[1:, 1 + k]).min(axis=1)
    return float((dp[size - 1] + d[1:, 0]).min())


def test_subset_dp_optimum_matches_held_karp():
    sp = rand_space(11, 9)
    assert subset_dp_optimum(sp.pairwise()) == pytest.approx(held_karp_tsp(sp).weight)


def test_guessing_two_guesses_on_the_heavy_uniform_instance():
    sp = normalize(generate_instance("uniform2d", 20, seed=0))
    ddim = estimate_doubling(sp, seed=0).ddim_upper
    res = solve_with_radius_guessing(sp, build_hierarchy(sp, 6.0), 2, 6, 2, ddim,
                                     np.random.default_rng(0))
    assert sorted(res.tour.seq) == list(range(20))
    assert tour_weight(sp, res.tour) >= subset_dp_optimum(sp.pairwise()) * (1 - 1e-9)


# The per-child loops that the node's padded record replaced, kept as references.
def loop_hop_matrices(D, infos):
    k = len(infos)
    m = max(len(ifo[1].portals) for ifo in infos)
    hop = np.full((k, k, m, m), np.inf)
    for ci in range(k):
        xi = np.asarray(infos[ci][1].portals, dtype=np.intp)
        for cj in range(k):
            if ci == cj:
                continue
            ej = np.asarray(infos[cj][1].portals, dtype=np.intp)
            step = D[np.ix_(xi, ej)]
            combined = np.min(step[:, :, None] + infos[cj][2][None, :, :], axis=1)
            hop[ci, cj, :combined.shape[0], :combined.shape[1]] = combined
    return hop


def loop_entry_matrix(D, A, infos, m):
    entry = np.full((len(infos), m), np.inf)
    for ci, (_, ps, mat) in enumerate(infos):
        enter = D[A, np.asarray(ps.portals, dtype=np.intp)]
        entry[ci, : len(ps.portals)] = np.min(enter[:, None] + mat, axis=0)
    return entry


def loop_close_matrix(D, B, infos, m):
    close = np.full((len(infos), m), np.inf)
    for ci, (_, ps, _) in enumerate(infos):
        close[ci, : len(ps.portals)] = D[np.asarray(ps.portals, dtype=np.intp), B]
    return close


@pytest.mark.parametrize("kind, n, seed, params", [
    ("uniform2d", 50, 3, None), ("clustered", 60, 1, {"clusters": 4}),
    ("uniform2d", 40, 0, None)])
def test_gathered_node_matrices_equal_the_per_child_loops(kind, n, seed, params):
    sp, h, tree = tree_of(kind, n, seed, params)
    engine = _Engine(sp, h, 6, 2, DEFAULT_BUDGET, _tree_children_options(tree))
    engine.solve_root(tree.root.level, tuple(tree.root.members))
    mixed = 0
    for node in tree.nodes():
        if not node.children:
            continue
        children = tuple(ch.members for ch in node.children)
        infos = engine._child_infos(node.level, children)
        padded = engine._padded(node.level, children)
        counts = {len(ps.portals) for _, ps, _ in infos}
        mixed += len(counts) > 1
        m = max(counts)
        assert np.array_equal(engine._hop_matrices(node.level, children),
                              loop_hop_matrices(engine.D, infos))
        for p in engine.portals(node.level, node.members).portals:
            assert np.array_equal(engine._entry_matrix(p, padded),
                                  loop_entry_matrix(engine.D, p, infos, m))
            assert np.array_equal(engine._close_matrix(p, padded),
                                  loop_close_matrix(engine.D, p, infos, m))
    assert mixed > 0              # children with different portal counts were padded


@pytest.mark.parametrize("solve", [
    lambda: guessing_solve(20, 0, 2),
    lambda: runner.run(dict(mode="solve", seed=3,
                            space=normalize(generate_instance("uniform2d", 50, 3)))),
], ids=["uniform2d-n20-two-guesses", "uniform2d-n50-seed3-run"])
def test_only_the_roots_node_records_outlive_the_solve(monkeypatch, solve):
    engines = []
    solve_root = _Engine.solve_root

    def keeping(self, level, members):
        engines.append((self, level, members))
        return solve_root(self, level, members)

    monkeypatch.setattr(_Engine, "solve_root", keeping)
    solve()
    (engine, level, members), = engines
    options = {tuple(ch) for ch in engine.children_options(level, members)}
    kinds = Counter()
    for kind, key_level, children, *_ in engine.hk_cache:
        assert key_level == level and children in options
        kinds[kind] += 1
    assert kinds["infos"] == kinds["padded"] == kinds["hop"] == len(options)
    assert kinds["table"] > 0 and set(kinds) == {"infos", "padded", "hop", "table"}
