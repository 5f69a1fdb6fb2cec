import itertools
import math
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from nettsp.io import generate_instance
from nettsp import lightdp, oracles, runner
from nettsp.lightdp import (PortalSet, _Engine, _heuristic_orders, _reversal_bounds,
                            auto_portals, draw_radius_samples, make_flat_tree,
                            solve_light_tour, solve_with_radius_guessing, tree_from_samples)
from nettsp.metric import REL_TOL, estimate_doubling, from_matrix, from_points, normalize
from nettsp.nets import build_hierarchy
from nettsp.oracles import (brute_force_tsp, held_karp_tsp, subset_path_close, subset_path_step,
                            subset_path_table)
from nettsp.partition import distinct_carvings, partition_with_radii
from nettsp.tours import _collapse, edges_weight, mst, tour_weight


def rand_space(seed, n):
    return normalize(from_points(np.random.default_rng(seed).random((n, 2))))


def all_points_chooser(space):
    return lambda members, level: list(range(space.n))


# ---------------------------------------------------------------- portals

def test_auto_portals_nested_in_cap():
    sp = rand_space(4, 80)
    h = build_hierarchy(sp, 6.0)
    members = tuple(range(0, 30))
    level = min(2, h.top)
    sets = [auto_portals(sp, h, members, level, m_cap) for m_cap in (4, 12, 24)]
    for small, big in zip(sets, sets[1:]):
        assert set(small.portals) <= set(big.portals)
    uncapped = 0
    for m_cap, got in zip((4, 12, 24), sets):
        j, candidates, ref = set_auto_portals(sp, h, members, level, m_cap)
        assert got == ref and len(got.portals) <= m_cap
        if len(candidates) <= m_cap:
            # every member within the candidate level's radius of some portal
            uncapped += 1
            for m in members:
                assert min(sp.dist(m, p) for p in got.portals) <= h.radius(j) * (1 + 1e-9)
    assert 0 < uncapped < 3


def set_auto_portals(space, h, members, level, m_cap):
    """auto_portals as a per-level pairwise query accumulated into a set,
    before it read each point's distance to the nearest member off one row,
    capped by a scalar farthest-first scan. Returns the candidate level, its
    candidate set and the PortalSet."""
    members = tuple(sorted(int(p) for p in members))
    marr = np.asarray(members, dtype=np.intp)
    acc = set()
    family = []
    for j in range(max(level, 0), -1, -1):
        net = h.net(j)
        r = h.radius(j)
        d = space.pairwise(net, marr).min(axis=1)
        for p in net[d <= r + REL_TOL * max(1.0, r)]:
            acc.add(int(p))
        family.append((j, tuple(sorted(acc))))
    chosen = family[0]
    for j, pts in reversed(family):
        if len(pts) <= m_cap:
            chosen = (j, pts)
            break
    j, candidates = chosen
    keep = list(candidates[:1])
    while len(keep) < min(m_cap, len(candidates)):
        # the farthest point from those kept, ties to the lowest index
        keep.append(max(candidates, key=lambda p: (min(space.dist(p, q) for q in keep), -p)))
    return j, candidates, PortalSet(level=level, portals=tuple(sorted(keep)))


def tree_clusters(tree):
    """Every cluster of ``tree`` as (level, members), level by level from the bottom."""
    return [(level, members) for level, clusters in enumerate(tree)
            for members in clusters]


def carved_children(part):
    """A carving's clusters as sorted member tuples, as distinct_carvings lists them."""
    clusters = {}
    for p, c in sorted(part.assign_center.items()):
        clusters.setdefault(c, []).append(p)
    return tuple(sorted(tuple(v) for v in clusters.values()))


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
    capped = 0
    for level, members in tree_clusters(tree):
        for m_cap in (1, 2, 6, 24):
            got = auto_portals(sp, h, members, level, m_cap)
            _, candidates, ref = set_auto_portals(sp, h, members, level, m_cap)
            assert got == ref and len(got.portals) <= m_cap
            assert all(type(p) is int for p in got.portals)
            capped += len(candidates) > m_cap
    assert capped > 0             # some cluster's own-level set was over its cap


def star_matrix(n):
    """Point 0 at distance 1 from every other point, which lie 2 apart."""
    d = np.full((n, n), 2.0)
    d[0, :] = d[:, 0] = 1.0
    np.fill_diagonal(d, 0.0)
    return d


@pytest.mark.parametrize("space, config", [
    (generate_instance("clustered", 160, 0, {"clusters": 4}), {"q": 2.0}),
    (from_matrix(star_matrix(60)), {})], ids=["clustered-160-q2", "star-60"])
def test_no_solved_cluster_holds_more_than_m_cap_portals(monkeypatch, space, config):
    # Both instances have clusters whose own-level candidate set is over the cap.
    solves = []
    solve_root = _Engine.solve_root

    def recording(engine):
        res = solve_root(engine)
        solves.append((engine, res))
        return res

    monkeypatch.setattr(_Engine, "solve_root", recording)
    runner.run(dict(config, mode="solve", seed=0, space=space))
    m_cap = 6
    assert solves
    for engine, res in solves:
        clusters = [ps for (level, _), (ps, _) in engine.nodes.items() if level >= 0]
        assert max(len(ps.portals) for ps in clusters) <= m_cap
        assert res.stats["entries"] <= engine.space.n + len(clusters) * m_cap * (m_cap + 1) // 2


# --------------------------------------------------------------- solve DP

def test_solve_single_point():
    sp = from_points([(0.0, 0.0)])
    tree = make_flat_tree(sp)
    h = build_hierarchy(sp, 6.0)
    res = solve_light_tour(sp, h, tree, 2)
    assert res.tour.seq == (0,)
    assert res.cost == pytest.approx(0.0)


def test_solve_two_points_exact():
    sp = normalize(from_points([(0.0, 0.0), (0.7, 0.0)]))
    h = build_hierarchy(sp, 6.0)
    tree = make_flat_tree(sp)
    res = solve_light_tour(sp, h, tree, 2)
    assert res.cost == pytest.approx(2.0)


@pytest.mark.parametrize("seed", range(10))
def test_flat_tree_equals_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    sp = rand_space(seed + 10, n)
    h = build_hierarchy(sp, 6.0)
    tree = make_flat_tree(sp)
    res = solve_light_tour(sp, h, tree, n,
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
    res = solve_light_tour(sp, h, tree, 6)
    w = tour_weight(sp, res.tour)
    assert res.tour.closed
    assert res.tour.visits() == set(range(n)) and len(res.tour.seq) == n
    assert w <= res.cost + 1e-9
    assert w >= held_karp_tsp(sp).weight - 1e-9
    assert w <= 2 * edges_weight(sp, mst(sp, range(n))) + 1e-9


def test_monotone_in_m_cap():
    sp = rand_space(61, 12)
    h = build_hierarchy(sp, 6.0)
    tree = tree_from_samples(sp, h, draw_radius_samples(h, 1, 2.5, np.random.default_rng(1)))
    c3 = solve_light_tour(sp, h, tree, 3).cost
    c8 = solve_light_tour(sp, h, tree, 8).cost
    assert c8 <= c3 + 1e-9


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
    h = build_hierarchy(sp, 6.0)
    for members, config in leaf_cases(rng, n):
        (a, b), = config
        rest = [p for p in members if p not in (a, b)]
        best = min(sum(D[u, v] for u, v in zip((a,) + order, order + (b,)))
                   for order in itertools.permutations(rest))
        # a bottom cluster whose portals are the case's ends, solved as a node of
        # singleton children at every pair of its portals: the one child of a
        # root one level up, with the same portals, which solves only a == b
        tree = [{members: [tuple((p,) for p in members)]}, {members: [(members,)]}]
        engine = _Engine(sp, h, 6, tree, portal_chooser=lambda members, level: (a, b))
        engine.solve_root()
        ps, mat = engine.nodes[0, members]
        ai, bi = ps.portals.index(a), ps.portals.index(b)
        cost = mat[ai, bi]
        assert cost == best
        key = (0, members, ps.portals[min(ai, bi)], ps.portals[max(ai, bi)])
        m = len(ps.portals)
        assert engine.entries == len(members) + m * (m + 1) // 2 + m
        seg = _collapse(engine.expand(key))
        if a != ps.portals[min(ai, bi)]:
            seg = seg[::-1]
        assert seg[0] == a and seg[-1] == b
        assert sorted(seg[1:-1]) == sorted(rest)
        assert sum(D[u, v] for u, v in zip(seg, seg[1:])) == cost
        k = len(members)
        # the root's one-child table per portal adds 1 · 1 · 2^1 / 8 + 1 = 1 each
        assert engine.ops == m * (k * k * (1 << k) // 8 + 1) + m


def guessing_solve(n, seed, guesses):
    sp = normalize(generate_instance("uniform2d", n, seed=seed))
    ddim = estimate_doubling(sp, seed=seed).ddim_upper
    return solve_with_radius_guessing(sp, build_hierarchy(sp, 6.0), guesses, 6, ddim,
                                      np.random.default_rng(seed))


def test_heuristic_child_order_adds_no_ops(monkeypatch):
    # uniform2d n = 40 seed 0 orders 19 children heuristically 10 times. ops
    # counts path table work alone, k·k·2^k / 8 + 1 per table over k children;
    # greedy + 2-opt is polynomial and adds nothing.
    widths, tables = [], []
    kernel, heuristic = lightdp.subset_path_table, lightdp._heuristic_orders

    def counting_kernel(entry, hop):
        tables.extend(entry.shape[-2] for _ in entry)     # one table per stacked sample
        return kernel(entry, hop)

    def counting_heuristic(hop, owner, entries, closes):
        widths.extend(len(entry) for entry in entries)
        return heuristic(hop, owner, entries, closes)

    monkeypatch.setattr(lightdp, "subset_path_table", counting_kernel)
    monkeypatch.setattr(lightdp, "_heuristic_orders", counting_heuristic)
    res = guessing_solve(40, 0, 1)
    assert widths == [19] * 10
    assert res.stats["ops"] == sum(k * k * (1 << k) // 8 + 1 for k in tables) == 978


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


def step_of(table, hop, mask, c, y):
    """subset_path_step on one unstacked table: (group, exit) as ints."""
    pc, py = subset_path_step(table[None], hop[None], [0], mask, c, y)
    return int(pc[0]), int(py[0])


def trace_of(table, hop, c, y):
    """The cheapest visit of all groups of one unstacked table ending at
    (c, y), walked back one step_of at a time: its (group, exit) pairs."""
    mask, path = (1 << table.shape[-2]) - 1, [(c, y)]
    while mask != 1 << path[0][0]:
        prev = step_of(table, hop, mask, *path[0])
        mask ^= 1 << path[0][0]
        path.insert(0, prev)
    return path


def close_at(table, hops, s, c, y):
    """subset_path_close of a stacked table with each row r closed at
    (c[r], y[r]) alone: its (groups, exits)."""
    close = np.full((len(s),) + table.shape[-2:], np.inf)
    close[np.arange(len(s)), c, y] = 0.0
    cost, finite, groups, exits = subset_path_close(table, hops, close, s)
    assert finite.all() and np.array_equal(cost, table[s, -1, c, y])
    return groups, exits


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
            assert step_of(table, hop, mask, int(c), int(y)) == min(ties)
    full = (1 << k) - 1
    for c, y in zip(*np.nonzero(np.isfinite(table[full]))):
        path = trace_of(table, hop, int(c), int(y))
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
def test_pull_kernel_equals_push_form_across_blocks(monkeypatch, k, m):
    rng = np.random.default_rng(100 * k + m)
    entry, hop = random_groups(rng, k, m)
    # a block row holds each live source exit's candidates for the m exits of
    # one target; the widest layer's targets of one group span three blocks
    live = np.count_nonzero(np.isfinite(hop).any(axis=(1, 3)))
    widest = math.comb(k - 1, (k - 1) // 2)
    monkeypatch.setattr(oracles, "PULL_BLOCK", widest // 3 * live * m)
    assert widest > oracles.PULL_BLOCK // (live * m) > 1
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
            assert step_of(table, hop, mask, int(c), int(y)) == min(ties)
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


def stacked_groups(rng, k, m):
    """Three samples of k groups: two hop tensors whose exits are padded
    (dead source exits), the second only on its odd groups, and three entry
    matrices, the last sharing the first sample's hop tensor."""
    exits = rng.integers(1, m, size=k) if m > 1 else np.ones(k, dtype=int)
    entries, hops = [], []
    for count in (exits, np.where(np.arange(k) % 2, exits, m), exits):
        entry = rng.integers(0, 4, size=(k, m)).astype(float)
        hop = rng.integers(0, 4, size=(k, k, m, m)).astype(float)
        for c in range(k):
            entry[c, count[c]:] = np.inf
            hop[c, :, count[c]:, :] = np.inf
            hop[:, c, :, count[c]:] = np.inf
        hop[np.arange(k), np.arange(k)] = np.inf
        entries.append(entry)
        hops.append(hop)
    hops[2] = hops[0]
    return np.array(entries), np.array(hops)


@pytest.mark.parametrize("block", [1, 97, None])
@pytest.mark.parametrize("k, m", [(1, 2), (4, 3), (7, 3), (9, 2), (6, 1)])
def test_stacked_kernel_equals_each_samples_own_table(monkeypatch, block, k, m):
    entries, hops = stacked_groups(np.random.default_rng(10 * k + m), k, m)
    if m > 1 and k > 1:          # exits dead in one sample only, and in every sample
        dead = ~np.isfinite(hops).any(axis=(2, 4))
        assert (dead.any(axis=0) & ~dead.all(axis=0)).any() and dead.all(axis=0).any()
    alone = [subset_path_table(entry, hop) for entry, hop in zip(entries, hops)]
    if block is not None:        # 1: one row per block; 97: blocks that end mid-layer
        monkeypatch.setattr(oracles, "PULL_BLOCK", block)
    stacked = subset_path_table(entries, hops)
    assert stacked.shape == (3, 1 << k, k, m)
    for s in range(3):
        assert np.array_equal(stacked[s], alone[s])
    # the stacked traceback equals each sample's own, from every finite last cell
    s, c, y = np.nonzero(np.isfinite(stacked[:, -1]))
    groups, exits = close_at(stacked, hops, s, c, y)
    for t in range(len(s)):
        own = trace_of(alone[s[t]], hops[s[t]], int(c[t]), int(y[t]))
        assert list(zip(groups[t].tolist(), exits[t].tolist())) == own


@pytest.mark.parametrize("k, m", [(1, 2), (4, 3), (7, 3), (9, 2), (6, 1)])
def test_close_equals_a_per_row_loop_over_each_samples_full_layer(k, m):
    rng = np.random.default_rng(100 * k + m)
    entries, hops = stacked_groups(rng, k, m)
    table = subset_path_table(entries, hops)
    # five closing rows per sample: four of small integers (many ties), a
    # third of them inf, then one that is inf everywhere
    sample = np.repeat(np.arange(3), 5)
    close = rng.integers(0, 3, size=(len(sample), k, m)).astype(float)
    close[rng.random(close.shape) < 1 / 3] = np.inf
    close[4::5] = np.inf
    cost, finite, groups, exits = subset_path_close(table, hops, close, sample)
    assert groups.shape == exits.shape == (np.count_nonzero(finite), k)
    ties = 0
    traced = iter(zip(groups.tolist(), exits.tolist()))
    for r, s in enumerate(sample.tolist()):
        best, at = np.inf, None
        for c in range(k):
            for y in range(m):
                total = table[s, -1, c, y] + close[r, c, y]
                if total < best:                # strict: the lowest (group, exit) keeps ties
                    best, at = total, (c, y)
        assert cost[r] == best and finite[r] == (at is not None)
        if at is not None:
            ties += np.count_nonzero(table[s, -1] + close[r] == best) > 1
            path = list(zip(*next(traced)))
            assert path == trace_of(table[s], hops[s], *at)
    assert next(traced, None) is None
    assert not finite[4::5].any()
    assert finite.any()
    if k > 1:
        assert ties


def test_stacked_kernel_working_memory_stays_near_its_tables():
    k, m = 11, 3
    entries, hops = stacked_groups(np.random.default_rng(11), k, m)
    table_bytes = 3 * (1 << k) * k * m * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = subset_path_table(entries, hops)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.nbytes == table_bytes
    assert peak - before <= 1.75 * table_bytes
    assert after - before <= 1.01 * table_bytes


@pytest.mark.parametrize("seed", range(4))
def test_traceback_weight_equals_table_cost_on_a_grid(seed):
    *_, grid = small_spaces()
    h = build_hierarchy(grid, 6.0)
    trees = [tree_from_samples(grid, h, draw_radius_samples(h, 1, 2.5, np.random.default_rng(s)))
             for s in (seed, seed + 4)]
    for tree in trees:
        for m_cap in (2, 6):
            res = solve_light_tour(grid, h, tree, m_cap)
            assert tour_weight(grid, res.raw) == pytest.approx(res.cost)


def scalar_score(entry, close, hop, exits, order):
    """An order's score over unpadded vectors, one min-plus step at a time."""
    vecs = [entry[order[0], : exits[order[0]]]]
    for prev, cur in zip(order, order[1:]):
        vecs.append(np.min(vecs[-1][:, None] + hop[prev, cur][: len(vecs[-1])], axis=0))
    last = order[-1]
    return float(np.min(vecs[-1][: exits[last]] + close[last, : exits[last]]))


def scalar_surrogate_order(mh, head, tail, order, log=None):
    """Best-improvement 2-opt on the surrogate, one reversal at a time: the
    reference for :func:`lightdp._surrogate_orders` on one order. The link
    between children a and b is (mh[a, b] + mh[b, a]) / 2, and the order runs
    from head[order[0]] to tail[order[-1]]. Each move taken is appended to
    ``log`` as (i, j, reversals tied with it) when a list is given."""
    k = len(order)

    def link(a, b):
        return (mh[a, b] + mh[b, a]) / 2

    def into(t, c):                 # the link from position t - 1 (or the entry) into c
        return head[c] if t == 0 else link(order[t - 1], c)

    def out_of(t, c):               # the link from c out to position t + 1 (or the close)
        return tail[c] if t == k - 1 else link(c, order[t + 1])

    order = list(order)
    while True:
        best, ties = None, 0
        for i in range(k - 1):
            for j in range(i + 1, k):
                old = into(i, order[i]) + out_of(j, order[j])
                new = into(i, order[j]) + out_of(j, order[i])
                if not new < old - 1e-12:
                    continue
                gain = old - new
                if best is None or gain > best[0]:
                    best, ties = (gain, i, j), 1
                elif gain == best[0]:
                    ties += 1
        if best is None:
            return order
        _, i, j = best
        order[i:j + 1] = order[i:j + 1][::-1]
        if log is not None:
            log.append((i, j, ties))


def scalar_heuristic_order(entry, close, hop, exits, log=None):
    """Greedy, then surrogate 2-opt, then exact 2-opt that scores one reversal
    at a time over unpadded vectors: the reference for the batched scan. The
    exact passes start from the surrogate order, whatever the greedy order
    scores. Returns the order and the number of exact reversals taken; each
    one taken is appended to ``log`` as (round, i, j) when a list is given."""
    k = len(entry)

    def entry_vec(c):
        return entry[c, : exits[c]]

    def score(order):
        return scalar_score(entry, close, hop, exits, order)

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

    order = scalar_surrogate_order(hop.min(axis=(2, 3)), entry.min(axis=1),
                                   close.min(axis=1), order)
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
        orders, _ = _heuristic_orders(hop[None], [0], [entry], [close])
        assert orders[0].tolist() == ref
        moves += taken
    assert moves > 0


def surrogate_case(rng, k, kind):
    """One cluster's least hops mh (k x k) and three rows of least entry and
    close costs (3 x k): plane clumps threaded between the three pairs of two
    ends, small integers (many ties), or random floats with some inf hops."""
    if kind == "plane":
        hop, entries, closes = multi_pair_node(rng, k, 3, 2, plane=True)
        return hop.min(axis=(2, 3)), np.min(entries, axis=2), np.min(closes, axis=2)
    if kind == "ints":
        return (rng.integers(0, 4, size=(k, k)).astype(float),
                rng.integers(0, 4, size=(3, k)).astype(float),
                rng.integers(0, 4, size=(3, k)).astype(float))
    mh = rng.random((k, k))
    mh[rng.random((k, k)) < 0.05] = np.inf
    return mh, rng.random((3, k)), rng.random((3, k))


def test_surrogate_orders_equal_the_scalar_best_improvement_loop():
    logs = []
    for seed in range(12):
        rng = np.random.default_rng(seed)
        k = 13 + 3 * seed
        mh, heads, tails = surrogate_case(rng, k, ("plane", "ints", "floats")[seed % 3])
        starts = np.array([rng.permutation(k) for _ in range(3)], dtype=np.int32)
        got = lightdp._surrogate_orders(mh[None], np.zeros(3, dtype=np.intp), heads, tails,
                                        starts)
        for start, head, tail, order in zip(starts, heads, tails, got.tolist()):
            log = []
            assert order == scalar_surrogate_order(mh, head, tail, start.tolist(), log)
            assert sorted(order) == list(range(k))
            logs += [(k, move) for move in log]
    assert any(i == 0 for _, (i, _, _) in logs)
    assert any(j == k - 1 for k, (_, j, _) in logs)
    # some move tied with a later reversal of the same gain and still equals
    # the reference, which takes the first in (i, j) order
    assert any(ties > 1 for _, (_, _, ties) in logs)


def test_surrogate_ties_go_to_the_lowest_reversal():
    # unit links but 3 between children 2 and 3, and free ends: from 0..5 the
    # reversals (0, 2), (1, 2), (3, 4) and (3, 5) each gain 2 and leave every
    # link at 1, so the first alone is taken
    mh = np.ones((6, 6))
    mh[2, 3] = mh[3, 2] = 3.0
    zeros = np.zeros((1, 6))
    order = lightdp._surrogate_orders(mh[None], [0], zeros, zeros,
                                      np.arange(6, dtype=np.int32)[None])
    log = []
    assert (order[0].tolist() == [2, 1, 0, 3, 4, 5]
            == scalar_surrogate_order(mh, zeros[0], zeros[0], list(range(6)), log))
    assert log == [(0, 2, 4)]


def test_surrogate_orders_of_several_clusters_in_one_call_equal_each_clusters_own():
    rng = np.random.default_rng(7)
    cases = [surrogate_case(rng, 17, kind) for kind in ("plane", "ints", "floats")]
    starts = np.array([rng.permutation(17) for _ in range(9)], dtype=np.int32)
    owner = np.repeat(np.arange(3), 3)
    together = lightdp._surrogate_orders(np.array([mh for mh, _, _ in cases]), owner,
                                         np.concatenate([h for _, h, _ in cases]),
                                         np.concatenate([t for _, _, t in cases]), starts)
    alone = [lightdp._surrogate_orders(mh[None], np.zeros(3, dtype=np.intp), heads, tails,
                                       starts[3 * c:3 * c + 3])
             for c, (mh, heads, tails) in enumerate(cases)]
    assert np.array_equal(together, np.concatenate(alone))
    assert not np.array_equal(together, starts)


def test_surrogate_orders_take_an_unreachable_child_without_nan():
    # child 4 has no finite entry, and no finite least hop to or from it
    rng = np.random.default_rng(11)
    k = 15
    entry, hop = random_groups(rng, k, 3)
    close = rng.integers(0, 4, size=(k, 3)).astype(float)
    entry[4] = close[4] = np.inf
    hop[4, :] = hop[:, 4] = np.inf
    mh = hop.min(axis=(2, 3))
    head, tail = entry.min(axis=1), close.min(axis=1)
    start = np.array([rng.permutation(k)], dtype=np.int32)
    with np.errstate(all="raise"):
        order = lightdp._surrogate_orders(mh[None], [0], head[None], tail[None], start)
        orders, vecs = _heuristic_orders(hop[None], [0], [entry], [close])
    assert sorted(order[0].tolist()) == sorted(orders[0].tolist()) == list(range(k))
    assert order[0].tolist() == scalar_surrogate_order(mh, head, tail, start[0].tolist())
    assert not np.isnan(vecs).any()


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
        orders, _ = _heuristic_orders(hop[None], [0], [entry], [close])
        assert orders[0].tolist() == ref
        logs.append(log)
    # one round takes several moves, and some move reverses a prefix (i = 0)
    assert any(max(Counter(rnd for rnd, _, _ in log).values(), default=0) > 1 for log in logs)
    assert any(i == 0 for log in logs for _, i, _ in log)
    assert {len(entry) for entry, _, _ in cases} == {21, 22, 23, 24}


def chain_forward(entry, hop, order):
    """Forward min-plus vectors along a fixed child order, one step at a time."""
    vecs = [entry[order[0]]]
    for prev, cur in zip(order, order[1:]):
        vecs.append(np.min(vecs[-1][:, None] + hop[prev, cur], axis=0))
    return np.array(vecs)


def multi_pair_node(rng, k, m, portals, plane):
    """One node's hop tensor and its (entry, close) pair for each parent portal
    pair a <= b, so pairs with the same a share an entry matrix. Plane nodes
    are clumps of m portals threaded between parent portals in the unit
    square; the others are small-integer costs (many ties) with exits past
    each child's own count padded to inf."""
    if plane:
        pts = rng.random((k, 1, 2)) + 0.03 * rng.standard_normal((k, m, 2))
        ends = rng.random((portals, 2))

        def dist(x, y):
            return np.sqrt(((x - y) ** 2).sum(-1))

        through = dist(pts[:, :, None], pts[:, None, :])
        step = dist(pts[:, None, :, None], pts[None, :, None, :])
        hop = np.min(step[..., None] + through[None, :, None], axis=3)
        entries = [np.min(dist(e, pts)[:, :, None] + through, axis=1) for e in ends]
        closes = [dist(pts, e) for e in ends]
    else:
        entry, hop = random_groups(rng, k, m)

        def padded_ints():
            x = rng.integers(0, 4, size=(k, m)).astype(float)
            x[~np.isfinite(entry)] = np.inf
            return x

        entries = [entry] + [padded_ints() for _ in range(portals - 1)]
        closes = [padded_ints() for _ in range(portals)]
    pairs = [(a, b) for a in range(portals) for b in range(a, portals)]
    return hop, [entries[a] for a, _ in pairs], [closes[b] for _, b in pairs]


def test_heuristic_orders_equal_the_scalar_scan_for_every_pair_of_a_node(monkeypatch):
    spread, padded = 0, 0
    for seed, k in enumerate((13, 15, 17, 19, 21, 24)):
        rng = np.random.default_rng(seed)
        m, portals = 2 + seed % 3, 2 + seed % 2
        hop, entries, closes = multi_pair_node(rng, k, m, portals, plane=seed % 2 == 1)
        orders, got_vecs = _heuristic_orders(hop[None], [0] * len(entries), entries, closes)
        assert len(orders) == len(entries) > len({id(e) for e in entries})   # entries shared
        stops = set()
        for entry, close, order, vecs in zip(entries, closes, orders.tolist(), got_vecs):
            log = []
            exits = np.isfinite(entry).sum(axis=1)
            ref, _ = scalar_heuristic_order(entry, close, hop, exits, log)
            assert order == ref
            assert np.array_equal(vecs, chain_forward(entry, hop, order))
            stops.add(min(4, max((rnd for rnd, _, _ in log), default=0) + 1))
            padded += bool((exits < m).any())
        spread += len(stops) > 1           # pairs of this node ran different round counts
    assert spread > 0 and padded > 0
    # uniform2d n = 50 seed 0 orders one node of 17 children for 10 portal
    # pairs; on pair 2 the greedy order scores below the surrogate's, and the
    # exact passes still start from the surrogate's
    captured = []

    def capturing(hop, owner, entries, closes):
        captured.append((hop, owner, entries, closes))
        return _heuristic_orders(hop, owner, entries, closes)

    monkeypatch.setattr(lightdp, "_heuristic_orders", capturing)
    runner.run(dict(mode="solve", seed=0, space=normalize(generate_instance("uniform2d", 50, 0))))
    (hop, owner, entries, closes), = captured
    hop = hop[0]
    assert len(entries) == 10 and entries[0].shape[0] == 17
    orders, got_vecs = _heuristic_orders(hop[None], owner, entries, closes)
    greedy_lower = []
    for entry, close, order, vecs in zip(entries, closes, orders.tolist(), got_vecs):
        exits = np.isfinite(entry).sum(axis=1)
        ref, _ = scalar_heuristic_order(entry, close, hop, exits)
        assert order == ref
        assert np.array_equal(vecs, chain_forward(entry, hop, order))
        greedy = loop_greedy(hop, entry)
        surrogate = scalar_surrogate_order(hop.min(axis=(2, 3)), entry.min(axis=1),
                                           close.min(axis=1), greedy)
        greedy_lower.append(scalar_score(entry, close, hop, exits, greedy)
                            < scalar_score(entry, close, hop, exits, surrogate))
    assert greedy_lower.index(True) == 2


def loop_greedy(hop, entry):
    """The order of the per-entry greedy loop that the lockstep greedy replaced."""
    remaining = list(range(len(entry)))
    order, fwd = [], []
    while remaining:
        if not fwd:
            costs = np.min(entry[remaining], axis=1)
        else:
            costs = np.min(fwd[-1][:, None] + hop[order[-1], remaining], axis=(1, 2))
        cj = remaining.pop(int(np.argmin(costs)))
        fwd.append(entry[cj] if not fwd
                   else np.min(fwd[-1][:, None] + hop[order[-1], cj], axis=0))
        order.append(cj)
    return order


def test_lockstep_greedy_equals_the_per_entry_loop():
    # integer ties with padded exits, plane clumps, and two children that no
    # hop reaches, one of them with no finite entry either
    rng = np.random.default_rng(3)
    k, m = 14, 3
    hops, entries, owner = [], [], []
    for c in range(3):
        if c == 1:
            entry, hop, _ = plane_groups(rng, k, m)
        else:
            entry, hop = random_groups(rng, k, m)
        if c == 2:
            hop[:, 5] = hop[:, 9] = np.inf
            entry[9] = np.inf
        hops.append(hop)
        entries += [entry, rng.permutation(entry)]
        owner += [c, c]
    hop = np.array(hops)
    orders = lightdp._greedy_orders(hop, np.array(owner), np.array(entries))
    for g, entry, order in zip(owner, entries, orders):
        assert order.tolist() == loop_greedy(hop[g], entry)


@pytest.mark.parametrize("seed", range(12))
def test_reversal_bounds_drop_no_row_that_improves(seed):
    # integer ties with inf-padded exits, the same with two inf hops along
    # the order, and plane clumps; each bounded at its own 2-opt order
    rng = np.random.default_rng(seed)
    k, m = 13 + seed % 6, 2 + seed % 4
    if seed % 3 == 2:
        entry, hop, close = plane_groups(rng, k, m)
    else:
        entry, hop = random_groups(rng, k, m)
        close = rng.integers(0, 4, size=(k, m)).astype(float)
        close[~np.isfinite(entry)] = np.inf
    orders, vecs = _heuristic_orders(hop[None], [0], [entry], [close])
    order, vecs = orders[0].tolist(), vecs[0]
    if seed % 3 == 1:
        for t in rng.choice(k - 1, size=2, replace=False):
            hop[order[t], order[t + 1]] = np.inf
        vecs = chain_forward(entry, hop, order)
    exits = np.isfinite(entry).sum(axis=1)
    base = scalar_score(entry, close, hop, exits, order)
    lo, hi = np.triu_indices(k, 1)
    bound = _reversal_bounds(hop.min(axis=(2, 3))[None], np.array([order]), vecs[None],
                             entry.min(axis=1)[None], close.min(axis=1)[None],
                             np.zeros(len(lo), dtype=int), lo, hi)
    dropped = bound * (1 - 1e-9) >= base - 1e-12
    for i, j, low, drop in zip(lo, hi, bound, dropped):
        score = scalar_score(entry, close, hop, exits, order[:i] + order[i:j + 1][::-1]
                             + order[j + 1:])
        assert low * (1 - 1e-9) <= score
        assert not (drop and score < base - 1e-12)
    assert dropped.any()


def test_heuristic_orders_of_several_clusters_in_one_call_equal_each_clusters_own():
    rng = np.random.default_rng(5)
    nodes = [multi_pair_node(rng, 15, 3, 2 + c % 2, plane=c % 2 == 1) for c in range(3)]
    # cluster 1 also gets cluster 0's first entry matrix: greedy is per cluster
    nodes[1][1].append(nodes[0][1][0])
    nodes[1][2].append(nodes[1][2][0])
    owner = [c for c, (_, entries, _) in enumerate(nodes) for _ in entries]
    orders, vecs = _heuristic_orders(np.array([hop for hop, _, _ in nodes]), owner,
                                     [e for _, entries, _ in nodes for e in entries],
                                     [c for _, _, closes in nodes for c in closes])
    alone = [_heuristic_orders(hop[None], [0] * len(entries), entries, closes)
             for hop, entries, closes in nodes]
    assert len(orders) == len(owner)
    assert np.array_equal(orders, np.concatenate([ref for ref, _ in alone]))
    assert np.array_equal(vecs, np.concatenate([ref_vecs for _, ref_vecs in alone]))


def test_heuristic_orders_working_memory_on_a_ten_pair_node(monkeypatch):
    # uniform2d n = 60 seed 0 orders one node of 24 children with 6 portals
    # for the 10 portal pairs of its parent
    captured = []

    def capturing(hop, owner, entries, closes):
        captured.append((hop, owner, entries, closes))
        return _heuristic_orders(hop, owner, entries, closes)

    monkeypatch.setattr(lightdp, "_heuristic_orders", capturing)
    runner.run(dict(mode="solve", seed=0, space=normalize(generate_instance("uniform2d", 60, 0))))
    (hop, owner, entries, closes), = captured
    assert len(entries) == 10 and entries[0].shape == (24, 6)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _heuristic_orders(hop, owner, entries, closes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= 1.5e6


def flat_equilateral(n):
    """The one-leaf tree of an equilateral matrix: its root is a bottom cluster
    whose n points are its children, and m_cap of them, chosen farthest-first,
    its portals."""
    d = np.ones((n, n))
    np.fill_diagonal(d, 0.0)
    sp = from_matrix(d)
    return solve_light_tour(sp, build_hierarchy(sp, 6.0), make_flat_tree(sp), 6)


@pytest.mark.parametrize("solve, k, pairs", [
    (lambda: guessing_solve(40, 0, 1), 19, 10), (lambda: flat_equilateral(30), 30, 6)],
    ids=["uniform2d-n40", "equilateral-n30"])
def test_wide_node_pairs_go_to_the_heuristic_in_one_call_per_pass(monkeypatch, solve, k, pairs):
    calls, passes = [], []
    heuristic, solve_group = lightdp._heuristic_orders, _Engine._solve_group

    def recording(hop, owner, entries, closes):
        calls.append((hop.shape[1], len(entries)))
        return heuristic(hop, owner, entries, closes)

    def grouping(self, jobs):
        if len(jobs[0][3]) > _Engine.EXACT_PATH_CHILDREN:    # a wide pass: (level, k)
            passes.append((jobs[0][3][0][1].level + 1, len(jobs[0][3])))
        return solve_group(self, jobs)

    monkeypatch.setattr(lightdp, "_heuristic_orders", recording)
    monkeypatch.setattr(_Engine, "_solve_group", grouping)
    solve()
    assert len(calls) == len(passes) == len(set(passes)) > 0
    assert [w for w, _ in calls] == [w for _, w in passes] and {w for w, _ in calls} == {k}
    assert sum(p for _, p in calls) == pairs


def reference_pair(D, infos, A, B):
    """One option's cost and (child, exit) path for one portal pair (A, B), by
    the per-pair logic that the batched pass replaced: per-child loop
    matrices, then one subset path table for this pair alone, or, above
    EXACT_PATH_CHILDREN children, the scalar greedy + 2-opt order, its forward
    vectors and a traceback through them."""
    k = len(infos)
    m = max(len(ps.portals) for _, ps, _ in infos)
    hop = loop_hop_matrices(D, infos)
    entry = loop_entry_matrix(D, A, infos, m)
    close = loop_close_matrix(D, B, infos, m)
    if k > _Engine.EXACT_PATH_CHILDREN:
        exits = np.array([len(ps.portals) for _, ps, _ in infos])
        order, _ = scalar_heuristic_order(entry, close, hop, exits)
        vecs = chain_forward(entry, hop, order)
        tot = vecs[-1] + close[order[-1]]
        xi = int(np.argmin(tot))
        cost = float(tot[xi])
        path = [(order[-1], xi)]
        for t in range(k - 2, -1, -1):
            xi = int(np.argmin(vecs[t] + hop[order[t], order[t + 1], :, xi]))
            path.append((order[t], xi))
        path = path[::-1]
    else:
        table = subset_path_table(entry, hop)
        tot = table[-1] + close
        ci, xi = np.unravel_index(np.argmin(tot), tot.shape)
        cost = float(tot[ci, xi])
        path = trace_of(table, hop, int(ci), int(xi))
    return (cost, path) if math.isfinite(cost) else (math.inf, None)


@pytest.mark.parametrize("kind, n, guesses, params", [
    ("uniform2d", 40, 1, None), ("clustered", 60, 1, {"clusters": 4}),
    ("uniform2d", 20, 2, None)])
def test_node_pair_matrices_and_traces_equal_the_per_pair_reference(monkeypatch, kind, n,
                                                                    guesses, params):
    engines = []
    solve_root = _Engine.solve_root

    def keeping(self):
        engines.append((self, len(self.tree) - 1, *self.tree[-1]))
        return solve_root(self)

    monkeypatch.setattr(_Engine, "solve_root", keeping)
    sp = normalize(generate_instance(kind, n, 0, params))
    ddim = estimate_doubling(sp, seed=0).ddim_upper
    solve_with_radius_guessing(sp, build_hierarchy(sp, 6.0), guesses, 6, ddim,
                               np.random.default_rng(0))
    (engine, root_level, root_members), = engines
    wide = several = leaves = 0
    for (level, members), (ps, mat) in engine.nodes.items():
        if level < 0:                   # a point: its own one portal, at cost 0
            assert ps.portals == members and mat.tolist() == [[0.0]]
            continue
        P = ps.portals
        root = (level, members) == (root_level, root_members)
        options = engine.tree[level][members]
        several += len(options) > 1
        leaves += level == 0
        for ai, bi in itertools.combinations_with_replacement(range(len(P)), 2):
            if root and ai != bi:
                assert mat[ai, bi] == math.inf
                continue
            cost, ref = math.inf, None
            for children in options:
                infos = [(ch,) + engine.nodes[level - 1, ch] for ch in children]
                c, path = reference_pair(engine.D, infos, P[ai], P[bi])
                if c < cost:
                    cost, ref = c, (tuple(children), path)
                wide += len(children) > _Engine.EXACT_PATH_CHILDREN
            key = (level, members, P[ai], P[bi])
            assert mat[ai, bi] == mat[bi, ai] == cost
            trace = engine.trace.get(key)
            if ref is None:
                assert trace is None
                continue
            infos, path = trace
            assert (tuple(ch for ch, _, _ in infos), path) == ref
    assert wide > 0 or guesses > 1
    assert several > 0 or guesses == 1
    assert leaves > 0


def test_heuristic_child_order_traceback_on_uniform40(monkeypatch):
    widths = []

    def counted(hop, owner, entries, closes):
        widths.extend(len(entry) for entry in entries)
        return _heuristic_orders(hop, owner, entries, closes)

    monkeypatch.setattr(lightdp, "_heuristic_orders", counted)
    sp = normalize(generate_instance("uniform2d", 40, seed=0))
    ddim = estimate_doubling(sp, seed=0).ddim_upper
    res = solve_with_radius_guessing(sp, build_hierarchy(sp, 6.0), 1, 6, ddim,
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
        res_g = solve_with_radius_guessing(sp, h, 1, 6, 2.5,
                                           np.random.default_rng(seed + 5))
        samples = draw_radius_samples(h, 1, 2.5, np.random.default_rng(seed + 5))
        tree = tree_from_samples(sp, h, samples)
        res_t = solve_light_tour(sp, h, tree, 6)
        assert res_g.cost == pytest.approx(res_t.cost, abs=1e-9)
        assert res_g.tour.seq == res_t.tour.seq


def test_guessing_two_points_exact():
    sp = normalize(from_points([(0.0, 0.0), (0.4, 0.3)]))
    h = build_hierarchy(sp, 6.0)
    res = solve_with_radius_guessing(sp, h, 3, 4, 1.0, np.random.default_rng(0))
    assert res.cost == pytest.approx(2.0 * sp.dist(0, 1))


@pytest.mark.parametrize("seed", [0, 3])
def test_guessing_more_options_never_hurt(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 11))
    sp = rand_space(seed + 90, n)
    h = build_hierarchy(sp, 6.0)
    samples3 = draw_radius_samples(h, 3, 2.5, np.random.default_rng(seed + 77))
    first = [radii[:, :1] for radii in samples3]         # each center's first radius
    base = solve_light_tour(sp, h, tree_from_samples(sp, h, first), 6)
    res3 = solve_with_radius_guessing(sp, h, 3, 6, 2.5,
                                      np.random.default_rng(seed + 77))
    assert res3.cost <= base.cost + 1e-9
    assert tour_weight(sp, res3.tour) >= held_karp_tsp(sp).weight - 1e-9


# ------------------------------------------------- carving enumeration

def product_carvings(space, members, h, level, choices):
    """Reference enumeration: carve every radius combination of the centers
    within reach of ``members``, in product order, and drop repeats."""
    a = h.radius(level)
    dmin = space.pairwise(h.net(level), np.asarray(members, dtype=np.intp)).min(axis=1)
    relevant = np.flatnonzero(dmin <= 2 * a + REL_TOL * max(1.0, 2 * a))
    seen, outs = set(), []
    for combo in itertools.product(range(choices.shape[1]), repeat=len(relevant)):
        radii = choices[:, 0].copy()
        radii[relevant] = choices[relevant, np.asarray(combo, dtype=np.intp)]
        children = carved_children(partition_with_radii(space, members, h, level, radii))
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
        tree = tree_from_samples(sp, h, samples)
        for level, clusters in enumerate(tree[1:], start=1):
            for members in clusters:
                lvl = level - 1
                got = distinct_carvings(sp, members, h, lvl, samples[lvl])
                assert got == product_carvings(sp, members, h, lvl, samples[lvl])
                checked += 1
                several += len(got) > 1
    assert checked > 4
    assert (several > 0) == (guesses > 1)


def carved_tree(space, h, samples):
    """Reference builder: carve each cluster's members afresh with the next
    level's centers at their first radius, cluster by cluster from the top.
    Returns, per level, the members -> [children] map of every cluster, a
    level-0 cluster's children being its points."""
    def radii_at(level):
        return samples[level][:, 0]

    top = partition_with_radii(space, range(space.n), h, h.top, radii_at(h.top))
    (members,) = carved_children(top)
    levels = [{} for _ in range(h.top + 1)]

    def subdivide(level, members):
        if level == 0:
            levels[0][members] = [tuple((p,) for p in members)]
            return
        part = partition_with_radii(space, members, h, level - 1, radii_at(level - 1))
        levels[level][members] = [carved_children(part)]
        for child in carved_children(part):
            subdivide(level - 1, child)

    subdivide(h.top, members)
    return levels


@pytest.mark.parametrize("kind", ["uniform2d", "clustered", "line", "matrix_random_metric"])
def test_owner_map_tree_equals_the_node_by_node_carve(kind):
    wide = 0
    for n in (20, 60, 160):
        for seed in range(3):
            sp = normalize(generate_instance(kind, n, seed))
            h = build_hierarchy(sp, 6.0)
            ddim = estimate_doubling(sp, seed=seed).ddim_upper
            samples = draw_radius_samples(h, 1, ddim, np.random.default_rng(seed))
            tree = tree_from_samples(sp, h, samples)
            # the same clusters, each with the same children in the same order
            assert tree == carved_tree(sp, h, samples)
            for level, clusters in enumerate(tree[1:], start=1):
                for members, options in clusters.items():
                    lvl = level - 1
                    assert distinct_carvings(sp, members, h, lvl, samples[lvl]) == options
                    wide += len(options[0]) > 1
    assert wide > 0


@pytest.mark.parametrize("kind, params", [("uniform2d", None), ("clustered", {"clusters": 4})])
def test_one_guess_carves_each_level_once_and_lists_children_as_distinct_carvings(
        monkeypatch, kind, params):
    engines, carved = [], []
    solve_root = _Engine.solve_root

    def keeping(self):
        engines.append(self)
        return solve_root(self)

    def counting(space, subset, h, level, radii):
        carved.append(level)
        return partition_with_radii(space, subset, h, level, radii)

    monkeypatch.setattr(_Engine, "solve_root", keeping)
    monkeypatch.setattr(lightdp, "partition_with_radii", counting)
    sp = normalize(generate_instance(kind, 60, 0, params))
    h = build_hierarchy(sp, 6.0)
    ddim = estimate_doubling(sp, seed=0).ddim_upper
    solve_with_radius_guessing(sp, h, 1, 6, ddim, np.random.default_rng(0))
    # each level below the top, whose one cluster is the root, carved once
    assert sorted(carved) == list(range(h.top))
    samples = draw_radius_samples(h, 1, ddim, np.random.default_rng(0))
    (engine,) = engines
    internal = [key for key in engine.nodes if key[0] > 0]
    assert len(internal) > 1
    for level, members in internal:
        assert engine.tree[level][members] == distinct_carvings(
            sp, members, h, level - 1, samples[level - 1])


@pytest.mark.parametrize("guesses", [1, 2, 3])
def test_several_guesses_map_each_reachable_cluster_to_its_distinct_carvings(guesses):
    several = 0
    for kind, n, seed in (("uniform2d", 30, 0), ("uniform2d", 20, 1), ("clustered", 40, 2)):
        sp = normalize(generate_instance(kind, n, seed))
        h = build_hierarchy(sp, 6.0)
        samples = draw_radius_samples(h, guesses, 2.5, np.random.default_rng(seed))
        tree = tree_from_samples(sp, h, samples)
        # the clusters reachable from the root, walked afresh; a level-0
        # cluster's one option is its points
        want, todo = [{} for _ in range(h.top + 1)], [(h.top, tuple(range(sp.n)))]
        while todo:
            level, members = todo.pop()
            if members in want[level]:
                continue
            if level == 0:
                want[0][members] = [tuple((p,) for p in members)]
                continue
            lvl = level - 1
            want[level][members] = distinct_carvings(sp, members, h, lvl, samples[lvl])
            todo.extend((lvl, ch) for kids in want[level][members] for ch in kids)
        assert tree == want
        several += sum(len(options) > 1 for clusters in want for options in clusters.values())
    assert (several > 0) == (guesses > 1)


def test_engine_asks_for_each_clusters_options_once():
    sp = rand_space(7, 14)
    h = build_hierarchy(sp, 6.0)
    tree = tree_from_samples(sp, h, draw_radius_samples(h, 1, 2.5, np.random.default_rng(7)))
    calls = Counter()

    class Counting(dict):
        """One level's plan that counts each read of a cluster's options."""

        def __init__(self, level, clusters):
            super().__init__(clusters)
            self.level = level

        def items(self):
            for members, options in super().items():
                calls[self.level, members] += 1
                yield members, options

        def __getitem__(self, members):
            calls[self.level, members] += 1
            return super().__getitem__(members)

    clusters = {(level, members) for level, c in enumerate(tree) for members in c}
    tree = [Counting(level, c) for level, c in enumerate(tree)]
    engine = _Engine(sp, h, 6, tree)
    engine.solve_root()
    assert set(calls) == clusters
    assert set(calls.values()) == {1}
    # several portal configurations per cluster share one options read
    assert sum(len(mat) for (level, _), (_, mat) in engine.nodes.items()
               if level >= 0) > len(clusters)


def record_table_builds(monkeypatch):
    """Patch the engine to log, for every batched pass, its jobs as (cluster
    and option, level and children, the cluster's portal count) and the
    number of path tables the kernel builds in it; for every kernel call, a
    weak reference to its stack of tables and the stack's child count and
    depth; and the engines that solve."""
    calls, passes, engines = [], [], []
    kernel = lightdp.subset_path_table
    solve_group = _Engine._solve_group
    solve_root = _Engine.solve_root

    def counting_kernel(entry, hop):
        table = kernel(entry, hop)
        calls.append((weakref.ref(table), entry.shape[-2], len(entry)))
        return table

    def recording(self, jobs):
        before = len(calls)
        out = solve_group(self, jobs)
        level = jobs[0][3][0][1].level + 1
        passes.append(([(job, (level, tuple(ch for ch, _, _ in infos)), len(P))
                        for job, P, _, infos in jobs],
                       sum(n for _, _, n in calls[before:])))
        return out

    def keeping(self):
        engines.append((self, len(self.tree) - 1))
        return solve_root(self)

    monkeypatch.setattr(lightdp, "subset_path_table", counting_kernel)
    monkeypatch.setattr(_Engine, "_solve_group", recording)
    monkeypatch.setattr(_Engine, "solve_root", keeping)
    return calls, passes, engines


@pytest.mark.parametrize("solve, tables, ops, entries", [
    (lambda: guessing_solve(20, 0, 2), 84, 51_761, 147),
    (lambda: runner.run(dict(mode="solve", seed=3,
                             space=normalize(generate_instance("uniform2d", 50, 3)))),
     166, 295_435, 271),
], ids=["uniform2d-n20-two-guesses", "uniform2d-n50-seed3-run"])
def test_each_path_table_is_built_once_and_dropped_when_dead(monkeypatch, solve, tables,
                                                              ops, entries):
    # tables, ops and entries include the bottom clusters' passes over their
    # points, and entries the points' own (n of them).
    calls, passes, engines = record_table_builds(monkeypatch)
    solve()
    built = sum(n for _, n in passes)
    assert built == tables
    assert sum(n for _, _, n in calls) == built
    # each option is solved once, with one table per entry portal when exact
    jobs = [job for group, _ in passes for job in group]
    assert len({job for job, _, _ in jobs}) == len({children for _, children, _ in jobs})
    assert len({job for job, _, _ in jobs}) == len(jobs)
    for group, n in passes:
        assert n == sum(portals for _, (_, children), portals in group
                        if len(children) <= _Engine.EXACT_PATH_CHILDREN)
    # one pass per level and child count, and some pass stacks several jobs
    keys = [(level, len(children)) for group, _ in passes for _, (level, children), _ in group[:1]]
    assert len(set(keys)) == len(keys) and max(len(group) for group, _ in passes) > 1
    # a kernel call's stack of tables stays within one table of the widest exact node
    top = _Engine.EXACT_PATH_CHILDREN
    assert all(depth * k << k <= top << top for _, k, depth in calls)
    (engine, root_level), = engines
    assert engine.ops == ops
    assert engine.entries == entries
    # every table, the root's included, was dropped once its pass was done
    assert all(ref() is None for ref, _, _ in calls)


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
    res = solve_with_radius_guessing(sp, build_hierarchy(sp, 6.0), 2, 6, ddim,
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
    # each (level, child count) group of the tree's clusters, stacked as one
    # batched pass stacks it, against each cluster's own per-child loops
    sp, h, tree = tree_of(kind, n, seed, params)
    engine = _Engine(sp, h, 6, tree)
    engine.solve_root()
    groups = {}
    for level, clusters in enumerate(tree[1:], start=1):
        for members, (children,) in clusters.items():
            infos = [(ch,) + engine.nodes[level - 1, ch] for ch in children]
            groups.setdefault((level, len(children)), []).append((members, infos))
    mixed = stacked = 0
    for (level, k), group in groups.items():
        padded = engine._padded([infos for _, infos in group])
        hop = engine._hop_matrices(padded)
        Ps = [engine.portals(level, members).portals for members, _ in group]
        close = engine._close_matrices(Ps, padded)
        m = padded[0].shape[2]
        assert hop.shape == (len(group), k, k, m, m)
        assert close.shape == (len(group), max(map(len, Ps)), k, m)
        stacked += len(group) > 1
        for j, ((members, infos), P) in enumerate(zip(group, Ps)):
            counts = {len(ps.portals) for _, ps, _ in infos}
            mixed += len(counts) > 1 or max(counts) < m
            assert np.array_equal(hop[j], pad_to(loop_hop_matrices(engine.D, infos), m))
            entries = engine._entry_matrices(P, [j] * len(P), padded)
            for b, p in enumerate(P):
                assert np.array_equal(entries[b], loop_entry_matrix(engine.D, p, infos, m))
                assert np.array_equal(close[j, b], loop_close_matrix(engine.D, p, infos, m))
    assert mixed > 0              # children with fewer portals than the stack were padded
    assert stacked > 0


def pad_to(hop, m):
    """A per-node hop tensor padded with inf to m exits per child."""
    k, _, c, _ = hop.shape
    out = np.full((k, k, m, m), np.inf)
    out[:, :, :c, :c] = hop
    return out


@pytest.mark.parametrize("solve", [
    lambda: guessing_solve(20, 0, 2),
    lambda: runner.run(dict(mode="solve", seed=3,
                            space=normalize(generate_instance("uniform2d", 50, 3)))),
], ids=["uniform2d-n20-two-guesses", "uniform2d-n50-seed3-run"])
def test_no_node_tensor_outlives_its_pass(monkeypatch, solve):
    # weak references to every padded record, hop tensor, close tensor and
    # path table; when a batched pass returns, those made in it are gone
    made, passes, kinds = [], [], Counter()
    originals = {name: getattr(_Engine, name)
                 for name in ("_padded", "_hop_matrices", "_close_matrices", "_solve_group")}
    kernel = lightdp.subset_path_table

    def watching(name):
        def wrapped(*args):
            out = originals[name](*args)
            for arr in out if isinstance(out, tuple) else (out,):
                made.append(weakref.ref(arr))
                kinds[name] += 1
            return out
        return wrapped

    def counting_kernel(entry, hop):
        table = kernel(entry, hop)
        made.append(weakref.ref(table))
        kinds["table"] += 1
        return table

    def checked_pass(self, jobs):
        before = len(made)
        out = originals["_solve_group"](self, jobs)
        passes.append(jobs[0][3][0][1].level + 1)
        assert all(ref() is None for ref in made[before:])
        return out

    for name in ("_padded", "_hop_matrices", "_close_matrices"):
        monkeypatch.setattr(_Engine, name, staticmethod(watching(name)) if name == "_padded"
                            else watching(name))
    monkeypatch.setattr(_Engine, "_solve_group", checked_pass)
    monkeypatch.setattr(lightdp, "subset_path_table", counting_kernel)
    solve()
    assert kinds["_padded"] == 3 * kinds["_hop_matrices"] == 3 * kinds["_close_matrices"] > 0
    assert kinds["table"] > 0 and max(passes) > 0
    assert all(ref() is None for ref in made)
