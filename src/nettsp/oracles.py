"""Exact TSP oracles and classical baselines used to validate everything else.

Held-Karp, the portal DP's exact tables and Christofides' matching are all
cheapest paths of one subset path kernel, read out by :func:`subset_path_close`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import OddParity, TooLarge
from .metric import MetricSpace
from .tours import (Tour, _closed_tour, _eulerian, _odd_vertices, dedupe_visits,
                    euler_trail, tour_weight)

BRUTE_MAX = 10
HELD_KARP_MAX = 18
MATCHING_BRUTE_MAX = 12
MATCHING_EXACT_MAX = 16
PULL_BLOCK = 1 << 15     # floats in subset_path_table's candidate buffer


@dataclass
class OracleResult:
    tour: Tour
    weight: float
    method: str
    exact: bool


def brute_force_tsp(space: MetricSpace) -> OracleResult:
    """Minimum over all (n-1)!/2 closed tours anchored at point 0."""
    n = space.n
    if n > BRUTE_MAX:
        raise TooLarge(f"n={n} exceeds brute-force ceiling {BRUTE_MAX}")
    if n == 1:
        return OracleResult(Tour((0,)), 0.0, "brute", True)
    d = space.pairwise()
    best = math.inf
    best_seq = None
    rest = list(range(1, n))
    for perm in itertools.permutations(rest):
        if n > 2 and perm[0] > perm[-1]:
            continue
        w = d[0, perm[0]] + d[perm[-1], 0]
        for a, b in zip(perm, perm[1:]):
            w += d[a, b]
        if w < best:
            best = w
            best_seq = (0,) + perm
    return OracleResult(Tour(best_seq), float(best), "brute", True)


def subset_path_table(entry: np.ndarray, hop: np.ndarray) -> np.ndarray:
    """Cheapest ordered visits of subsets of k groups, each left by one of m
    exits, for a stack of samples solved in one call.

    ``entry[..., c, x]`` is the cost of starting at group c and leaving it at
    exit x; ``hop[..., c, d, x, y]`` is the cost of going from exit x of c
    through d to exit y. The leading axes, the same for both, stack samples,
    each with its own entry matrix and hop tensor. ``table[..., mask, c, y]``
    is the least cost of visiting exactly the groups in ``mask`` once each,
    ending at c and leaving by exit y (inf where c is not in ``mask``).

    Pull form: layers run by popcount, so every entry is final before it is
    read. Every group c is in the same number of a layer's masks, so one step
    takes a block of samples, groups and the same block of each group's masks:
    it gathers their predecessor rows ``table[mask ^ 1 << c]``, flattened to
    ``(previous group, exit)``, and adds ``into[c]`` (what reaches c from each
    of them) into one preallocated buffer laid out ``((previous group, exit),
    sample, c, exit y, row)``; the min over that leading axis is
    ``table[mask, c, y]``. A block holds as many masks of one group as fit in
    the buffer, then as many groups, then as many samples as fit beside them,
    so a small layer of many samples is one step. The buffer holds at most
    ``PULL_BLOCK`` floats (or one row, if larger), so the kernel's working
    memory beside the table stays small.

    A dead exit is a source (group, exit) whose every hop is inf in every
    sample, such as a padded portal slot: it reaches no cell, so it is left
    out of the candidate axis (with every exit dead, or one group, the
    table is its first layer). When no exit is dead, as in Held-Karp, the
    rows are gathered whole. Every candidate is the same float sum under any
    layout, blocking or stacking, a dead one adds only inf, and min does not
    round, so the table depends on none of them.
    """
    k, m = entry.shape[-2:]
    batch = entry.shape[:-2]
    entry = entry.reshape(-1, k, m)
    s_all = len(entry)
    hop = hop.reshape(s_all, k, k, m, m)
    table = np.full((s_all, 1 << k, k, m), np.inf)
    table[:, 1 << np.arange(k), np.arange(k)] = entry
    live = np.flatnonzero(np.isfinite(hop).any(axis=(0, 2, 4)))   # sources, as (group, exit)
    whole = len(live) == k * m
    into = hop.transpose(1, 3, 0, 2, 4).reshape(k * m, s_all, k, m)
    into = np.ascontiguousarray(into if whole else into[live])[..., None]
    if k < 2 or not len(live):
        return table.reshape(batch + table.shape[1:])
    flat = table.reshape(s_all, 1 << k, k * m)          # row mask: (group, exit)
    cells_flat = table.reshape(s_all, (1 << k) * k * m)
    by_cell = table.reshape(s_all, (1 << k) * k, m)     # row mask * k + group: exit
    row = len(live) * m
    # no block holds more than the widest layer's candidates
    size = min(max(PULL_BLOCK, row), row * s_all * k * math.comb(k - 1, (k - 1) // 2))
    buf = np.empty(size)
    res = np.empty(size // len(live))
    for cells, src in _layers(k):
        per_group = src.shape[1]
        rows = min(per_group, max(1, PULL_BLOCK // row))
        groups = min(k, max(1, PULL_BLOCK // (row * rows)))
        samples = max(1, PULL_BLOCK // (row * rows * groups))
        for s0 in range(0, s_all, samples):
            s1 = min(s_all, s0 + samples)
            for c0 in range(0, k, groups):
                c1 = min(k, c0 + groups)
                for lo in range(0, per_group, rows):
                    block = src[c0:c1, lo:lo + rows]
                    g, n = block.shape
                    if whole:
                        prev = flat[s0:s1].take(block, axis=1)
                    else:
                        prev = cells_flat[s0:s1].take(block[..., None] * (k * m) + live, axis=1)
                    cand = buf[:row * (s1 - s0) * g * n].reshape(len(live), s1 - s0, g, m, n)
                    best = res[:(s1 - s0) * g * m * n].reshape(s1 - s0, g, m, n)
                    np.add(prev.transpose(3, 0, 1, 2)[:, :, :, None], into[:, s0:s1, c0:c1],
                           out=cand)
                    np.minimum.reduce(cand.reshape(len(live), -1), axis=0, out=best.reshape(-1))
                    by_cell[s0:s1, cells[c0:c1, lo:lo + rows]] = best.transpose(0, 1, 3, 2)
        del cells, src, block, prev             # before the next layer's are built
    return table.reshape(batch + table.shape[1:])


def _layers(k: int):
    """Each popcount layer 2..k, in order, as its (cells, sources) (see
    :func:`_group_targets`).

    Built afresh on every call, one layer at a time: all layers of k groups
    hold 2·k·2^k indices, 4 bytes each below k = 27.
    """
    masks = np.arange(1 << k, dtype=np.int32 if k << k < 2 ** 31 else np.int64)
    popcount = np.bitwise_count(masks)
    for count in range(2, k + 1):
        yield _group_targets(masks[popcount == count], k)


def _group_targets(layer: np.ndarray, k: int):
    """Row c: the cell ``mask * k + c`` of each of the layer's masks that hold
    c, ascending, and each such mask without c. Every group is in the same
    number of the layer's masks.

    One bit matrix for the whole layer, one byte per bit: row c of ``held``
    is bit c of every mask, unpacked from the masks' little-endian bytes.
    """
    octets = layer.astype("<u4").view(np.uint8).reshape(-1, 4)
    held = np.unpackbits(octets, axis=1, count=k, bitorder="little").T.view(bool)
    cells = np.empty((k, np.count_nonzero(held[0])), layer.dtype)
    for c, bits in enumerate(held):
        cells[c] = layer[bits]
    del octets, held                            # before the sources are built
    c = np.arange(k, dtype=layer.dtype)[:, None]
    src = cells ^ (1 << c)
    cells *= k
    cells += c
    return cells, src


def subset_path_step(table: np.ndarray, hop: np.ndarray, sample, mask, c, y):
    """(groups, exits) before group c left by exit y on the cheapest visit of
    ``mask``, one of each per (sample, mask, c, y), for a stacked ``table``
    and ``hop`` (leading sample axis).

    The argmin runs over the very sums the forward pass minimized, the
    flattened predecessor row plus what reaches (c, y) from each (previous
    group, exit), in that order, so it is the forward pass's own choice: the
    lowest group, then the lowest exit. Dead exits only add inf sums.
    """
    k, m = table.shape[-2:]
    sums = (table[sample, mask ^ (1 << c)].reshape(-1, k * m)
            + hop[sample, :, c, :, y].reshape(-1, k * m))
    return np.divmod(np.argmin(sums, axis=1), m)


def subset_path_close(table: np.ndarray, hop: np.ndarray, close: np.ndarray, sample):
    """Per row r, the cheapest visit of all k groups of sample ``sample[r]``
    plus ``close[r]`` (k x m, the cost of ending at each (group, exit)), ties
    to the lowest group, then exit. Returns each row's cost, whether it is
    finite, and the finite rows' (groups, exits), each (rows x k) and first
    to last, traced back one :func:`subset_path_step` at a time."""
    sample = np.asarray(sample, dtype=np.intp)
    k, m = table.shape[-2:]
    totals = (table[sample, -1] + close).reshape(len(sample), k * m)
    flat = np.argmin(totals, axis=1)
    cost = totals[np.arange(len(sample)), flat]
    finite = np.isfinite(cost)
    sample = sample[finite]
    groups = np.empty((len(sample), k), dtype=np.intp)
    exits = np.empty((len(sample), k), dtype=np.intp)
    groups[:, -1], exits[:, -1] = np.divmod(flat[finite], m)
    mask = np.full(len(sample), (1 << k) - 1, dtype=np.int64)
    for t in range(k - 1, 0, -1):
        groups[:, t - 1], exits[:, t - 1] = subset_path_step(table, hop, sample, mask,
                                                             groups[:, t], exits[:, t])
        mask ^= 1 << groups[:, t]
    return cost, finite, groups, exits


def held_karp_tsp(space: MetricSpace) -> OracleResult:
    """Exact optimum by dynamic programming over vertex subsets.

    The subset path kernel with one group per vertex other than the anchor 0
    and one exit each: paths start with an edge out of 0, and the tour closes
    back to 0 from the cheapest last vertex.
    """
    n = space.n
    if n > HELD_KARP_MAX:
        raise TooLarge(f"n={n} exceeds held-karp ceiling {HELD_KARP_MAX}")
    if n == 1:
        return OracleResult(Tour((0,)), 0.0, "held_karp", True)
    d = space.pairwise()
    hop = d[None, 1:, 1:, None, None]
    table = subset_path_table(d[None, 0, 1:, None], hop)      # a stack of one
    cost, _, groups, _ = subset_path_close(table, hop, d[None, 1:, 0, None], [0])
    seq = (0,) + tuple(c + 1 for c in groups[0].tolist())
    return OracleResult(Tour(seq), float(cost[0]), "held_karp", True)


def nearest_neighbor_tsp(space: MetricSpace) -> OracleResult:
    """Greedy baseline from point 0, ties to the lowest index."""
    seq = [0]
    seen = np.zeros(space.n, dtype=bool)
    seen[0] = True
    for _ in range(space.n - 1):
        nxt = int(np.argmin(np.where(seen, np.inf, space.row(seq[-1]))))   # first minimum
        seq.append(nxt)
        seen[nxt] = True
    t = Tour(tuple(seq))
    return OracleResult(t, tour_weight(space, t), "nearest_neighbor", False)


def brute_force_matching(space: MetricSpace, vertices):
    """Exact minimum-weight perfect matching by recursion over pairings."""
    verts = sorted(set(int(p) for p in vertices))
    if len(verts) % 2 != 0:
        raise OddParity(f"{len(verts)} vertices cannot be perfectly matched")
    if len(verts) > MATCHING_BRUTE_MAX:
        raise TooLarge(f"{len(verts)} vertices exceeds matching ceiling {MATCHING_BRUTE_MAX}")
    if not verts:
        return [], 0.0

    best = {"w": math.inf, "pairs": None}

    def rec(pool, acc, w):
        if w >= best["w"]:
            return
        if not pool:
            best["w"] = w
            best["pairs"] = list(acc)
            return
        a = pool[0]
        for t in range(1, len(pool)):
            b = pool[t]
            rest = pool[1:t] + pool[t + 1:]
            acc.append((a, b))
            rec(rest, acc, w + space.dist(a, b))
            acc.pop()

    rec(verts, [], 0.0)
    return best["pairs"], float(best["w"])


def _exact_matching(space: MetricSpace, verts):
    """Min-weight perfect matching of up to MATCHING_EXACT_MAX vertices: a
    cheapest subset path from ``verts[0]`` through the others, each left by
    exit 1 if it closes a pair (the first closes ``verts[0]``'s) and by exit
    0 if it opens one. Closing costs the pair's distance, opening nothing;
    the pairs are read off the path."""
    if not verts:
        return [], 0.0
    d = space.pairwise(verts, verts)
    k = len(verts) - 1
    entry = np.full((1, k, 2), np.inf)
    entry[0, :, 1] = d[0, 1:]
    hop = np.full((1, k, k, 2, 2), np.inf)
    hop[0, :, :, 0, 1] = d[1:, 1:]
    hop[0, :, :, 1, 0] = 0.0
    close = np.full((1, k, 2), np.inf)
    close[0, :, 1] = 0.0
    cost, _, groups, _ = subset_path_close(subset_path_table(entry, hop), hop, close, [0])
    seq = [int(verts[0])] + [int(verts[c + 1]) for c in groups[0].tolist()]
    return list(zip(seq[::2], seq[1::2])), float(cost[0])


def christofides(space: MetricSpace) -> OracleResult:
    """MST + matching on odd-degree vertices + Euler circuit + shortcut.

    The matching is exact (:func:`_exact_matching`) when at most
    MATCHING_EXACT_MAX odd vertices exist, else the tree-based matching is
    used; the method tag records which, since only the exact mode carries the
    1.5 guarantee.
    """
    tree = space.mst_edges
    odd = sorted(_odd_vertices(tree))
    if len(odd) <= MATCHING_EXACT_MAX:
        edges = list(tree) + _exact_matching(space, odd)[0]
        method = "christofides_exact"
    else:
        edges = _eulerian(space, (), tree, 0, 0)
        method = "christofides_tree"
    verts, _ = euler_trail(edges, 0, 0)     # the MST spans 0..n-1, so every point is visited
    t = dedupe_visits(_closed_tour(verts))
    return OracleResult(t, tour_weight(space, t), method, False)
