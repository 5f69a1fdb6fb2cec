"""Exact TSP oracles and classical baselines used to validate everything else.

Held-Karp, the portal DP's exact tables and Christofides' matching are all
cheapest paths of one subset path kernel, which skips the portal DP's
padded portal slots both as sources and as targets. The portal DP and the
matching read their full tables out by :func:`subset_path_close`. Held-Karp
fills its table only to half depth and joins the two halves of each tour at
its middle vertex (:func:`held_karp_tsp`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import OddParity, TooLarge
from .metric import MetricSpace, fold_weight
from .tours import (Tour, _closed_tour, _eulerian, _odd_vertices, dedupe_visits,
                    euler_trail, tour_weight)

BRUTE_MAX = 10
HELD_KARP_MAX = 18
MATCHING_BRUTE_MAX = 12
MATCHING_EXACT_MAX = 16
PULL_BLOCK = 1 << 15     # floats in subset_path_table's buffer and brute force's blocks


@dataclass
class OracleResult:
    tour: Tour
    weight: float
    method: str
    exact: bool


def brute_force_tsp(space: MetricSpace) -> OracleResult:
    """The first minimum over all (n-1)!/2 closed tours anchored at point 0,
    each permutation then its reverse (a matrix may be symmetric only within
    REL_TOL), scored in blocks of PULL_BLOCK edges. A tour's weight is the
    :func:`metric.fold_weight` of its edges from 0, the rule Held-Karp reports
    by, so the two oracles give the same float for the same cycle."""
    n = space.n
    if n > BRUTE_MAX:
        raise TooLarge(f"n={n} exceeds brute-force ceiling {BRUTE_MAX}")
    if n == 1:
        return OracleResult(Tour((0,)), 0.0, "brute", True)
    perms = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(1, n))),
                        np.int8).reshape(-1, n - 1)
    perms = perms[perms[:, 0] <= perms[:, -1]]          # each cycle once
    ways = np.insert(np.stack([perms, perms[:, ::-1]], axis=1).reshape(-1, n - 1), 0, 0, axis=1)
    d, step = space.pairwise(), PULL_BLOCK // n
    weights = np.concatenate([fold_weight(d, block, np.roll(block, -1, axis=1))
                              for block in np.split(ways, np.arange(step, len(ways), step))])
    i = int(np.argmin(weights))                         # the first minimum
    return OracleResult(Tour(ways[i]), float(weights[i]), "brute", True)


def subset_path_table(entry: np.ndarray, hop: np.ndarray, top: int | None = None) -> np.ndarray:
    """Cheapest ordered visits of subsets of k groups, each left by one of m
    exits, for a stack of samples solved in one call.

    ``entry[..., c, x]`` is the cost of starting at group c and leaving it at
    exit x; ``hop[..., c, d, x, y]`` is the cost of going from exit x of c
    through d to exit y. The leading axes, the same for both, stack samples,
    each with its own entry matrix and hop tensor. ``table[..., mask, c, y]``
    is the least cost of visiting exactly the groups in ``mask`` once each,
    ending at c and leaving by exit y (inf where c is not in ``mask``).
    Only masks of at most ``top`` groups are filled (all k by default); the
    rest stay inf, and the layers above ``top`` are never built.

    Pull form: layers run by popcount, so every entry is final before it is
    read. Every group c is in the same number of a layer's masks, so one step
    takes a block of samples, groups and the same block of each group's masks:
    it gathers their predecessor rows ``table[mask ^ 1 << c]``, flattened to
    ``(previous group, exit)``, and adds ``into[c]`` (what reaches c from each
    of them) into one preallocated buffer laid out ``((previous group, exit),
    sample, c, exit y, row)``; the min over that leading axis is
    ``table[mask, c, y]``. A block holds as many masks of one group as the
    candidates of all m exits fit in the buffer, then as many groups, then as
    many samples as fit beside them, so a small layer of many samples is one
    step. The buffer holds at most ``PULL_BLOCK`` floats (or one row, if
    larger), so the kernel's working memory beside the table stays small.

    A padded portal slot is dead on both axes. As a source, a (group, exit)
    whose every hop is inf in every sample reaches no cell, so it is left
    out of the candidate axis (with every source dead, or one group, the
    table is its first layer). As a target, an exit that no hop reaches in
    any sample stays inf above the first layer. A group's width is one past
    its last exit that some hop reaches, and a block computes only the exits
    below the widest of its groups' widths: padding leaves a group's real
    exits a prefix, so a block of one group computes exactly those and a
    wider block also a narrower group's padded exits, as inf. When no exit
    is dead, as in Held-Karp and the matching, every exit is computed and
    the rows are gathered whole. Every candidate is the same float sum under
    any layout, blocking or stacking, a dead one adds only inf, and min does
    not round, so the table depends on none of them.
    """
    k, m = entry.shape[-2:]
    top = k if top is None else top
    batch = entry.shape[:-2]
    entry = entry.reshape(-1, k, m)
    s_all = len(entry)
    hop = hop.reshape(s_all, k, k, m, m)
    table = np.full((s_all, 1 << k, k, m), np.inf)
    table[:, 1 << np.arange(k), np.arange(k)] = entry
    reach = np.isfinite(hop).any(axis=0)                # (group, next group, exit, exit)
    live = np.flatnonzero(reach.any(axis=(1, 3)))       # sources, as (group, exit)
    whole = len(live) == k * m
    into = hop.transpose(1, 3, 0, 2, 4).reshape(k * m, s_all, k, m)
    into = np.ascontiguousarray(into if whole else into[live])[..., None]
    if k < 2 or not len(live):
        return table.reshape(batch + table.shape[1:])
    # a target group's width is one past its last exit that some hop reaches
    width = (reach.any(axis=(0, 2)) * np.arange(1, m + 1)).max(axis=1).tolist()
    flat = table.reshape(s_all, 1 << k, k * m)          # row mask: (group, exit)
    cells_flat = table.reshape(s_all, (1 << k) * k * m)
    by_cell = table.reshape(s_all, (1 << k) * k, m)     # row mask * k + group: exit
    row = len(live) * m
    # no block holds more than the widest layer's candidates
    size = min(max(PULL_BLOCK, row), row * s_all * k * math.comb(k - 1, (k - 1) // 2))
    buf = np.empty(size)
    res = np.empty(size // len(live))
    for cells, src in _layers(k, top):
        per_group = src.shape[1]
        rows = min(per_group, max(1, PULL_BLOCK // row))
        groups = min(k, max(1, PULL_BLOCK // (row * rows)))
        samples = max(1, PULL_BLOCK // (row * rows * groups))
        for s0 in range(0, s_all, samples):
            s1 = min(s_all, s0 + samples)
            for c0 in range(0, k, groups):
                c1 = min(k, c0 + groups)
                q = max(width[c0:c1])
                reaching = into[:, s0:s1, c0:c1, :q]
                for lo in range(0, per_group, rows):
                    block = src[c0:c1, lo:lo + rows]
                    g, n = block.shape
                    if whole:
                        prev = flat[s0:s1].take(block, axis=1).transpose(3, 0, 1, 2)
                    else:   # source-major, so the add reads each source's rows contiguously
                        prev = cells_flat[s0:s1].take(live[:, None, None] + block * (k * m),
                                                      axis=1).transpose(1, 0, 2, 3)
                    best = res[:(s1 - s0) * g * q * n].reshape(s1 - s0, g, q, n)
                    cand = buf[:len(live) * best.size].reshape((len(live),) + best.shape)
                    np.add(prev[:, :, :, None], reaching, out=cand)
                    np.minimum.reduce(cand.reshape(len(live), -1), axis=0, out=best.reshape(-1))
                    by_cell[s0:s1, cells[c0:c1, lo:lo + rows], :q] = best.transpose(0, 1, 3, 2)
        del cells, src, block, prev             # before the next layer's are built
    return table.reshape(batch + table.shape[1:])


def _layers(k: int, top: int):
    """Each popcount layer 2..top, in order, as its (cells, sources) (see
    :func:`_group_targets`); no layer above ``top`` is built.

    Built afresh on every call, one layer at a time: all layers of k groups
    hold 2·k·2^k indices, 4 bytes each (k ≤ 17 here; int32 holds them below k = 27).
    """
    masks = np.arange(1 << k, dtype=np.int32)
    popcount = np.bitwise_count(masks)
    for count in range(2, top + 1):
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
    cells = np.broadcast_to(layer, held.shape)[held].reshape(k, -1)
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
    to last (see :func:`_trace_back`)."""
    sample = np.asarray(sample, dtype=np.intp)
    k, m = table.shape[-2:]
    totals = (table[sample, -1] + close).reshape(len(sample), k * m)
    flat = np.argmin(totals, axis=1)
    cost = totals[np.arange(len(sample)), flat]
    finite = np.isfinite(cost)
    groups, exits = _trace_back(table, hop, sample[finite], (1 << k) - 1,
                                *np.divmod(flat[finite], m))
    return cost, finite, groups, exits


def _trace_back(table: np.ndarray, hop: np.ndarray, sample, mask: int, c, y):
    """Per row r, the (groups, exits) of the cheapest visit of ``mask`` in
    sample ``sample[r]`` that ends at (c[r], y[r]), each (rows x popcount of
    ``mask``) and first to last, traced back one :func:`subset_path_step` at
    a time."""
    size = mask.bit_count()
    groups = np.empty((len(sample), size), dtype=np.intp)
    exits = np.empty((len(sample), size), dtype=np.intp)
    groups[:, -1], exits[:, -1] = c, y
    masks = np.full(len(sample), mask, dtype=np.int64)
    for t in range(size - 1, 0, -1):
        groups[:, t - 1], exits[:, t - 1] = subset_path_step(table, hop, sample, masks,
                                                             groups[:, t], exits[:, t])
        masks ^= 1 << groups[:, t]
    return groups, exits


def held_karp_tsp(space: MetricSpace) -> OracleResult:
    """Exact optimum by dynamic programming over vertex subsets, met in the
    middle.

    The subset path kernel with one group per vertex other than the anchor 0
    and one exit each, in two directions: the forward table F holds paths
    that start with an edge out of 0, the backward table B paths that end
    with an edge into 0. With k = n - 1 groups, every tour splits at the
    h-th vertex c after 0, h = (k + 2) // 2, into a forward path of h groups
    ending at c and a backward path of the other k - h + 1 groups from c. So
    F is filled only to h groups, B only to k - h + 1, and the tour is the
    cheapest join F[M, c] + B[full ^ M | 1 << c, c] over the masks M of h
    groups holding c, ties to the lowest c, then M; each half is traced back
    in its own table. On a matrix equal to its transpose, as every
    coordinate space and generated matrix is, B is F. A matrix symmetric
    only within REL_TOL gets its own B, so the optimum stays exact.

    The weight is :func:`metric.fold_weight` of the tour's edges from 0, in
    the direction with the lower weight, ties to the lower last vertex: the
    float a full forward table closes the same tour with.
    """
    n = space.n
    if n > HELD_KARP_MAX:
        raise TooLarge(f"n={n} exceeds held-karp ceiling {HELD_KARP_MAX}")
    if n == 1:
        return OracleResult(Tour((0,)), 0.0, "held_karp", True)
    d = space.pairwise()
    k = n - 1
    h = (k + 2) // 2
    hop = d[None, 1:, 1:, None, None]
    fwd = subset_path_table(d[None, 0, 1:, None], hop, top=h)    # a stack of one
    if np.array_equal(d, d.T):
        back, bwd = hop, fwd
    else:
        back = d[1:, 1:].T[None, :, :, None, None]
        bwd = subset_path_table(d[None, 1:, 0, None], back, top=k - h + 1)
    full = (1 << k) - 1
    masks = np.arange(1 << k, dtype=np.int32)
    middle = masks[np.bitwise_count(masks) == h]
    best, c, mask = np.inf, 0, 0
    for g in range(k):          # one group at a time: all k at once took ~6 MB more at k = 17
        held = middle[(middle >> g) & 1 == 1]
        joined = fwd[0, held, g, 0] + bwd[0, (held ^ full) | (1 << g), g, 0]
        i = int(np.argmin(joined))
        if joined[i] < best:
            best, c, mask = joined[i], g, int(held[i])
    head = _trace_back(fwd, hop, [0], mask, c, 0)[0][0]
    tail = _trace_back(bwd, back, [0], (mask ^ full) | (1 << c), c, 0)[0][0]
    seq = (0,) + tuple(int(g) + 1 for g in head) + tuple(int(g) + 1 for g in tail[-2::-1])
    ways = (seq, seq[:1] + seq[:0:-1])
    weights = fold_weight(d, ways, np.roll(ways, -1, axis=1)).tolist()
    weight, _, seq = min((w, way[-1], way) for w, way in zip(weights, ways))
    return OracleResult(Tour(seq), weight, "held_karp", True)


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
