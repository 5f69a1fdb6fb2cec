"""Exact TSP oracles and classical baselines used to validate everything else."""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import OddParity, TooLarge
from .metric import MetricSpace
from .tours import (Tour, dedupe_visits, euler_trail, mst, odd_matching_by_tree,
                    tour_weight)

BRUTE_MAX = 10
HELD_KARP_MAX = 18
MATCHING_BRUTE_MAX = 12
MATCHING_EXACT_MAX = 16
PULL_BLOCK = 1 << 13     # floats in subset_path_table's candidate buffer


@dataclass
class OracleResult:
    tour: Tour
    weight: float
    method: str
    exact: bool


def brute_force_tsp(space: MetricSpace, max_n: int = BRUTE_MAX) -> OracleResult:
    """Minimum over all (n-1)!/2 closed tours anchored at point 0."""
    n = space.n
    if n > max_n:
        raise TooLarge(f"n={n} exceeds brute-force ceiling {max_n}")
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
    """Cheapest ordered visits of subsets of k groups, each left by one of m exits.

    ``entry[c, x]`` is the cost of starting at group c and leaving it at exit
    x; ``hop[c, d, x, y]`` is the cost of going from exit x of c through d to
    exit y. ``table[mask, c, y]`` is the least cost of visiting exactly the
    groups in ``mask`` once each, ending at c and leaving by exit y (inf where
    c is not in ``mask``).

    Pull form: layers run by popcount, so every entry is final before it is
    read. For each target group c, a block of the layer's masks that hold c
    gathers its predecessor rows ``table[mask ^ 1 << c]``, flattened to
    ``(previous group, exit)``, and adds ``into[c]`` (see :func:`_into`) into
    one preallocated buffer laid out ``((previous group, exit), exit y, row)``;
    the min over that leading axis is ``table[mask, c, y]``. That is k numpy
    steps per layer and k² per table. The buffer holds at most ``PULL_BLOCK``
    floats (or one row, if larger), so the kernel's working memory beside the
    table stays small. Every candidate is the same float sum under any layout or blocking and
    min does not round, so the table depends on neither.
    """
    k, m = entry.shape
    table = np.full((1 << k, k, m), np.inf)
    table[1 << np.arange(k), np.arange(k)] = entry
    flat = table.reshape(1 << k, k * m)
    into = _into(hop).reshape(k, k * m, m)
    rows = max(1, PULL_BLOCK // (k * m * m))
    buf = np.empty(k * m * m * rows)
    res = np.empty(m * rows)
    for layer in _layers(k):
        for c, (tgt, src) in enumerate(layer):
            for lo in range(0, len(tgt), rows):
                prev = flat.take(src[lo:lo + rows], axis=0).T
                n = prev.shape[1]
                cand = buf[:k * m * m * n].reshape(k * m, m, n)
                best = res[:m * n].reshape(m, n)
                np.add(prev[:, None], into[c, :, :, None], out=cand)
                np.minimum.reduce(cand, axis=0, out=best)
                table[tgt[lo:lo + rows], c] = best.T
    return table


def _into(hop: np.ndarray) -> np.ndarray:
    """``hop`` as ``[c, previous group, exit, y]``: what reaches exit y of c."""
    return hop.transpose(1, 0, 2, 3)


def _layers(k: int):
    """Each popcount layer 2..k, in order, as its (targets, sources) per group.

    Built afresh on every call, one layer at a time: all layers of k groups
    hold k·2^k indices (18 MB at k = 17), and the kernel holds one layer's
    bit matrix and one group's index arrays at a time.
    """
    masks = np.arange(1 << k, dtype=np.int64)
    popcount = sum((masks >> b) & 1 for b in range(k))
    for count in range(2, k + 1):
        yield _group_targets(masks[popcount == count], k)


def _group_targets(layer: np.ndarray, k: int):
    """For each group c: the layer's masks that hold c, ascending, and those masks without c.

    One bit matrix for the whole layer, one byte per bit: row c of ``held``
    is bit c of every mask, unpacked from the masks' little-endian bytes, so
    no k-by-layer array of 8-byte masks is ever made.
    """
    octets = layer.astype("<u4").view(np.uint8).reshape(-1, 4)
    held = np.unpackbits(octets, axis=1, count=k, bitorder="little").T.view(bool)
    for c in range(k):
        tgt = layer[held[c]]
        yield tgt, tgt ^ (1 << c)


def subset_path_step(table: np.ndarray, hop: np.ndarray, mask: int, c: int, y: int):
    """(group, exit) before group c left by exit y on the cheapest visit of ``mask``.

    The argmin runs over the very sums the forward pass minimized, the
    flattened predecessor row plus ``into[c, :, :, y]`` in the same
    ``(previous group, exit)`` order, so it is the forward pass's own choice:
    the lowest group, then the lowest exit.
    """
    k, m = table.shape[1:]
    sums = table[mask ^ (1 << c)].reshape(k * m) + _into(hop)[c, :, :, y].reshape(k * m)
    return divmod(int(np.argmin(sums)), m)


def subset_path_trace(table: np.ndarray, hop: np.ndarray, c: int, y: int) -> list:
    """(group, exit) pairs, first to last, of the cheapest visit of all groups ending at (c, y)."""
    mask = table.shape[0] - 1
    path = [(c, y)]
    while mask != 1 << c:
        prev = subset_path_step(table, hop, mask, c, y)
        mask ^= 1 << c
        c, y = prev
        path.append((c, y))
    return path[::-1]


def held_karp_tsp(space: MetricSpace, max_n: int = HELD_KARP_MAX) -> OracleResult:
    """Exact optimum by dynamic programming over vertex subsets.

    The subset path kernel with one group per vertex other than the anchor 0
    and one exit each: paths start with an edge out of 0, and the tour closes
    back to 0 from the cheapest last vertex.
    """
    n = space.n
    if n > max_n:
        raise TooLarge(f"n={n} exceeds held-karp ceiling {max_n}")
    if n == 1:
        return OracleResult(Tour((0,)), 0.0, "held_karp", True)
    d = space.pairwise()
    hop = d[1:, 1:, None, None]
    table = subset_path_table(d[0, 1:, None], hop)
    totals = table[-1, :, 0] + d[1:, 0]
    last = int(np.argmin(totals))
    seq = (0,) + tuple(c + 1 for c, _ in subset_path_trace(table, hop, last, 0))
    return OracleResult(Tour(seq), float(totals[last]), "held_karp", True)


def nearest_neighbor_tsp(space: MetricSpace) -> OracleResult:
    """Greedy baseline from point 0, ties to the lowest index."""
    n = space.n
    seq = [0]
    remaining = set(range(1, n))
    cur = 0
    while remaining:
        row = space.row(cur)
        nxt = min(remaining, key=lambda p: (row[p], p))
        seq.append(nxt)
        remaining.discard(nxt)
        cur = nxt
    t = Tour(tuple(seq))
    return OracleResult(t, tour_weight(space, t), "nearest_neighbor", False)


def brute_force_matching(space: MetricSpace, vertices, max_n: int = MATCHING_BRUTE_MAX):
    """Exact minimum-weight perfect matching by recursion over pairings."""
    verts = sorted(set(int(p) for p in vertices))
    if len(verts) % 2 != 0:
        raise OddParity(f"{len(verts)} vertices cannot be perfectly matched")
    if len(verts) > max_n:
        raise TooLarge(f"{len(verts)} vertices exceeds matching ceiling {max_n}")
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


def _exact_matching_dp(space: MetricSpace, verts):
    """Min-weight perfect matching over up to MATCHING_EXACT_MAX vertices (bitmask DP)."""
    k = len(verts)
    d = space.pairwise(verts, verts)
    size = 1 << k
    dp = np.full(size, np.inf)
    choice = np.full(size, -1, dtype=np.int64)
    dp[0] = 0.0
    for mask in range(size):
        if not np.isfinite(dp[mask]):
            continue
        free = [t for t in range(k) if not mask & (1 << t)]
        if not free:
            continue
        a = free[0]
        for b in free[1:]:
            nm = mask | (1 << a) | (1 << b)
            w = dp[mask] + d[a, b]
            if w < dp[nm]:
                dp[nm] = w
                choice[nm] = a * k + b
    pairs = []
    mask = size - 1
    while mask:
        enc = int(choice[mask])
        a, b = divmod(enc, k)
        pairs.append((int(verts[a]), int(verts[b])))
        mask ^= (1 << a) | (1 << b)
    return pairs, float(dp[size - 1])


def christofides(space: MetricSpace, exact_matching_max: int = MATCHING_EXACT_MAX) -> OracleResult:
    """MST + matching on odd-degree vertices + Euler circuit + shortcut.

    The matching is exact (subset DP) when at most ``exact_matching_max`` odd
    vertices exist, else the tree-based matching is used; the method tag
    records which, since only the exact mode carries the 1.5 guarantee.
    """
    n = space.n
    if n < 2:
        return OracleResult(Tour((0,)), 0.0, "christofides_exact", False)
    tree = mst(space, range(n))
    deg = defaultdict(int)
    for u, v in tree:
        deg[u] += 1
        deg[v] += 1
    odd = sorted(v for v in range(n) if deg[v] % 2 == 1)
    if len(odd) <= exact_matching_max:
        pairs, _ = _exact_matching_dp(space, odd) if odd else ([], 0.0)
        method = "christofides_exact"
    else:
        pairs = odd_matching_by_tree(space, tree, odd)
        method = "christofides_tree"
    edges = list(tree) + list(pairs)
    if not edges:
        seq = tuple(range(n))
        t = Tour(seq)
        return OracleResult(t, tour_weight(space, t), method, False)
    verts, _ = euler_trail(edges, min(min(e) for e in edges), min(min(e) for e in edges))
    t = dedupe_visits(Tour(tuple(verts[:-1] if len(verts) > 1 else verts), closed=True))
    missing = set(range(n)) - t.visits()
    if missing:
        # Isolated points only occur for n == 1; guarded above.
        raise AssertionError(f"christofides missed points {sorted(missing)}")
    return OracleResult(t, tour_weight(space, t), method, False)
