"""Portal selection and the crossing-limited dynamic program over cluster trees.

Tour segments may cross a cluster only at its portals, at most m_cap of them.
Each cluster, keyed by (level, member set), is solved once, in one pass that
fills its matrix of segment costs over all of its portal pairs, at most
m_cap(m_cap + 1)/2 cells, so identical clusters arising from different radius
choices share it. Each portal pair is one segment, so a tour crosses each
cluster twice: it enters once, visits every member, and leaves.
A bottom cluster's children are its points, each its own one portal at cost
0, so every segment is a child order: a subset path on the one kernel of
:mod:`nettsp.oracles` up to EXACT_PATH_CHILDREN children, a greedy plus 2-opt
order above.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible
from .metric import MetricSpace, within
from .nets import NetHierarchy
from .oracles import PULL_BLOCK, subset_path_table, subset_path_trace
from .partition import ClusterTree, distinct_carvings, partition_with_radii, sample_radius
from .tours import Tour, _collapse, dedupe_visits

# int32 entries of the reversal rows that one _heuristic_orders call stacks:
# each pair of a k-child node adds k(k - 1)/2 rows of k entries (64 MB).
HEURISTIC_ROW_ENTRIES = 1 << 24


@dataclass(frozen=True)
class PortalSet:
    """Crossing points designated for one cluster, at most m_cap of them.

    Portals are net points whose covering balls touch the cluster; they need
    not be cluster members (non-members act as free copies that a tour may
    use without owing them a visit). A point, the child of a bottom cluster at
    level -1, is its own one portal.
    """

    level: int
    portals: tuple


def auto_portals(space: MetricSpace, h: NetHierarchy, members, level: int,
                 m_cap: int) -> PortalSet:
    """Finest nested portal set within the cap.

    Candidate sets accumulate net points near the cluster from the cluster's
    own scale downward, and the walk stops before the first set over the cap.
    When even the cluster's own-level set is over it, the set keeps m_cap of
    its points, chosen farthest-first from the lowest. Either way a larger cap
    yields a superset (keeping the table cost monotone in m_cap).
    """
    members = tuple(sorted(int(p) for p in members))
    near = space.pairwise(None, members).min(axis=1)     # every point to its nearest member

    def reached(j):                # mask of the level-j net points within s^j of the cluster
        return h.member[min(j, h.top)] & within(near, h.radius(j))

    j = max(level, 0)
    pts = reached(j)
    while j > 0:
        finer = pts | reached(j - 1)
        if np.count_nonzero(finer) > m_cap:
            break
        j, pts = j - 1, finer
    P = np.flatnonzero(pts)
    if len(P) > m_cap:
        D = space.pairwise(P, P)
        keep, gap = [0], D[0].copy()
        while len(keep) < m_cap:   # the point farthest from those kept, ties to the lowest
            keep.append(int(np.argmax(gap)))
            np.minimum(gap, D[keep[-1]], out=gap)
        P = np.sort(P[keep])
    return PortalSet(level=level, portals=tuple(P.tolist()))


@dataclass
class LightTourResult:
    tour: Tour                     # shortcut closed tour visiting every point once
    cost: float                    # table cost of the raw segment structure
    raw: Tour                      # traceback tour before shortcutting
    stats: dict


class _Engine:
    """Solver over clusters, one pass per cluster.

    A cluster's pass fills its matrix of segment costs over all of its portal
    pairs (a, b): the cheapest segment that enters at a, visits every member
    and leaves at b, so the tour crosses the cluster twice. A cluster's pass
    first solves each child, once per child, then combines every children
    option over every pair and keeps, per pair, the first cheapest option; a
    bottom cluster's one option is its points. The pass's node tensors
    (padded record, hop tensor, path tables) are locals, gone when it
    returns. The engine keeps one record per cluster, its PortalSet and
    matrix, plus a trace per finite cell, keyed (level, members, a, b).
    """

    EXACT_PATH_CHILDREN = 12

    def __init__(self, space, h, m_cap, children_options, portal_chooser=None):
        self.space = space
        self.h = h
        self.m_cap = m_cap
        self.children_options = children_options
        self.portal_chooser = portal_chooser
        self.D = space.pairwise()
        self.ops = 0               # path table work, k·k·2^k / 8 + 1 per table
        self.entries = 0           # solved cells, plus one per point
        self.trace = {}            # (level, members, a, b) -> (child infos, path) of its cost
        self.nodes = {}            # (level, members) -> (PortalSet, pair-cost matrix)

    def portals(self, level, members):
        override = None
        if self.portal_chooser is not None:
            override = self.portal_chooser(members, level)
        if override is None:
            return auto_portals(self.space, self.h, members, level, self.m_cap)
        return PortalSet(level=level, portals=tuple(sorted(int(p) for p in override)))

    # ------------------------------------------------------------------ table

    def pair_costs(self, level, members, diagonal=False):
        """The cluster's PortalSet and its symmetric (m x m) segment-cost matrix.

        Computed by one pass on the first call and kept, so the portals too
        are chosen once per cluster. A point (level -1) is its own one portal,
        with a segment of cost 0. A bottom cluster's one children option is
        its points; ``children_options`` gives the others. Only the pairs
        a <= b are solved (only a == b when ``diagonal``, as for the root);
        each counts as one entry, and gets a trace when its cost is finite.
        """
        key = (level, members)
        hit = self.nodes.get(key)
        if hit is not None:
            return hit
        if level < 0:
            self.entries += 1
            self.nodes[key] = (PortalSet(level=level, portals=members), np.zeros((1, 1)))
            return self.nodes[key]
        ps = self.portals(level, members)
        P = ps.portals
        m = len(P)
        cells = [(ai, ai) for ai in range(m)] if diagonal else [
            (ai, bi) for ai in range(m) for bi in range(ai, m)]
        mat = np.full((m, m), np.inf)
        traces = {}
        options = (self.children_options(level, members) if level > 0
                   else [tuple((p,) for p in members)])
        for children in options:
            infos = [(ch,) + self.pair_costs(level - 1, ch) for ch in children]
            cost, found = self._combine(P, infos, cells)
            better = cost < mat                     # strict: the first option keeps ties
            mat[better] = cost[better]
            traces.update((cell, trace) for cell, trace in found.items() if better[cell])
        self.entries += len(cells)
        for ai, bi in cells:
            mat[bi, ai] = mat[ai, bi]
        for (ai, bi), trace in traces.items():
            self.trace[level, members, P[ai], P[bi]] = trace
        self.nodes[key] = (ps, mat)
        return ps, mat

    # ----------------------------------------------------------- combination

    def _combine(self, P, infos, cells):
        """One children option's segment costs over the parent's portal pairs.

        ``cells`` are the (a, b) index pairs to solve, grouped by a. Returns
        the (m x m) cost matrix, inf off the cells, and a trace per finite
        cell. Each segment threads every child exactly once
        (two crossings each). Up to EXACT_PATH_CHILDREN children, one subset
        path table per entry portal A closes every exit B >= A at once, ties to
        the lowest child, then the lowest exit; the table is dropped before
        the next A's is built. Beyond that, the child order of every pair
        comes from one batched greedy plus 2-opt search, with exact portal
        assignment per order (the tour stays valid; only the table optimality
        narrows to the explored orders). The pairs are independent, so they go
        to the search in chunks whose reversal rows stay within
        HEURISTIC_ROW_ENTRIES.
        """
        k = len(infos)
        padded = self._padded(infos)
        hop = self._hop_matrices(padded)
        close = self._close_matrices(P, padded)
        m = close.shape[2]
        cost = np.full((len(P), len(P)), np.inf)
        found = {}
        if k > self.EXACT_PATH_CHILDREN:
            entries = [self._entry_matrix(A, padded) for A in P]
            chunk = max(1, HEURISTIC_ROW_ENTRIES // (k * (k - 1) // 2 * k))
            orders = []
            for c0 in range(0, len(cells), chunk):
                part = cells[c0:c0 + chunk]
                orders += _heuristic_orders(hop, [entries[ai] for ai, _ in part],
                                            [close[bi] for _, bi in part])
            for (ai, bi), (order, vecs) in zip(cells, orders):
                tot = vecs[-1] + close[bi, order[-1]]
                xi = int(np.argmin(tot))
                if math.isfinite(tot[xi]):
                    cost[ai, bi] = tot[xi]
                    path = [(order[-1], xi)]
                    for t in range(k - 2, -1, -1):
                        xi = int(np.argmin(vecs[t] + hop[order[t], order[t + 1], :, xi]))
                        path.append((order[t], xi))
                    found[ai, bi] = (infos, path[::-1])
            return cost, found
        full = (1 << k) - 1
        for ai, group in itertools.groupby(cells, key=lambda cell: cell[0]):
            bs = [bi for _, bi in group]
            self.ops += k * k * (1 << k) // 8 + 1
            table = subset_path_table(self._entry_matrix(P[ai], padded), hop)
            tot = (table[full][None] + close[bs]).reshape(len(bs), k * m)
            for bi, row, flat in zip(bs, tot, np.argmin(tot, axis=1).tolist()):
                if math.isfinite(row[flat]):
                    cost[ai, bi] = row[flat]
                    path = subset_path_trace(table, hop, *divmod(flat, m))
                    found[ai, bi] = (infos, path)
            del table
        return cost, found

    @staticmethod
    def _padded(infos):
        """The children's portal indices (k x m), which of them are real, and
        their pair-cost matrices (k x m x m), padded with inf past each child's
        own portals."""
        m = max(len(ps.portals) for _, ps, _ in infos)
        portals = np.zeros((len(infos), m), dtype=np.intp)
        valid = np.zeros((len(infos), m), dtype=bool)
        cost = np.full((len(infos), m, m), np.inf)
        for ci, (_, ps, mat) in enumerate(infos):
            c = len(ps.portals)
            portals[ci, :c] = ps.portals
            valid[ci, :c] = True
            cost[ci, :c, :c] = mat
        return portals, valid, cost

    def _hop_matrices(self, padded):
        """hop[ci, cj, x, y] = leave ci at exit x, enter cj anywhere, exit at y.

        One gather of step[ci, cj, x, e] = D[exit x of ci, portal e of cj],
        then a running min over the entry portals e of step + cost[cj, e, y].
        Padded exits and entries, and hops from a child to itself, are inf.
        """
        portals, valid, cost = padded
        k, m = portals.shape
        step = self.D[portals[:, None, :, None], portals[None, :, None, :]]
        hop = np.add(step[..., 0, None], cost[None, :, None, 0], out=np.empty((k, k, m, m)))
        for e in range(1, m):
            np.minimum(hop, step[..., e, None] + cost[None, :, None, e], out=hop)
        hop.transpose(0, 2, 1, 3)[~valid] = np.inf
        hop[np.arange(k), np.arange(k)] = np.inf
        return hop

    def _entry_matrix(self, A, padded):
        """entry[ci, y] = enter child ci from A, exit at portal y (inf past its portals)."""
        portals, _, cost = padded
        return (self.D[A, portals][:, :, None] + cost).min(axis=1)

    def _close_matrices(self, P, padded):
        """close[b, ci, x] = D[exit portal x of child ci, P[b]] (inf past its portals)."""
        portals, valid, _ = padded
        return np.where(valid, self.D[portals, np.asarray(P, dtype=np.intp)[:, None, None]],
                        np.inf)

    def _walk(self, A, infos, path):
        """(child key, reversed) for a path of (child, exit portal index) pairs from A.

        Each child is entered at the portal that realizes the hop from the
        previous exit (from A for the first child), ties to the lowest index.
        A child key names its segment in canonical pair orientation, so the
        segment runs backwards when it was entered at its higher portal.
        """
        walk = []
        prev = A
        for ci, xi in path:
            ch, ps, mat = infos[ci]
            ei = int(np.argmin(self.D[prev, np.asarray(ps.portals, dtype=np.intp)] + mat[:, xi]))
            e, prev = ps.portals[ei], ps.portals[xi]
            pair = (min(e, prev), max(e, prev))
            walk.append(((ps.level, ch) + pair, e != pair[0]))
        return walk

    # ------------------------------------------------------------ extraction

    def expand(self, key):
        """The point sequence realizing the keyed segment (level, members, A, B), A to B."""
        level, _, A, B = key
        if level < 0:
            return [A]
        infos, path = self.trace[key]
        seq = [A]
        for ckey, flip in self._walk(A, infos, path):
            seg = self.expand(ckey)
            seq.extend(reversed(seg) if flip else seg)
        seq.append(B)
        return seq

    def solve_root(self, level, members):
        ps, mat = self.pair_costs(level, members, diagonal=True)
        costs = np.diag(mat)
        if not np.isfinite(costs).any():
            raise Infeasible("no valid closed tour through the root portals")
        ai = int(np.argmin(costs))                  # the first cheapest portal
        best_cost = float(costs[ai])
        seq = _collapse(self.expand((level, members, ps.portals[ai], ps.portals[ai])))
        if len(seq) > 1 and seq[-1] == seq[0]:
            seq = seq[:-1]
        raw = Tour(tuple(seq), closed=True)
        tour = dedupe_visits(raw)
        missing = set(members) - tour.visits()
        if missing:
            raise Infeasible(f"tour misses points {sorted(missing)}")
        return LightTourResult(tour=tour, cost=best_cost, raw=raw,
                               stats={"entries": self.entries, "ops": self.ops})


def _heuristic_orders(hop, entries, closes):
    """Greedy insertion orders improved by deterministic 2-opt, for every
    (entries[p], closes[p]) pair of one node; returns each pair's order and
    its forward min-plus vectors (k x m).

    Greedy depends only on the entry matrix, so it runs once per distinct
    one. It appends the child that is cheapest to reach next, ties to the
    lowest index, and keeps the order's forward vectors. 2-opt is, per pair,
    first-improvement in lexicographic (i, j) order, for at most four rounds:
    reversing order[i..j] is taken as soon as it scores more than 1e-12 below
    the current order, and the scan goes on at (i, j + 1) against the new
    order.

    The pairs run their passes in lockstep. One pass stacks every remaining
    reversal of every active pair, merged by i with a stable sort, so the
    rows live at step t (those with i <= t) are a prefix; row (i, j) joins at
    step max(i, 1) from its pair's forward vector at i - 1 (from
    entry[order[j]] when i = 0). Each row rolls one (m,) vector through the k
    min-plus steps, in blocks of at most PULL_BLOCK floats: a step gathers
    the rows' hops as ``[x, row, y]`` from ``hop`` laid out
    ``[x, (from, to), y]``, adds the rows' vectors and takes the min over the
    leading exit axis x. Each pair then takes its own first improving row and
    restarts after it; only the winners' forward vectors are rebuilt, in a
    second batched pass along their new orders. Every score is the same
    prefix vector followed by the same float additions as scoring that
    reversal alone, and min does not round, so the orders equal the
    one-reversal-at-a-time scan's.
    """
    k, m = entries[0].shape
    into = np.ascontiguousarray(hop.transpose(2, 0, 1, 3)).reshape(m, k * k, m)
    rows_per_block = max(1, PULL_BLOCK // (m * m))
    buf = np.empty(m * m * rows_per_block)

    greedy = {}
    for entry in entries:
        key = entry.tobytes()
        if key in greedy:
            continue
        remaining = list(range(k))
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
        greedy[key] = (order, np.array(fwd))

    npairs = len(entries)
    E, C = np.array(entries), np.array(closes)
    initial = [greedy[entry.tobytes()] for entry in entries]
    orders = np.array([order for order, _ in initial], dtype=np.int32)
    vecs = np.array([fwd for _, fwd in initial])
    base = np.min(vecs[:, -1] + C[np.arange(npairs), orders[:, -1]], axis=1)

    lo, hi = np.triu_indices(k, 1)                  # every reversal, lexicographic
    t_all = np.arange(k)
    inside = (lo[:, None] <= t_all) & (t_all <= hi[:, None])
    perm = np.where(inside, lo[:, None] + hi[:, None] - t_all, t_all).astype(np.int32)
    start = np.zeros(npairs, dtype=np.int32)
    rounds = np.zeros(npairs, dtype=np.int32)
    improved = np.zeros(npairs, dtype=bool)
    active = np.ones(npairs, dtype=bool)

    def advance(cur, seqs, t, n):
        """cur[:n] one min-plus step from seqs[:, t - 1] to seqs[:, t], blocked."""
        idx = seqs[:n, t - 1] * k + seqs[:n, t]
        for b0 in range(0, n, rows_per_block):
            b1 = min(n, b0 + rows_per_block)
            step = buf[:m * m * (b1 - b0)].reshape(m, b1 - b0, m)
            into.take(idx[b0:b1], axis=1, out=step)
            np.add(cur[b0:b1].T[:, :, None], step, out=step)
            np.minimum.reduce(step, axis=0, out=cur[b0:b1])

    while active.any():
        act = np.flatnonzero(active)
        owner = np.repeat(act, len(lo) - start[act]).astype(np.int32)
        rev = np.concatenate([np.arange(start[p], len(lo), dtype=np.int32) for p in act])
        merged = np.argsort(lo[rev], kind="stable")
        owner, rev = owner[merged], rev[merged]
        seqs = orders[owner[:, None], perm[rev]]
        live = np.searchsorted(lo[rev], t_all, side="right")    # rows with i <= t
        cur = np.empty((len(rev), m))
        cur[:live[0]] = E[owner[:live[0]], seqs[:live[0], 0]]
        for t in range(1, k):
            cur[live[t - 1]:live[t]] = vecs[owner[live[t - 1]:live[t]], t - 1]
            advance(cur, seqs, t, live[t])
        scores = np.min(cur + C[owner, seqs[:, -1]], axis=1)
        better = np.flatnonzero(scores < base[owner] - 1e-12)
        won, first = np.unique(owner[better], return_index=True)
        rows = better[first]
        orders[won] = seqs[rows]
        base[won] = scores[rows]
        start[won] = rev[rows] + 1
        improved[won] = True
        del seqs, cur
        if len(won):                        # the winners' forward vectors, rebuilt
            won_orders = orders[won]
            fwd = E[won, won_orders[:, 0]]
            vecs[won, 0] = fwd
            for t in range(1, k):
                advance(fwd, won_orders, t, len(won))
                vecs[won, t] = fwd
        ended = active.copy()
        ended[won] = start[won] >= len(lo)
        again = ended & improved & (rounds < 3)     # at most four rounds
        active[ended & ~again] = False
        rounds[again] += 1
        start[again] = 0
        improved[again] = False
    return [(order, vecs[p]) for p, order in enumerate(orders.tolist())]


def make_flat_tree(space: MetricSpace) -> ClusterTree:
    """Single-cluster tree: the whole space as one bottom-level cluster."""
    return ClusterTree(level=0, members=tuple(range(space.n)))


def solve_light_tour(space: MetricSpace, h: NetHierarchy, tree: ClusterTree,
                     m_cap: int, portal_chooser=None) -> LightTourResult:
    """Minimum-cost crossing-limited closed tour over a fixed cluster tree.

    Bottom-up over the tree, one segment, two crossings, per cluster: each
    segment is an order of the cluster's children through their portals, and
    a leaf's children are its points. The returned tour is the traceback
    shortcut to visit each point exactly once.
    """
    engine = _Engine(space, h, m_cap, tree.options, portal_chooser=portal_chooser)
    return engine.solve_root(tree.level, tree.members)


def draw_radius_samples(h: NetHierarchy, guesses: int, ddim: float, rng) -> dict:
    """guesses radii per (level, center), drawn in deterministic order."""
    samples = {}
    for level in range(h.top + 1):
        a = h.radius(level)
        samples[level] = {
            int(c): [sample_radius(a, ddim, rng) for _ in range(guesses)]
            for c in h.net(level)
        }
    return samples


def tree_from_samples(space: MetricSpace, h: NetHierarchy, samples: dict) -> ClusterTree:
    """Cluster tree carved with each center's first sampled radius.

    Every level is carved once over all points. A point's cluster is the first
    center in carving order whose ball holds it, whatever subset is carved, so
    a cluster's children are its members grouped by their owner one level down.
    """
    owners = []
    for level in range(h.top + 1):
        radii = {c: vals[0] for c, vals in samples[level].items()}
        owners.append(partition_with_radii(space, range(space.n), h, level, radii).assign_center)
    tree = ClusterTree(level=h.top, members=tuple(range(space.n)))
    clusters = [tree.members]
    for level in range(h.top, 0, -1):
        for members in clusters:
            groups = {}
            for p in members:
                groups.setdefault(owners[level - 1][p], []).append(p)
            # disjoint and filled in member order, the groups come out sorted
            tree.children[level, members] = tuple(map(tuple, groups.values()))
        clusters = [ch for members in clusters for ch in tree.children[level, members]]
    return tree


def solve_with_radius_guessing(space: MetricSpace, h: NetHierarchy, guesses: int,
                               m_cap: int, ddim: float, rng) -> LightTourResult:
    """Crossing-limited tour minimized over per-center radius choices.

    Fixes ``guesses`` independent radius samples per net point per level, then
    extends the table search over the radius choices of the centers whose
    balls can reach each cluster. Radius choices below a cluster are made
    jointly for all of its children, so parent and child subdivisions always
    agree on shared centers. Each cluster's subdivisions are enumerated once
    by :func:`distinct_carvings`, which drops repeated outcomes while it
    enumerates them and yields the rest in first-occurrence product order.
    With one guess there is one subdivision per cluster, and
    :func:`tree_from_samples` finds them all with one carve per level.
    Identical member sets reached under different choices share table entries.
    """
    samples = draw_radius_samples(h, guesses, ddim, rng)
    if guesses == 1:
        options = tree_from_samples(space, h, samples).options
    else:
        def options(level, members):
            return distinct_carvings(space, members, h, level - 1, samples[level - 1])

    engine = _Engine(space, h, m_cap, options)
    return engine.solve_root(h.top, tuple(range(space.n)))
