"""Portal selection and the crossing-limited dynamic program over cluster trees.

Tour segments may cross a cluster only at its portals. The table is keyed by
(level, member set, portal configuration), so identical clusters arising from
different radius choices share entries. Each configuration is one segment
(one portal pair), so a tour crosses each cluster twice: it enters once,
visits every member, and leaves. A segment through a bottom cluster and the
child order of a segment through an internal one are both subset paths on
the one kernel of :mod:`nettsp.oracles`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, Infeasible
from .metric import REL_TOL, MetricSpace
from .nets import NetHierarchy
from .oracles import subset_path_table, subset_path_trace
from .partition import (ClusterNode, ClusterTree, distinct_carvings, partition_with_radii,
                        sample_radius)
from .tours import Tour, _collapse, dedupe_visits

DEFAULT_BUDGET = 5_000_000


@dataclass(frozen=True)
class PortalSet:
    """Crossing points designated for one cluster.

    Portals are net points whose covering balls touch the cluster; they need
    not be cluster members (non-members act as free copies that a tour may
    use without owing them a visit).
    """

    level: int
    pitch_level: int
    pitch: float
    portals: tuple
    mandatory: tuple


def auto_portals(space: MetricSpace, h: NetHierarchy, members, level: int,
                 m_cap: int) -> PortalSet:
    """Finest nested portal set within the cap.

    Candidate sets accumulate net points near the cluster from the cluster's
    own scale downward, so a larger cap always yields a superset (keeping the
    table cost monotone in m_cap). Falls back to the coarsest set when even
    that exceeds the cap.
    """
    members = tuple(sorted(int(p) for p in members))
    near = space.pairwise(None, members).min(axis=1)     # every point to its nearest member
    acc = np.zeros(space.n, dtype=bool)
    family = []
    for j in range(max(level, 0), -1, -1):
        net = h.net(j)
        pitch = h.radius(j)
        acc[net[near[net] <= pitch + REL_TOL * max(1.0, pitch)]] = True
        family.append((j, np.flatnonzero(acc)))
    chosen = family[0]
    for j, pts in reversed(family):
        if len(pts) <= m_cap:
            chosen = (j, pts)
            break
    mset = set(members)
    j, pts = chosen
    pts = tuple(pts.tolist())
    return PortalSet(level=level, pitch_level=j, pitch=h.radius(j), portals=pts,
                     mandatory=tuple(p in mset for p in pts))


@dataclass
class LightTourResult:
    tour: Tour                     # shortcut closed tour visiting every point once
    cost: float                    # table cost of the raw segment structure
    raw: Tour                      # traceback tour before shortcutting
    audit: list                    # (level, cluster size, portal instances, within portals)
    stats: dict


class _Engine:
    """Memoized solver over (level, members, config) keys.

    A config is one portal pair: one segment enters the cluster, visits every
    member and leaves, so the tour crosses the cluster twice. That meets any
    crossing bound r >= 2, so the engine only checks that r is at least 2.
    """

    def __init__(self, space, h, m_cap, r, budget, children_options, portal_chooser=None):
        if r < 2:
            raise ValueError("r must be at least 2")
        self.space = space
        self.h = h
        self.m_cap = max(1, int(m_cap))
        self.budget = int(budget)
        self.children_options = functools.cache(children_options)   # one carving per cluster
        self.portal_chooser = portal_chooser
        self.D = space.pairwise()
        self.ops = 0
        self.memo = {}
        self.trace = {}
        self.portal_cache = {}
        self.hk_cache = {}

    def charge(self, k=1):
        self.ops += k
        if self.ops > self.budget:
            raise BudgetExceeded(
                f"enumeration budget {self.budget} exceeded at m_cap {self.m_cap}: "
                f"raise the budget, or pass an --m-cap below {self.m_cap}")

    def portals(self, level, members):
        key = (level, members)
        ps = self.portal_cache.get(key)
        if ps is None:
            override = None
            if self.portal_chooser is not None:
                override = self.portal_chooser(members, level)
            if override is not None:
                portals = tuple(sorted(int(p) for p in override))
                mset = set(members)
                ps = PortalSet(level=level, pitch_level=-1, pitch=0.0, portals=portals,
                               mandatory=tuple(p in mset for p in portals))
            else:
                ps = auto_portals(self.space, self.h, members, level, self.m_cap)
            self.portal_cache[key] = ps
        return ps

    # ------------------------------------------------------------------ table

    def best(self, level, members, config):
        key = (level, members, config)
        if key in self.memo:
            return self.memo[key]
        if level <= 0:
            cost, tr = self._leaf(members, config)
        else:
            cost, tr = math.inf, None
            for children in self.children_options(level, members):
                c, t = self._combine_path(level, members, tuple(children), config)
                if c < cost:
                    cost, tr = c, t
        self.memo[key] = cost
        if tr is not None:
            self.trace[key] = tr
        return cost

    # ------------------------------------------------------------------- leaf

    def _leaf(self, members, config):
        """Cheapest segment from a to b through every other member of a bottom
        cluster, for the config's one portal pair (a, b).

        The members between the ends are a subset path on the kernel, one group
        with one exit per member, entered from a and closed to b. An end need
        not be a member: a portal outside the cluster is a free copy.
        """
        (a, b), = config
        rest = [p for p in members if p != a and p != b]
        t = len(rest)
        self.charge((1 if a == b else 2) * max(1, (1 << t) * (t + 1)))
        D = self.D
        if not rest:
            return float(D[a, b]), ("leaf", [[a, b]])
        hop = D[np.ix_(rest, rest)][:, :, None, None]
        table = subset_path_table(D[a, rest][:, None], hop)
        tot = table[-1, :, 0] + D[rest, b]
        last = int(np.argmin(tot))
        path = subset_path_trace(table, hop, last, 0)
        return float(tot[last]), ("leaf", [[a] + [rest[c] for c, _ in path] + [b]])

    # ----------------------------------------------------------- combination

    def _single_pair_costs(self, level, members):
        """Matrix of best((a, b)) over the cluster's portal pairs.

        Once every pair that starts at portal a is memoized, no combine reads
        the path tables from a again, so they are dropped there; once every
        pair is, the node's child infos, padded record and hop matrices go too.
        """
        ps = self.portals(level, members)
        m = len(ps.portals)
        mat = np.full((m, m), np.inf)
        options = [tuple(ch) for ch in self.children_options(level, members)] if level > 0 else []
        for ai in range(m):
            for bi in range(ai, m):
                cfg = ((ps.portals[ai], ps.portals[bi]),)
                c = self.best(level, members, cfg)
                mat[ai, bi] = mat[bi, ai] = c
            for children in options:
                self.hk_cache.pop(("table", level, children, ps.portals[ai]), None)
        for children in options:
            for kind in ("infos", "padded", "hop"):
                self.hk_cache.pop((kind, level, children), None)
        return ps, mat

    EXACT_PATH_CHILDREN = 12

    def _child_infos(self, level, children):
        key = ("infos", level, children)
        hit = self.hk_cache.get(key)
        if hit is None:
            hit = [(ch,) + self._single_pair_costs(level - 1, ch) for ch in children]
            self.hk_cache[key] = hit
        return hit

    def _padded(self, level, children):
        """The children's portal indices (k x m), which of them are real, and
        their pair-cost matrices (k x m x m), padded with inf past each child's
        own portals."""
        key = ("padded", level, children)
        hit = self.hk_cache.get(key)
        if hit is None:
            infos = self._child_infos(level, children)
            m = max(len(ps.portals) for _, ps, _ in infos)
            portals = np.zeros((len(infos), m), dtype=np.intp)
            valid = np.zeros((len(infos), m), dtype=bool)
            cost = np.full((len(infos), m, m), np.inf)
            for ci, (_, ps, mat) in enumerate(infos):
                c = len(ps.portals)
                portals[ci, :c] = ps.portals
                valid[ci, :c] = True
                cost[ci, :c, :c] = mat
            hit = (portals, valid, cost)
            self.hk_cache[key] = hit
        return hit

    def _hop_matrices(self, level, children):
        """hop[ci, cj, x, y] = leave ci at exit x, enter cj anywhere, exit at y.

        One gather of step[ci, cj, x, e] = D[exit x of ci, portal e of cj],
        then a running min over the entry portals e of step + cost[cj, e, y].
        Padded exits and entries, and hops from a child to itself, are inf.
        """
        key = ("hop", level, children)
        hit = self.hk_cache.get(key)
        if hit is None:
            portals, valid, cost = self._padded(level, children)
            k, m = portals.shape
            step = self.D[portals[:, None, :, None], portals[None, :, None, :]]
            hop = np.add(step[..., 0, None], cost[None, :, None, 0], out=np.empty((k, k, m, m)))
            for e in range(1, m):
                np.minimum(hop, step[..., e, None] + cost[None, :, None, e], out=hop)
            hop.transpose(0, 2, 1, 3)[~valid] = np.inf
            hop[np.arange(k), np.arange(k)] = np.inf
            hit = hop
            self.hk_cache[key] = hit
        return hit

    def _entry_matrix(self, A, padded):
        """entry[ci, y] = enter child ci from A, exit at portal y (inf past its portals)."""
        portals, _, cost = padded
        return np.min(self.D[A, portals][:, :, None] + cost, axis=1)

    def _close_matrix(self, B, padded):
        """close[ci, x] = D[exit portal x of child ci, B] (inf past its portals)."""
        portals, valid, _ = padded
        return np.where(valid, self.D[portals, B], np.inf)

    def _path_table(self, level, children, A, padded, hop):
        """Subset path table over (visited children, last child, exit portal), from A.

        Cached per (children, A) so one table serves every exit point B of the
        parent pair.
        """
        key = ("table", level, children, A)
        hit = self.hk_cache.get(key)
        if hit is None:
            k = len(children)
            self.charge(k * k * (1 << k) // 8 + 1)
            hit = subset_path_table(self._entry_matrix(A, padded), hop)
            self.hk_cache[key] = hit
        return hit

    def _combine_path(self, level, members, children, config):
        """One segment threading every child exactly once (two crossings each).

        Exact subset DP up to EXACT_PATH_CHILDREN children; beyond that the
        child order comes from a deterministic greedy plus 2-opt search with
        exact portal assignment per order (the tour stays valid; only the
        table optimality narrows to the explored orders).
        """
        (A, B), = config
        k = len(children)
        infos = self._child_infos(level, children)
        padded = self._padded(level, children)
        hop = self._hop_matrices(level, children)
        close = self._close_matrix(B, padded)
        if k > self.EXACT_PATH_CHILDREN:
            entry = self._entry_matrix(A, padded)
            order = _heuristic_order(entry, close, hop)
            vecs, tot = _chain_forward(entry, close, hop, order)
            xi = int(np.argmin(tot))
            cost = float(tot[xi])
            if not math.isfinite(cost):
                return math.inf, None
            path = [(order[-1], xi)]
            for t in range(k - 2, -1, -1):
                xi = int(np.argmin(vecs[t] + hop[order[t], order[t + 1], :, xi]))
                path.append((order[t], xi))
            return cost, ("combine", [(A, self._walk(A, infos, path[::-1]), B)])
        table = self._path_table(level, children, A, padded, hop)
        tot = table[(1 << k) - 1] + close
        ci, xi = np.unravel_index(np.argmin(tot), tot.shape)   # lowest child, then exit
        cost = float(tot[ci, xi])
        if not math.isfinite(cost):
            return math.inf, None
        path = subset_path_trace(table, hop, int(ci), int(xi))
        return cost, ("combine", [(A, self._walk(A, infos, path), B)])

    def _walk(self, A, infos, path):
        """Child segment keys for a path of (child, exit portal index) pairs from A.

        Each child is entered at the portal that realizes the hop from the
        previous exit (from A for the first child), ties to the lowest index.
        """
        walk = []
        prev = A
        for ci, xi in path:
            ch, ps, mat = infos[ci]
            ei = int(np.argmin(self.D[prev, np.asarray(ps.portals, dtype=np.intp)] + mat[:, xi]))
            e, prev = ps.portals[ei], ps.portals[xi]
            pair = (min(e, prev), max(e, prev))
            walk.append(((ps.level, ch, (pair,)), 0, e != pair[0]))
        return walk

    # ------------------------------------------------------------ extraction

    def expand(self, key):
        """Segments (point sequences) realizing the keyed config, in canonical
        pair orientation (segment i runs config[i][0] -> config[i][1])."""
        kind, data = self.trace[key]
        if kind == "leaf":
            return data
        out = []
        for A, walk, B in data:
            seq = [A]
            for ckey, pidx, flip in walk:
                seg = self.expand(ckey)[pidx]
                seg = list(reversed(seg)) if flip else list(seg)
                seq.extend(seg)
            seq.append(B)
            out.append(seq)
        return out

    def audit_trace(self, key, out):
        level, members, config = key
        ps = self.portals(level, members)
        instances = sum(2 for _ in config)
        within = all(a in ps.portals and b in ps.portals for a, b in config)
        out.append((level, len(members), instances, within))
        if key in self.trace:
            kind, data = self.trace[key]
            if kind == "combine":
                for _, walk, _ in data:
                    for ckey, _, _ in walk:
                        self.audit_trace(ckey, out)

    def solve_root(self, level, members):
        ps = self.portals(level, members)
        best_cost, best_key = math.inf, None
        for p in ps.portals:
            cfg = ((p, p),)
            c = self.best(level, members, cfg)
            if c < best_cost:
                best_cost, best_key = c, (level, members, cfg)
        if not math.isfinite(best_cost):
            raise Infeasible("no valid closed tour through the root portals")
        segs = self.expand(best_key)
        seq = _collapse(segs[0])
        if len(seq) > 1 and seq[-1] == seq[0]:
            seq = seq[:-1]
        raw = Tour(tuple(seq), closed=True)
        audit = []
        self.audit_trace(best_key, audit)
        tour = dedupe_visits(raw)
        missing = set(members) - tour.visits()
        if missing:
            raise Infeasible(f"tour misses points {sorted(missing)}")
        return LightTourResult(tour=tour, cost=best_cost, raw=raw, audit=audit,
                               stats={"entries": len(self.memo), "ops": self.ops})


def _chain_forward(entry, close, hop, order):
    """Min-plus vectors along a fixed child order, and the costs of closing after it."""
    vecs = [entry[order[0]]]
    for prev, cur in zip(order, order[1:]):
        vecs.append(np.min(vecs[-1][:, None] + hop[prev, cur], axis=0))
    return vecs, vecs[-1] + close[order[-1]]


def _heuristic_order(entry, close, hop):
    """Greedy insertion order improved by deterministic 2-opt reversals.

    Greedy appends the child that is cheapest to reach next, ties to the
    lowest index, and keeps the order's forward min-plus vectors. 2-opt is
    first-improvement in lexicographic (i, j) order, for at most four rounds:
    reversing order[i..j] is taken as soon as it scores more than 1e-12 below
    the current order, and the scan goes on at (i, j + 1) against the new
    order.

    One pass scores every reversal after the scan position at once. Its rows
    are the reversals in lexicographic order, so sorted by i; row (i, j) joins
    at step max(i, 1) from the current order's forward vector at i - 1 (from
    entry[order[j]] when i = 0), and the rows live at step t are a prefix of
    the batch, which takes k min-plus steps. The first row that improves is
    taken and its forward vectors become the order's, for the next pass to
    start from. Each score is the same prefix vector followed by the same
    float additions as scoring that reversal alone, and min does not round,
    so the batched scores, and the moves taken, equal the one-at-a-time scan's.
    A step gathers its hops as ``[x, row, y]`` from ``hop`` laid out
    ``[x, (from, to), y]``, adds the rows' vectors and takes the min over that
    leading exit axis, not over a short middle axis of ``[row, x, y]``.
    """
    k, m = entry.shape
    remaining = list(range(k))
    order, vecs = [], []
    while remaining:
        if not vecs:
            costs = np.min(entry[remaining], axis=1)
        else:
            costs = np.min(vecs[-1][:, None] + hop[order[-1], remaining], axis=(1, 2))
        pick = 0
        for c in range(1, len(remaining)):
            if costs[c] < costs[pick] - 1e-15:
                pick = c
        cj = remaining.pop(pick)
        vecs.append(entry[cj] if not vecs
                    else np.min(vecs[-1][:, None] + hop[order[-1], cj], axis=0))
        order.append(cj)

    order, vecs = np.array(order), np.array(vecs)
    base = np.min(vecs[-1] + close[order[-1]])
    lo, hi = np.triu_indices(k, 1)                  # every reversal, lexicographic
    steps = np.arange(k)
    inside = (lo[:, None] <= steps) & (steps <= hi[:, None])
    perm = np.where(inside, lo[:, None] + hi[:, None] - steps, steps)
    live = np.searchsorted(lo, steps, side="right")  # rows with i <= t
    into = np.ascontiguousarray(hop.transpose(2, 0, 1, 3)).reshape(m, k * k, m)
    for _ in range(4):
        start, improved = 0, False
        while start < len(lo):
            seqs = order[perm[start:]]
            pairs = seqs[:, :-1] * k + seqs[:, 1:]
            fwd = np.repeat(vecs[None], len(seqs), axis=0)
            live_now = np.maximum(live - start, 0)
            fwd[:live_now[0], 0] = entry[seqs[:live_now[0], 0]]
            for t in range(1, k):
                n = live_now[t]
                if n:
                    step = into.take(pairs[:n, t - 1], axis=1)
                    np.add(fwd[:n, t - 1].T[:, :, None], step, out=step)
                    np.minimum.reduce(step, axis=0, out=fwd[:n, t])
            scores = np.min(fwd[:, -1] + close[seqs[:, -1]], axis=1)
            better = np.flatnonzero(scores < base - 1e-12)
            if not better.size:
                break
            first = int(better[0])
            order, vecs, base = seqs[first], fwd[first], scores[first]
            start += first + 1
            improved = True
        if not improved:
            break
    return order.tolist()


def _tree_children_options(tree: ClusterTree):
    mapping = {(n.level, n.members): [tuple(ch.members for ch in n.children)]
               for n in tree.nodes()}
    return lambda level, members: mapping[level, members]


def make_flat_tree(space: MetricSpace) -> ClusterTree:
    """Single-cluster tree: the whole space as one bottom-level node."""
    root = ClusterNode(level=0, center=0, radius=space.diameter(),
                       members=tuple(range(space.n)))
    return ClusterTree(root=root)


def solve_light_tour(space: MetricSpace, h: NetHierarchy, tree: ClusterTree,
                     m_cap: int, r: int, budget: int = DEFAULT_BUDGET,
                     portal_chooser=None) -> LightTourResult:
    """Minimum-cost crossing-limited closed tour over a fixed cluster tree.

    Bottom-up over the tree: a leaf's segment and an internal node's child
    order are subset paths through portals, one segment per cluster, which
    meets any crossing bound r >= 2. The returned tour is the traceback
    shortcut to visit each point exactly once.
    """
    engine = _Engine(space, h, m_cap, r, budget, _tree_children_options(tree),
                     portal_chooser=portal_chooser)
    return engine.solve_root(tree.root.level, tuple(tree.root.members))


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
    a node's children are its members grouped by their owner one level down,
    in center order.
    """
    levels = [partition_with_radii(space, range(space.n), h, level,
                                   {c: vals[0] for c, vals in samples[level].items()})
              for level in range(h.top + 1)]
    top = levels[h.top].clusters()
    if len(top) != 1:
        raise AssertionError("top-level carve must yield one cluster")
    (center, members), = top.items()
    root = ClusterNode(level=h.top, center=center, radius=levels[h.top].radii[center],
                       members=tuple(members))

    def subdivide(node):
        if node.level == 0:
            return
        part = levels[node.level - 1]
        groups = {}
        for p in node.members:
            groups.setdefault(part.assign_center[p], []).append(p)
        for c in sorted(groups):
            child = ClusterNode(level=part.level, center=c, radius=part.radii[c],
                                members=tuple(groups[c]))
            node.children.append(child)
            subdivide(child)

    subdivide(root)
    return ClusterTree(root=root)


def solve_with_radius_guessing(space: MetricSpace, h: NetHierarchy, guesses: int,
                               m_cap: int, r: int, ddim: float, rng,
                               budget: int = DEFAULT_BUDGET) -> LightTourResult:
    """Crossing-limited tour minimized over per-center radius choices.

    Fixes ``guesses`` independent radius samples per net point per level, then
    extends the table search over the radius choices of the centers whose
    balls can reach each cluster. Radius choices below a cluster are made
    jointly for all of its children, so parent and child subdivisions always
    agree on shared centers. Each cluster's subdivisions are enumerated once
    by :func:`distinct_carvings`, which drops repeated outcomes while it
    enumerates them and yields the rest in first-occurrence product order.
    Identical member sets reached under different choices share table entries.
    One segment crosses each cluster, which meets any crossing bound r >= 2.
    """
    if guesses < 1:
        raise ValueError("guesses must be >= 1")
    samples = draw_radius_samples(h, guesses, ddim, rng)

    def options(level, members):
        return distinct_carvings(space, members, h, level - 1, samples[level - 1])

    engine = _Engine(space, h, m_cap, r, budget, options)
    return engine.solve_root(h.top, tuple(range(space.n)))
