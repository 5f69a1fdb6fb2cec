"""Portal selection and the crossing-limited dynamic program over cluster trees.

Tour segments may cross a cluster only at its portals and only a bounded
number of times. The table is keyed by (level, member set, portal
configuration), so identical clusters arising from different radius choices
share entries. Interface graphs joining child segments are restricted to
degree-valid matchings; connectivity of every parent segment is enforced by
the path-building construction itself, which cannot close a stray cycle.
"""

from __future__ import annotations

import functools
import itertools
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
MAX_CHILDREN = 26        # children per combine under multi-pair enumeration (r >= 4)


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


def choose_portals(space: MetricSpace, h: NetHierarchy, members, level: int, M) -> PortalSet:
    """Portals at pitch s^level / M for a cluster given by ``members``.

    M must be a power of s with M >= s. When the pitch falls below the minimum
    interpoint distance the portals are exactly the cluster points.
    """
    mu = round(math.log(M) / math.log(h.s))
    if mu < 1 or abs(h.s ** mu - M) > 1e-6 * max(1.0, M):
        raise ValueError("M must be a power of s with M >= s")
    members = tuple(sorted(int(p) for p in members))
    j = level - mu
    if j < 0:
        return PortalSet(level=level, pitch_level=j, pitch=float(h.s) ** j,
                         portals=members, mandatory=tuple(True for _ in members))
    net = h.net(j)
    pitch = h.radius(j)
    d = space.pairwise(net, members).min(axis=1)
    keep = net[d <= pitch + REL_TOL * max(1.0, pitch)]
    mset = set(members)
    portals = tuple(int(p) for p in keep)
    return PortalSet(level=level, pitch_level=j, pitch=pitch, portals=portals,
                     mandatory=tuple(p in mset for p in portals))


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


def _pairs_of(portals):
    return [(a, b) for ai, a in enumerate(portals) for b in portals[ai:]]


class _Engine:
    """Memoized solver over (level, members, config) keys."""

    def __init__(self, space, h, m_cap, r, budget, children_options, portal_chooser=None):
        if r < 2:
            raise ValueError("r must be at least 2")
        self.space = space
        self.h = h
        self.m_cap = max(1, int(m_cap))
        self.r = int(r)
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
                c, t = self._combine(level, members, tuple(children), config)
                if c < cost:
                    cost, tr = c, t
        self.memo[key] = cost
        if tr is not None:
            self.trace[key] = tr
        return cost

    # ------------------------------------------------------------------- leaf

    def _leaf(self, members, config):
        """Exact segment cover of a bottom cluster.

        Members not serving as segment endpoints are distributed over the
        segments by a (pair index, visited mask, last point) DP, minimized
        over segment orientations.
        """
        D = self.D
        pairs = list(config)
        k = len(pairs)
        covered = set()
        for a, b in pairs:
            covered.add(a)
            covered.add(b)
        rest = [p for p in members if p not in covered]
        t = len(rest)
        full = (1 << t) - 1
        orient_space = [(0, 1) if a != b else (0,) for a, b in pairs]
        best_cost = math.inf
        best_rec = None
        for ori in itertools.product(*orient_space):
            self.charge(max(1, k * (1 << t) * (t + 1)))
            starts = [(a if o == 0 else b) for (a, b), o in zip(pairs, ori)]
            ends = [(b if o == 0 else a) for (a, b), o in zip(pairs, ori)]
            dp = {(0, 0, starts[0]): 0.0}
            par = {}
            # States expand monotonically in (pair index, mask); plain dict
            # relaxation with a worklist is enough at leaf sizes.
            work = list(dp.keys())
            while work:
                state = work.pop()
                base = dp[state]
                j, mask, last = state
                # extend current segment
                for idx in range(t):
                    if mask & (1 << idx):
                        continue
                    nxt = (j, mask | (1 << idx), rest[idx])
                    w = base + D[last, rest[idx]]
                    if w < dp.get(nxt, math.inf) - 1e-15:
                        dp[nxt] = w
                        par[nxt] = (state, ("move", idx))
                        work.append(nxt)
                # close current segment
                w = base + D[last, ends[j]]
                if j + 1 < k:
                    nxt = (j + 1, mask, starts[j + 1])
                    if w < dp.get(nxt, math.inf) - 1e-15:
                        dp[nxt] = w
                        par[nxt] = (state, ("close",))
                        work.append(nxt)
                elif mask == full:
                    nxt = (k, full, -1)
                    if w < dp.get(nxt, math.inf) - 1e-15:
                        dp[nxt] = w
                        par[nxt] = (state, ("close",))
            final = (k, full, -1)
            if final in dp and dp[final] < best_cost:
                best_cost = dp[final]
                # walk parents to recover per-segment member orders
                seqs = [[] for _ in range(k)]
                cur = final
                while cur in par:
                    prev, action = par[cur]
                    if action[0] == "move":
                        seqs[prev[0]].append(rest[action[1]])
                    cur = prev
                segments = []
                for j in range(k):
                    inner = list(reversed(seqs[j]))
                    seg = [starts[j]] + inner + [ends[j]]
                    if ori[j] == 1:
                        seg = list(reversed(seg))
                    segments.append(seg)
                best_rec = ("leaf", segments)
        return best_cost, best_rec

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

    def _combine(self, level, members, children, config):
        if len(config) == 1 and self.r == 2:
            return self._combine_path(level, members, children, config)
        return self._combine_general(level, members, children, config)

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

    def _child_config_options(self, level, children):
        """Finite-cost configs per child, every size up to r // 2 pairs,
        sorted cheapest first for branch-and-bound pruning."""
        out = []
        max_pairs = max(1, self.r // 2)
        for ch in children:
            ps = self.portals(level - 1, ch)
            pair_list = _pairs_of(ps.portals)
            opts = []
            for size in range(1, max_pairs + 1):
                for combo in itertools.combinations_with_replacement(pair_list, size):
                    cfg = tuple(sorted(combo))
                    self.charge()
                    c = self.best(level - 1, ch, cfg)
                    if math.isfinite(c):
                        opts.append((cfg, c))
            if not opts:
                return None
            opts.sort(key=lambda t: t[1])
            out.append(opts)
        return out

    def _combine_general(self, level, members, children, config):
        """Branch-and-bound interface enumeration for multi-pair configurations.

        Parent segments are threaded one child segment at a time; a child
        commits to a config the first time one of its segments is used and
        must spend all of that config's segments before the node closes.
        Threading cannot close a stray cycle, so exactly the degree-valid
        connected decompositions are explored. Uncommitted children are
        admissibly lower-bounded by their cheapest config.
        """
        if len(children) > MAX_CHILDREN:
            raise BudgetExceeded(f"{len(children)} children exceed the ceiling {MAX_CHILDREN}")
        options = self._child_config_options(level, children)
        if options is None:
            return math.inf, None
        D = self.D
        k = len(children)
        min_cost = [opts[0][1] for opts in options]
        pairs = list(config)
        best = {"cost": math.inf, "trace": None}
        if len(pairs) == 1:
            # The single-entry-per-child solution is valid for every r >= 2;
            # it seeds the bound so pruning bites from the start.
            c0, t0 = self._combine_path(level, members, children, config)
            best["cost"], best["trace"] = c0, t0
        committed = [None] * k          # (cfg_index, used_flags) once touched
        walks_acc = []
        dominated = {}

        def lower_bound():
            return sum(min_cost[ci] for ci in range(k) if committed[ci] is None)

        def all_spent():
            return all(c is not None and all(c[1]) for c in committed)

        def state_sig(pair_idx, pos):
            sig = tuple((c[0], tuple(c[1])) if c is not None else None for c in committed)
            return (pair_idx, pos, sig)

        def use_segments(ci, pair_idx, pos, acc_cost, cur_walk):
            ci_idx, used = committed[ci]
            cfg = options[ci][ci_idx][0]
            seen = set()
            for pidx, (a, b) in enumerate(cfg):
                if used[pidx] or (a, b) in seen:
                    continue
                seen.add((a, b))
                used[pidx] = True
                ckey = (level - 1, children[ci], cfg)
                for e, x in (((a, b), (b, a)) if a != b else ((a, b),)):
                    cur_walk.append((ckey, pidx, e != a))
                    thread(pair_idx, x, acc_cost + D[pos, e], cur_walk)
                    cur_walk.pop()
                used[pidx] = False

        def thread(pair_idx, pos, acc_cost, cur_walk):
            self.charge()
            if acc_cost + lower_bound() >= best["cost"]:
                return
            sig = state_sig(pair_idx, pos)
            prev = dominated.get(sig)
            if prev is not None and acc_cost >= prev - 1e-12:
                return
            dominated[sig] = acc_cost
            A, B = pairs[pair_idx]
            close_cost = acc_cost + D[pos, B]
            if pair_idx + 1 < len(pairs):
                walks_acc.append((A, list(cur_walk), B))
                thread(pair_idx + 1, pairs[pair_idx + 1][0], close_cost, [])
                walks_acc.pop()
            elif all_spent() and close_cost < best["cost"]:
                best["cost"] = close_cost
                best["trace"] = ("combine", walks_acc + [(A, list(cur_walk), B)])
            for ci in range(k):
                if committed[ci] is None:
                    lb_rest = lower_bound() - min_cost[ci]
                    for oi, (cfg, base) in enumerate(options[ci]):
                        if acc_cost + base + lb_rest >= best["cost"]:
                            break
                        committed[ci] = (oi, [False] * len(cfg))
                        use_segments(ci, pair_idx, pos, acc_cost + base, cur_walk)
                        committed[ci] = None
                else:
                    use_segments(ci, pair_idx, pos, acc_cost, cur_walk)

        thread(0, pairs[0][0], 0.0, [])
        return best["cost"], best["trace"]

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
    """
    k = len(entry)
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
    for _ in range(4):
        start, improved = 0, False
        while start < len(lo):
            seqs = order[perm[start:]]
            fwd = np.repeat(vecs[None], len(seqs), axis=0)
            live_now = np.maximum(live - start, 0)
            fwd[:live_now[0], 0] = entry[seqs[:live_now[0], 0]]
            for t in range(1, k):
                n = live_now[t]
                if n:
                    fwd[:n, t] = np.min(fwd[:n, t - 1, :, None] + hop[seqs[:n, t - 1], seqs[:n, t]],
                                        axis=1)
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


def make_flat_tree(space: MetricSpace, s: float = 6.0) -> ClusterTree:
    """Single-cluster tree: the whole space as one bottom-level node."""
    root = ClusterNode(level=0, center=0, radius=space.diameter(),
                       members=tuple(range(space.n)))
    return ClusterTree(root=root, s=s)


def solve_light_tour(space: MetricSpace, h: NetHierarchy, tree: ClusterTree,
                     m_cap: int, r: int, budget: int = DEFAULT_BUDGET,
                     portal_chooser=None) -> LightTourResult:
    """Minimum-cost crossing-limited closed tour over a fixed cluster tree.

    Bottom-up over the tree: leaves enumerate exact segment covers, internal
    nodes stitch child segments through portals. The returned tour is the
    traceback shortcut to visit each point exactly once.
    """
    engine = _Engine(space, h, m_cap, r, budget, _tree_children_options(tree),
                     portal_chooser=portal_chooser)
    return engine.solve_root(tree.root.level, tuple(tree.root.members))


def draw_radius_samples(space: MetricSpace, h: NetHierarchy, guesses: int,
                        ddim: float, rng) -> dict:
    """guesses radii per (level, center), drawn in deterministic order."""
    samples = {}
    for level in range(h.top + 1):
        a = h.radius(level)
        samples[level] = {
            int(c): [sample_radius(a, ddim, rng) for _ in range(guesses)]
            for c in h.net(level)
        }
    return samples


def tree_from_samples(space: MetricSpace, h: NetHierarchy, samples: dict,
                      pick=None) -> ClusterTree:
    """Cluster tree induced by choosing sample ``pick[(level, center)]`` (default 0)."""
    pick = pick or {}

    def radii_at(level):
        return {c: vals[pick.get((level, c), 0)] for c, vals in samples[level].items()}

    all_points = tuple(range(space.n))
    top = partition_with_radii(space, all_points, h, h.top, radii_at(h.top))
    clusters = top.clusters()
    if len(clusters) != 1:
        raise AssertionError("top-level carve must yield one cluster")
    center, mem = next(iter(clusters.items()))
    root = ClusterNode(level=h.top, center=center, radius=top.radii[center],
                       members=tuple(mem))

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
    return ClusterTree(root=root, s=h.s)


def solve_with_radius_guessing(space: MetricSpace, h: NetHierarchy, guesses: int,
                               m_cap: int, r: int, ddim: float, rng,
                               budget: int = DEFAULT_BUDGET,
                               portal_chooser=None) -> LightTourResult:
    """Crossing-limited tour minimized over per-center radius choices.

    Fixes ``guesses`` independent radius samples per net point per level, then
    extends the table search over the radius choices of the centers whose
    balls can reach each cluster. Radius choices below a cluster are made
    jointly for all of its children, so parent and child subdivisions always
    agree on shared centers. Each cluster's subdivisions are enumerated once
    by :func:`distinct_carvings`, which drops repeated outcomes while it
    enumerates them and yields the rest in first-occurrence product order.
    Identical member sets reached under different choices share table entries.
    """
    if guesses < 1:
        raise ValueError("guesses must be >= 1")
    samples = draw_radius_samples(space, h, guesses, ddim, rng)

    def options(level, members):
        return distinct_carvings(space, members, h, level - 1, samples[level - 1])

    engine = _Engine(space, h, m_cap, r, budget, options, portal_chooser=portal_chooser)
    return engine.solve_root(h.top, tuple(range(space.n)))
