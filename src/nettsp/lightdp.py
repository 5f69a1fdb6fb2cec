"""Portal selection and the crossing-limited dynamic program over cluster trees.

Tour segments may cross a cluster only at its portals, at most m_cap of them.
Each cluster, keyed by (level, member set), is solved once: its matrix of
segment costs over all of its portal pairs, at most m_cap(m_cap + 1)/2 cells,
so identical clusters arising from different radius choices share it. Each
portal pair is one segment, so a tour crosses each cluster twice: it enters
once, visits every member, and leaves. The clusters are solved level by
level from the bottom, as the cluster tree lists them, all of a level's
clusters with k children in one batched pass. A bottom cluster's children
are its points, each its own one portal at cost 0, so every segment is a
child order: a subset path on the one kernel of :mod:`nettsp.oracles` up to
EXACT_PATH_CHILDREN children; above, a greedy order, improved by 2-opt on a
cheap symmetric surrogate and then by exact 2-opt.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible
from .metric import MetricSpace, within
from .nets import NetHierarchy
from .oracles import PULL_BLOCK, subset_path_close, subset_path_table
from .partition import distinct_carvings, partition_with_radii, radius_ppf
from .tours import Tour, _closed_tour, dedupe_visits


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
    """Solver over one cluster tree's clusters, bottom-up one level at a time.

    A cluster's matrix of segment costs over all of its portal pairs (a, b)
    holds the cheapest segment that enters at a, visits every member and
    leaves at b, so the tour crosses the cluster twice. The tree, its list of
    levels as :func:`tree_from_samples` builds it, is the plan: each level is
    solved in turn from the lowest up, in a few batched passes, one per child
    count k over all of the level's (cluster, option) jobs with k children. Per pair, a cluster keeps the first cheapest of its
    options. A pass's stacked tensors (padded record, hop tensor, path
    tables) are locals, gone when it returns. The engine keeps one record per
    cluster, its PortalSet and matrix, plus a trace per finite cell, keyed
    (level, members, a, b).
    """

    EXACT_PATH_CHILDREN = 12

    def __init__(self, space, h, m_cap, tree, portal_chooser=None):
        self.space = space
        self.h = h
        self.m_cap = m_cap
        self.tree = tree
        self.portal_chooser = portal_chooser
        self.D = space.pairwise()
        self.ops = 0               # path table work, k·k·2^k / 8 + 1 per table
        self.entries = 0           # solved cells, plus one per point
        self.trace = {}            # (level, members, a, b) -> (child infos, path) of its cost
        self.nodes = {}            # (level, members) -> (PortalSet, pair-cost matrix)

    def portals(self, level, members):
        if self.portal_chooser is None:
            return auto_portals(self.space, self.h, members, level, self.m_cap)
        chosen = self.portal_chooser(members, level)
        return PortalSet(level=level, portals=tuple(sorted(int(p) for p in chosen)))

    # ------------------------------------------------------------------ table

    def _solve_level(self, level, clusters, root):
        """Solve one level's clusters, given as {members: options}.

        Each cluster's portals are chosen once. Only the pairs a <= b are
        solved, and only a == b for the ``root``; each counts as one entry,
        and gets a trace when its cost is finite. The (cluster, option) jobs
        go to one batched pass per child count; then each cluster merges its
        options' matrices in option order, a later option replacing a cell
        only when strictly cheaper.
        """
        records, groups = {}, {}
        for members, options in clusters.items():
            key = (level, members)
            ps = self.portals(level, members)
            m = len(ps.portals)
            cells = ([(ai, ai) for ai in range(m)] if key == root else
                     [(ai, bi) for ai in range(m) for bi in range(ai, m)])
            records[key] = (ps, cells, len(options))
            for o, children in enumerate(options):
                infos = [(ch,) + self.nodes[level - 1, ch] for ch in children]
                groups.setdefault(len(children), []).append(((key, o), ps.portals, cells, infos))
        solved = {}
        for jobs in groups.values():
            solved.update(zip((job for job, _, _, _ in jobs), self._solve_group(jobs)))
        for key, (ps, cells, n_options) in records.items():
            P = ps.portals
            mat, traces = solved.pop((key, 0))
            for o in range(1, n_options):
                cost, found = solved.pop((key, o))
                better = cost < mat                 # strict: the first option keeps ties
                mat[better] = cost[better]
                traces.update((cell, trace) for cell, trace in found.items() if better[cell])
            self.entries += len(cells)
            mat = np.minimum(mat, mat.T)            # mirrors the cells: inf below them
            for (ai, bi), trace in traces.items():
                self.trace[key + (P[ai], P[bi])] = trace
            self.nodes[key] = (ps, mat)

    # ----------------------------------------------------------- combination

    def _solve_group(self, jobs):
        """Segment costs of jobs (job, P, cells, infos) that all have k children.

        ``cells`` are the (a, b) index pairs of the job's portals P to solve,
        grouped by a. Returns per job the (m x m) cost matrix, inf off the
        cells, and a trace per finite cell. Each segment threads every child
        exactly once (two crossings each). The jobs' children are stacked,
        padded to the group's widest child: padding adds only inf candidates
        and real exits stay a prefix, so no sum, min or argmin moves.

        Up to EXACT_PATH_CHILDREN children, one subset path table per (job,
        entry portal A) sample closes every exit B >= A at once, ties to the
        lowest child, then the lowest exit. The samples go to the kernel in
        stacks whose tables together stay within one table of
        EXACT_PATH_CHILDREN children, and each stack's tables are dropped
        once its cells are traced. Beyond that, the child order of every
        pair of every job comes from a batched search, greedy, then 2-opt on
        a surrogate, then exact 2-opt (:func:`_heuristic_orders`), with exact
        portal assignment per order (the tour stays valid; only the table
        optimality narrows to the explored orders). The whole pass goes to the
        search in one call, each pair with its entry and close matrices.
        """
        k = len(jobs[0][3])
        padded = self._padded([infos for _, _, _, infos in jobs])
        hop = self._hop_matrices(padded)
        close = self._close_matrices([P for _, P, _, _ in jobs], padded)
        cells = [(j, ai, bi) for j, (_, _, job_cells, _) in enumerate(jobs)
                 for ai, bi in job_cells]
        samples = [(j, ai, len(list(group))) for (j, ai), group in
                   itertools.groupby(cells, key=lambda cell: cell[:2])]
        A = [jobs[j][1][ai] for j, ai, _ in samples]
        which = np.array([j for j, _, _ in samples], dtype=np.intp)
        cell_job = np.array([j for j, _, _ in cells], dtype=np.intp)
        cell_b = np.array([bi for _, _, bi in cells], dtype=np.intp)
        traced = []                 # (cells, costs, children, exits), paths first to last
        if k > self.EXACT_PATH_CHILDREN:
            pair_entry = np.repeat(np.arange(len(samples)), [n for _, _, n in samples])
            order, vecs = _heuristic_orders(hop, cell_job,
                                            self._entry_matrices(A, which, padded)[pair_entry],
                                            close[cell_job, cell_b])
            tot = vecs[:, -1] + close[cell_job, cell_b, order[:, -1]]
            exits = np.empty((len(cells), k), dtype=np.intp)
            exits[:, -1] = np.argmin(tot, axis=1)
            for t in range(k - 2, -1, -1):          # every pair's exits, last to first
                exits[:, t] = np.argmin(
                    vecs[:, t] + hop[cell_job, order[:, t], order[:, t + 1], :, exits[:, t + 1]],
                    axis=1)
            traced.append((np.arange(len(cells)), tot[np.arange(len(cells)), exits[:, -1]],
                           order, exits))
        else:
            stack = max(1, (self.EXACT_PATH_CHILDREN << self.EXACT_PATH_CHILDREN) // (k << k))
            first = np.cumsum([0] + [n for _, _, n in samples])   # each sample's first cell
            for s0 in range(0, len(samples), stack):
                s1 = min(len(samples), s0 + stack)
                sample_hop = hop[which[s0:s1]]
                self.ops += (s1 - s0) * (k * k * (1 << k) // 8 + 1)
                table = subset_path_table(
                    self._entry_matrices(A[s0:s1], which[s0:s1], padded), sample_hop)
                ids = np.arange(first[s0], first[s1])
                cs = np.repeat(np.arange(s1 - s0), [n for _, _, n in samples[s0:s1]])
                val, fin, children, exits = subset_path_close(
                    table, sample_hop, close[cell_job[ids], cell_b[ids]], cs)
                traced.append((ids[fin], val[fin], children, exits))
                del table
        width = max(len(P) for _, P, _, _ in jobs)
        cost = np.full((len(jobs), width, width), np.inf)
        found = [{} for _ in jobs]
        for ids, val, children, exits in traced:
            fin = np.isfinite(val)
            ids = ids[fin]
            cost[cell_job[ids], [cells[i][1] for i in ids.tolist()], cell_b[ids]] = val[fin]
            for i, cis, xis in zip(ids.tolist(), children[fin].tolist(), exits[fin].tolist()):
                j, ai, bi = cells[i]
                found[j][ai, bi] = (jobs[j][3], list(zip(cis, xis)))
        return [(cost[j, :len(P), :len(P)], found[j]) for j, (_, P, _, _) in enumerate(jobs)]

    @staticmethod
    def _padded(jobs):
        """Each job's children's portal indices (jobs x k x m), which of them
        are real, and their pair-cost matrices (jobs x k x m x m), padded with
        inf past each child's own portals to the widest child of any job."""
        m = max(len(ps.portals) for infos in jobs for _, ps, _ in infos)
        shape = (len(jobs), len(jobs[0]), m)
        portals = np.zeros(shape, dtype=np.intp)
        valid = np.zeros(shape, dtype=bool)
        cost = np.full(shape + (m,), np.inf)
        for j, infos in enumerate(jobs):
            for ci, (_, ps, mat) in enumerate(infos):
                c = len(ps.portals)
                portals[j, ci, :c] = ps.portals
                valid[j, ci, :c] = True
                cost[j, ci, :c, :c] = mat
        return portals, valid, cost

    def _hop_matrices(self, padded):
        """hop[j, ci, cj, x, y] = in job j, leave ci at exit x, enter cj anywhere, exit at y.

        A running min over the entry portals e of D[exit x of ci, portal e of
        cj] + cost[j, cj, e, y]. Padded exits and entries, and hops from a
        child to itself, are inf.
        """
        portals, valid, cost = padded
        n, k, m = portals.shape
        hop, step = np.empty((n, k, k, m, m)), np.empty((n, k, k, m, m))
        for e in range(m):
            np.add(self.D[portals[:, :, None, :], portals[:, None, :, e, None]][..., None],
                   cost[:, None, :, None, e], out=hop if e == 0 else step)
            if e:
                np.minimum(hop, step, out=hop)
        hop.transpose(0, 1, 3, 2, 4)[~valid] = np.inf
        hop[:, np.arange(k), np.arange(k)] = np.inf
        return hop

    def _entry_matrices(self, A, which, padded):
        """entry[s, ci, y] = enter child ci of job which[s] from point A[s], exit
        at portal y (inf past its portals)."""
        portals, _, cost = padded
        return (self.D[np.asarray(A, dtype=np.intp)[:, None, None], portals[which]][..., None]
                + cost[which]).min(axis=2)

    def _close_matrices(self, Ps, padded):
        """close[j, b, ci, x] = D[exit portal x of child ci of job j, Ps[j][b]]
        (inf past the child's portals; rows b past the job's own are unused)."""
        portals, valid, _ = padded
        P = np.zeros((len(Ps), max(map(len, Ps))), dtype=np.intp)
        for j, Pj in enumerate(Ps):
            P[j, :len(Pj)] = Pj
        return np.where(valid[:, None], self.D[portals[:, None], P[:, :, None, None]], np.inf)

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

    def solve_root(self):
        """Solve the tree, level by level from the bottom, and trace the
        root's first cheapest closed tour through one of its portals."""
        (members,) = self.tree[-1]
        root = (len(self.tree) - 1, members)
        # Points (level -1) first, one entry each: a point is its own one
        # portal, with a segment of cost 0.
        for p in members:
            self.nodes[-1, (p,)] = (PortalSet(level=-1, portals=(p,)), np.zeros((1, 1)))
        self.entries += len(members)
        for level, clusters in enumerate(self.tree):
            self._solve_level(level, clusters, root)
        ps, mat = self.nodes[root]
        costs = np.diag(mat)
        if not np.isfinite(costs).any():
            raise Infeasible("no valid closed tour through the root portals")
        ai = int(np.argmin(costs))                  # the first cheapest portal
        best_cost = float(costs[ai])
        raw = _closed_tour(self.expand(root + (ps.portals[ai], ps.portals[ai])))
        tour = dedupe_visits(raw)
        missing = set(members) - tour.visits()
        if missing:
            raise Infeasible(f"tour misses points {sorted(missing)}")
        return LightTourResult(tour=tour, cost=best_cost, raw=raw,
                               stats={"entries": self.entries, "ops": self.ops})


def _heuristic_orders(hop, owner, entries, closes):
    """Greedy insertion orders improved by deterministic 2-opt, first on a
    surrogate and then exactly, for every pair p of entry matrix entries[p]
    and close matrix closes[p] (pairs x k x m) through the children of
    cluster owner[p], whose hops are hop[owner[p]]; returns the pairs' orders
    (pairs x k) and their forward min-plus vectors (pairs x k x m).

    Greedy (:func:`_greedy_orders`) depends only on the cluster and the
    entry matrix, so it runs once per distinct pair of them. Each greedy
    order then goes to :func:`_surrogate_orders`, 2-opt to convergence at
    O(1) per move, and its order is every pair's start, scored in one
    batched pass of forward vectors. From there the exact 2-opt is, per
    pair, first-improvement in lexicographic (i, j) order, for at most four
    rounds: reversing order[i..j] is taken as soon as it scores more than
    1e-12 below the current order, and the scan goes on at (i, j + 1)
    against the new order.

    The pairs run their passes in lockstep. A pass first bounds every
    remaining reversal row (i, j) of every active pair from below by
    :func:`_reversal_bounds`, and drops each row whose bound times
    (1 - 1e-9) is not below the pair's score less 1e-12: the bound sums
    non-negative floats, exact within about k ulps, so such a row cannot
    improve on the order. The kept rows are merged by i with a stable sort,
    so the rows live at step t (those with i <= t) are a prefix; row (i, j)
    joins at step max(i, 1) from its pair's forward vector at i - 1 (from
    entry[order[j]] when i = 0). A row's child at step t is order[i + j - t]
    inside the reversed span and order[t] outside it, built for one block of
    kept rows at a time. Each row rolls one (m,) vector through the k
    min-plus steps, in blocks of at most PULL_BLOCK floats: a step gathers
    the rows' hops as ``[x, row, y]`` from ``hop`` laid out
    ``[x, (cluster, from, to), y]``, adds the rows' vectors and takes the
    min over the leading exit axis x. Each pair then takes its own first
    improving row and restarts after it; only the winners' forward vectors
    are rebuilt, in a second batched pass along their new orders. A dropped
    row is never a pair's first improving row, every score is the same
    prefix vector followed by the same float additions as scoring that
    reversal alone, and min does not round, so from the surrogate start the
    orders equal the one-reversal-at-a-time scan's.
    """
    _, k, _, m, _ = hop.shape
    owner = np.asarray(owner, dtype=np.int32)
    into = np.ascontiguousarray(hop.transpose(3, 0, 1, 2, 4)).reshape(m, -1, m)
    E, C = np.asarray(entries), np.asarray(closes)
    npairs = len(E)
    lo, hi = (a.astype(np.int32) for a in np.triu_indices(k, 1))   # every reversal, in order
    rows_per_block = max(1, min(PULL_BLOCK // (m * m), npairs * len(lo)))
    buf = np.empty(m * m * rows_per_block)

    def advance(cur, idx, n):
        """cur[:n] one min-plus step along the (cluster, from, to) hops idx[:n], blocked."""
        for b0 in range(0, n, rows_per_block):
            b1 = min(n, b0 + rows_per_block)
            step = buf[:m * m * (b1 - b0)].reshape(m, b1 - b0, m)
            into.take(idx[b0:b1], axis=1, out=step)
            np.add(cur[b0:b1].T[:, :, None], step, out=step)
            np.minimum.reduce(step, axis=0, out=cur[b0:b1])

    def steps(g, seqs):
        """Row t - 1: each sequence's (cluster, from, to) hop into its step t."""
        return np.ascontiguousarray(((g[:, None] * k + seqs[:, :-1]) * k + seqs[:, 1:]).T)

    def forward(p, seqs):
        """The forward vectors (rows x k x m) of pairs p along orders seqs, batched."""
        hops = steps(owner[p], seqs)
        fwd = E[p, seqs[:, 0]]
        out = np.empty((len(p), k, m))
        out[:, 0] = fwd
        for t in range(1, k):
            advance(fwd, hops[t - 1], len(p))
            out[:, t] = fwd
        return out

    def score(p, seqs, fwd):
        """Each pair's cheapest close after its order seqs, whose forward vectors are fwd."""
        return np.min(fwd[:, -1] + C[p, seqs[:, -1]], axis=1)

    distinct = {}                                   # (cluster, entry) -> its greedy row
    of_pair = np.array([distinct.setdefault((g, entry.tobytes()), len(distinct))
                        for g, entry in zip(owner.tolist(), E)])
    rep = np.unique(of_pair, return_index=True)[1]
    mh = hop.min(axis=(3, 4))                       # (cluster, from, to) over both exits
    least_entry, least_close = E.min(axis=2), C.min(axis=2)
    orders = _surrogate_orders(mh, owner, least_entry, least_close,
                               _greedy_orders(hop, owner[rep], E[rep])[of_pair])
    vecs = forward(np.arange(npairs), orders)
    base = score(np.arange(npairs), orders, vecs)

    t_all = np.arange(k, dtype=np.int32)
    start = np.zeros(npairs, dtype=np.intp)
    rounds = np.zeros(npairs, dtype=np.int32)
    improved = np.zeros(npairs, dtype=bool)
    active = np.ones(npairs, dtype=bool)

    while active.any():
        act = np.flatnonzero(active)
        local = np.repeat(np.arange(len(act)), len(lo) - start[act])
        rev = np.concatenate([np.arange(start[p], len(lo)) for p in act])
        bound = _reversal_bounds(mh[owner[act]], orders[act], vecs[act], least_entry[act],
                                 least_close[act], local, lo[rev], hi[rev])
        kept = ~(bound * (1 - 1e-9) >= base[act[local]] - 1e-12)
        row_owner, rev = act[local[kept]], rev[kept]
        merged = np.argsort(lo[rev], kind="stable")
        row_owner, rev = row_owner[merged], rev[merged]
        i, j = lo[rev], hi[rev]
        live = np.searchsorted(i, t_all, side="right")       # rows with i <= t
        scores = np.empty(len(rev))
        for r0 in range(0, len(rev), rows_per_block):      # one block per step
            p = row_owner[r0:r0 + rows_per_block]
            n = np.clip(live - r0, 0, len(p)).tolist()
            seqs = _reversed_orders(orders, p, i[r0:r0 + len(p)], j[r0:r0 + len(p)])
            hops = steps(owner[p], seqs)
            cur = vecs[p, np.maximum(i[r0:r0 + len(p)] - 1, 0)]   # joins at step max(i, 1)
            cur[:n[0]] = E[p[:n[0]], seqs[:n[0], 0]]
            for t in range(1, k):
                if n[t]:
                    advance(cur, hops[t - 1], n[t])
            scores[r0:r0 + len(p)] = np.min(cur + C[p, seqs[:, -1]], axis=1)
            del seqs, hops, cur
        better = np.flatnonzero(scores < base[row_owner] - 1e-12)
        won, first = np.unique(row_owner[better], return_index=True)
        rows = better[first]
        orders[won] = _reversed_orders(orders, won, i[rows], j[rows])
        base[won] = scores[rows]
        start[won] = rev[rows] + 1
        improved[won] = True
        vecs[won] = forward(won, orders[won])       # the winners' forward vectors, rebuilt
        ended = active.copy()
        ended[won] = start[won] >= len(lo)
        again = ended & improved & (rounds < 3)     # at most four rounds
        active[ended & ~again] = False
        rounds[again] += 1
        start[again] = 0
        improved[again] = False
    return orders, vecs


def _reversed_orders(orders, p, i, j):
    """orders[p] with [i..j] reversed, per row: order[i + j - t] inside the span."""
    t = np.arange(orders.shape[1], dtype=i.dtype)
    i, j = i[:, None], j[:, None]
    return orders[p[:, None], np.where((i <= t) & (t <= j), i + j - t, t)]


def _surrogate_orders(mh, owner, head, tail, orders):
    """Best-improvement 2-opt to convergence on a symmetric surrogate, for every
    row r of ``orders`` (rows x k), a child order of cluster owner[r]: the
    improved orders.

    The surrogate link between children a and b is (mh[g, a, b] + mh[g, b,
    a]) / 2 for the row's cluster g, where mh holds each cluster's least hops
    over both exits; the order starts at head[r] of its first child (its
    least entry cost) and ends at tail[r] of its last (its least close cost).
    The link is symmetric, so reversing order[i..j] changes only the two
    links at its boundaries: the one into order[i], or the entry end when
    i = 0, and the one out of order[j], or the close end when j = k - 1. Each
    pass takes, per row, the reversal whose new boundary sum is below the old
    one less 1e-12 by the most, ties to the lowest (i, j) in
    ``np.triu_indices`` order, and a row stops when no reversal is.
    The rows run in lockstep over one (rows x reversals) gain array. The sums
    are compared, and a gain is taken only where the new sum is the lower, so
    inf links and ends give no NaN; each move lowers the count of inf links
    or keeps it and lowers the finite sum, so the passes end.
    """
    rows, k = orders.shape
    lo, hi = (a.astype(np.int32) for a in np.triu_indices(k, 1))
    # Each row runs from S = k through its order to T = k + 1. links[r] holds
    # the links among the children, from S into each child (its head) and
    # from each child into T (its tail).
    links = np.full((rows, k + 2, k + 2), np.inf)
    links[:, :k, :k] = (mh + mh.transpose(0, 2, 1))[owner] / 2
    links[:, k, :k] = head
    links[:, :k, k + 1] = tail
    seq = np.empty((rows, k + 2), dtype=orders.dtype)
    seq[:, 0], seq[:, 1:-1], seq[:, -1] = k, orders, k + 1
    live = np.arange(rows)
    while len(live):
        s, x = seq[live], live[:, None]
        along = links[x, s[:, :-1], s[:, 1:]]      # along[t]: into order[t], or out to T at k
        old = along[:, lo] + along[:, hi + 1]
        new = links[x, s[:, lo], s[:, hi + 1]] + links[x, s[:, lo + 1], s[:, hi + 2]]
        better = new < old - 1e-12
        gain = np.subtract(old, new, out=np.full(old.shape, -np.inf), where=better)
        best = np.argmax(gain, axis=1)             # the first largest gain
        moving = better[np.arange(len(live)), best]
        live, best = live[moving], best[moving]
        seq[live] = _reversed_orders(seq, live, lo[best] + 1, hi[best] + 1)
    return seq[:, 1:-1]


def _greedy_orders(hop, owner, entries):
    """Greedy insertion orders (int32, rows x k), one row per (cluster
    owner[r], entry matrix entries[r]), in lockstep.

    Each step appends the child that is cheapest to reach next, ties to the
    lowest index; when no remaining child is reachable, the lowest remaining
    one. A child's cost is the min over both exits of the row's forward
    vector plus the hop, the same sums as one order built alone.
    """
    rows, k, _ = entries.shape
    r = np.arange(rows)
    taken = np.zeros((rows, k), dtype=bool)
    orders = np.empty((rows, k), dtype=np.int32)
    costs = entries.min(axis=2)
    for t in range(k):
        if t:
            h = hop[owner, orders[:, t - 1]]                    # (rows, to, x, y)
            costs = np.min(vec[:, None, :, None] + h, axis=(2, 3))
            costs[taken] = np.inf
        c = np.argmin(costs, axis=1)
        c = np.where(np.isfinite(costs[r, c]), c, np.argmin(taken, axis=1))
        orders[:, t] = c
        taken[r, c] = True
        vec = entries[r, c] if t == 0 else np.min(vec[:, :, None] + h[r, c], axis=1)
    return orders


def _reversal_bounds(mh, order, vecs, least_entry, least_close, q, i, j):
    """A lower bound on the score of reversing order[q][i..j], per row (q, i, j).

    Per pair q: mh[q] is the least hop between two children over both exits,
    order[q] the current child order, vecs[q] its forward vectors, and
    least_entry[q] and least_close[q] each child's least entry and close
    cost. The bound is the head, the least entry to order[j] (i = 0) or the
    least forward vector at i - 1 plus the mh hop to order[j]; then the mh
    hops along the reversed span; then the tail, the mh hop to order[j + 1]
    and along the rest of the order plus the least close of order[-1], or the
    least close of order[i] when j is last. Sums run from each span's start
    and from the order's end, so no difference of sums is taken.
    """
    k = order.shape[1]
    t = np.arange(k)
    pairs = np.arange(len(order))[:, None]
    fwd = mh[pairs, order[:, :-1], order[:, 1:]]           # along the order
    back = mh[pairs, order[:, 1:], order[:, :-1]]          # along each link reversed
    rest = np.zeros((len(order), k))                        # rest[t]: fwd[t:] summed
    rest[:, :-1] = np.cumsum(fwd[:, ::-1], axis=1)[:, ::-1]
    span = np.where(t[:-1] >= t[:, None], back[:, None, :], 0.0)
    np.cumsum(span, axis=2, out=span)                      # span[i, u]: back[i..u] summed
    oi, oj = order[q, i], order[q, j]
    before = np.maximum(i - 1, 0)
    head = np.where(i == 0, least_entry[q, oj],
                    vecs[q, before].min(axis=1) + mh[q, order[q, before], oj])
    after = np.minimum(j + 1, k - 1)
    tail = np.where(j < k - 1, mh[q, oi, order[q, after]] + rest[q, after]
                    + least_close[q, order[q, -1]], least_close[q, oi])
    return head + span[q, i, j - 1] + tail


def make_flat_tree(space: MetricSpace) -> list:
    """Single-cluster tree: a one-level plan, the whole space as one
    bottom-level cluster whose one option is its points."""
    members = tuple(range(space.n))
    return [{members: [tuple((p,) for p in members)]}]


def solve_light_tour(space: MetricSpace, h: NetHierarchy, tree: list,
                     m_cap: int, portal_chooser=None) -> LightTourResult:
    """Minimum-cost crossing-limited closed tour over a cluster tree: the
    DP's one entry point.

    Bottom-up over the tree, one segment, two crossings, per cluster: each
    segment is an order of the children of one of the cluster's options
    through their portals, and a leaf's children are its points. Per portal
    pair a cluster keeps its first cheapest option. A ``portal_chooser``,
    when given, maps (members, level) to each cluster's portals in place of
    :func:`auto_portals`. The returned tour is the traceback shortcut to
    visit each point exactly once.
    """
    return _Engine(space, h, m_cap, tree, portal_chooser=portal_chooser).solve_root()


def draw_radius_samples(h: NetHierarchy, guesses: int, ddim: float, rng) -> list:
    """Per level, a (centers x guesses) array of radii for the centers of
    ``h.net(level)``, filled row by row from ``rng`` in (level, center,
    guess) order."""
    if not ddim >= 1:
        raise ValueError(f"need ddim >= 1, got {ddim!r}")
    return [radius_ppf(h.radius(level), ddim, rng.random((len(h.net(level)), guesses)))
            for level in range(h.top + 1)]


def tree_from_samples(space: MetricSpace, h: NetHierarchy, samples: list) -> list:
    """The cluster tree of every radius choice in ``samples``: the DP's
    per-level plan, filled top down.

    The plan is a list of levels from the bottom up. Its entry i maps each
    level-i cluster that some choice reaches from the root, keyed by its
    member tuple, to its list of children options: one per distinct carving
    of its members one level down, each the sorted tuple of the children's
    member tuples, as :func:`distinct_carvings` lists them, so ties break
    alike. A level-0 cluster's one option is its points; the top level holds
    the root alone. Each level's clusters get their options from the next
    level's radii, and the next level's clusters are the distinct children
    of those options.

    With one radius per center, the level below is carved once over all
    points: a point's cluster is the first center in carving order whose
    ball holds it, whatever subset is carved, so each cluster's one option
    is its members grouped by their owner. With several, each cluster's
    options are its :func:`distinct_carvings`, whose walk reads the
    distances to every center of the level per cluster: at one radius that
    was 3.14 s against the whole-level carve's 0.024 s on uniform2d n = 1000
    (2-core host).
    """
    clusters = [tuple(range(space.n))]
    levels = []                    # top down
    for level in range(h.top, 0, -1):
        radii = samples[level - 1]
        if radii.shape[1] > 1:
            options = {members: distinct_carvings(space, members, h, level - 1, radii)
                       for members in clusters}
        else:
            owner = partition_with_radii(space, range(space.n), h, level - 1,
                                         radii[:, 0]).assign_center
            options = {}
            for members in clusters:
                groups = {}
                for p in members:
                    groups.setdefault(owner[p], []).append(p)
                # disjoint and filled in member order, the groups come out sorted
                options[members] = [tuple(map(tuple, groups.values()))]
        levels.append(options)
        clusters = list(dict.fromkeys(ch for opts in options.values()
                                      for kids in opts for ch in kids))
    levels.append({members: [tuple((p,) for p in members)] for members in clusters})
    return levels[::-1]


def solve_with_radius_guessing(space: MetricSpace, h: NetHierarchy, guesses: int,
                               m_cap: int, ddim: float, rng) -> LightTourResult:
    """Crossing-limited tour minimized over per-center radius choices.

    Draws ``guesses`` independent radii per net point per level, builds the
    cluster tree of every choice with :func:`tree_from_samples`, and solves
    it with :func:`solve_light_tour`. Radius choices below a cluster are
    made jointly for all of its children, so parent and child subdivisions
    always agree on shared centers. Identical member sets reached under
    different choices are one cluster, solved once.
    """
    samples = draw_radius_samples(h, guesses, ddim, rng)
    return solve_light_tour(space, h, tree_from_samples(space, h, samples), m_cap)
