"""Sparsity testing, dense-region splitting, and the top-level recursive solver.

A tour is q-sparse when no ball of radius 3*s^i around a net point holds tour
edges of total weight above q*s^i. Regions violating the analogous MST
condition get split off: the dense ball plus a boundary layer of net points
is solved by the crossing-limited program directly, the rest is solved
recursively, and the two closed tours are spliced at a shared point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSplit, RecursionLimit
from .lightdp import DEFAULT_BUDGET, solve_with_radius_guessing
from .metric import REL_TOL, MetricSpace, ball, estimate_doubling, restrict
from .nets import NetHierarchy, build_hierarchy
from .tours import Tour, dedupe_visits, edges_weight, mst, tour_weight


@dataclass
class SparsityReport:
    q: float
    passed: bool
    witness: dict = None


def restricted_tour_weight(space: MetricSpace, tour: Tour, inside) -> float:
    """Total weight of tour transitions with both endpoints in ``inside``."""
    iset = set(int(p) for p in inside)
    return float(sum(space.dist(x, y) for x, y in tour.transitions()
                     if x in iset and y in iset))


def is_q_sparse(space: MetricSpace, tour: Tour, h: NetHierarchy, q: float) -> SparsityReport:
    """Check every level and net point; first failure becomes the witness."""
    for level in range(h.top + 1):
        radius = 3 * h.radius(level)
        cap = q * h.radius(level)
        for u in h.net(level):
            inside = ball(space, int(u), radius)
            w = restricted_tour_weight(space, tour, inside)
            if w > cap * (1 + REL_TOL):
                return SparsityReport(q=q, passed=False, witness={
                    "level": level, "center": int(u), "weight": w, "threshold": cap})
    return SparsityReport(q=q, passed=True)


def find_dense_region(space: MetricSpace, h: NetHierarchy, q: float, tree=None):
    """Lowest level holding a point u with w(MST(B(u, 3 s^i))) > 2 q s^i.

    Returns (level, v, q_star) with v the maximizing center (ties to the
    lowest index) and q_star its MST weight over s^i, or None when every ball
    is sparse. A level with 2 w(MST(S)) <= 2 q s^i is skipped unscanned: in a
    metric, the MST of any subset weighs at most twice its Steiner tree, and
    MST(S) is one such tree, so no ball can exceed the cap there. ``tree`` is
    the space's whole MST when the caller has already built it.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    whole = edges_weight(space, mst(space, range(space.n)) if tree is None else tree)
    for level in range(h.top + 1):
        radius = 3 * h.radius(level)
        cap = 2 * q * h.radius(level)
        if 2 * whole <= cap:
            continue
        best_w, best_v = -1.0, None
        for u in range(space.n):
            pts = ball(space, u, radius)
            if len(pts) < 2:
                continue
            w = edges_weight(space, mst(space, pts))
            if w > best_w + REL_TOL * max(1.0, best_w):
                best_w, best_v = w, u
        if best_v is not None and best_w > cap * (1 + REL_TOL):
            return level, best_v, best_w / h.radius(level)
    return None


def _in_annulus(d, r1, r2):
    """Whether distance d lies in the annulus (r1, r2], both rims widened by
    REL_TOL; broadcasts over arrays of distances and radii."""
    return (d > r1 + REL_TOL * np.maximum(1.0, r1)) & (d <= r2 + REL_TOL * np.maximum(1.0, r2))


def annulus_edge_weight(space: MetricSpace, edges, v: int, r1: float, r2: float) -> float:
    """Weight of edges with both endpoints in the annulus around v."""
    row = space.row(v)
    return float(sum(space.dist(a, b) for a, b in edges
                     if _in_annulus(row[a], r1, r2) and _in_annulus(row[b], r1, r2)))


def choose_split_radius(space: MetricSpace, v: int, level: int, delta: float,
                        s: float, candidates: int = 64, tree=None) -> float:
    """Radius in [12 s^i, 13 s^i] whose widened annulus cuts the least MST weight.

    The spanning tree of the whole space stands in for the unknowable optimal
    tour; the grid argmin is no worse than the grid mean, which is all the
    averaging argument needs. Ties go to the smallest radius. Every candidate
    is scored as annulus_edge_weight scores it, from edge weights and
    endpoint distances to v computed once; the selected weights are summed
    in tree order. ``tree`` is the space's whole MST when the caller has
    already built it.
    """
    if delta > 1.0 / 12 + REL_TOL:
        raise ValueError("delta must be at most 1/12")
    si = s ** level
    if tree is None:
        tree = mst(space, range(space.n))
    width = 6 * delta * si
    weights = [space.dist(a, b) for a, b in tree]
    ends = space.row(v)[np.asarray(tree, dtype=np.intp).reshape(-1, 2)]
    heights = (12 * si + (np.arange(candidates) + 0.5) / candidates * si)[:, None, None]
    inside = _in_annulus(ends, heights - width, heights + width).all(axis=2)
    best_h, best_c = None, math.inf
    for hcand, sel in zip(heights.ravel().tolist(), inside):
        c = float(sum(weights[e] for e in np.flatnonzero(sel)))
        if best_h is None or c < best_c - REL_TOL * max(1.0, best_c):
            best_h, best_c = hcand, c
    return float(best_h)


@dataclass
class SplitResult:
    s1: tuple
    s2: tuple
    v: int
    level: int
    h: float
    q_star: float


def _net_points_covering(space, h, level, targets):
    """Net points of the level whose covering balls reach any target point."""
    net = h.net(level)
    if len(targets) == 0:
        return []
    pitch = h.radius(level)
    d = space.pairwise(net, np.asarray(sorted(targets), dtype=np.intp)).min(axis=1)
    return [int(p) for p in net[d <= pitch + REL_TOL * max(1.0, pitch)]]


def split_instance(space: MetricSpace, hier: NetHierarchy, v: int, level: int,
                   split_radius: float, delta: float, eps: float) -> SplitResult:
    """Split around the dense ball B(v, split_radius) with boundary-layer overlap.

    Both sides keep the ball boundary's net points so each side's tour can be
    patched without the other: the inside gains the fine net points covering
    the boundary annulus plus their immediate neighborhoods and the coarse net
    points covering it; the outside gains the inside's coarse net points and
    the boundary net points with their neighborhoods. Net levels are floored
    at 1 for the inside-wide terms, else every inside point would re-enter the
    outside set through the bottom net. Raises DegenerateSplit when the
    outside still ends up being everything.
    """
    s = hier.s
    si = s ** level
    k_level = max(0, min(hier.top, hier.level_of_value(delta * si)))
    j_level = max(1, min(hier.top, hier.level_of_value(eps * delta * si)))
    sk = hier.radius(k_level)

    row = space.row(v)
    all_pts = set(range(space.n))
    inner = {p for p in all_pts if row[p] <= split_radius + REL_TOL * max(1.0, split_radius)}
    outer = all_pts - inner
    if not outer:
        raise DegenerateSplit("dense ball swallowed the whole instance")

    ann_lo = split_radius - delta * si
    ann_hi = split_radius + delta * si
    annulus_pts = {p for p in all_pts
                   if row[p] > ann_lo + REL_TOL and row[p] <= ann_hi + REL_TOL}
    n_h = set(_net_points_covering(space, hier, k_level, annulus_pts))
    near_nh = set()
    if n_h:
        d = space.pairwise(sorted(n_h), np.arange(space.n)).min(axis=0)
        near_nh = {int(p) for p in np.flatnonzero(d <= sk + REL_TOL * max(1.0, sk))}
    j_cover_inner = set(_net_points_covering(space, hier, j_level, inner))
    s1 = inner | n_h | near_nh | j_cover_inner

    j_of_inner = {p for p in inner if hier.in_net(p, j_level)}
    k_boundary = {p for p in inner if hier.in_net(p, k_level) and k_level >= 1
                  and any(space.dist(p, q) <= sk + REL_TOL * max(1.0, sk) for q in outer)}
    k_boundary_balls = set()
    if k_boundary:
        d = space.pairwise(sorted(k_boundary), np.arange(space.n)).min(axis=0)
        k_boundary_balls = {int(p) for p in np.flatnonzero(d <= sk + REL_TOL * max(1.0, sk))}
    s2 = outer | j_of_inner | k_boundary | k_boundary_balls

    if s2 >= all_pts:
        raise DegenerateSplit("outside portion still covers every point")
    if not (s1 | s2) == all_pts:
        raise AssertionError("split lost points")
    if not s1 & s2:
        # Boundary layers came up empty; share the coarse net points of the ball.
        s1 = s1 | j_of_inner
    if not s1 & s2:
        raise DegenerateSplit("no overlap between the split sides")

    pts = ball(space, v, 3 * si)
    q_star = edges_weight(space, mst(space, pts)) / si if len(pts) > 1 else 0.0
    return SplitResult(s1=tuple(sorted(s1)), s2=tuple(sorted(s2)), v=v,
                       level=level, h=split_radius, q_star=q_star)


@dataclass
class SolveParams:
    """Knobs for the end-to-end solver.

    The sparsity threshold q defaults to 64*(s/eps)^2, far below the
    theoretical setting (whose constants make dense splits unreachable at
    this scale); theoretical values are echoed in reports for reference.
    """

    eps: float = 0.05
    s: float = 6.0
    q: float = None
    delta: float = 1.0 / 12
    m_cap: int = 6
    r: int = 2
    guesses: int = 1
    max_recursion_depth: int = 64
    seed: int = 0
    budget: int = DEFAULT_BUDGET
    ddim: float = None             # filled from a doubling estimate when absent

    def __post_init__(self):
        if not 0 < self.eps <= 0.05 + REL_TOL:
            raise ValueError("eps must lie in (0, 1/20]")
        if self.s < 6:
            raise ValueError("s must be at least 6")
        if self.delta > 1.0 / 12 + REL_TOL:
            raise ValueError("delta must be at most 1/12")
        if self.r != 2:
            raise ValueError(f"r must be 2, got {self.r}: the DP routes one segment, two "
                             "crossings, through each cluster, so no other bound is used")
        if self.q is None:
            self.q = 64.0 * (self.s / self.eps) ** 2

    def theoretical_note(self, n: int, ddim: float) -> dict:
        log_n = math.log(max(n, 2))
        m_theory = (8 * math.log(max(n, 2), self.s) * self.s * ddim / self.eps) ** ddim
        return {
            "scale_from_size": max(6.0, log_n ** (1.0 / (32 * ddim))),
            "m_theory": m_theory,
            "q_theory_form": "(s/eps)^O(ddim) * 2^O(ddim^2)",
        }


@dataclass
class LocalBoundsReport:
    inside_weight: float
    mst_weight: float
    upper_bound: float
    upper_holds: bool
    wide_weight: float
    lower_bound: float
    lower_holds: bool


def check_local_tour_bounds(space: MetricSpace, tour: Tour, u: int, radius: float,
                            eps: float, s: float, ddim: float) -> LocalBoundsReport:
    """Compare a tour's local weight against the ball MST from both sides.

    The upper side is guaranteed only for optimal net-respecting tours, so a
    violation is reported rather than raised; the lower side holds whenever
    the additive term dominates.
    """
    pts = ball(space, u, radius)
    mst_w = edges_weight(space, mst(space, pts)) if len(pts) > 1 else 0.0
    inside_w = restricted_tour_weight(space, tour, pts)
    upper = 6 * (1 + 16 * eps) * mst_w
    wide = restricted_tour_weight(space, tour, ball(space, u, 4 * radius))
    lower = mst_w - (s / eps) ** (2 * ddim) * radius
    tol = REL_TOL * max(1.0, upper, abs(lower))
    return LocalBoundsReport(
        inside_weight=inside_w, mst_weight=mst_w, upper_bound=upper,
        upper_holds=inside_w <= upper + tol,
        wide_weight=wide, lower_bound=lower,
        lower_holds=wide >= lower - tol)


def _splice(space: MetricSpace, t1: Tour, t2: Tour, shared) -> Tour:
    """Join two closed tours at the lowest-index shared point, then shortcut."""
    common = sorted(set(shared) & t1.visits() & t2.visits())
    if not common:
        raise AssertionError("no shared point to splice at")
    c = common[0]
    s1 = list(t1.seq)
    s2 = list(t2.seq)
    i1 = s1.index(c)
    i2 = s2.index(c)
    rot1 = s1[i1:] + s1[:i1]
    rot2 = s2[i2:] + s2[:i2]
    return dedupe_visits(Tour(tuple(rot1 + rot2), closed=True))


def solve_tsp(space: MetricSpace, params: SolveParams, tree=None):
    """Sparse/dense recursive solver over a normalized space.

    Sparse instances go straight to the radius-guessing crossing-limited
    program. A dense region is split off, solved by the sparse path, and the
    remainder is solved recursively; the two tours are spliced at a shared
    point at no extra transition cost beyond the reconnection. ``tree`` is
    the space's whole MST when the caller has already built it; the top level
    reuses it.
    """
    rng = np.random.default_rng(params.seed)
    trace = []

    def ddim_for(sub):
        if params.ddim is not None:
            return params.ddim
        return estimate_doubling(sub, audit_balls=24, seed=params.seed).ddim_upper

    def solve_sparse(indices, sub, h, note):
        """Solve the induced sub-instance with its hierarchy; returns a global tour."""
        res = solve_with_radius_guessing(
            sub, h, params.guesses, params.m_cap, params.r,
            ddim_for(sub), rng, budget=params.budget)
        note["mode"] = note.get("mode", "sparse")
        note["cost"] = res.cost
        return Tour(tuple(indices[p] for p in res.tour.seq), closed=True)

    def rec(indices, depth, tree=None):
        if depth > params.max_recursion_depth:
            raise RecursionLimit(f"depth {depth} exceeded")
        indices = tuple(sorted(indices))
        note = {"n": len(indices), "depth": depth}
        trace.append(note)
        if len(indices) == 1:
            note["mode"] = "trivial"
            return Tour((indices[0],), closed=True)
        sub = restrict(space, indices)
        h = build_hierarchy(sub, params.s)
        if tree is None:
            tree = mst(sub, range(sub.n))
        dense = find_dense_region(sub, h, params.q, tree)
        if dense is None:
            return solve_sparse(indices, sub, h, note)
        level, v, q_star = dense
        note.update({"mode": "dense", "level": level, "v": int(indices[v]),
                     "q_star": q_star})
        hsplit = choose_split_radius(sub, v, level, params.delta, params.s, tree=tree)
        try:
            sr = split_instance(sub, h, v, level, hsplit, params.delta, params.eps)
        except DegenerateSplit:
            note["mode"] = "dense_degenerate"
            return solve_sparse(indices, sub, h, note)
        note["split"] = {"s1": len(sr.s1), "s2": len(sr.s2),
                         "overlap": len(set(sr.s1) & set(sr.s2)), "h": sr.h}
        g1 = tuple(indices[p] for p in sr.s1)
        g2 = tuple(indices[p] for p in sr.s2)
        del sub, h, tree, sr              # dead below; the recursion holds its own
        note1 = {"n": len(g1), "depth": depth, "side": "inside"}
        trace.append(note1)
        sub1 = restrict(space, g1)
        t1 = solve_sparse(g1, sub1, build_hierarchy(sub1, params.s), note1)
        t2 = rec(g2, depth + 1)
        return _splice(space, t1, t2, set(g1) & set(g2))

    tour = dedupe_visits(rec(tuple(range(space.n)), 0, tree))
    return tour, {"trace": trace, "weight": tour_weight(space, tour)}
