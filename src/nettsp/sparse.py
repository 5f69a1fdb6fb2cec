"""Dense-region detection and splitting, and the top-level solver.

A ball B(u, 3 s^i) is dense when the MST of its points weighs more than
2 q s^i, the spanning-tree analogue of the paper's q-sparsity condition (at
most q s^i of tour weight in each such ball). Dense regions are peeled off
one at a time: the dense ball plus a boundary layer of net points is solved
by the crossing-limited program directly, the scan runs again on the rest,
and once the rest is sparse it is solved too and the closed tours are
spliced at shared points, innermost first.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateSplit
from .lightdp import solve_with_radius_guessing
from .metric import (REL_TOL, MetricSpace, ball, estimate_doubling, restrict, tree_weights,
                     within)
from .nets import NetHierarchy, build_hierarchy
from .tours import Tour, dedupe_visits, edges_weight, mst, tour_weight


def restricted_tour_weight(space: MetricSpace, tour: Tour, inside) -> float:
    """Total weight of tour transitions with both endpoints in ``inside``."""
    iset = set(int(p) for p in inside)
    return float(sum(space.dist(x, y) for x, y in tour.transitions()
                     if x in iset and y in iset))


def find_dense_region(space: MetricSpace, h: NetHierarchy, q: float):
    """Lowest level holding a point u with w(MST(B(u, 3 s^i))) > 2 q s^i.

    Returns (level, v, q_star) with v the maximizing center (ties to the
    lowest index) and q_star its MST weight over s^i, or None when every ball
    is sparse. A level with 2 w(MST(S)) <= 2 q s^i is skipped unscanned: in a
    metric, the MST of any subset weighs at most twice its Steiner tree, and
    MST(S) is one such tree, so no ball can exceed the cap there. A scanned
    level's balls come from one membership mask. The distinct ones with at
    least 2 points, told apart by their packed rows, get their trees from one
    :func:`tree_weights` call, each weight the sum that ``edges_weight`` gives
    its tree; the maximum is then taken over u in order.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    whole = edges_weight(space, space.mst_edges)
    for level in range(h.top + 1):
        radius = 3 * h.radius(level)
        cap = 2 * q * h.radius(level)
        if 2 * whole <= cap:
            continue
        inside = within(space.pairwise(), radius)          # row u is the ball of u
        centers = np.flatnonzero(np.count_nonzero(inside, axis=1) >= 2)
        packed = np.packbits(inside[centers], axis=1)       # one bytes key per ball
        _, first, ball = np.unique(packed.view(f"V{packed.shape[1]}").ravel(),
                                   return_index=True, return_inverse=True)
        weights = tree_weights(space, inside[centers[first]])[ball]
        best_w, best_v = -1.0, None
        for u, w in zip(centers.tolist(), weights.tolist()):
            if w > best_w + REL_TOL * max(1.0, best_w):
                best_w, best_v = w, u
        if best_v is not None and best_w > cap * (1 + REL_TOL):
            return level, best_v, best_w / h.radius(level)
    return None


def _in_annulus(d, r1, r2):
    """Whether distance d lies within r2 but not within r1; broadcasts over
    arrays of distances and radii."""
    return ~within(d, r1) & within(d, r2)


# Candidate split radii, evenly spaced over [12 s^i, 13 s^i].
SPLIT_CANDIDATES = 64


def choose_split_radius(space: MetricSpace, v: int, level: int, delta: float,
                        s: float) -> float:
    """Radius in [12 s^i, 13 s^i] whose widened annulus cuts the least MST weight.

    The spanning tree of the whole space stands in for the unknowable optimal
    tour; the argmin over the SPLIT_CANDIDATES grid is no worse than the grid
    mean, which is all the averaging argument needs. Ties go to the smallest
    radius. A candidate's score is the weight of the tree edges with both ends
    in its annulus, as the per-candidate loop in tests/test_sparse.py scores
    it: edge weights and endpoint distances to v are read once, and the
    selected weights are summed in tree order.
    """
    if delta > 1.0 / 12 + REL_TOL:
        raise ValueError("delta must be at most 1/12")
    si = s ** level
    tree = space.mst_edges
    width = 6 * delta * si
    weights = [space.dist(a, b) for a, b in tree]
    ends = space.row(v)[np.asarray(tree, dtype=np.intp).reshape(-1, 2)]
    heights = (12 * si + (np.arange(SPLIT_CANDIDATES) + 0.5) / SPLIT_CANDIDATES * si)
    heights = heights[:, None, None]
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
    h: float


def _near(space, a, b, r):
    """Mask of the points of mask ``b`` within r of some point of mask ``a``."""
    near = np.zeros(space.n, dtype=bool)
    near[b] = within(space.pairwise(np.flatnonzero(a), np.flatnonzero(b))
                     .min(axis=0, initial=np.inf), r)
    return near


def split_instance(space: MetricSpace, hier: NetHierarchy, v: int, level: int,
                   split_radius: float, delta: float, eps: float) -> SplitResult:
    """Split around the dense ball B(v, split_radius) with boundary-layer overlap.

    Both sides keep the ball boundary's net points so each side's tour can be
    patched without the other. With k the net level of delta s^i and j that
    of eps delta s^i, floored at 1, the inside gains the s^k-neighbourhoods of
    the level-k net points within s^k of the boundary annulus, and the level-j
    net points within s^j of the ball. The outside gains the ball's level-j
    net points and the s^k-neighbourhoods of the ball's level-k net points
    within s^k of the outside; that term is empty at k = 0, else every inside
    point would re-enter the outside set through the bottom net. Raises
    DegenerateSplit when the outside still ends up being everything, or when
    the sides share no point.
    """
    si = hier.s ** level
    k_level = max(0, min(hier.top, hier.level_of_value(delta * si)))
    j_level = max(1, min(hier.top, hier.level_of_value(eps * delta * si)))
    sk = hier.radius(k_level)
    k_net = hier.member[k_level]
    j_net = hier.member[min(j_level, hier.top)]
    every = np.ones(space.n, dtype=bool)

    row = space.row(v)
    inner = within(row, split_radius)
    outer = ~inner
    if not outer.any():
        raise DegenerateSplit("dense ball swallowed the whole instance")
    annulus = _in_annulus(row, split_radius - delta * si, split_radius + delta * si)
    n_h = _near(space, annulus, k_net, sk)
    s1 = inner | _near(space, n_h, every, sk) | _near(space, inner, j_net, hier.radius(j_level))
    k_boundary = _near(space, outer, inner & k_net & (k_level >= 1), sk)    # none at k = 0
    s2 = outer | (inner & j_net) | _near(space, k_boundary, every, sk)
    if s2.all():
        raise DegenerateSplit("outside portion still covers every point")
    if not (s1 & s2).any():
        raise DegenerateSplit("no overlap between the split sides")
    return SplitResult(s1=tuple(np.flatnonzero(s1).tolist()),
                       s2=tuple(np.flatnonzero(s2).tolist()), h=split_radius)


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
    guesses: int = 1
    seed: int = 0
    ddim: float = None             # filled from a doubling estimate when absent

    def __post_init__(self):
        for f in fields(self):     # q and ddim may be left to their defaults
            value = getattr(self, f.name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)) and not (
                    value is None and f.name in ("q", "ddim")):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
        # Each test is written so that NaN fails it.
        if not 0 < self.eps <= 0.05 + REL_TOL:
            raise ValueError(f"eps must lie in (0, 1/20], got {self.eps!r}")
        if not 6 <= self.s < math.inf:
            raise ValueError(f"s must be finite and at least 6, got {self.s!r}")
        if not 0 < self.delta <= 1.0 / 12 + REL_TOL:
            raise ValueError(f"delta must lie in (0, 1/12], got {self.delta!r}")
        if self.ddim is not None and not self.ddim >= 1:
            raise ValueError(f"ddim must be None or at least 1, got {self.ddim!r}")
        for name, least in (("m_cap", 1), ("guesses", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if self.q is None:
            try:
                self.q = 64.0 * (self.s / self.eps) ** 2
            except OverflowError:
                self.q = math.inf
            if self.q == math.inf:
                raise ValueError(f"the default q = 64 (s/eps)^2 overflows at s = {self.s!r}, "
                                 f"eps = {self.eps!r}; pass q explicitly")
        if not self.q > 0:
            raise ValueError(f"q must be positive (inf never splits), got {self.q!r}")

    def theoretical_note(self, n: int, ddim: float) -> dict:
        log_n = math.log(max(n, 2))
        try:
            m_theory = (8 * math.log(max(n, 2), self.s) * self.s * ddim / self.eps) ** ddim
        except OverflowError:
            m_theory = math.inf
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


def _splice(t1: Tour, t2: Tour, shared) -> Tour:
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


def solve_tsp(space: MetricSpace, params: SolveParams):
    """Sparse/dense solver over a normalized space: peel dense regions, then
    solve the sparse rest.

    While the rest has a dense region, the split's inside is solved by the
    radius-guessing crossing-limited program and set aside, and the scan runs
    again on the outside. A sparse, degenerate or one-point rest is solved
    last, and the set-aside tours are spliced onto it innermost first, each at
    a shared point. The loop ends within n peels, since split_instance raises
    DegenerateSplit unless the outside loses a point. A trace note's ``depth``
    is the number of peels before it. Every sub-instance draws its radii with
    one doubling dimension: ``params.ddim``, or when it is None the whole
    space's estimate, as :func:`nettsp.runner.run` sets it.
    """
    rng = np.random.default_rng(params.seed)
    trace = []
    ddim = params.ddim
    if ddim is None:
        ddim = estimate_doubling(space, seed=params.seed).ddim_upper

    def solve_sparse(indices, sub, h, note):
        """Solve the induced sub-instance with its hierarchy; returns a global tour."""
        res = solve_with_radius_guessing(sub, h, params.guesses, params.m_cap, ddim, rng)
        note["mode"] = note.get("mode", "sparse")
        note["cost"] = res.cost
        return Tour(tuple(indices[p] for p in res.tour.seq), closed=True)

    peeled = []                           # (inside tour, shared points) per split
    indices = tuple(range(space.n))
    while True:
        note = {"n": len(indices), "depth": len(peeled)}
        trace.append(note)
        if len(indices) == 1:
            note["mode"] = "trivial"
            tour = Tour(indices, closed=True)
            break
        sub = restrict(space, indices)
        h = build_hierarchy(sub, params.s)
        dense = find_dense_region(sub, h, params.q)
        if dense is None:
            tour = solve_sparse(indices, sub, h, note)
            break
        level, v, q_star = dense
        note.update({"mode": "dense", "level": level, "v": int(indices[v]),
                     "q_star": q_star})
        hsplit = choose_split_radius(sub, v, level, params.delta, params.s)
        try:
            sr = split_instance(sub, h, v, level, hsplit, params.delta, params.eps)
        except DegenerateSplit:
            note["mode"] = "dense_degenerate"
            tour = solve_sparse(indices, sub, h, note)
            break
        note["split"] = {"s1": len(sr.s1), "s2": len(sr.s2),
                         "overlap": len(set(sr.s1) & set(sr.s2)), "h": sr.h}
        inside = tuple(indices[p] for p in sr.s1)
        indices = tuple(indices[p] for p in sr.s2)
        note1 = {"n": len(inside), "depth": len(peeled), "side": "inside"}
        trace.append(note1)
        sub1 = restrict(space, inside)
        peeled.append((solve_sparse(inside, sub1, build_hierarchy(sub1, params.s), note1),
                       set(inside) & set(indices)))
    for t1, shared in reversed(peeled):
        tour = _splice(t1, tour, shared)
    return tour, {"trace": trace, "weight": tour_weight(space, tour)}
