"""Nested nets over a metric space: construction, queries, and verification.

Level i is a net at scale s**i: net points are pairwise further than s**i
apart and every point lies within s**i of one of them. Nets are nested top
down, level 0 holds every point, and queries below level 0 answer as level 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadScale
from .metric import REL_TOL, MetricSpace, within

MIN_SCALE_BASE = 4.0


@dataclass
class NetHierarchy:
    space: MetricSpace
    s: float
    top: int                       # top level L
    levels: list                   # levels[i] = sorted np.ndarray of net point indices
    covers: list                   # covers[i][p] = designated covering net point for p
    member: list                   # member[i] = boolean mask, member[i][p] iff p in levels[i]

    def radius(self, i: int) -> float:
        return self.s ** i

    def net(self, i: int) -> np.ndarray:
        """Net at level i; levels below 0 contain all points."""
        if i < 0:
            return self.levels[0]
        if i > self.top:
            return self.levels[self.top]
        return self.levels[i]

    def cover_point(self, p: int, i: int) -> int:
        """Designated net point covering p at level i (nearest, ties to lowest index)."""
        if i <= 0:
            return p
        if i > self.top:
            i = self.top
        return int(self.covers[i][p])

    def in_net(self, p: int, i: int) -> bool:
        if i <= 0:
            return True
        if i > self.top:
            i = self.top
        return bool(self.member[i][p])

    def level_of_value(self, value: float) -> int:
        """Largest i with s**i <= value; -1 when value < 1 (virtual fine levels)."""
        if value < 1.0 - REL_TOL:
            return -1
        i = int(math.floor(math.log(max(value, 1.0)) / math.log(self.s) + 1e-12))
        while self.s ** (i + 1) <= value * (1 + REL_TOL):
            i += 1
        while i > 0 and self.s ** i > value * (1 + REL_TOL):
            i -= 1
        return i


def build_hierarchy(space: MetricSpace, s: float) -> NetHierarchy:
    """Greedy top-down nested net construction.

    The top net is the lowest-index point alone; descending a level keeps the
    net above and adds still-uncovered points in ascending index order. The
    space must be normalized (minimum interpoint distance 1).
    """
    if s < MIN_SCALE_BASE:
        raise BadScale(f"scale base {s} < {MIN_SCALE_BASE}")
    n = space.n
    diam = space.diameter()
    if diam <= 1.0 + REL_TOL:
        top = 0
    else:
        top = max(0, int(math.ceil(math.log(diam) / math.log(s) - 1e-12)))
        while s ** top < diam * (1 - REL_TOL):
            top += 1

    levels = [None] * (top + 1)
    if top == 0:
        levels[0] = np.arange(n, dtype=np.intp)
    else:
        levels[top] = np.array([0], dtype=np.intp)
        for i in range(top, 0, -1):
            b = s ** (i - 1)
            net = list(levels[i])
            mind = space.pairwise(levels[i]).min(axis=0)
            # The first point still uncovered joins; distances only shrink, so
            # every point before it stays covered, as in a scan by index.
            outside = ~within(mind, b)
            while outside.any():
                p = int(np.argmax(outside))
                net.append(p)
                mind = np.minimum(mind, space.row(p))
                outside = ~within(mind, b)
            levels[i - 1] = np.array(sorted(net), dtype=np.intp)
        # Level 0 always contains every point (minimum distance is 1).
        levels[0] = np.arange(n, dtype=np.intp)

    covers = [np.arange(n, dtype=np.intp)]
    member = [np.ones(n, dtype=bool)]
    for i in range(1, top + 1):
        d = space.pairwise(levels[i])
        covers.append(levels[i][np.argmin(d, axis=0)])
        mask = np.zeros(n, dtype=bool)
        mask[levels[i]] = True
        member.append(mask)
    return NetHierarchy(space=space, s=s, top=top, levels=levels, covers=covers, member=member)


@dataclass
class NetReport:
    ok: bool
    violations: list = field(default_factory=list)
    level_sizes: list = field(default_factory=list)


def verify_nets(h: NetHierarchy, ddim_upper: float = None, audit_balls: int = 32,
                seed: int = 0) -> NetReport:
    """Exhaustively check packing / covering / nesting, plus count-bound audits.

    Packing at the bottom level tolerates pairs at exactly the minimum
    distance 1, since level 0 contains all points by convention. When
    ddim_upper is supplied, |H_i ∩ B(x, R)| is audited against
    (2(2R + s^i)/s^i)**ddim_upper on sampled balls.
    """
    space = h.space
    n = space.n
    report = NetReport(ok=True)
    report.level_sizes = [len(h.levels[i]) for i in range(h.top + 1)]

    for i in range(h.top + 1):
        net = h.levels[i]
        b = h.radius(i)
        if len(net) > 1:
            d = space.pairwise(net, net)
            iu = np.triu_indices(len(net), k=1)
            bad = d[iu] < b - REL_TOL * max(1.0, b)
            for t in np.flatnonzero(bad):
                report.violations.append(
                    ("packing", i, int(net[iu[0][t]]), int(net[iu[1][t]]), float(d[iu][t])))
        if i >= 1:
            dmin = space.pairwise(net, np.arange(n)).min(axis=0)
            for p in np.flatnonzero(~within(dmin, b)):
                report.violations.append(("covering", i, int(p), float(dmin[p])))
            net_set = set(net.tolist())
            for p in range(n):
                c = int(h.covers[i][p])
                if c not in net_set or not within(space.dist(p, c), b):
                    report.violations.append(("cover_designation", i, p, c))
            below_set = set(h.levels[i - 1].tolist())
            for p in net:
                if int(p) not in below_set:
                    report.violations.append(("nesting", i, int(p)))
    if len(h.levels[0]) != n:
        report.violations.append(("bottom_level_incomplete", 0, len(h.levels[0])))
    if h.top >= 1 and len(h.levels[h.top]) != 1:
        report.violations.append(("top_level_size", h.top, len(h.levels[h.top])))

    if ddim_upper is not None and n >= 2:
        rng = np.random.default_rng(seed)
        diam = space.diameter()
        for _ in range(audit_balls):
            x = int(rng.integers(0, n))
            radius = float(rng.uniform(0.5, diam))
            row = space.row(x)
            for i in range(h.top + 1):
                si = h.radius(i)
                inside = int(np.sum(within(row[h.levels[i]], radius)))
                bound = (2 * (2 * radius + si) / si) ** ddim_upper
                if inside > bound + REL_TOL:
                    report.violations.append(("count_bound", i, x, radius, inside, bound))

    report.ok = not report.violations
    return report
