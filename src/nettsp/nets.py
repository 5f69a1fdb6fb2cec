"""Nested nets over a metric space: construction, queries, and verification.

Level i is a net at scale s**i: net points are pairwise further than s**i
apart and every point lies within s**i of one of them. Nets are nested top
down, so one boolean mask per level describes the whole hierarchy; level 0
holds every point, and queries below level 0 answer as level 0. A point's
nearest net point (its cover) is found on demand from the distances.
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
    member: list                   # member[i] = boolean mask over the points of the level-i net

    @property
    def top(self) -> int:
        """Top level L; its net is one point when L > 0."""
        return len(self.member) - 1

    def radius(self, i: int) -> float:
        return self.s ** i

    def _clamp(self, i: int) -> int:
        return min(max(i, 0), self.top)

    def net(self, i: int) -> np.ndarray:
        """Sorted point indices of the level-i net; levels below 0 contain all points."""
        return np.flatnonzero(self.member[self._clamp(i)])

    def cover_point(self, p: int, i: int) -> int:
        """Nearest level-i net point to p, ties to the lowest index.

        Reads the column D[net, p], the distances that the construction and
        verify_nets' covering check measure: a loaded matrix is symmetric only
        within tolerance, so the row D[p, net] could pick another point.
        """
        if i <= 0:
            return p
        net = self.net(i)
        return int(net[np.argmin(self.space.pairwise(net, [p])[:, 0])])

    def in_net(self, p: int, i: int) -> bool:
        return bool(self.member[self._clamp(i)][p])

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
    net above and adds still-uncovered points in ascending index order, down
    to level 1. Level 0 is every point, since the space must be normalized
    (minimum interpoint distance 1).
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

    member = []                    # top down
    if top > 0:
        mask = np.zeros(n, dtype=bool)
        mask[0] = True
        member.append(mask)
        for i in range(top, 1, -1):
            b = s ** (i - 1)
            mask = mask.copy()
            mind = space.pairwise(np.flatnonzero(mask)).min(axis=0)
            # The first point still uncovered joins; distances only shrink, so
            # every point before it stays covered, as in a scan by index.
            outside = ~within(mind, b)
            while outside.any():
                p = int(np.argmax(outside))
                mask[p] = True
                mind = np.minimum(mind, space.row(p))
                outside = ~within(mind, b)
            member.append(mask)
    member.append(np.ones(n, dtype=bool))
    return NetHierarchy(space=space, s=s, member=member[::-1])


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
    report.level_sizes = [int(mask.sum()) for mask in h.member]

    for i in range(h.top + 1):
        net = h.net(i)
        b = h.radius(i)
        if len(net) > 1:
            d = space.pairwise(net, net)
            iu = np.triu_indices(len(net), k=1)
            bad = d[iu] < b - REL_TOL * max(1.0, b)
            for t in np.flatnonzero(bad):
                report.violations.append(
                    ("packing", i, int(net[iu[0][t]]), int(net[iu[1][t]]), float(d[iu][t])))
        if i >= 1:
            dmin = space.pairwise(net).min(axis=0)
            for p in np.flatnonzero(~within(dmin, b)):
                report.violations.append(("covering", i, int(p), float(dmin[p])))
            for p in np.flatnonzero(h.member[i] & ~h.member[i - 1]):
                report.violations.append(("nesting", i, int(p)))
    if report.level_sizes[0] != n:
        report.violations.append(("bottom_level_incomplete", 0, report.level_sizes[0]))
    if h.top >= 1 and report.level_sizes[h.top] != 1:
        report.violations.append(("top_level_size", h.top, report.level_sizes[h.top]))

    if ddim_upper is not None and n >= 2:
        rng = np.random.default_rng(seed)
        diam = space.diameter()
        for _ in range(audit_balls):
            x = int(rng.integers(0, n))
            radius = float(rng.uniform(0.5, diam))
            row = space.row(x)
            for i in range(h.top + 1):
                si = h.radius(i)
                inside = int(np.sum(within(row[h.net(i)], radius)))
                bound = (2 * (2 * radius + si) / si) ** ddim_upper
                if inside > bound + REL_TOL:
                    report.violations.append(("count_bound", i, x, radius, inside, bound))

    report.ok = not report.violations
    return report
