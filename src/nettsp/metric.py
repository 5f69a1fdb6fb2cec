"""Finite metric spaces: validation, normalization, ball queries, doubling estimates.

A space is backed either by a coordinate array (Euclidean) or by an explicit
symmetric matrix; either way its n x n distance matrix is built once, on first
use, and every query reads it. All boundary comparisons against
a radius resolve toward inclusion at relative tolerance 1e-9, so "on the ball
boundary" ties are deterministic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DegenerateInstance, InvalidMetric

REL_TOL = 1e-9


@dataclass(frozen=True)
class MetricSpace:
    """Finite point set 0..n-1 with a symmetric distance oracle.

    Exactly one of ``coords`` / ``matrix`` is set. ``scale`` is the cumulative
    factor applied by :func:`normalize`; divide reported weights by it to
    recover the input's units.
    """

    coords: Optional[np.ndarray] = None
    matrix: Optional[np.ndarray] = None
    scale: float = 1.0

    def __post_init__(self):
        if (self.coords is None) == (self.matrix is None):
            raise ValueError("exactly one of coords/matrix must be given")

    @property
    def n(self) -> int:
        if self.coords is not None:
            return self.coords.shape[0]
        return self.matrix.shape[0]

    def dist(self, i: int, j: int) -> float:
        """Entry (i, j) of the distance matrix that every query reads."""
        return float(self._distances[i, j])

    @functools.cached_property
    def _distances(self) -> np.ndarray:
        if self.matrix is not None:
            d = np.asarray(self.matrix, dtype=float).view()
        else:
            with np.errstate(over="ignore"):
                diff = self.coords[:, None, :] - self.coords[None, :, :]
                d = np.sqrt(np.sum(diff * diff, axis=2))
        d.flags.writeable = False
        return d

    def pairwise(self, rows=None, cols=None) -> np.ndarray:
        """Distance submatrix read from the space's distance matrix.

        The matrix is built on the first query of any kind, from coordinates
        as sqrt(sum(diff * diff)) with overflow to inf left silent, and then
        kept. With neither argument given the result is that matrix itself,
        read-only and shared by every caller; otherwise it is a fresh copy.
        """
        d = self._distances
        if rows is not None:
            d = d[np.asarray(rows, dtype=np.intp)]
        if cols is not None:
            d = d[:, np.asarray(cols, dtype=np.intp)]
        return d

    def row(self, i: int) -> np.ndarray:
        """Distances from point i to every point (a read-only view)."""
        return self._distances[i]

    def diameter(self) -> float:
        if self.n < 2:
            return 0.0
        return float(self._distances.max())

    def min_gap(self):
        """Smallest interpoint distance and the first pair attaining it in
        row-major order; (inf, (0, 0)) when no pair is finite."""
        n = self.n
        if n < 2:
            return math.inf, (0, 0)
        upper = np.where(np.tri(n, dtype=bool), np.inf, self._distances)
        i, j = divmod(int(np.argmin(upper)), n)
        return float(upper[i, j]), (i, j)


def from_points(points) -> MetricSpace:
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    return MetricSpace(coords=arr)


def from_matrix(matrix, scale: float = 1.0) -> MetricSpace:
    arr = np.asarray(matrix, dtype=float)
    return MetricSpace(matrix=arr, scale=scale)


def restrict(space: MetricSpace, indices) -> MetricSpace:
    """Sub-space induced by ``indices`` (local index k maps to indices[k]).

    Every point in order gives back ``space`` itself, distance matrix and all.
    """
    idx = np.asarray(sorted(indices), dtype=np.intp)
    if np.array_equal(idx, np.arange(space.n)):
        return space                     # frozen, so the whole space is shared as is
    if space.coords is not None:
        return MetricSpace(coords=space.coords[idx], scale=space.scale)
    return MetricSpace(matrix=space.matrix[np.ix_(idx, idx)], scale=space.scale)


@dataclass
class ValidationReport:
    passed: bool
    violations: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)


def _require(ok: np.ndarray, problem: str, fix: str):
    """Raise InvalidMetric at the first entry where ``ok`` is False."""
    if not ok.all():
        raise InvalidMetric(f"{problem} at {tuple(int(x) for x in np.argwhere(~ok)[0])}: {fix}")


def validate_metric(space: MetricSpace, max_listed: int = 100, seed: int = 0) -> ValidationReport:
    """Check finiteness, nonnegativity, zero diagonal, symmetry and the triangle inequality.

    The first four raise InvalidMetric naming the failed check and its first
    offending entry, so the triangle scan only ever sees finite distances.
    Triangles are checked exhaustively for n <= 200 and on 10*n^2 sampled
    triples above that; their failures are reported, never raised.
    """
    n = space.n
    report = ValidationReport(passed=True)
    if space.coords is not None:
        _require(np.isfinite(space.coords), "non-finite coordinate",
                 "replace nan and inf with finite numbers")
    d = space.pairwise()
    _require(np.isfinite(d), "non-finite distance",
             "replace nan and inf with finite numbers, or rescale coordinates this large")
    tol = REL_TOL * max(1.0, float(d.max(initial=0.0)))
    _require(d >= -REL_TOL, "negative distance", "make every distance at least 0")
    _require((np.abs(d) <= REL_TOL) | ~np.eye(n, dtype=bool), "non-zero diagonal distance",
             "set each point's distance to itself to 0")
    _require(np.abs(d - d.T) <= tol, "asymmetric distance",
             "make entry (i, j) equal to entry (j, i)")

    if n <= 200:
        exhaustive = True
        for k in range(n):
            slack = d - (d[:, k][:, None] + d[k][None, :])
            bad = np.argwhere(slack > tol)
            for i, j in bad:
                report.violations.append((int(i), int(j), int(k), float(slack[i, j])))
    else:
        exhaustive = False
        rng = np.random.default_rng(seed)
        m = 10 * n * n
        ii = rng.integers(0, n, size=m)
        jj = rng.integers(0, n, size=m)
        kk = rng.integers(0, n, size=m)
        slack = d[ii, jj] - (d[ii, kk] + d[kk, jj])
        for t in np.flatnonzero(slack > tol):
            report.violations.append((int(ii[t]), int(jj[t]), int(kk[t]), float(slack[t])))
    report.checks["triangle_exhaustive"] = exhaustive
    report.violations = report.violations[:max_listed]
    report.passed = not report.violations
    return report


def normalize(space: MetricSpace, eps: float = 0.05, snap: bool = False) -> MetricSpace:
    """Rescale so the minimum interpoint distance is exactly 1.

    With ``snap=True`` and coordinates present, points are first moved onto a
    grid of pitch eps*diam/n, which bounds the diameter relative to n at the
    cost of perturbing the optimum by an eps fraction. Raises
    DegenerateInstance if two points coincide (before or after snapping).
    """
    if space.n < 2:
        raise ValueError("normalize requires at least 2 points")
    if snap and space.coords is not None:
        diam = space.diameter()
        pitch = eps * diam / space.n
        if pitch > 0:
            snapped = np.round(space.coords / pitch) * pitch
            space = MetricSpace(coords=snapped, scale=space.scale)
    gap, pair = space.min_gap()
    if gap <= 0:
        raise DegenerateInstance(f"points {pair[0]} and {pair[1]} coincide")
    factor = 1.0 / gap
    if space.coords is not None:
        return MetricSpace(coords=space.coords * factor, scale=space.scale * factor)
    return MetricSpace(matrix=space.matrix * factor, scale=space.scale * factor)


def ball(space: MetricSpace, center: int, radius: float) -> np.ndarray:
    """Indices of points at distance <= radius from center (center included)."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    row = space.row(center)
    return np.flatnonzero(row <= radius + REL_TOL * max(1.0, radius))


@dataclass
class DoublingEstimate:
    """Greedy-cover upper estimate of the doubling constant.

    lambda_upper is the largest number of half-radius balls the farthest-point
    greedy needed for any audited ball; ddim_upper = log2(lambda_upper),
    floored at 1. Exact doubling constants are not computed.
    """

    lambda_upper: int
    ddim_upper: float
    audited: int


def greedy_half_cover(space: MetricSpace, center: int, radius: float) -> int:
    """Number of radius/2 balls the farthest-point greedy uses to cover B(center, radius)."""
    pts = ball(space, center, radius)
    if len(pts) == 0:
        return 1
    sub = space.pairwise(pts, pts)
    half = radius / 2.0
    thr = half + REL_TOL * max(1.0, half)
    start = int(np.flatnonzero(pts == center)[0]) if center in pts else 0
    mind = sub[start].copy()
    count = 1
    while True:
        far = int(np.argmax(mind))
        if mind[far] <= thr:
            return count
        mind = np.minimum(mind, sub[far])
        count += 1


def estimate_doubling(space: MetricSpace, audit_balls: int = 64, seed: int = 0) -> DoublingEstimate:
    """Audit sampled balls with greedy half-radius covers; report the worst count.

    The result upper-bounds the cover number of every audited ball, which is
    the only guarantee downstream packing checks rely on.
    """
    n = space.n
    if n < 2:
        return DoublingEstimate(lambda_upper=1, ddim_upper=1.0, audited=0)
    rng = np.random.default_rng(seed)
    diam = space.diameter()
    lam = 1
    audited = 0
    # Always audit the whole space a few times from distinct centers.
    fixed_centers = list(range(min(n, 4)))
    for c in fixed_centers:
        for r in (diam, diam / 2.0):
            if r > 0:
                lam = max(lam, greedy_half_cover(space, c, r))
                audited += 1
    while audited < audit_balls:
        c = int(rng.integers(0, n))
        anchor = int(rng.integers(0, n))
        r = space.dist(c, anchor) * float(rng.uniform(0.5, 1.5))
        if r <= 0:
            r = diam
        lam = max(lam, greedy_half_cover(space, c, min(r, diam)))
        audited += 1
    return DoublingEstimate(lambda_upper=lam, ddim_upper=max(1.0, math.log2(lam)), audited=audited)
