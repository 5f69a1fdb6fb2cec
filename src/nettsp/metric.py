"""Finite metric spaces: validation, normalization, balls, MSTs, doubling estimates.

A space is backed either by a coordinate array (Euclidean) or by an explicit
symmetric matrix; either way its n x n distance matrix, min gap and whole MST
are each built once, on first use, and every query reads the matrix. Whether a distance lies within a radius is
decided in one place, :func:`within`: inclusive, at relative tolerance
REL_TOL = 1e-9, so "on the ball boundary" ties are deterministic. Nets,
carvings, cut estimates, portals and the dense split all ask it.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateInstance, InvalidMetric, TriangleViolation

REL_TOL = 1e-9
# validate_metric checks every triangle up to this many points and samples above it.
EXHAUSTIVE_MAX = 200
# Triangle checks test about this many (i, j, k) triples per pass: a block of
# random draws, or as many whole pivots as fit (at least one).
SAMPLE_BLOCK = 2 ** 15


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
        row-major order; (inf, (0, 0)) when no pair is finite. Found once per
        space, on the first call, and then kept."""
        return self._min_gap

    @functools.cached_property
    def _min_gap(self):
        n = self.n
        if n < 2:
            return math.inf, (0, 0)
        upper = np.where(np.tri(n, dtype=bool), np.inf, self._distances)
        i, j = divmod(int(np.argmin(upper)), n)
        return float(upper[i, j]), (i, j)

    @functools.cached_property
    def mst_edges(self) -> tuple:
        """The whole space's MST edges, ``mst(self, range(n))``, built on first use."""
        return tuple(mst(self, range(self.n)))


def _local_blocks(d: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """The C-ordered distance block d[pts[b]][:, pts[b]] of each row b of pts.

    One row holding every point in order is read from ``d`` itself, uncopied.
    A plain ``d[rows][:, cols]`` copy would come out strided.
    """
    if len(pts) == 1 and np.array_equal(pts[0], np.arange(len(d))):
        return np.ascontiguousarray(d)[None]
    return d[pts[:, :, None], pts[:, None, :]]


def _prim(local: np.ndarray, sizes: np.ndarray):
    """Prim's MST of many point sets in lockstep, one set per row.

    ``local[b]`` is set b's distance block, its points in increasing index
    order; rows and columns past ``sizes[b]`` are padding, never taken into a
    tree. ``sizes`` is non-increasing and at least 2. Each step adds to every
    tree the first of its nearest outside points in index order, and lowers a
    point's distance to the tree only when strictly closer: a single-set Prim
    scan, row by row. Set b is done after sizes[b] - 1 steps, so step t runs
    on the leading rows with more than t + 1 points. A point joins by the edge
    to its ``origin``, which stops changing once it is in the tree.

    Returns (lo, hi), each (sets, width - 1): row b's edges as local index
    pairs lo < hi in sorted order, then padding past its sizes[b] - 1 edges.
    """
    rows, width = local.shape[:2]
    pad = np.arange(width) >= sizes[:, None]
    best = np.where(pad, np.inf, local[:, 0])      # distance to the tree, inf once in it
    best[:, 0] = np.inf
    free = ~pad
    free[:, 0] = False
    origin = np.zeros((rows, width), dtype=np.intp)
    closer = np.empty((rows, width), dtype=bool)
    flat_best, flat_free = best.reshape(-1), free.reshape(-1)
    local_rows = local.reshape(rows * width, width)
    # exactly a rows grow for sizes[a - 1] - sizes[a] steps, sizes[rows] read as 1
    for a, count in zip(range(rows, 0, -1), (-np.diff(sizes, append=1))[::-1].tolist()):
        base = np.arange(a) * width        # flat offset of each active row
        near, free_a, origin_a, closer_a = best[:a], free[:a], origin[:a], closer[:a]
        for _ in range(count):
            j = near.argmin(axis=1)
            at = base + j
            flat_free[at] = False
            flat_best[at] = np.inf
            dj = local_rows[at]
            np.less(dj, near, out=closer_a)
            closer_a &= free_a
            np.copyto(origin_a, j[:, None], where=closer_a)
            np.copyto(near, dj, where=closer_a)
    v = np.arange(1, width)
    lo, hi = np.minimum(origin[:, 1:], v), np.maximum(origin[:, 1:], v)
    order = np.argsort(np.where(v < sizes[:, None], lo * width + hi, width * width), axis=1)
    return np.take_along_axis(lo, order, axis=1), np.take_along_axis(hi, order, axis=1)


def mst(space: MetricSpace, subset) -> list:
    """Minimum spanning tree edges of the complete graph on subset, sorted.

    The one-set call of the lockstep Prim (:func:`_prim`): ties break toward
    lower point indices, deterministically.
    """
    pts = np.asarray(sorted(set(int(p) for p in subset)), dtype=np.intp)
    if len(pts) == 0:
        raise ValueError("mst of empty subset")
    if len(pts) == 1:
        return []
    lo, hi = _prim(_local_blocks(space.pairwise(), pts[None]), np.array([len(pts)]))
    return list(zip(pts[lo[0]].tolist(), pts[hi[0]].tolist()))


def fold_weight(d: np.ndarray, u, v, where=True) -> np.ndarray:
    """The one weight rule: ``d[u, v]`` added left to right from 0.0 along
    the last axis (``u``, ``v`` and ``where`` broadcast together), a term
    where ``where`` is False adding 0.0, which keeps a sum of non-negative
    terms bit for bit. ``np.cumsum`` adds in order, unlike ``np.sum``
    (pairwise) or builtin ``sum`` (compensated from Python 3.12 on), so a
    weight is the same float on every interpreter."""
    terms = d[u, v]
    shape = np.broadcast_shapes(terms.shape, np.shape(where))
    acc = np.zeros(shape[:-1] + (shape[-1] + 1,))
    np.copyto(acc[..., 1:], terms, where=where)
    return np.cumsum(acc, axis=-1, out=acc)[..., -1]


def tree_weights(space: MetricSpace, members: np.ndarray) -> np.ndarray:
    """MST weight of each row's point set, for a (sets x n) boolean mask
    whose every row holds at least 2 points.

    Each weight is the :func:`fold_weight` of the tree's sorted edges, bit
    for bit ``tours.edges_weight(space, mst(space, set))``. The trees are
    built by :func:`_prim`, largest sets first, in blocks whose local
    distance blocks hold at most n x n floats together, the size of the
    space's own distance matrix: a set of every point is a block alone.
    """
    n = space.n
    d = space.pairwise()
    sizes = np.count_nonzero(members, axis=1)
    order = np.argsort(-sizes, kind="stable")
    weights = np.empty(len(sizes))
    start = 0
    while start < len(order):
        width = int(sizes[order[start]])
        block = order[start:start + n * n // (width * width)]
        # each row's points first, in index order, then the rest as padding
        pts = np.argsort(~members[block], axis=1, kind="stable")[:, :width]
        ends = [np.take_along_axis(pts, x, 1) for x in _prim(_local_blocks(d, pts), sizes[block])]
        weights[block] = fold_weight(d, *ends, where=np.arange(width - 1) < sizes[block, None] - 1)
        start += len(block)
    return weights


def from_points(points) -> MetricSpace:
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    return MetricSpace(coords=arr)


def from_matrix(matrix) -> MetricSpace:
    arr = np.asarray(matrix, dtype=float)
    return MetricSpace(matrix=arr)


def restrict(space: MetricSpace, indices) -> MetricSpace:
    """Sub-space induced by ``indices`` (local index k maps to the k-th
    smallest index): a matrix space sliced from ``space``'s distance matrix,
    so no distance is computed again.

    Every point in order gives back ``space`` itself, distance matrix and all.
    """
    idx = np.asarray(sorted(indices), dtype=np.intp)
    if np.array_equal(idx, np.arange(space.n)):
        return space                     # frozen, so the whole space is shared as is
    # one C-ordered copy: pairwise(idx, idx) would return a strided one
    return MetricSpace(matrix=space.pairwise()[np.ix_(idx, idx)], scale=space.scale)


def _require(ok: np.ndarray, problem: str, fix: str):
    """Raise InvalidMetric at the first entry where ``ok`` is False."""
    if not ok.all():
        raise InvalidMetric(f"{problem} at {tuple(int(x) for x in np.argwhere(~ok)[0])}: {fix}")


def _metric_by_construction(space: MetricSpace) -> bool:
    """Whether the distance formula alone makes ``space`` pass every check but finiteness.

    Only a space built from coordinates qualifies. Its matrix is
    d = sqrt(sum(diff * diff)), which settles the sign, zero-diagonal and
    symmetry checks: a square root is >= 0, x - x is exactly 0, and
    (x - y)^2 equals (y - x)^2 bit for bit, summed in the same order.

    Rounding settles the triangle check. With unit roundoff u = eps / 2, each
    difference and square is off by a factor of at most 1 +- u, a sum of D
    nonnegative terms adds (D - 1) u, and the square root halves the relative
    error and adds u: |d - e| <= (D + 4) u e / 2 for the exact distance e, to
    first order. The exact distances obey the triangle inequality, so the
    computed slack d[i, j] - (d[i, k] + d[k, j]), with the rounding of its own
    sum, is at most (3 (D + 4) / 2 + 2) u max d. Squares that underflow add
    at most sqrt(D 2^-1074), about 2.2e-162 sqrt(D), to a distance: nothing
    beside a tolerance of at least REL_TOL. The bound used here,
    4 (D + 3) u max d = 2 (D + 3) eps max d, is above that count for every D,
    which leaves room for second-order terms. It stays below the tolerance
    REL_TOL * max(1, max d) while D + 3 < REL_TOL / (2 eps), about 2.25e6 at
    REL_TOL = 1e-9. Above that dimension the matrix is checked like any other.
    """
    if space.coords is None:
        return False
    return 2 * (space.coords.shape[1] + 3) * sys.float_info.epsilon < REL_TOL


def validate_metric(space: MetricSpace) -> None:
    """Raise at the first failed check of ``space``; return nothing if it passes.

    The checks run in this order, each raising a NetTspError that names what
    failed and what to change:

    - InvalidMetric: a non-finite coordinate, then a non-finite distance
      (coordinates this large overflow), then, for a matrix only, a negative
      entry, a non-zero diagonal entry and an asymmetric pair, each at its
      first offending entry in row-major order;
    - DegenerateInstance: the first pair of points at distance 0 (min_gap),
      told apart from distinct coordinates whose distance underflows;
    - TriangleViolation: the first violating (i, j, k, slack), with
      slack = d[i, j] - (d[i, k] + d[k, j]) above REL_TOL * max(1, max d).

    Coordinates are a metric by construction (see _metric_by_construction),
    so they skip the sign, diagonal, symmetry and triangle checks. A matrix of
    up to EXHAUSTIVE_MAX points is checked on every triple in (k, i, j) order,
    in one reused buffer that holds the n x n slack of as many pivots as fit
    in SAMPLE_BLOCK entries (at least one), up to the first pivot with a
    violation. Above EXHAUSTIVE_MAX, 10 * n^2 random triples drawn from
    default_rng(0) are checked in blocks of SAMPLE_BLOCK, up to the first
    block with a violation.
    """
    n = space.n
    if space.coords is not None:
        _require(np.isfinite(space.coords), "non-finite coordinate",
                 "replace nan and inf with finite numbers")
    d = space.pairwise()
    _require(np.isfinite(d), "non-finite distance",
             "replace nan and inf with finite numbers, or rescale coordinates this large")
    by_construction = _metric_by_construction(space)
    if not by_construction:
        tol = REL_TOL * max(1.0, float(d.max(initial=0.0)))
        _require(d >= -REL_TOL, "negative distance", "make every distance at least 0")
        _require(np.diag(np.abs(np.diagonal(d)) <= REL_TOL) | ~np.eye(n, dtype=bool),
                 "non-zero diagonal distance", "set each point's distance to itself to 0")
        asymmetry = np.subtract(d, d.T)
        np.abs(asymmetry, out=asymmetry)
        _require(asymmetry <= tol, "asymmetric distance", "make entry (i, j) equal to entry (j, i)")
        del asymmetry
    gap, (i, j) = space.min_gap()
    if gap <= 0:
        raise _coincident(space, i, j)
    if by_construction:
        return
    violation = _first_triangle_violation(d, tol)
    if violation is not None:
        raise TriangleViolation("triangle inequality fails, first violating (i, j, k, slack): "
                                f"{violation}; close the matrix under shortest paths")


def _coincident(space: MetricSpace, i: int, j: int) -> DegenerateInstance:
    """The error for points i and j at distance 0: duplicates, or distinct
    coordinates whose distance underflows."""
    if space.coords is not None and not np.array_equal(space.coords[i], space.coords[j]):
        return DegenerateInstance(f"points {i} and {j} coincide; their coordinates differ, but "
                                  "their distance underflows to 0: scale the coordinates up")
    return DegenerateInstance(f"points {i} and {j} coincide; deduplicate first")


# a sum that overflows to inf exceeds every finite distance, so it hides no violation
@np.errstate(over="ignore")
def _first_triangle_violation(d: np.ndarray, tol: float):
    """The first (i, j, k, slack) whose slack exceeds ``tol``, or None (see validate_metric)."""
    n = d.shape[0]
    if n <= EXHAUSTIVE_MAX:
        step = min(n, max(1, SAMPLE_BLOCK // (n * n)))      # pivots per pass
        buffer = np.empty((step, n, n))
        for k in range(0, n, step):
            slack = buffer[:min(step, n - k)]              # slack[t, i, j] for pivot k + t
            np.add(d.T[k:k + len(slack), :, None], d[k:k + len(slack), None, :], out=slack)
            np.subtract(d, slack, out=slack)
            if slack.max() > tol:
                t, i, j = np.argwhere(slack > tol)[0]
                return int(i), int(j), k + int(t), float(slack[t, i, j])
        return None
    rng = np.random.default_rng(0)
    flat = d.ravel()
    for start in range(0, 10 * n * n, SAMPLE_BLOCK):
        ii, jj, kk = rng.integers(0, n, size=(3, min(SAMPLE_BLOCK, 10 * n * n - start)))
        slack = flat[ii * n + jj] - (flat[ii * n + kk] + flat[kk * n + jj])
        bad = np.flatnonzero(slack > tol)
        if bad.size:
            t = bad[0]
            return int(ii[t]), int(jj[t]), int(kk[t]), float(slack[t])
    return None


def normalize(space: MetricSpace) -> MetricSpace:
    """Rescale so the minimum interpoint distance is exactly 1.

    Raises DegenerateInstance if two points coincide, and InvalidMetric if the
    diameter is over 2^500 min gaps, which would overflow once squared or summed.
    """
    if space.n < 2:
        raise ValueError("normalize requires at least 2 points")
    gap, pair = space.min_gap()
    if gap <= 0:
        raise _coincident(space, *pair)
    spread = math.log2(space.diameter()) - math.log2(gap)
    if spread > 500:
        raise InvalidMetric(f"the diameter is 2^{spread:.1f} times the smallest distance, over "
                            "2^500: drop far points, or rescale so near points lie farther apart")
    factor = 1.0 / gap
    if space.coords is not None:
        return MetricSpace(coords=space.coords * factor, scale=space.scale * factor)
    return MetricSpace(matrix=space.matrix * factor, scale=space.scale * factor)


def within(d, r):
    """Whether distance d lies within radius r: d <= r + REL_TOL * max(1, r).

    The one ball-membership rule; broadcasts over arrays of distances and radii.
    """
    return d <= r + REL_TOL * np.maximum(1.0, r)


def ball(space: MetricSpace, center: int, radius: float) -> np.ndarray:
    """Indices of points within radius of center (center included)."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return np.flatnonzero(within(space.row(center), radius))


@dataclass
class DoublingEstimate:
    """Greedy-cover upper estimate of the doubling constant.

    lambda_upper is the largest number of half-radius balls the farthest-point
    greedy needed for any audited ball; ddim_upper = log2(lambda_upper),
    floored at 1. Exact doubling constants are not computed.
    """

    lambda_upper: int
    ddim_upper: float


def estimate_doubling(space: MetricSpace, audit_balls: int = 64, seed: int = 0) -> DoublingEstimate:
    """Audit sampled balls with greedy half-radius covers; report the worst count.

    Each ball B(c, r) is covered by the farthest-point greedy: start at c,
    repeatedly add the first point (lowest index) farthest from the chosen
    ones, and stop once every point of the ball lies within r/2 of one. The
    balls are drawn first; then all their greedy covers run in one loop over a
    (balls x n) array of distances to the chosen points, -inf outside each
    ball, stepping only the balls not yet covered.

    The result upper-bounds the cover number of every audited ball, which is
    the only guarantee downstream packing checks rely on.
    """
    n = space.n
    if n < 2:
        return DoublingEstimate(lambda_upper=1, ddim_upper=1.0)
    rng = np.random.default_rng(seed)
    diam = space.diameter()
    # Always audit the whole space a few times from distinct centers.
    drawn = [(c, r) for c in range(min(n, 4)) for r in (diam, diam / 2.0) if r > 0]
    while len(drawn) < audit_balls:
        c = int(rng.integers(0, n))
        anchor = int(rng.integers(0, n))
        r = space.dist(c, anchor) * float(rng.uniform(0.5, 1.5))
        if r <= 0:
            r = diam
        drawn.append((c, min(r, diam)))

    d = space.pairwise()
    centers = np.array([c for c, _ in drawn], dtype=np.intp)
    radii = np.array([r for _, r in drawn], dtype=float)
    inside = within(d[centers], radii[:, None])
    half = radii / 2.0
    open_balls = np.arange(len(drawn))
    start = np.where(inside[open_balls, centers], centers, np.argmax(inside, axis=1))
    mind = np.where(inside, d[start], -np.inf)
    counts = np.ones(len(drawn), dtype=int)
    while open_balls.size:
        far = np.argmax(mind[open_balls], axis=1)
        still_open = ~within(mind[open_balls, far], half[open_balls])
        open_balls, far = open_balls[still_open], far[still_open]
        mind[open_balls] = np.minimum(mind[open_balls], d[far])
        counts[open_balls] += 1
    lam = int(counts.max(initial=1))
    return DoublingEstimate(lambda_upper=lam, ddim_upper=max(1.0, math.log2(lam)))
