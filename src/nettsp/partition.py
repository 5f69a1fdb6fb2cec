"""Random-radius ball carving and the cluster-tree types.

Cluster centers are the net points of one level, processed in ascending index
order. Each center draws its radii from a truncated exponential on
[scale, 2*scale] whose density decays by a factor controlled by the dimension
parameter; a level's radii are one array, a row per center in net order and a
column per guess. Every still-unassigned point inside a center's ball joins
its cluster. :func:`nettsp.lightdp.tree_from_samples` stacks the carvings into
a :class:`ClusterTree`, per level the map from each cluster to its children
options: the plan the portal DP solves bottom-up, one level at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metric import MetricSpace, within
from .nets import NetHierarchy


@dataclass(frozen=True)
class RadiusDistribution:
    """Truncated exponential on [a, 2a] with decay rate 8*ddim*ln2/a."""

    a: float
    ddim: float

    @property
    def beta(self) -> float:
        return 8.0 * self.ddim

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        b = self.beta
        inner = 1.0 - u * (1.0 - 2.0 ** (-b))
        r = self.a * (1.0 - np.log2(inner) / b)
        return np.clip(r, self.a, 2 * self.a)


@dataclass
class SingleScalePartition:
    level: int
    assign_center: dict            # point -> assigned center, in carving order


def partition_with_radii(space: MetricSpace, subset, h: NetHierarchy, level: int,
                         radii) -> SingleScalePartition:
    """Carve ``subset`` by the level's centers with fixed radii, one per
    center of ``h.net(level)`` in its order.

    One (centers x subset) cover matrix marks each center's ball; a point
    joins the first center in carving order whose ball covers it.
    """
    subset = np.asarray(sorted(set(int(p) for p in subset)), dtype=np.intp)
    centers = np.asarray(h.net(level))
    cover = within(space.pairwise(centers, subset), np.asarray(radii, dtype=float)[:, None])
    covered = cover.any(axis=0)
    if not covered.all():
        raise AssertionError(f"points {subset[~covered].tolist()} not covered at level {level}")
    rank = np.argmax(cover, axis=0)
    by_rank = np.argsort(rank, kind="stable")       # insertion order of the carving loop
    assign_center = dict(zip(subset[by_rank].tolist(), centers[rank[by_rank]].tolist()))
    return SingleScalePartition(level=level, assign_center=assign_center)


def distinct_carvings(space: MetricSpace, subset, h: NetHierarchy, level: int,
                      radius_choices) -> list:
    """Distinct carvings of ``subset`` over each center's candidate radii (a
    row per center of ``h.net(level)``, in its order), in first-occurrence
    itertools.product order, deduplicated while enumerated.

    Centers are walked depth first in carving order, each claiming the still
    unassigned points inside its ball; a radius whose ball claims the same
    points as an earlier radius of the same center is skipped, as its subtree
    only repeats earlier outcomes. A walk ends once every point is claimed, and
    its outcome is the sorted tuple of the non-empty claims' member tuples: the
    clusters partition_with_radii carves with the walk's radii. A walk that
    runs out of centers with points unclaimed raises AssertionError.
    """
    subset = np.asarray(sorted(set(int(p) for p in subset)), dtype=np.intp)
    centers = h.net(level)
    r = np.asarray(radius_choices, dtype=float)
    # balls[c, t, p]: center c's ball at its t-th radius holds point p
    balls = within(space.pairwise(centers, subset)[:, None, :], r[:, :, None])
    reach = [balls[i] for i in np.flatnonzero(balls.any(axis=(1, 2)))]
    claims = []                    # the walk's claims so far, in carving order
    outs = {}                      # distinct outcomes in first-occurrence order

    def walk(depth, unassigned):
        if not unassigned.any():
            outs.setdefault(tuple(sorted(tuple(subset[c].tolist()) for c in claims if c.any())))
            return
        if depth == len(reach):
            raise AssertionError(
                f"points {subset[unassigned].tolist()} not covered at level {level}")
        tried = set()
        for ball in reach[depth]:
            claim = unassigned & ball
            if claim.tobytes() not in tried:
                tried.add(claim.tobytes())
                claims.append(claim)
                walk(depth + 1, unassigned & ~claim)
                claims.pop()

    walk(0, np.ones(len(subset), dtype=bool))
    return list(outs)


@dataclass
class ClusterTree:
    """A cluster tree, with its radius choices, as the per-level plan the
    portal DP solves.

    ``levels[i]`` maps each level-i cluster that some choice reaches from the
    root, keyed by its member tuple, to its list of children options: one per
    distinct carving of its members one level down, each the sorted tuple of
    the children's member tuples, as :func:`distinct_carvings` lists them, so
    ties break alike. With one radius per center every cluster has one
    option. A level-0 cluster's one option is its points; the top level holds
    the root alone.
    """

    levels: list

    def node_count(self) -> int:
        """Distinct clusters: the root and every child of every option."""
        return sum(map(len, self.levels))

    def max_branching(self) -> int:
        return max((len(kids) for clusters in self.levels[1:]
                    for options in clusters.values() for kids in options), default=0)


def estimate_cut_probability(space: MetricSpace, h: NetHierarchy, u: int, v: int,
                             level: int, trials: int, ddim: float, rng) -> float:
    """Fraction of independent level partitions assigning u and v to different centers.

    Vectorized over trials: a point's cluster is the first center in carving
    order whose drawn ball covers it, so only the two distance rows matter.
    All radii come from one ``(trials x centers)`` draw of ``rng``, a row per trial.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if u == v:
        return 0.0
    centers = h.net(level)
    a = h.radius(level)
    du = space.pairwise([u], centers)[0]
    dv = space.pairwise([v], centers)[0]
    dist = RadiusDistribution(a=a, ddim=ddim)
    radii = dist.ppf(rng.random((trials, len(centers))))
    first_u = np.argmax(within(du[None, :], radii), axis=1)
    first_v = np.argmax(within(dv[None, :], radii), axis=1)
    # Covering at radius >= a guarantees some ball covers each point.
    cut = int(np.sum(first_u != first_v))
    return cut / trials
