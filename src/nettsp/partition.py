"""Random-radius ball carving.

Cluster centers are the net points of one level, processed in ascending index
order. Each center draws its radii from a truncated exponential on
[scale, 2*scale] whose density decays by a factor controlled by the dimension
parameter; a level's radii are one array, a row per center in net order and a
column per guess. Every still-unassigned point inside a center's ball joins
its cluster. :func:`nettsp.lightdp.tree_from_samples` stacks the carvings into
the cluster tree: per level, the map from each cluster to its children
options, the plan the portal DP solves bottom-up, one level at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metric import MetricSpace, within
from .nets import NetHierarchy


def radius_ppf(a: float, ddim: float, u):
    """Radii at quantiles ``u`` of the truncated exponential on [a, 2a] with
    decay rate 8*ddim*ln2/a."""
    u = np.asarray(u, dtype=float)
    b = 8.0 * ddim
    inner = 1.0 - u * (1.0 - 2.0 ** (-b))
    r = a * (1.0 - np.log2(inner) / b)
    return np.clip(r, a, 2 * a)


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
    runs out of centers with points unclaimed raises AssertionError. The walk
    loops over an explicit stack, so no number of centers is too deep for it.
    """
    subset = np.asarray(sorted(set(int(p) for p in subset)), dtype=np.intp)
    centers = h.net(level)
    r = np.asarray(radius_choices, dtype=float)
    # balls[c, t, p]: center c's ball at its t-th radius holds point p
    balls = within(space.pairwise(centers, subset)[:, None, :], r[:, :, None])
    reach = [balls[i] for i in np.flatnonzero(balls.any(axis=(1, 2)))]
    outs = {}                      # distinct outcomes in first-occurrence order
    # (depth, unassigned, claims): the non-empty claims so far, as (last, earlier) pairs
    stack = [(0, np.ones(len(subset), dtype=bool), None)]
    while stack:
        depth, unassigned, claims = stack.pop()
        if not unassigned.any():
            members = []
            while claims is not None:
                claim, claims = claims
                members.append(tuple(subset[claim].tolist()))
            outs.setdefault(tuple(sorted(members)))
            continue
        if depth == len(reach):
            raise AssertionError(
                f"points {subset[unassigned].tolist()} not covered at level {level}")
        distinct = {}
        for ball in reach[depth]:
            claim = unassigned & ball
            distinct.setdefault(claim.tobytes(), claim)
        # pushed in reverse, so the first radius's subtree is walked first
        for claim in reversed(distinct.values()):
            stack.append((depth + 1, unassigned & ~claim,
                          (claim, claims) if claim.any() else claims))
    return list(outs)


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
    du = space.pairwise([u], centers)[0]
    dv = space.pairwise([v], centers)[0]
    radii = radius_ppf(h.radius(level), ddim, rng.random((trials, len(centers))))
    first_u = np.argmax(within(du[None, :], radii), axis=1)
    first_v = np.argmax(within(dv[None, :], radii), axis=1)
    # Covering at radius >= h.radius(level) guarantees some ball covers each point.
    cut = int(np.sum(first_u != first_v))
    return cut / trials
