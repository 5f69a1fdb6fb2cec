"""Tours, tree walks, shortcutting, net-respecting conversion, and patching.

A tour is an ordered point sequence, open or closed, that may revisit points.
Patching, stitching and the Christofides baseline share one Euler assembly
(:func:`_eulerian`): tour pieces, a spanning tree, and a parity-fixing
matching routed along that tree, walked as an Euler trail. Every closed walk
becomes a tour by one rule (:func:`_closed_tour`).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import Disconnected, OddParity
from .metric import REL_TOL, MetricSpace, fold_weight, mst
from .nets import NetHierarchy


@dataclass(frozen=True)
class Tour:
    seq: tuple
    closed: bool = True

    def __post_init__(self):
        object.__setattr__(self, "seq", tuple(int(p) for p in self.seq))

    def transitions(self):
        pairs = [(self.seq[j], self.seq[j + 1]) for j in range(len(self.seq) - 1)]
        if self.closed and len(self.seq) > 1:
            pairs.append((self.seq[-1], self.seq[0]))
        return pairs

    def visits(self):
        return set(self.seq)

    @property
    def endpoints(self):
        return self.seq[0], self.seq[-1]


def tour_weight(space: MetricSpace, tour: Tour) -> float:
    return edges_weight(space, tour.transitions())


def _collapse(points):
    out = [points[0]]
    for p in points[1:]:
        if p != out[-1]:
            out.append(p)
    return out


def dedupe_visits(tour: Tour) -> Tour:
    """Shortcut a closed tour so every point is visited exactly once."""
    assert tour.closed
    seen = set()
    out = []
    for p in tour.seq:
        if p not in seen:
            seen.add(p)
            out.append(p)
    return Tour(tuple(out), closed=True)


def edges_weight(space: MetricSpace, edges) -> float:
    return float(fold_weight(space.pairwise(), *np.asarray(edges, dtype=np.intp).reshape(-1, 2).T))


def _preorder(edges, root):
    """Preorder walk of the tree ``edges`` from ``root``, lowest neighbour
    first; returns the order and each reached vertex's parent (None at root)."""
    adj = defaultdict(list)
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = {root: None}
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in sorted(adj[v], reverse=True):
            if w not in parent:
                parent[w] = v
                stack.append(w)
    return order, parent


def double_tree_tour(space: MetricSpace) -> Tour:
    """Closed tour from a preorder walk of the space's MST; weight <= 2 * MST weight."""
    order, _ = _preorder(space.mst_edges, 0)
    return Tour(tuple(order), closed=True)


def is_net_respecting(tour: Tour, h: NetHierarchy, eps: float):
    """Check that every transition's endpoints sit in the net at scale ~ eps*length.

    Returns (ok, first_violation) where the violation is (transition_index,
    (x, y)). Transitions shorter than 1/eps need only bottom-level points and
    always pass.
    """
    for idx, (x, y) in enumerate(tour.transitions()):
        if _off_net(h.space, h, eps, x, y):
            return False, (idx, (x, y))
    return True, None


def _off_net(space: MetricSpace, h: NetHierarchy, eps: float, x: int, y: int) -> bool:
    """Whether transition (x, y) has an endpoint outside the net at scale ~ eps*d(x, y)."""
    if x == y:
        return False
    level = h.level_of_value(eps * space.dist(x, y))
    return level >= 0 and not (h.in_net(x, level) and h.in_net(y, level))


def make_net_respecting(space: MetricSpace, tour: Tour, h: NetHierarchy, eps: float) -> Tour:
    """Reroute transitions through covering net points until net-respecting.

    A violating transition (x, y) is replaced by (x, x'), (x', y'), (y', y)
    with x', y' the covering net points at the highest level of scale at most
    2*eps*d(x, y); the two short stubs are expanded recursively. Total growth
    is at most a factor 1 + 16*eps for eps <= 1/8.
    """
    if not 0 < eps <= 0.125 + REL_TOL:
        raise ValueError("eps must lie in (0, 1/8]")

    def expand(x, y, depth=0):
        if x == y:
            return [x]
        if depth > 64 or not _off_net(space, h, eps, x, y):
            return [x, y]
        level = h.level_of_value(2 * eps * space.dist(x, y))
        xc = h.cover_point(x, level)
        yc = h.cover_point(y, level)
        left = expand(x, xc, depth + 1)
        mid = expand(xc, yc, depth + 1)
        right = expand(yc, y, depth + 1)
        return left + mid[1:] + right[1:]

    out = [tour.seq[0]]
    for x, y in tour.transitions():
        out.extend(expand(x, y)[1:])
    return _closed_tour(out) if tour.closed else Tour(tuple(_collapse(out)), closed=False)


def odd_matching_by_tree(space: MetricSpace, tree_edges, odd) -> list:
    """Perfect matching on ``odd`` with edge-disjoint induced tree paths.

    Unmatched vertices are paired bottom-up: each subtree hands at most one
    leftover to its parent, so every tree edge lies on at most one matched
    pair's path and the matching weight (under true distances, which the
    triangle inequality bounds by tree-path weights) is at most the tree
    weight.
    """
    odd = sorted(set(int(p) for p in odd))
    if len(odd) % 2 != 0:
        raise OddParity(f"{len(odd)} odd vertices cannot be perfectly matched")
    if not odd:
        return []
    verts = {v for edge in tree_edges for v in edge}
    missing = [p for p in odd if p not in verts]
    if missing:
        raise ValueError(f"odd vertices {missing} not spanned by the tree")
    preorder, parent = _preorder(tree_edges, min(verts))
    if any(p not in parent for p in odd):
        raise ValueError("odd vertices span multiple tree components")
    odd_set = set(odd)
    carry = defaultdict(list)
    pairs = []
    for v in reversed(preorder):
        mine = carry[v]
        if v in odd_set:
            mine.append(v)
        while len(mine) >= 2:
            pairs.append((mine.pop(0), mine.pop(0)))
        if mine:
            if parent[v] is None:
                raise AssertionError("leftover vertex at the root despite even parity")
            carry[parent[v]].append(mine[0])
    return pairs


def euler_trail(edges, start, end):
    """Euler trail consuming every edge once, lowest-index neighbor first.

    Degrees must be even except possibly at start/end. Returns the vertex
    sequence and the edge ids in traversal order; raises Disconnected when
    some edges are unreachable or the trail cannot end at ``end``.
    """
    adj = defaultdict(list)
    for eid, (u, v) in enumerate(edges):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    for v in adj:
        adj[v].sort()
    used = [False] * len(edges)
    ptr = defaultdict(int)
    stack = [(start, None)]
    walk = []
    while stack:
        v, via = stack[-1]
        advanced = False
        while ptr[v] < len(adj[v]):
            to, eid = adj[v][ptr[v]]
            ptr[v] += 1
            if not used[eid]:
                used[eid] = True
                stack.append((to, eid))
                advanced = True
                break
        if not advanced:
            walk.append(stack.pop())
    walk.reverse()
    if not all(used):
        raise Disconnected("euler trail cannot reach every edge")
    vertices = [v for v, _ in walk]
    edge_ids = [e for _, e in walk[1:]]
    if vertices[0] != start or vertices[-1] != end:
        raise Disconnected("no euler trail with the requested endpoints")
    return vertices, edge_ids


def _odd_vertices(edges):
    deg = Counter(p for edge in edges for p in edge)
    return {v for v, d in deg.items() if d % 2 == 1}


def _eulerian(space: MetricSpace, edges, tree, start, end, glue=()) -> list:
    """``edges``, then ``tree``, then ``glue``, then the tree matching on the
    vertices whose parity differs from that of an Euler trail from ``start``
    to ``end``: a multigraph with such a trail when it is connected.

    :func:`euler_trail` breaks ties by edge id, so the order is part of the
    result.
    """
    edges = [*edges, *tree, *glue]
    return edges + odd_matching_by_tree(space, tree, _odd_vertices(edges) ^ {start} ^ {end})


def _closed_tour(points) -> Tour:
    """The closed tour of a walk: repeats collapsed, the walk closed back to
    its start, and the repeated start dropped."""
    seq = _collapse(list(points) + [points[0]])
    return Tour(tuple(seq[:-1] if len(seq) > 1 else seq), closed=True)


def crossing_transitions(tour: Tour, cluster) -> list:
    """Indices of transitions with exactly one endpoint in the cluster."""
    cset = set(int(p) for p in cluster)
    return [j for j, (x, y) in enumerate(tour.transitions())
            if (x in cset) != (y in cset)]


def cross_points(tour: Tour, cluster) -> list:
    """Cluster-side endpoints of the crossing transitions, sorted."""
    cset = set(int(p) for p in cluster)
    return sorted({x if x in cset else y for x, y in tour.transitions()
                   if (x in cset) != (y in cset)})


def _shortcut_outside(points, cset):
    """Drop interior cluster points from an outside walk (endpoints kept)."""
    if len(points) <= 2:
        return list(points)
    out = [points[0]]
    for p in points[1:-1]:
        if p not in cset:
            out.append(p)
    out.append(points[-1])
    return out


def patch_crossings(space: MetricSpace, tour: Tour, cluster) -> Tour:
    """Reroute a tour so it crosses ``cluster`` at most twice.

    The tour's edges are split into the inside ones (both ends in the
    cluster) and the rest, crossing edges included. Each part is made
    Eulerian (:func:`_eulerian`) by adding a spanning tree on the crossing
    points and a parity-fixing tree matching, and walked between two retained
    boundary points u and v (the cluster-side endpoints of the first and last
    crossings); the outside walk is shortcut around cluster-interior detours.
    A closed tour is the inside walk from u to v and the outside walk back.
    Weight grows by at most four tree weights.

    Open tours keep their two endpoints. With one end on each side, each
    side's walk runs from its end to u. With both ends on one side, that
    side's part also gets a glue edge (u, v) and is walked from end to end;
    the glue edge's traversal cuts the walk into two stretches, and the other
    side's walk, between the glue edge's ends, replaces it.
    """
    cset = set(int(p) for p in cluster)
    if not cset:
        raise ValueError("cluster must be nonempty")
    crossings = crossing_transitions(tour, cset)
    if len(crossings) <= 2:
        return tour
    trans = tour.transitions()
    tree = mst(space, cross_points(tour, cset))
    u, v = (x if x in cset else y for x, y in (trans[crossings[0]], trans[crossings[-1]]))
    inside = [(x, y) for x, y in trans if x != y and x in cset and y in cset]
    outside = [(x, y) for x, y in trans if x != y and not (x in cset and y in cset)]

    def walk(base, start, end, glue=()):
        """The Euler trail of ``base``'s assembly from start to end, as one
        stretch, or as two cut at the glue edge."""
        verts, eids = euler_trail(_eulerian(space, base, tree, start, end, glue), start, end)
        if not glue:
            return (verts,)
        cut = eids.index(len(base) + len(tree)) + 1
        return verts[:cut], verts[cut:]

    if tour.closed:
        (walk_in,), (walk_out,) = walk(inside, u, v), walk(outside, u, v)
        return _closed_tour(walk_in + _shortcut_outside(walk_out, cset)[::-1][1:-1])
    e1, e2 = tour.endpoints
    if e1 in cset and e2 in cset:
        part1, part2 = walk(inside, e1, e2, glue=[(u, v)])
        (mid,) = walk(outside, part1[-1], part2[0])
        seq = part1 + _shortcut_outside(mid, cset)[1:] + part2[1:]
    elif e1 not in cset and e2 not in cset:
        part1, part2 = (_shortcut_outside(p, cset) for p in walk(outside, e1, e2, glue=[(u, v)]))
        (mid,) = walk(inside, part1[-1], part2[0])
        seq = part1 + mid[1:] + part2[1:]
    else:
        e_in, e_out = (e1, e2) if e1 in cset else (e2, e1)
        (walk_in,), (walk_out,) = walk(inside, e_in, u), walk(outside, u, e_out)
        seq = walk_in + _shortcut_outside(walk_out, cset)[1:]
        if e1 not in cset:
            seq.reverse()
    return Tour(tuple(_collapse(seq)), closed=False)


def stitch_subtours(space: MetricSpace, subtours, cross_pts) -> Tour:
    """Join subtours into one closed tour via an MST on the crossing points.

    The multigraph of all subtour edges, the MST on ``cross_pts``, and a
    parity-fixing tree matching (:func:`_eulerian`) is Eulerian; its circuit
    weighs at most the subtour total plus twice the tree weight.
    """
    cross_pts = sorted(set(int(p) for p in cross_pts))
    if not cross_pts:
        raise ValueError("cross_pts must be nonempty")
    edges = [(x, y) for t in subtours for x, y in t.transitions() if x != y]
    outside = _odd_vertices(edges) - set(cross_pts)
    if outside:
        raise ValueError(f"subtour endpoints {sorted(outside)} not in cross points")
    edges = _eulerian(space, edges, mst(space, cross_pts), cross_pts[0], cross_pts[0])
    if not edges:
        return Tour((cross_pts[0],), closed=True)
    touched = {p for edge in edges for p in edge}
    for p in cross_pts:
        if p not in touched:
            raise Disconnected(f"cross point {p} attached to nothing")
    start = min(touched)
    verts, _ = euler_trail(edges, start, start)
    return _closed_tour(verts)
