"""Tours, tree walks, shortcutting, net-respecting conversion, and patching.

A tour is an ordered point sequence, open or closed, that may revisit points.
The patching operations rebuild tours through an Euler multigraph made of tour
pieces, a spanning tree on crossing points, and a parity-fixing matching routed
along that tree.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import Disconnected, OddParity
from .metric import REL_TOL, MetricSpace, mst
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
    return float(sum(space.dist(x, y) for x, y in tour.transitions()))


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
    return float(sum(space.dist(u, v) for u, v in edges))


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

    pts = list(tour.seq)
    if tour.closed:
        pts = pts + [pts[0]]
    out = [pts[0]]
    for j in range(len(pts) - 1):
        out.extend(expand(pts[j], pts[j + 1])[1:])
    out = _collapse(out)
    if tour.closed:
        if len(out) > 1 and out[-1] == out[0]:
            out = out[:-1]
        return Tour(tuple(out), closed=True)
    return Tour(tuple(out), closed=False)


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
    some edges are unreachable.
    """
    if not edges:
        if start != end:
            raise Disconnected("no edges joining the requested endpoints")
        return [start], []
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
    deg = defaultdict(int)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return {v for v, d in deg.items() if d % 2 == 1}


def _xor(items):
    """Multiset symmetric difference of single vertices (duplicates cancel)."""
    out = set()
    for p in items:
        out ^= {p}
    return out


def crossing_transitions(tour: Tour, cluster) -> list:
    """Indices of transitions with exactly one endpoint in the cluster."""
    cset = set(int(p) for p in cluster)
    return [j for j, (x, y) in enumerate(tour.transitions())
            if (x in cset) != (y in cset)]


def cross_points(tour: Tour, cluster) -> list:
    """Cluster-side endpoints of the crossing transitions, sorted."""
    cset = set(int(p) for p in cluster)
    trans = tour.transitions()
    pts = set()
    for j in crossing_transitions(tour, cluster):
        x, y = trans[j]
        pts.add(x if x in cset else y)
    return sorted(pts)


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

    The tour's edges are split into the part inside the cluster and the rest
    (outside edges plus every crossing edge). Each part is made Eulerian by
    adding a spanning tree on the crossing points and a parity-fixing tree
    matching, walked between two retained boundary points (the cluster-side
    endpoints of the first and last crossings), and the outside walk is
    shortcut around cluster-interior detours. Weight grows by at most four
    tree weights.

    Open tours keep their two endpoints; each endpoint anchors the walk on
    its own side of the boundary.
    """
    cset = set(int(p) for p in cluster)
    if not cset:
        raise ValueError("cluster must be nonempty")
    trans = tour.transitions()
    crossing_set = set(j for j, (x, y) in enumerate(trans) if (x in cset) != (y in cset))
    if len(crossing_set) <= 2:
        return tour
    crossings = sorted(crossing_set)

    tree = mst(space, cross_points(tour, cluster))

    def c_side(j):
        x, y = trans[j]
        return x if x in cset else y

    u_star = c_side(crossings[0])
    v_star = c_side(crossings[-1])

    in_edges = []
    out_edges = []
    for j, (x, y) in enumerate(trans):
        if x == y:
            continue
        if j in crossing_set:
            out_edges.append((x, y))
        elif x in cset and y in cset:
            in_edges.append((x, y))
        else:
            out_edges.append((x, y))

    def assemble_side(base_edges, trail_ends, virtual_pair=None):
        """Eulerize one side: tree + parity matching so odd set == trail_ends."""
        edges = list(base_edges) + list(tree)
        virtual_id = None
        if virtual_pair is not None:
            virtual_id = len(edges)
            edges.append(virtual_pair)
        flips = _odd_vertices(edges) ^ _xor(trail_ends)
        for pair in odd_matching_by_tree(space, tree, sorted(flips)):
            edges.append(pair)
        return edges, virtual_id

    def walk_side(edges, start, end):
        verts, _ = euler_trail(edges, start, end)
        return verts

    def walk_split(edges, start, end, virtual_id):
        verts, eids = euler_trail(edges, start, end)
        pos = eids.index(virtual_id)
        return verts[: pos + 1], verts[pos + 1:]

    if tour.closed:
        ends = [u_star, v_star]
        edges_in, _ = assemble_side(in_edges, ends)
        edges_out, _ = assemble_side(out_edges, ends)
        walk_in = walk_side(edges_in, u_star, v_star)
        walk_out = _shortcut_outside(walk_side(edges_out, u_star, v_star), cset)
        rev_out = list(reversed(walk_out))
        seq = walk_in + rev_out[1:-1]
        seq = _collapse(seq + [seq[0]])
        seq = seq[:-1] if len(seq) > 1 and seq[-1] == seq[0] else seq
        return Tour(tuple(seq), closed=True)

    e1, e2 = tour.endpoints
    e1_in, e2_in = e1 in cset, e2 in cset
    if e1_in and e2_in:
        # Virtual glue edge sits inside; splitting its traversal yields the
        # two inside stretches around one outside excursion.
        edges_in, vid = assemble_side(in_edges, [e1, e2], virtual_pair=(u_star, v_star))
        edges_out, _ = assemble_side(out_edges, [u_star, v_star])
        part1, part2 = walk_split(edges_in, e1, e2, vid)
        walk_out = _shortcut_outside(walk_side(edges_out, part1[-1], part2[0]), cset)
        seq = part1 + walk_out[1:] + part2[1:]
    elif not e1_in and not e2_in:
        edges_out, vid = assemble_side(out_edges, [e1, e2], virtual_pair=(u_star, v_star))
        edges_in, _ = assemble_side(in_edges, [u_star, v_star])
        part1, part2 = walk_split(edges_out, e1, e2, vid)
        part1 = _shortcut_outside(part1, cset)
        part2 = _shortcut_outside(part2, cset)
        walk_in = walk_side(edges_in, part1[-1], part2[0])
        seq = part1 + walk_in[1:] + part2[1:]
    else:
        e_inside, e_outside = (e1, e2) if e1_in else (e2, e1)
        edges_in, _ = assemble_side(in_edges, [e_inside, u_star])
        edges_out, _ = assemble_side(out_edges, [u_star, e_outside])
        walk_in = walk_side(edges_in, e_inside, u_star)
        walk_out = _shortcut_outside(walk_side(edges_out, u_star, e_outside), cset)
        seq = walk_in + walk_out[1:]
        if not e1_in:
            seq = list(reversed(seq))
    seq = _collapse(seq)
    return Tour(tuple(seq), closed=False)


def stitch_subtours(space: MetricSpace, subtours, cross_pts) -> Tour:
    """Join subtours into one closed tour via an MST on the crossing points.

    The multigraph of all subtour edges, the MST on ``cross_pts``, and a
    parity-fixing tree matching is Eulerian; its circuit weighs at most the
    subtour total plus twice the tree weight.
    """
    cross_pts = sorted(set(int(p) for p in cross_pts))
    if not cross_pts:
        raise ValueError("cross_pts must be nonempty")
    edges = []
    for t in subtours:
        for x, y in t.transitions():
            if x != y:
                edges.append((x, y))
    tree = mst(space, cross_pts)
    edges.extend(tree)
    odd = _odd_vertices(edges)
    outside = [p for p in odd if p not in cross_pts]
    if outside:
        raise ValueError(f"subtour endpoints {sorted(outside)} not in cross points")
    edges.extend(odd_matching_by_tree(space, tree, sorted(odd)))
    if not edges:
        return Tour((cross_pts[0],), closed=True)
    touched = set()
    for u, v in edges:
        touched.update((u, v))
    for p in cross_pts:
        if p not in touched:
            raise Disconnected(f"cross point {p} attached to nothing")
    start = min(touched)
    verts, _ = euler_trail(edges, start, start)
    seq = verts[:-1] if len(verts) > 1 else verts
    return Tour(tuple(seq), closed=True)
