import numpy as np
import pytest

from nettsp.errors import BadScale
from nettsp.io import KINDS, generate_instance
from nettsp.metric import estimate_doubling, from_points, normalize
from nettsp.nets import NetHierarchy, build_hierarchy, verify_nets


def line(n, spacing=1.0):
    return from_points([(i * spacing, 0.0) for i in range(n)])


def independent_greedy_levels(space, s):
    """Plain re-implementation of the top-down nested greedy, for cross-checking."""
    import math
    n = space.n
    diam = space.diameter()
    top = 0 if diam <= 1 else max(0, math.ceil(math.log(diam) / math.log(s) - 1e-12))
    while s ** top < diam * (1 - 1e-9):
        top += 1
    levels = {top: [0] if top > 0 else list(range(n))}
    for i in range(top, 0, -1):
        net = list(levels[i])
        b = s ** (i - 1)
        for p in range(n):
            if min(space.dist(p, q) for q in net) > b * (1 + 1e-9):
                net.append(p)
        levels[i - 1] = sorted(net)
    levels[0] = list(range(n))
    return top, levels


def test_single_point():
    h = build_hierarchy(from_points([(3.0, 4.0)]), 4.0)
    assert h.top == 0
    assert h.net(0).tolist() == [0]


def test_two_points_distance_one():
    h = build_hierarchy(from_points([(0.0, 0.0), (1.0, 0.0)]), 4.0)
    assert h.top == 0
    assert h.net(0).tolist() == [0, 1]


def test_bad_scale():
    with pytest.raises(BadScale):
        build_hierarchy(line(4), 3.0)


@pytest.mark.parametrize("kind", KINDS)
def test_line_against_independent_greedy(kind):
    sp = normalize(generate_instance(kind, 32 if kind == "line" else 60, 0))
    h = build_hierarchy(sp, 4.0)
    top, levels = independent_greedy_levels(sp, 4.0)
    assert h.top == top >= 1
    for i in range(top + 1):
        assert h.net(i).tolist() == levels[i]


def test_cover_point_self_when_in_net():
    sp = line(32)
    h = build_hierarchy(sp, 4.0)
    for i in range(h.top + 1):
        for p in h.net(i):
            assert h.cover_point(int(p), i) == int(p)


def test_cover_point_level_zero_is_identity():
    sp = line(10)
    h = build_hierarchy(sp, 4.0)
    for p in range(10):
        assert h.cover_point(p, 0) == p


def test_cover_point_matches_brute_force():
    sp = normalize(from_points(np.random.default_rng(0).random((60, 2))))
    h = build_hierarchy(sp, 6.0)
    for i in range(1, h.top + 1):
        net = h.net(i)
        for p in range(sp.n):
            dists = [(sp.dist(p, int(q)), int(q)) for q in net]
            assert h.cover_point(p, i) == min(dists)[1]


def test_cover_point_matches_brute_force_on_a_matrix_space():
    sp = normalize(generate_instance("matrix_random_metric", 40, 0))
    h = build_hierarchy(sp, 4.0)
    assert h.top >= 1
    for i in range(h.top + 2):
        net = [int(q) for q in h.net(i)]
        for p in range(sp.n):
            assert h.cover_point(p, i) == min((sp.dist(q, p), q) for q in net)[1]


def test_verify_constructed_hierarchy():
    sp = normalize(from_points(np.random.default_rng(1).random((100, 2))))
    h = build_hierarchy(sp, 6.0)
    est = estimate_doubling(sp, seed=1)
    report = verify_nets(h, ddim_upper=est.ddim_upper, seed=1)
    assert report.ok, report.violations[:5]
    assert report.level_sizes[0] == sp.n
    if h.top >= 1:
        assert report.level_sizes[-1] == 1


def test_verify_detects_missing_net_point():
    sp = line(40)
    h = build_hierarchy(sp, 4.0)
    assert h.top >= 2
    member = [mask.copy() for mask in h.member]
    member[1][h.net(1)[-1]] = False
    tampered = NetHierarchy(space=h.space, s=h.s, member=member)
    report = verify_nets(tampered)
    assert not report.ok
    kinds = {v[0] for v in report.violations}
    assert "covering" in kinds or "nesting" in kinds


def test_rebuild_is_bit_identical():
    sp = normalize(from_points(np.random.default_rng(2).random((50, 2))))
    h1 = build_hierarchy(sp, 6.0)
    h2 = build_hierarchy(sp, 6.0)
    assert h1.top == h2.top
    for a, b in zip(h1.member, h2.member):
        assert a.tolist() == b.tolist()


def test_level_count_bound():
    import math
    sp = normalize(from_points(np.random.default_rng(3).random((80, 2))))
    h = build_hierarchy(sp, 6.0)
    assert h.top <= math.ceil(math.log(sp.diameter()) / math.log(6.0)) + 1


def test_packing_count_bound_in_audited_balls():
    sp = normalize(from_points(np.random.default_rng(4).random((90, 2))))
    h = build_hierarchy(sp, 6.0)
    est = estimate_doubling(sp, seed=4)
    rng = np.random.default_rng(5)
    for _ in range(16):
        x = int(rng.integers(0, sp.n))
        radius = float(rng.uniform(1.0, sp.diameter()))
        row = sp.row(x)
        for i in range(h.top + 1):
            si = h.radius(i)
            inside = int(np.sum(row[h.net(i)] <= radius * (1 + 1e-9)))
            assert inside <= (2 * (2 * radius + si) / si) ** est.ddim_upper + 1e-9


def test_net_sizes_within_packing_bound():
    sp = normalize(from_points(np.random.default_rng(7).random((120, 2))))
    h = build_hierarchy(sp, 6.0)
    est = estimate_doubling(sp, seed=7)
    for i in range(h.top + 1):
        net = [int(p) for p in h.net(i)]
        if len(net) < 2:
            continue
        diam = max(sp.dist(a, b) for a in net for b in net)
        assert len(net) <= (2 * diam / h.radius(i)) ** est.ddim_upper + 1e-9


def test_virtual_levels_below_zero():
    sp = line(12)
    h = build_hierarchy(sp, 4.0)
    assert h.net(-3).tolist() == list(range(12))
    assert h.cover_point(7, -2) == 7
    assert h.level_of_value(0.2) == -1

