import builtins
import hashlib
import json
import math
import re
import time
import warnings
from functools import reduce
from operator import add

import numpy as np
import pytest

from nettsp.errors import (ConfigError, DegenerateInstance, InvalidMetric, ParseError,
                           TriangleViolation)
from nettsp.io import generate_instance, instance_digest, load_instance, save_points_csv
from nettsp.metric import from_points, normalize, tree_weights, validate_metric, within
from nettsp.nets import build_hierarchy
from nettsp.oracles import brute_force_tsp, held_karp_tsp
from nettsp.runner import MODES, render_report, run, strip_timing
from nettsp.sparse import find_dense_region
from nettsp.tours import Tour, edges_weight, mst, tour_weight
from nettsp.cli import main


EUC_SAMPLE = """NAME: tiny
TYPE: TSP
DIMENSION: 3
EDGE_WEIGHT_TYPE: EUC_2D
NODE_COORD_SECTION
1 0.0 0.0
2 0.0 1.0
3 1.0 0.0
EOF
"""

MATRIX_BAD = """NAME: bad
TYPE: TSP
DIMENSION: 3
EDGE_WEIGHT_TYPE: EXPLICIT
EDGE_WEIGHT_FORMAT: FULL_MATRIX
EDGE_WEIGHT_SECTION
0 1 5
1 0 1
5 1 0
EOF
"""


def test_load_euc2d(tmp_path):
    path = tmp_path / "tiny.tsp"
    path.write_text(EUC_SAMPLE)
    sp = load_instance(str(path), "tsplib_euc2d")
    assert sp.n == 3
    assert sp.dist(1, 2) == pytest.approx(math.sqrt(2))


def test_load_matrix_triangle_violation(tmp_path):
    path = tmp_path / "bad.tsp"
    path.write_text(MATRIX_BAD)
    with pytest.raises(TriangleViolation) as err:
        load_instance(str(path), "tsplib_matrix")
    assert "(0, 2, 1" in str(err.value)


@pytest.mark.parametrize("text, fmt, message", [
    ("0,0\n1,nan\n2,2\n", "points_csv", "non-finite coordinate at (1, 1)"),
    ("0,0\ninf,1\n2,2\n", "points_csv", "non-finite coordinate at (1, 0)"),
    ('{"matrix": [[0, NaN], [NaN, 0]]}', "points_json", "non-finite distance at (0, 1)"),
    ('{"matrix": [[0, 1], [3, 0]]}', "points_json", "asymmetric distance at (0, 1)"),
])
def test_load_rejects_invalid_distances_by_name(tmp_path, text, fmt, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InvalidMetric) as err:
            load_instance(str(path), fmt)
    assert str(err.value).startswith(message + ": ")
    assert not caught


def test_cli_run_reports_non_finite_input(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("0,0\n1,inf\n2,2\n")
    code = main(["run", "--instance", str(path), "--format", "points_csv",
                 "--mode", "solve"])
    assert code == 2
    assert "non-finite coordinate at (1, 1): replace nan and inf" in capsys.readouterr().err


@pytest.mark.parametrize("text, spread", [
    ('{"points": [[0, 0], [1e-160, 0], [1e150, 0]]}', "2^1029.8"),
    ('{"matrix": [[0, 1e-300, 1e300], [1e-300, 0, 1e300], [1e300, 1e300, 0]]}', "2^1993.2"),
], ids=["points", "matrix"])
def test_cli_run_names_a_spread_that_normalization_would_overflow(tmp_path, capsys, text, spread):
    # both pass validation; the points hung in estimate_doubling on NaN
    # distances, and the matrix raised IndexError
    path = tmp_path / "far.json"
    path.write_text(text)
    assert main(["validate", "--instance", str(path), "--format", "points_json"]) == 0
    for mode in MODES:
        code = main(["run", "--instance", str(path), "--format", "points_json", "--mode", mode])
        assert code == 2
        assert (f"error: the diameter is {spread} times the smallest distance, over 2^500: "
                "drop far points") in capsys.readouterr().err


def test_parse_error_carries_line(tmp_path):
    path = tmp_path / "broken.tsp"
    path.write_text("NAME: x\nNODE_COORD_SECTION\n1 banana 2\n")
    with pytest.raises(ParseError) as err:
        load_instance(str(path), "tsplib_euc2d")
    assert "line 3" in str(err.value)


@pytest.mark.parametrize("text, fmt, line", [
    ("0,0\n0,0,5\n1,1\n", "points_csv", 2),
    ("NODE_COORD_SECTION\n1 0 0\n2 0 0 5\n3 1 1\n", "tsplib_euc2d", 3),
])
def test_a_third_coordinate_is_a_parse_error(tmp_path, text, fmt, line):
    path = tmp_path / "three.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        load_instance(str(path), fmt)
    assert f"line {line}" in str(err.value)


def test_duplicate_points_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("0,0\n0,0\n1,1\n")
    with pytest.raises(DegenerateInstance):
        load_instance(str(path), "points_csv")


def test_csv_round_trip(tmp_path):
    sp = generate_instance("uniform2d", 100, seed=7)
    path = tmp_path / "pts.csv"
    save_points_csv(sp, str(path))
    sp2 = load_instance(str(path), "points_csv")
    assert np.array_equal(sp.coords, sp2.coords)
    assert instance_digest(sp) == instance_digest(sp2)


def test_json_points_and_matrix(tmp_path):
    p1 = tmp_path / "a.json"
    p1.write_text(json.dumps({"points": [[0, 0], [0, 1], [1, 0]]}))
    sp = load_instance(str(p1), "points_json")
    assert sp.n == 3
    p2 = tmp_path / "b.json"
    p2.write_text(json.dumps({"matrix": [[0, 2], [2, 0]]}))
    sp = load_instance(str(p2), "points_json")
    assert sp.dist(0, 1) == pytest.approx(2.0)
    p3 = tmp_path / "c.json"
    p3.write_text(json.dumps({"nothing": 1}))
    with pytest.raises(ParseError):
        load_instance(str(p3), "points_json")


# --------------------------------------------------------------- generate

def test_generate_line():
    sp = generate_instance("line", 5, seed=0)
    assert sp.n == 5
    assert sp.dist(0, 4) == pytest.approx(4.0)


def test_generate_uniform_valid_metric():
    sp = generate_instance("uniform2d", 50, seed=7)
    assert validate_metric(sp) is None


def test_generate_matrix_random_metric_valid():
    sp = generate_instance("matrix_random_metric", 30, seed=3)
    assert validate_metric(sp) is None


def test_generate_clustered_triggers_dense_detection():
    from nettsp.metric import normalize
    sp = normalize(generate_instance(
        "clustered", 40, seed=1,
        params={"clusters": 2, "spread": 0.2, "separation": 60.0}))
    h = build_hierarchy(sp, 6.0)
    assert find_dense_region(sp, h, 2.0) is not None


def test_generate_deterministic():
    a = generate_instance("uniform2d", 20, seed=9)
    b = generate_instance("uniform2d", 20, seed=9)
    assert np.array_equal(a.coords, b.coords)


# -------------------------------------------------------------------- run

def test_run_oracle_mode():
    sp = generate_instance("uniform2d", 5, seed=1)
    report = run({"space": sp, "mode": "oracle", "seed": 0})
    assert report["results"]["held_karp"]["exact"]
    assert report["results"]["brute"]["exact"]
    assert report["results"]["held_karp"]["weight"] == pytest.approx(
        report["results"]["brute"]["weight"])


def test_run_rejects_bad_config():
    sp = generate_instance("uniform2d", 5, seed=1)
    with pytest.raises(ConfigError):
        run({"space": sp, "mode": "nonsense"})
    with pytest.raises(ConfigError):
        run({"space": sp, "mode": "solve", "eps": 0.3})
    with pytest.raises(ConfigError, match=r"unknown config key 'r'; accepted keys: space, "
                       r"mode, seed, eps, s, q, delta, m_cap, guesses"):
        run({"space": sp, "mode": "solve", "r": 4})
    with pytest.raises(ConfigError, match=r"unknown config key 'm-cap'"):
        run({"space": sp, "mode": "solve", "m-cap": 4})
    with pytest.raises(ConfigError):
        run({"space": "not a space", "mode": "solve"})


@pytest.mark.parametrize("mode", MODES)
def test_run_on_a_space_with_no_points_raises_a_config_error(mode):
    empty = from_points(np.zeros((0, 2)))
    with pytest.raises(ConfigError, match=re.escape("config['space'] has no points")):
        run({"space": empty, "mode": mode})


@pytest.mark.parametrize("key, value", [
    ("m_cap", 0), ("m_cap", -3), ("m_cap", 2.5), ("guesses", 0)])
def test_m_cap_and_guesses_must_be_integers_at_least_one(tmp_path, capsys, key, value):
    sp = generate_instance("uniform2d", 5, seed=1)
    message = f"{key} must be an integer >= 1, got {value!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        run({"space": sp, "mode": "solve", key: value})
    if isinstance(value, int):
        inst = tmp_path / "inst.csv"
        save_points_csv(sp, str(inst))
        rc = main(["run", "--instance", str(inst), "--format", "points_csv", "--mode", "solve",
                   "--" + key.replace("_", "-"), str(value)])
        assert rc == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("eps", "0.05", "eps must be a number, got '0.05'"),
    ("q", "5", "q must be a number, got '5'"),
    ("s", None, "s must be a number, got None"),
    ("delta", [1], "delta must be a number, got [1]"),
    ("guesses", True, "guesses must be a number, got True"),
    ("m_cap", True, "m_cap must be a number, got True"),
    ("seed", "x", "seed must be a number, got 'x'"),
    ("seed", True, "seed must be a number, got True"),
    ("seed", 1.5, "seed must be an integer >= 0, got 1.5"),
    ("seed", -1, "seed must be an integer >= 0, got -1")],
    ids=["eps-str", "q-str", "s-none", "delta-list", "guesses-bool", "m_cap-bool",
         "seed-str", "seed-bool", "seed-1.5", "seed-neg"])
def test_non_numeric_solver_values_and_bad_seeds_raise_a_config_error(key, value, message):
    sp = generate_instance("uniform2d", 5, seed=1)
    with pytest.raises(ConfigError, match="^" + re.escape("bad solver parameters: " + message)):
        run({"space": sp, "mode": "solve", key: value})


@pytest.mark.parametrize("argv, message", [
    (["run", "--mode", "solve", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
    (["oracle", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
    (["gen", "--kind", "uniform2d", "--n", "0"], "n must be an integer >= 1, got 0"),
    (["gen", "--kind", "uniform2d", "--n", "5", "--seed", "-1"],
     "seed must be an integer >= 0, got -1")],
    ids=["run-seed-neg", "oracle-seed-neg", "gen-n0", "gen-seed-neg"])
def test_cli_bad_seed_or_size_exits_2_with_a_named_error(tmp_path, capsys, argv, message):
    inst = tmp_path / "inst.csv"
    save_points_csv(generate_instance("uniform2d", 5, seed=1), str(inst))
    where = (["--out", str(tmp_path / "gen.csv")] if argv[0] == "gen" else
             ["--instance", str(inst), "--format", "points_csv"])
    assert main(argv + where) == 2
    err = capsys.readouterr().err
    assert "error: " in err and message in err and "Traceback" not in err


def test_generator_rejects_an_unknown_kind_a_bad_size_or_a_negative_seed():
    for args in (("hexagons", 5), ("uniform2d", 0), ("line", 2.5), ("line", True),
                 ("uniform2d", 5, -1)):
        with pytest.raises(ConfigError):
            generate_instance(*args)


@pytest.mark.parametrize("kind, params, message", [
    ("clustered", {"clusters": 0}, "'clusters' must be an integer >= 1, got 0"),
    ("clustered", {"clusters": -1}, "'clusters' must be an integer >= 1"),
    ("clustered", {"clusters": 2.0}, "'clusters' must be an integer >= 1"),
    ("clustered", {"clusters": True}, "'clusters' must be an integer >= 1"),
    ("clustered", {"spread": -0.1}, "'spread' must be finite and >= 0"),
    ("clustered", {"spread": math.inf}, "'spread' must be finite and >= 0"),
    ("clustered", {"separation": math.nan}, "'separation' must be finite, got nan"),
    ("clustered", {"separation": "5"}, "'separation' must be finite"),
    ("clustered", {"spacing": 2.0},
     "unknown clustered param 'spacing'; accepted params: clusters, spread, separation"),
    ("line", {"spacing": math.nan}, "'spacing' must be finite"),
    ("line", {"clusters": 2}, "unknown line param 'clusters'; accepted params: spacing"),
    ("uniform2d", {"spread": 0.1}, "unknown uniform2d param 'spread'; accepted params: none"),
    ("matrix_random_metric", {"n": 5}, "accepted params: none"),
])
def test_generator_rejects_bad_params(kind, params, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        generate_instance(kind, 10, 0, params)


@pytest.mark.parametrize("params, message", [
    ({"q": -1.0}, "q must be positive"), ({"q": 0.0}, "q must be positive"),
    ({"q": math.nan}, "q must be positive"), ({"q": math.inf}, None),
    ({"s": math.nan}, "s must be finite and at least 6"),
    ({"s": 1e155}, "the default q = 64 (s/eps)^2 overflows"),
    ({"s": 1e152}, "the default q = 64 (s/eps)^2 overflows"),
    ({"eps": 1e-150}, None), ({"eps": 1e-150, "q": 5.0}, None),
    ({"delta": math.nan}, "delta must lie in (0, 1/12]"),
    ({"delta": -1.0}, "delta must lie in (0, 1/12]")],
    ids=["q-1", "q0", "q-nan", "q-inf", "s-nan", "s1e155", "s1e152", "eps1e-150",
         "eps1e-150-q5", "delta-nan", "delta-1"])
def test_out_of_domain_solver_parameters_end_in_a_config_error_or_a_valid_tour(
        tmp_path, capsys, params, message):
    # inf q never splits; a theory value too large for a float reads inf. The
    # default q overflows in the power at s = 1e155 and in the product at 1e152.
    sp = generate_instance("uniform2d", 30, seed=0)
    inst, out = tmp_path / "inst.csv", tmp_path / "report.json"
    save_points_csv(sp, str(inst))
    rc = main(["run", "--instance", str(inst), "--format", "points_csv", "--mode", "solve",
               "--out", str(out)] + [f"--{key}={value!r}" for key, value in params.items()])
    if message is not None:
        with pytest.raises(ConfigError, match="^" + re.escape("bad solver parameters: " + message)):
            run(dict(params, space=sp, mode="solve"))
        assert rc == 2
        assert f"error: bad solver parameters: {message}" in capsys.readouterr().err
        return
    assert rc == 0
    for report in (run(dict(params, space=sp, mode="solve")), json.loads(out.read_text())):
        assert sorted(report["results"]["solve"]["tour"]) == list(range(30))
        assert report["results"]["solve"]["ratio_to_lower_bound"] >= 1
    assert "eps" not in params or report["theory"]["m_theory"] == "inf"


def test_run_solve_deterministic_across_repeats():
    sp = generate_instance("uniform2d", 12, seed=5)
    r1 = strip_timing(render_report(run({"space": sp, "mode": "solve", "seed": 42})))
    r2 = strip_timing(render_report(run({"space": sp, "mode": "solve", "seed": 42})))
    assert r1 == r2


SOLVE_DIGESTS = [
    # 19 children at the root: the heuristic child order
    ("uniform2d", 40, None, {},
     "3c562652601bda6d1314eec6e49b6960c3e10e423874239804b22eacb8d25af7"),
    # the dense scan fires: splits, splices and many small sub-solves
    ("clustered", 160, {"clusters": 4}, {"q": 2.0},
     "237daa7497b5573c9c0f719b97c1f8dae429fdfaffc705abc01ea93aa4a33be8"),
    # several children options per cluster
    ("uniform2d", 20, None, {"guesses": 2},
     "5eed531394960723ce3a9840d445d76c44be1e49268e422053f41bd1d83f3a24"),
    # one node of 98 children: the widest heuristic child order
    ("matrix_random_metric", 100, None, {},
     "d003ba899bfab7bc0f734da189931909b95d28d178afd3925e91ae93221bd422"),
    # many wide nodes over several levels
    ("uniform2d", 160, None, {},
     "99c88651ba85ab643426be324abd6aaba5a022a7a3af76ef7d23b0b8585e7115"),
    # three guesses: 3 of the 34 clusters above level 0 have several children options
    ("uniform2d", 30, None, {"guesses": 3},
     "9c7c525311cd14d251f99954723b62cfbc454a80e1d329f804928a7baa04a1a2"),
    # two guesses on a matrix: 3 of its 4 clusters above level 0 have several options
    ("matrix_random_metric", 40, None, {"guesses": 2},
     "c2c20b5e992fbbd5ba96d3f102b2c61acebc61fc5c6007655bc3385edadf1d3e"),
]


@pytest.mark.parametrize("family, n, params, config, digest", SOLVE_DIGESTS,
                         ids=["uniform2d-40", "clustered-160-q2", "uniform2d-20-two-guesses",
                              "matrix_random_metric-100", "uniform2d-160",
                              "uniform2d-30-three-guesses", "matrix_random_metric-40-two-guesses"])
def test_solve_reports_are_pinned(family, n, params, config, digest):
    space = normalize(generate_instance(family, n, 0, params))
    report = run(dict(config, mode="solve", seed=0, space=space))
    text = strip_timing(render_report(report)) + repr(report["results"]["solve"]["weight"])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


BUILTIN_SUM = builtins.sum


def compensated_sum(items, /, start=0):
    """Builtin sum with float terms added exactly rounded (math.fsum), as
    Python 3.12 and later add them with compensation; ints as before."""
    items = list(items)
    if any(isinstance(item, float) for item in items):
        return start + math.fsum(items)
    return BUILTIN_SUM(items, start)


def test_weights_do_not_depend_on_builtin_sum(monkeypatch):
    # every weight is a left fold from 0.0, whatever the interpreter's sum does
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    for case in SOLVE_DIGESTS:
        test_solve_reports_are_pinned(*case)
    for family in ("uniform2d", "matrix_random_metric"):
        sp = normalize(generate_instance(family, 40, 0))
        h = build_hierarchy(sp, 6.0)
        for level in range(h.top + 1):
            inside = within(sp.pairwise(), 3 * h.radius(level))
            inside = inside[np.count_nonzero(inside, axis=1) >= 2]
            for row, w in zip(inside, tree_weights(sp, inside).tolist()):
                assert w == edges_weight(sp, mst(sp, np.flatnonzero(row)))
    for family in ("uniform2d", "clustered", "line", "matrix_random_metric"):
        for n in range(2, 9):
            sp = normalize(generate_instance(family, n, 0))
            d = sp.pairwise().tolist()
            brute, exact = brute_force_tsp(sp), held_karp_tsp(sp)
            for res in (brute, exact):
                folded = reduce(add, (d[a][b] for a, b in res.tour.transitions()), 0.0)
                assert repr(res.weight) == repr(folded) == repr(tour_weight(sp, res.tour))
            assert brute.weight <= exact.weight


@pytest.mark.parametrize("family, n, params, config, digests", [
    ("uniform2d", 40, None, {},
     {"partition_stats": "8ada95d411de322e58c97d2ef77bfe8055c0264a88a2175b887703b651622dc7",
      "baseline": "da306e15ad6d837f6532e20ed3a1a499927c89ba441d499e02db46300a619736",
      "lemma_checks": "ac5262ac4fe6bf78ef5f180aeafd40cf29963cb563e7c69a4f9dea21d4a9d951"}),
    ("clustered", 160, {"clusters": 4}, {"q": 2.0},
     {"partition_stats": "3903e9e6f2e90f70435d97731a0103fa84f13058d8718a5d9204f718fe48cee9",
      "baseline": "5f814f4b6b5a8b7a3eb756b9860e3cf9e533558adc65651ff229f64b8c32ed96",
      "lemma_checks": "baea7038e7b4e1f7773372b2e4633caeacdc6db8d2f092595c0ad2568bf65523"}),
    ("matrix_random_metric", 60, None, {},
     {"partition_stats": "821215789c60cfc7faf665d69c805cef2ff50777525f6537cf91d7ae7fc4013e",
      "baseline": "c2df9eb100f06893b332966a23ff99e3f5649314656d3e948a14194eb98ac877",
      "lemma_checks": "ff75c331d55f6a9c89d48454a1c3a59ae3c6db998607ffb8a22043257ea4f14f"}),
], ids=["uniform2d-40", "clustered-160-q2", "matrix_random_metric-60"])
def test_mode_reports_are_pinned(family, n, params, config, digests):
    from nettsp.metric import normalize
    space = normalize(generate_instance(family, n, 0, params))
    for mode, digest in digests.items():
        report = run(dict(config, mode=mode, seed=0, space=space))
        text = strip_timing(render_report(report))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, mode


def test_report_tour_reevaluates_to_weight():
    from nettsp.metric import normalize
    sp = generate_instance("uniform2d", 10, seed=3)
    report = run({"space": sp, "mode": "solve", "seed": 0})
    payload = json.loads(render_report(report))
    entry = payload["results"]["solve"]
    norm = normalize(sp)
    w = tour_weight(norm, Tour(tuple(entry["tour"]), closed=True))
    assert w == pytest.approx(entry["weight"], rel=1e-9)
    assert entry["weight_denormalized"] == pytest.approx(entry["weight"] / norm.scale,
                                                         rel=1e-9)


def test_run_lemma_checks_mode():
    sp = generate_instance("uniform2d", 30, seed=11)
    report = run({"space": sp, "mode": "lemma_checks", "seed": 2})
    checks = report["results"]["lemma_checks"]
    assert checks["nets_ok"]
    assert checks["double_tree_within_2mst"]
    assert checks["net_respecting_ok"]
    assert checks["net_respecting_ratio"] <= checks["net_respecting_ratio_bound"] + 1e-9
    assert checks["local_lower_holds"]


def test_run_partition_stats_mode():
    sp = generate_instance("uniform2d", 40, seed=13)
    report = run({"space": sp, "mode": "partition_stats", "seed": 1})
    assert report["results"]["nets"]["ok"]
    assert report["results"]["clustering"]["nodes"] >= 1


def test_partition_stats_draws_its_tree_at_the_reported_guesses():
    sp = generate_instance("uniform2d", 40, seed=0)
    reports = [run({"space": sp, "mode": "partition_stats", "seed": 0, "guesses": guesses})
               for guesses in (1, 2)]
    assert [r["params"]["guesses"] for r in reports] == [1, 2]
    assert [r["results"]["clustering"]["nodes"] for r in reports] == [72, 78]


def test_partition_stats_samples_nearest_neighbours():
    sp = generate_instance("uniform2d", 320, seed=0)
    report = run({"space": sp, "mode": "partition_stats", "seed": 0})
    samples = report["results"]["cut_samples"]
    d = normalize(sp).pairwise()
    assert [s["u"] for s in samples] == [0, 2, 4]
    for s in samples:
        others = np.delete(d[s["u"]], s["u"])
        assert s["distance"] == d[s["u"], s["v"]] == others.min()
    # pairs of unrelated points are all cut at level 1; nearest neighbours are not
    assert {s["cut_frequency"] for s in samples} != {1.0}


# -------------------------------------------------------------------- cli

def test_cli_end_to_end(tmp_path):
    inst = tmp_path / "inst.csv"
    out = tmp_path / "report.json"
    rc = main(["gen", "--kind", "uniform2d", "--n", "8", "--seed", "2",
               "--out", str(inst)])
    assert rc == 0
    rc = main(["validate", "--instance", str(inst), "--format", "points_csv"])
    assert rc == 0
    rc = main(["run", "--instance", str(inst), "--format", "points_csv",
               "--mode", "solve", "--seed", "4", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["mode"] == "solve"
    rc = main(["oracle", "--instance", str(inst), "--format", "points_csv",
               "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["results"]["held_karp"]["exact"]


def test_cli_error_exit_code(tmp_path):
    bad = tmp_path / "bad.tsp"
    bad.write_text(MATRIX_BAD)
    rc = main(["run", "--instance", str(bad), "--format", "tsplib_matrix",
               "--mode", "solve"])
    assert rc == 2


EXPLICIT_DIMENSION_0 = """NAME: empty
TYPE: TSP
DIMENSION: 0
EDGE_WEIGHT_TYPE: EXPLICIT
EDGE_WEIGHT_FORMAT: FULL_MATRIX
EDGE_WEIGHT_SECTION
EOF
"""


@pytest.mark.parametrize("fmt, text", [
    ("points_json", '{"points": []}'),
    ("points_json", '{"matrix": []}'),
    ("points_json", '{"matrix": [0, 1]}'),
    ("points_json", '{"matrix": [[0, 1], [1, 0], [2, 2]]}'),
    ("points_json", '{"points": [[1, 2], [3]]}'),
    ("points_json", '{"points": [[[1, 2]], [[3, 4]]]}'),
    ("points_json", '[[0, 1], [1, 0]]'),
    ("tsplib_matrix", EXPLICIT_DIMENSION_0),
    ("tsplib_matrix", EXPLICIT_DIMENSION_0.replace("DIMENSION: 0", "DIMENSION: -2").replace(
        "EDGE_WEIGHT_SECTION", "EDGE_WEIGHT_SECTION\n0 1\n1 0")),
], ids=["points-empty", "matrix-empty", "matrix-1d", "matrix-not-square", "points-ragged",
        "points-3d", "json-not-an-object", "explicit-dimension-0", "explicit-dimension-negative"])
def test_cli_rejects_malformed_and_empty_instances(tmp_path, capsys, fmt, text):
    bad = tmp_path / "bad"
    bad.write_text(text)
    for command in (["validate"], ["run", "--mode", "solve"]):
        rc = main(command + ["--instance", str(bad), "--format", fmt])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(ParseError):
        load_instance(str(bad), fmt)


def test_cli_validate_names_the_failed_check(tmp_path, capsys):
    bad = tmp_path / "bad.tsp"
    bad.write_text(MATRIX_BAD)
    rc = main(["validate", "--instance", str(bad), "--format", "tsplib_matrix"])
    assert rc == 2
    assert "triangle inequality fails" in capsys.readouterr().err


def test_cli_validate_names_the_first_violating_triple_of_a_large_matrix(tmp_path, capsys):
    raw = np.random.default_rng(0).uniform(1.0, 10.0, size=(200, 200))
    raw = (raw + raw.T) / 2.0
    np.fill_diagonal(raw, 0.0)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"matrix": raw.tolist()}))
    rc = main(["validate", "--instance", str(bad), "--format", "points_json"])
    assert rc == 2
    # the first triple in (k, i, j) order: pivot 0, then the first (i, j) row-major
    tol = 1e-9 * float(raw.max())
    slack = raw - (raw[:, 0][:, None] + raw[0][None, :])
    i, j = np.argwhere(slack > tol)[0]
    first = (int(i), int(j), 0, float(slack[i, j]))
    assert f"(i, j, k, slack): {first};" in capsys.readouterr().err


def test_cli_rejects_r_4_before_any_work(tmp_path, capsys):
    inst = tmp_path / "inst.csv"
    assert main(["gen", "--kind", "uniform2d", "--n", "12", "--seed", "3",
                 "--out", str(inst)]) == 0
    capsys.readouterr()
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--instance", str(inst), "--format", "points_csv",
              "--mode", "solve", "--r", "4", "--seed", "3"])
    assert exit_.value.code == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert "unrecognized arguments: --r" in captured.err and not captured.out


def test_cli_solves_uniform2d_beyond_the_children_ceiling(tmp_path):
    # A cluster of this instance has 29 children, so its child order is heuristic.
    inst = tmp_path / "inst.csv"
    assert main(["gen", "--kind", "uniform2d", "--n", "80", "--seed", "0",
                 "--out", str(inst)]) == 0
    rc = main(["run", "--instance", str(inst), "--format", "points_csv",
               "--mode", "solve", "--seed", "0", "--out", str(tmp_path / "r.json")])
    assert rc == 0


def test_run_solves_a_random_metric_beyond_the_children_ceiling():
    space = generate_instance("matrix_random_metric", 40, 1)
    report = run({"space": space, "mode": "solve", "seed": 1})
    assert sorted(report["results"]["solve"]["tour"]) == list(range(40))


def equilateral(n):
    m = np.ones((n, n))
    np.fill_diagonal(m, 0.0)
    return {"matrix": m.tolist()}


def star(n):
    # point 0 at distance 1 from every other point, which lie 2 apart
    m = np.full((n, n), 2.0)
    m[0, :] = m[:, 0] = 1.0
    np.fill_diagonal(m, 0.0)
    return {"matrix": m.tolist()}


def weights_10_to_13(n):
    # a metric, because no weight is more than twice another
    m = np.triu(np.random.default_rng(0).uniform(10.0, 13.0, size=(n, n)), 1)
    return {"matrix": (m + m.T).tolist()}


def uniform_200d(n):
    return {"points": np.random.default_rng(0).random((n, 200)).tolist()}


@pytest.mark.parametrize("make, n", [
    (equilateral, 19), (equilateral, 60), (weights_10_to_13, 60), (uniform_200d, 60),
    (star, 60), (equilateral, 100), (star, 100)],
    ids=["equilateral-19", "equilateral-60", "weights-10-13-60", "uniform-200d-60", "star-60",
         "equilateral-100", "star-100"])
def test_cli_solves_instances_whose_bottom_cluster_holds_most_points(tmp_path, make, n):
    # The level-0 carve puts most or all of the points into one bottom cluster;
    # its points are then one node's children, ordered heuristically above 12.
    inst, out = tmp_path / "inst.json", tmp_path / "r.json"
    inst.write_text(json.dumps(make(n)))
    rc = main(["run", "--instance", str(inst), "--format", "points_json",
               "--mode", "solve", "--out", str(out)])
    assert rc == 0
    solve = json.loads(out.read_text())["results"]["solve"]
    assert sorted(solve["tour"]) == list(range(n))
    optimum = {equilateral: n, star: 2 * n - 2}
    if make in optimum:
        assert solve["weight_denormalized"] == optimum[make]
