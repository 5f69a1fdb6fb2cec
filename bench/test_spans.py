"""Tests of the per-layer tracer on a small solve.

    python3 -m pytest bench/test_spans.py
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nettsp import io, lightdp, metric, runner, sparse  # noqa: E402

import spans  # noqa: E402


def test_self_times_add_up_and_the_wrappers_come_off():
    space = metric.normalize(io.generate_instance("uniform2d", 24, 1))
    originals = (runner.run, lightdp.partition_with_radii, sparse.mst)
    tracer = spans.Tracer()
    with tracer:
        assert runner.run is not originals[0]
        t0 = time.perf_counter()
        report = runner.run({"mode": "solve", "space": space, "seed": 1})
        total = time.perf_counter() - t0
        tracer.end_instance(report)
    assert (runner.run, lightdp.partition_with_radii, sparse.mst) == originals

    m = {name: value for name, (value, _) in tracer.metrics().items()}
    seconds = sum(v for name, (v, unit) in tracer.metrics().items() if unit == "s")
    assert seconds == pytest.approx(total, rel=0.02)
    assert m["runner.self_s"] > 0 and m["lightdp.solve_s"] > 0
    assert m["partition.carvings"] > 0 and m["tours.mst_calls"] > 0
    assert 0 < m["partition.carve_yield"] <= 1
    assert m["sparse.subinstances"] == len(report["recursion_trace"])
    assert m["oracles.held_karp_s"] == 0.0
