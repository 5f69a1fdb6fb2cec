"""Per-layer self times and counts, taken from outside nettsp.

Each traced function is replaced, under every name a nettsp module looks it
up by, with a wrapper that times the call. A layer's self time is the time
inside its calls minus the time inside traced calls they make. Spans are
folded into per-layer sums as they close instead of being stored: a
radius-guessing solve makes hundreds of thousands of carvings.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# lightdp orders children heuristically above this many (EXACT_PATH_CHILDREN).
WIDE_CHILDREN = 12

# (layer, module that defines the function, function name)
LAYERS = (
    ("runner.self", "runner", "run"),
    ("oracles.held_karp", "oracles", "held_karp_tsp"),
    ("lightdp.solve", "lightdp", "solve_with_radius_guessing"),
    ("lightdp.portals", "lightdp", "auto_portals"),
    ("partition.carve", "partition", "partition_with_radii"),
    ("sparse.dense_scan", "sparse", "find_dense_region"),
    ("sparse.split", "sparse", "choose_split_radius"),
    ("sparse.split", "sparse", "split_instance"),
    ("tours.mst", "tours", "mst"),
    ("nets.build", "nets", "build_hierarchy"),
    ("metric.doubling", "metric", "estimate_doubling"),
    ("io.load", "io", "load_instance"),
    ("metric.normalize", "metric", "normalize"),
)


class Tracer:
    """Installs timing wrappers on enter and removes them on exit."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.max_children = 0
        self.max_depth = 0
        self._open = []              # child seconds of each open span
        self._outcomes = set()       # hashes of this instance's carving outcomes
        self._patched = []

    def _wrap(self, layer, fn, after):
        open_spans = self._open
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(args, out)
                return out
            finally:
                dt = clock() - t0
                self.self_s[layer] += dt - open_spans.pop()
                self.calls[layer] += 1
                if open_spans:
                    open_spans[-1] += dt

        return wrapped

    def _after_solve(self, args, out):
        self.counts["lightdp.table_entries"] += out.stats["entries"]
        self.counts["lightdp.ops"] += out.stats["ops"]

    def _after_portals(self, args, out):
        if len(out.portals) > args[4]:
            self.counts["lightdp.portal_fallbacks"] += 1

    def _after_carve(self, args, out):
        assign = out.assign_center
        k = len(set(assign.values()))
        self.max_children = max(self.max_children, k)
        if k > WIDE_CHILDREN:
            self.counts["partition.wide_carvings"] += 1
        # Equal outcomes on one space insert the same items in the same order.
        self._outcomes.add(hash((id(args[0]), out.level, tuple(assign.items()))))

    def end_instance(self, report):
        """Fold in the finished instance: its distinct carving outcomes and,
        unless the solve raised, its recursion trace."""
        self.counts["partition.outcomes"] += len(self._outcomes)
        self._outcomes.clear()
        if report is None:
            return
        trace = report["recursion_trace"]
        self.counts["sparse.splits"] += sum(e.get("mode") == "dense" for e in trace)
        self.counts["sparse.subinstances"] += len(trace)
        self.max_depth = max(self.max_depth, max(e["depth"] for e in trace))

    def __enter__(self):
        after = {"solve_with_radius_guessing": self._after_solve,
                 "auto_portals": self._after_portals,
                 "partition_with_radii": self._after_carve}
        modules = [m for name, m in sys.modules.items()
                   if name.startswith("nettsp.") and m is not None]
        for layer, home, fname in LAYERS:
            original = getattr(importlib.import_module(f"nettsp.{home}"), fname)
            wrapper = self._wrap(layer, original, after.get(fname))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    def metrics(self) -> dict:
        """Per-layer sums over everything traced so far, as (value, unit)."""
        s, calls, counts = self.self_s, self.calls, self.counts
        carvings = calls["partition.carve"]
        return {
            "oracles.held_karp_s": (s["oracles.held_karp"], "s"),
            "lightdp.solve_s": (s["lightdp.solve"], "s"),
            "lightdp.table_entries": (counts["lightdp.table_entries"], "count"),
            "lightdp.ops": (counts["lightdp.ops"], "count"),
            "lightdp.portals_s": (s["lightdp.portals"], "s"),
            "lightdp.portal_sets": (calls["lightdp.portals"], "count"),
            "lightdp.portal_fallbacks": (counts["lightdp.portal_fallbacks"], "count"),
            "partition.carve_s": (s["partition.carve"], "s"),
            "partition.carvings": (carvings, "count"),
            "partition.carve_yield": (
                counts["partition.outcomes"] / carvings if carvings else 0.0, "ratio"),
            "partition.max_children": (self.max_children, "count"),
            "partition.wide_carvings": (counts["partition.wide_carvings"], "count"),
            "sparse.dense_scan_s": (s["sparse.dense_scan"], "s"),
            "sparse.dense_scans": (calls["sparse.dense_scan"], "count"),
            "tours.mst_s": (s["tours.mst"], "s"),
            "tours.mst_calls": (calls["tours.mst"], "count"),
            "sparse.split_s": (s["sparse.split"], "s"),
            "sparse.splits": (counts["sparse.splits"], "count"),
            "sparse.subinstances": (counts["sparse.subinstances"], "count"),
            "sparse.max_depth": (self.max_depth, "count"),
            "nets.build_s": (s["nets.build"], "s"),
            "nets.builds": (calls["nets.build"], "count"),
            "metric.doubling_s": (s["metric.doubling"], "s"),
            "runner.self_s": (s["runner.self"], "s"),
            "io.load_s": (s["io.load"], "s"),
            "metric.normalize_s": (s["metric.normalize"], "s"),
        }
