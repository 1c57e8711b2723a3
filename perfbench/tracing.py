"""Spans around hamca's layers, recorded from outside the program.

``install`` replaces each traced function under every name its callers look
it up by (the attribute of every ``hamca`` module that holds it, and the
methods of ``_EnsembleGridAverager``) with a wrapper that records a span
(id, parent, name, start, end, counts).  Spans stay in memory until
``write`` puts them out as JSON lines.  ``aggregate`` turns one file of spans
into per-layer self time (span time minus the time its direct children
cover) and summed counts.  ``span_cost`` measures what one wrapped call
costs over a bare call, for ``trace.overhead_s``.
"""

from __future__ import annotations

import json
import sys
import time


def _n_members(a, kw, res):
    return {"members": len(res.members)}


def _dense_mb(a, kw, res):
    J = a[0] if a else kw["J"]
    # computed from J and the dtype, not measured
    return {"dense_mb": J * J * res.dtype.itemsize / 2**20}


# (layer name, module, function, counts(args, kwargs, result) or None)
FUNCTIONS = [
    ("machine.run_stats", "hamca.machine", "run_stats",
     lambda a, kw, res: {"steps": res.length}),
    ("staged.build_staged_machine", "hamca.staged", "build_staged_machine", None),
    ("hamiltonian.compile_machine", "hamca.hamiltonian", "compile_machine", None),
    ("hamiltonian.orbit_spectrum", "hamca.hamiltonian", "orbit_spectrum", None),
    ("dynamics.run_orbit_cached", "hamca.dynamics", "run_orbit_cached", "orbit_cache"),
    ("dynamics.orbit_site_data", "hamca.dynamics", "orbit_site_data",
     lambda a, kw, res: {"cross_pairs": len(res.cross)}),
    ("dynamics.pair_weight_matrix", "hamca.dynamics", "pair_weight_matrix", _dense_mb),
    ("dynamics.site_average_weighted", "hamca.dynamics", "site_average_weighted", None),
    ("dynamics.orbit_site_average", "hamca.dynamics", "orbit_site_average", None),
    ("dynamics.evolve_spectral", "hamca.dynamics", "evolve_spectral", None),
    ("dynamics.trace_distance", "hamca.dynamics", "trace_distance", None),
    ("encoding.build_initial_ensemble", "hamca.encoding", "build_initial_ensemble",
     _n_members),
    ("verifier.fixture_gap_floor", "hamca.verifier", "fixture_gap_floor", None),
    ("verifier.round_state", "hamca.verifier", "round_state", None),
    ("verifier.check_condition", "hamca.verifier", "check_condition", None),
    ("verifier.decide_finite", "hamca.verifier", "decide_finite", None),
    ("verifier.semi_decide", "hamca.verifier", "semi_decide", None),
    ("cli.timeavg", "hamca.cli", "cmd_timeavg", None),
    ("cli.evolve", "hamca.cli", "cmd_evolve", None),
    ("cli.decide", "hamca.cli", "cmd_decide", None),
]


def _averager_counts(a, kw, res):
    self = a[0]
    shapes = {(orbit.length, orbit.kind) for orbit, _, _ in self.members}
    return {"orbits": len(self.members), "orbit_shapes": len(shapes)}


def _states_at_counts(a, kw, res):
    return {"member_points": len(a[1]) * len(a[0].members)}


# (layer name, method of verifier._EnsembleGridAverager, counts)
METHODS = [
    ("verifier.averager_init", "__init__", _averager_counts),
    ("verifier.states_at", "states_at", _states_at_counts),
    ("verifier.min_orbit_gap", "min_orbit_gap", None),
]

# Layers whose number of calls is itself a reported count.
COUNT_CALLS = ("dynamics.orbit_site_average", "verifier.states_at",
               "verifier.check_condition")


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = [0]
        self.next_id = 1
        self.seen_orbits = {}  # id -> orbit, kept alive so ids stay unique

    def span(self, name, fn, counts):
        clock = time.perf_counter

        def wrapper(*a, **kw):
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1]
            self.stack.append(sid)
            t0 = clock()
            try:
                res = fn(*a, **kw)
            finally:
                t1 = clock()
                self.stack.pop()
            if counts == "orbit_cache":
                c = self._orbit_cache_counts(res)
            else:
                c = counts(a, kw, res) if counts else None
            self.spans.append((sid, parent, name, t0, t1, c))
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def _orbit_cache_counts(self, orbit):
        # a cache hit hands back an orbit object this process has seen before
        if id(orbit) in self.seen_orbits:
            return {"hits": 1, "states": 0}
        self.seen_orbits[id(orbit)] = orbit
        return {"hits": 0, "states": orbit.length}

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, c in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "counts": c}) + "\n")


def span_cost() -> float:
    """Median seconds one wrapped call costs over a bare call."""
    reps, calls = 21, 2000

    def noop(x):
        return x

    wrapped = Recorder().span("noop", noop, None)
    clock = time.perf_counter
    costs = []
    for _ in range(reps):
        t0 = clock()
        for i in range(calls):
            noop(i)
        t1 = clock()
        for i in range(calls):
            wrapped(i)
        t2 = clock()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return sorted(costs)[reps // 2]


def install(recorder: Recorder) -> None:
    """Wrap every traced layer under each name that refers to it."""
    import importlib

    for _, modname, _, _ in FUNCTIONS:
        importlib.import_module(modname)
    verifier = sys.modules["hamca.verifier"]
    mods = [m for k, m in sorted(sys.modules.items())
            if k == "hamca" or k.startswith("hamca.")]
    for name, modname, attr, counts in FUNCTIONS:
        orig = getattr(sys.modules[modname], attr)
        wrapped = recorder.span(name, orig, counts)
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
    cls = verifier._EnsembleGridAverager
    for name, meth, counts in METHODS:
        setattr(cls, meth, recorder.span(name, getattr(cls, meth), counts))


def aggregate(path) -> dict:
    """Per-layer self seconds, calls and summed counts of one span file."""
    spans = [json.loads(line) for line in open(path)]
    child_time = {}
    for s in spans:
        child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    out = {}
    for s in spans:
        layer = out.setdefault(s["name"], {"s": 0.0, "calls": 0})
        layer["s"] += s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        layer["calls"] += 1
        for k, v in (s["counts"] or {}).items():
            layer[k] = layer.get(k, 0) + v
    return out


def layer_metric_names():
    """Every per-layer metric name with its unit."""
    names = {}
    for name, *_ in FUNCTIONS + [(n, None, None) for n, _, _ in METHODS]:
        names[f"{name}.s"] = "s"
    names["machine.run_stats.steps"] = "count"
    names["dynamics.run_orbit_cached.states"] = "count"
    names["dynamics.run_orbit_cached.hits"] = "count"
    names["dynamics.orbit_site_data.cross_pairs"] = "count"
    names["dynamics.pair_weight_matrix.dense_mb"] = "MB_computed"
    names["encoding.build_initial_ensemble.members"] = "count"
    names["verifier.averager_init.orbits"] = "count"
    names["verifier.averager_init.orbit_shapes"] = "count"
    names["verifier.states_at.member_points"] = "count"
    for name in COUNT_CALLS:
        names[f"{name}.calls"] = "count"
    return names
