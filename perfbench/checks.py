"""Output checks, each against a computation made apart from the timed route.

For every operation, ``reference(workload, op, seed)`` computes what the
output must satisfy, by a second route: the reference stepper
``machine.run_orbit`` instead of the streaming or compiled route, dense
evolution on the reachable closure (``hamiltonian.reachable_space``,
``dynamics.dense_space``) instead of the closed-form orbit spectra, and laws
the method must obey written out here.  ``check(workload, op, out, ref)``
returns the list of problems found in the output bytes ``out``; an empty list
means the output is accepted.  A reference is computed once and reused, so
the self-test can hand ``check`` many corrupted copies cheaply.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

import workloads as wl

TOL_DIAG = 1e-12  # diagonal versus the visit law
TOL_DENSE = 1e-9  # closed-form orbit route versus dense closure evolution


# ---------------------------------------------------------------------------
# Site averages on an explicit basis
# ---------------------------------------------------------------------------


class SitePairs:
    """Per-basis-state site histograms and the pairs of basis states that
    differ at exactly one site: the only pairs whose amplitude products land
    in the space-averaged single-site state."""

    def __init__(self, rows: np.ndarray, d: int):
        self.n = rows.shape[1]
        self.d = d
        self.hist = np.zeros((rows.shape[0], d))
        for i in range(self.n):
            np.add.at(self.hist, (np.arange(rows.shape[0]), rows[:, i]), 1.0)
        b1, b2, v1, v2 = [], [], [], []
        for i in range(self.n):
            rest = np.ascontiguousarray(np.delete(rows, i, axis=1))
            keys = rest.view(np.dtype((np.void, rest.dtype.itemsize * rest.shape[1]))).ravel()
            _, inv = np.unique(keys, return_inverse=True)
            order = np.argsort(inv, kind="stable")
            groups = np.split(order, np.flatnonzero(np.diff(inv[order])) + 1)
            for g in groups:
                if len(g) < 2:
                    continue
                for a in g:
                    for b in g:
                        if a != b:
                            b1.append(a)
                            b2.append(b)
                            v1.append(rows[a, i])
                            v2.append(rows[b, i])
        self.b1, self.b2 = np.array(b1, dtype=int), np.array(b2, dtype=int)
        self.v1, self.v2 = np.array(v1, dtype=int), np.array(v2, dtype=int)

    @property
    def cross_pairs(self) -> int:
        return len(self.b1)

    def average(self, amps: np.ndarray) -> np.ndarray:
        """Site-averaged states of amplitude rows amps (T, dim) -> (T, d, d)."""
        d = self.d
        rho = np.zeros((amps.shape[0], d * d), dtype=complex)
        rho[:, np.arange(d) * (d + 1)] = (np.abs(amps) ** 2) @ self.hist
        scatter = np.zeros((len(self.b1), d * d))
        scatter[np.arange(len(self.b1)), self.v1 * d + self.v2] = 1.0
        rho += (amps[:, self.b1] * np.conj(amps[:, self.b2])) @ scatter
        return rho.reshape(-1, d, d) / self.n


def value_rows(states, index) -> np.ndarray:
    return np.array([[index[x] for x in cells] for cells in states], dtype=np.int64)


def trace_norms(diff: np.ndarray) -> np.ndarray:
    """Unhalved trace norms of a batch of Hermitian matrices."""
    return np.abs(np.linalg.eigvalsh(diff)).sum(axis=-1)


class Closure:
    """Dense H on the closure of one configuration, eigendecomposed."""

    def __init__(self, h, cfg):
        from hamca.dynamics import dense_space

        self.ds = dense_space(h, [cfg])
        index = {v: i for i, v in enumerate(h.site_values)}
        self.pairs = SitePairs(value_rows(self.ds.space.basis, index), h.site_dim)
        self.v0 = self.ds.state_vector(cfg)

    def amps(self, ts: np.ndarray) -> np.ndarray:
        vecs = self.ds.eigvecs
        coeff = vecs.conj().T @ self.v0
        return (np.exp(-1j * np.outer(ts, self.ds.eigvals)) * coeff) @ vecs.T

    def longterm(self, tol: float = 1e-9) -> np.ndarray:
        """Infinite-time average: spectral projections of the initial vector,
        eigenvalues grouped within tol as DenseSpace.longterm_site_average
        groups them."""
        vals, vecs = self.ds.eigvals, self.ds.eigvecs
        coeff = vecs.conj().T @ self.v0
        order = np.argsort(vals)
        groups, start = [], 0
        while start < len(order):
            end = start
            while end + 1 < len(order) and vals[order[end + 1]] - vals[order[start]] < tol:
                end += 1
            groups.append(order[start:end + 1])
            start = end + 1
        proj = np.stack([vecs[:, g] @ coeff[g] for g in groups])  # (groups, dim)
        return self.pairs.average(proj).sum(axis=0)


# ---------------------------------------------------------------------------
# stream
# ---------------------------------------------------------------------------


def _tags_hist(cells):
    from hamca.machine import cell_to_tag

    out = {}
    for x in cells:
        out[cell_to_tag(x)] = out.get(cell_to_tag(x), 0) + 1
    return dict(sorted(out.items()))


def stats_from_orbit(spec, cfg, track) -> dict:
    """Every RunStats field rebuilt from the reference stepper's orbit."""
    from hamca.machine import cell_track2, run_orbit

    orbit = run_orbit(spec, cfg, wl.STREAM_MAX_STEPS)
    totals = {}
    for c in orbit.states:
        for tag, k in _tags_hist(c.cells).items():
            totals[tag] = totals.get(tag, 0) + k

    def n_track(c, s):
        return sum(1 for x in c.cells if x[0] != "Q" and cell_track2(x) == s)

    change = {}
    for s in track:
        counts = [n_track(c, s) for c in orbit.states]
        change[s] = [j + 1 for j in range(1, len(counts)) if counts[j] > counts[j - 1]]
    marks = {}
    for label, state in spec.stage_marks.items():
        for j, c in enumerate(orbit.states, start=1):
            q = c.cells[c.single_control()]
            if q[2] == state:
                marks[label] = j
                break
    return {
        "length": orbit.length,
        "terminal": orbit.kind,
        "total_steps_by_value": dict(sorted(totals.items())),
        "first_hist": _tags_hist(orbit.states[0].cells),
        "last_hist": _tags_hist(orbit.states[-1].cells),
        "change_steps": dict(sorted(change.items())),
        "stage_entry_steps": dict(sorted(marks.items())),
    }


def _without_zero_counts(stats: dict) -> dict:
    """A histogram that lists a value with count 0 equals one that omits it."""
    out = json.loads(json.dumps(stats))
    for key in ("total_steps_by_value", "first_hist", "last_hist"):
        out[key] = {tag: k for tag, k in out[key].items() if k}
    return out


def _stream_reference(op, seed):
    from hamca.machine import run_stats

    fx = wl.STREAM[op]
    spec, small = wl.stream_config(fx, seed, small=True)
    program = run_stats(spec, small, wl.STREAM_MAX_STEPS, track_increments=fx["track"])
    _, cfg = wl.stream_config(fx, seed)
    return {
        "small_program": _without_zero_counts(wl.stats_to_json(program)),
        "small_reference": stats_from_orbit(spec, small, fx["track"]),
        "input_hist": _tags_hist(cfg.cells),
        "L": fx["L"],
    }


def _a2_average(stats, n_sites):
    total = sum(v for tag, v in stats["total_steps_by_value"].items()
                if tag == "A:a2" or (tag.startswith("M:") and tag.endswith(":a2")))
    return Fraction(total, stats["length"] * n_sites)


def _check_stream(op, out, ref):
    bad = []
    if ref["small_program"] != ref["small_reference"]:
        diff = [k for k in ref["small_reference"]
                if ref["small_program"].get(k) != ref["small_reference"][k]]
        bad.append(f"run_stats differs from the reference stepper in {diff}")
    s = json.loads(out)
    L = ref["L"]
    J = s["length"]
    if s["terminal"] != "dead_end":
        bad.append(f"terminal {s['terminal']}, expected dead_end")
    if sum(s["total_steps_by_value"].values()) != J * (L + 1):
        bad.append("sum of total_steps_by_value is not J*(L+1)")
    if s["first_hist"] != ref["input_hist"]:
        bad.append("first_hist is not the input's histogram")
    if op == "two_way":
        if J != L * L + L + 5:
            bad.append(f"J={J}, expected L^2+L+5={L * L + L + 5}")
        avg = _a2_average(s, L + 1)
        if abs(float(avg) - 2 / 3) > 0.05:
            bad.append(f"a2 average {float(avg):.4f} is not within 0.05 of 2/3")
    return bad


# ---------------------------------------------------------------------------
# orbit_quantum
# ---------------------------------------------------------------------------


def visit_law(J: int) -> np.ndarray:
    """Long-term visit probabilities of a dead-end orbit of length J:
    1/(J+1) inside, 3/(2(J+1)) at the two ends."""
    p = np.full(J, 1.0 / (J + 1))
    if J > 1:
        p[0] = p[-1] = 3.0 / (2 * (J + 1))
    return p


def longterm_law(J: int, pairs: SitePairs) -> np.ndarray:
    """Long-term site state of a dead-end orbit from its step-pair weights:
    the visit law on the diagonal, -1/(2(J+1)) for steps two apart, and 0 for
    every other pair of distinct steps (the sine-kernel sum of the path)."""
    d = pairs.d
    rho = np.zeros((d, d), dtype=complex)
    rho[np.arange(d), np.arange(d)] = visit_law(J) @ pairs.hist
    for b1, b2, v1, v2 in zip(pairs.b1, pairs.b2, pairs.v1, pairs.v2):
        if abs(b1 - b2) == 2:
            rho[v1, v2] += -1.0 / (2 * (J + 1))
    return rho / pairs.n


def _orbit_reference(op):
    from hamca.encoding import anchored_configuration
    from hamca.hamiltonian import compile_machine
    from hamca.machine import cell_to_tag, run_orbit
    from hamca.staged import build_staged_machine

    p = wl.ORBIT[op]
    m = wl.ORBIT_MACHINE
    spec = build_staged_machine(m["inner"], m["variant"], include_decode=m["decode"])
    cfg = anchored_configuration(spec, p["L"])
    h = compile_machine(spec)
    orbit = run_orbit(spec, cfg, 10**6)
    index = {v: i for i, v in enumerate(h.site_values)}
    pairs = SitePairs(value_rows([c.cells for c in orbit.states], index), h.site_dim)
    ref = {"L": p["L"], "J": orbit.length, "basis": [cell_to_tag(v) for v in h.site_values],
           "counts": {"orbit_states": orbit.length, "cross_pairs": pairs.cross_pairs}}
    if p["verb"] == "timeavg":
        ref["law"] = longterm_law(orbit.length, pairs)
        if p["L"] == min(q["L"] for q in wl.ORBIT.values() if q["verb"] == "timeavg"):
            ref["dense"] = Closure(h, cfg).longterm()
    else:
        ts = np.linspace(0.0, p["t_max"], p["t_steps"])
        closure = Closure(h, cfg)
        vecs = np.stack([closure.ds.evolve(closure.v0, float(t)) for t in ts])
        rhos = closure.pairs.average(vecs)
        i1, i2 = index[("A", "a1")], index[("A", "a2")]
        d = h.site_dim
        e1 = np.zeros((d, d), dtype=complex)
        e1[i1, i1] = 1.0
        mix = np.zeros((d, d), dtype=complex)
        mix[i1, i1] = mix[i2, i2] = 0.5
        ref["rows"] = np.column_stack([
            ts, rhos[:, i1, i1].real, rhos[:, i2, i2].real, rhos[:, i1, i2].real,
            rhos[:, i1, i2].imag, trace_norms(rhos - e1), trace_norms(rhos - mix)])
        ref["t0_hist"] = (sum(1 for x in cfg.cells if x == ("A", "a1")) / cfg.size,
                          sum(1 for x in cfg.cells if x == ("A", "a2")) / cfg.size)
    return ref


def _check_timeavg(out, ref):
    bad = []
    data = json.loads(out)
    L, J = ref["L"], data["J"]
    if J != L * L + L + 5 or J != ref["J"]:
        bad.append(f"J={J}, expected L^2+L+5={L * L + L + 5}")
    if data["basis"] != ref["basis"]:
        return bad + ["basis differs from the compiled site values"]
    rho = np.array([[complex(re, im) for re, im in row] for row in data["state"]])
    if np.linalg.norm(rho - rho.conj().T) > 1e-12:
        bad.append("state is not Hermitian")
    if abs(np.trace(rho).real - 1) > 1e-10:
        bad.append("state does not have unit trace")
    if np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() < -1e-10:
        bad.append("state is not positive semidefinite")
    err = np.abs(rho.diagonal() - ref["law"].diagonal()).max()
    if err > TOL_DIAG:
        bad.append(f"diagonal differs from the visit law by {err:.2e}")
    err = np.abs(rho - ref["law"]).max()
    if err > TOL_DIAG:
        bad.append(f"state differs from the step-pair weight law by {err:.2e}")
    if "dense" in ref:
        err = np.abs(rho - ref["dense"]).max()
        if err > TOL_DENSE:
            bad.append(f"state differs from the dense closure average by {err:.2e}")
    return bad


def _check_evolve(out, ref):
    bad = []
    lines = out.decode().splitlines()
    cfg = json.loads(lines[1][len("# config: "):])
    if cfg.get("J") != ref["J"]:
        bad.append(f"J={cfg.get('J')}, expected {ref['J']}")
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines if ln[:1].isdigit()])
    want = ref["rows"]
    if rows.shape != want.shape:
        return bad + [f"{len(rows)} time rows, expected {len(want)}"]
    if np.abs(rows[0, 1:3] - ref["t0_hist"]).max() > TOL_DIAG:
        bad.append("t=0 row is not the initial histogram")
    err = np.abs(rows - want).max()
    if err > TOL_DENSE:
        bad.append(f"time series differs from dense evolution by {err:.2e}")
    return bad


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------


def rounding_places(eta, eps1, d) -> int:
    """Binary places whose rounding costs at most (eta - eps1)/2 in trace norm
    for a d x d state (entrywise error times d^{3/2}, one bit for re/im)."""
    need = (float(eta) - float(eps1)) / (2.0 * d ** 1.5)
    return max(1, int(np.ceil(-np.log2(need))) + 1)


_ENSEMBLES = {}


def _ensemble(inst):
    """Machine, site dimension and per-member dense closures of an instance;
    instances that differ only in how they are decided share one entry."""
    from hamca.encoding import EnsembleParams, build_initial_ensemble, encode_input
    from hamca.hamiltonian import compile_machine
    from hamca.machine import run_orbit
    from hamca.staged import build_staged_machine

    key = json.dumps({k: inst[k] for k in ("inner", "variant", "decode", "mode", "L",
                                           "alpha", "v")}, sort_keys=True)
    if key not in _ENSEMBLES:
        spec = build_staged_machine(inst["inner"], inst["variant"],
                                    include_decode=inst["decode"])
        alpha = Fraction(*inst["alpha"])
        params = EnsembleParams(mode=inst["mode"], L=inst["L"], alpha=alpha)
        ens = build_initial_ensemble(spec, params, encode_input(inst["v"], alpha))
        h = compile_machine(spec, params.boundary)
        members = [(float(w), Closure(h, cfg), run_orbit(spec, cfg, 10**6).length)
                   for cfg, w in ens.members]
        _ENSEMBLES[key] = (h, members)
    return _ENSEMBLES[key]


def _decide_reference(workload, op, chunk=256):
    inst = wl.DECIDE[workload][op]
    h, members = _ensemble(inst)
    d = h.site_dim
    i1 = h.value_index(("A", "a1"))
    e1 = np.zeros((d, d), dtype=complex)
    e1[i1, i1] = 1.0
    threshold = float(inst["eps1"]) + 1.25 * (float(inst["eta"]) - float(inst["eps1"]))
    places = rounding_places(inst["eta"], inst["eps1"], d)
    scale = 2.0 ** places
    dt = wl.grid_step(inst["eta"], inst["eps1"])
    K = inst["budget"] if inst.get("semi") else wl.grid_size(inst)
    # running average of rounded grid-point states; stop at the first firing
    running = np.zeros((d, d), dtype=complex)
    fired_at = None
    done = 0
    while done < K and fired_at is None:
        ks = np.arange(done + 1, min(done + chunk, K) + 1)
        states = sum(w * c.pairs.average(c.amps(dt * ks)) for w, c, _ in members)
        rounded = (np.round(states.real * scale) + 1j * np.round(states.imag * scale)) / scale
        avg = (running + np.cumsum(rounded, axis=0)) / ks[:, None, None]
        running = running + rounded.sum(axis=0)
        hit = np.flatnonzero(trace_norms(avg - e1) > threshold)
        if len(hit):
            fired_at = int(ks[hit[0]])
        done = int(ks[-1])
    longterm = sum(w * c.longterm() for w, c, _ in members)
    return {
        "inst": inst, "places": places, "K": K, "fired_at": fired_at,
        "oracle": "yes" if trace_norms(longterm - e1) > threshold else "no",
        "counts": {"orbit_states": sum(J for _, _, J in members),
                   "cross_pairs": sum(c.pairs.cross_pairs for _, c, _ in members),
                   "grid_points": fired_at or K,
                   "member_points": len(members) * (fired_at or K)},
    }


def _check_decide(out, ref):
    bad = []
    v = json.loads(out)
    inst = ref["inst"]
    if inst.get("semi"):
        if v["verdict"] != "budget_exhausted":
            bad.append(f"pair sweep answered {v['verdict']}, expected budget_exhausted")
        if ref["oracle"] != "no" or ref["fired_at"] is not None:
            bad.append("dense evolution fires within the sweep's budget")
        return bad
    if v["verdict"] != ref["oracle"]:
        bad.append(f"verdict {v['verdict']}, dense infinite-time oracle says {ref['oracle']}")
    stated = [e["mechanism"] for e in v["error_ledger"] if e["term"] == "state_rounding"]
    if stated != [f"entries rounded to {ref['places']} binary places"]:
        bad.append(f"ledger rounding {stated}, expected {ref['places']} binary places")
    if v["fired_at_grid_size"] != ref["fired_at"]:
        bad.append(f"fired at grid size {v['fired_at_grid_size']}, dense evolution "
                   f"fires at {ref['fired_at']} (checked up to {ref['K']})")
    return bad


# ---------------------------------------------------------------------------


def reference(workload, op, seed):
    if workload == "stream":
        return _stream_reference(op, seed)
    if workload == "orbit_quantum":
        return _orbit_reference(op)
    return _decide_reference(workload, op)


def check(workload, op, out: bytes, ref) -> list:
    try:
        if workload == "stream":
            return _check_stream(op, out, ref)
        if workload == "orbit_quantum":
            if wl.ORBIT[op]["verb"] == "timeavg":
                return _check_timeavg(out, ref)
            return _check_evolve(out, ref)
        return _check_decide(out, ref)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"malformed output: {exc!r}"]
