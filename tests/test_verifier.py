"""Decision machinery: grids, threshold checks, truncation, reductions."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hamca.verifier as verifier
from hamca.cli import main
from hamca.dynamics import (
    add_site_states,
    basis_state,
    ensemble_site_average,
    orbit_site_average,
    run_orbit_cached,
    trace_distance,
)
from hamca.encoding import (
    EnsembleParams,
    anchored_configuration,
    build_initial_ensemble,
    encode_input,
)
from hamca.hamiltonian import DimensionGuard, OrbitSpectrum, compile_machine, orbit_spectrum
from hamca.machine import Configuration, MalformedConfiguration, a_cell, control
from hamca.staged import build_staged_machine
from hamca.verifier import (
    MAX_GRID_POINTS,
    DecisionInstance,
    PackedLayout,
    _EnsembleGridAverager,
    _grid_fires,
    DegenerateObservable,
    GapViolation,
    InvalidThresholds,
    OverlapViolation,
    PrecisionViolation,
    PromiseViolation,
    ToleranceViolation,
    check_condition,
    conjugate_local_terms,
    decide_finite,
    dense_lattice_hamiltonian,
    fixture_gap_floor,
    grid_size,
    grid_step,
    lattice_site_average,
    reduction_parameters,
    rotation_to,
    round_state,
    rounding_precision,
    semi_decide,
    separation_margins,
    t0_cutoff,
    taylor_bound_check,
    truncated_evolution,
)
from test_dynamics import FIXTURE_TABLE, _fixture_configs


def _instance(inner, variant, L, alpha, eta, eps1, t0, v="1"):
    spec = build_staged_machine(inner, variant, include_decode=(alpha != 0))
    enc = encode_input(v, Fraction(alpha))
    params = EnsembleParams("anchored", L=L, alpha=Fraction(alpha))
    ens = build_initial_ensemble(spec, params, enc)
    inst = DecisionInstance(
        machine=spec, ensemble=ens, eta=eta, eps1=eps1, gamma=1, t0_override=t0
    )
    inst.gap_floor = fixture_gap_floor(inst)
    return inst


def test_grid_step_examples():
    assert grid_step(0.5, 0.25) == pytest.approx(1 / 32)
    assert grid_size(0.5, 0.25, 0.1) == 4
    assert t0_cutoff(3, 1) == 2**15
    with pytest.raises(InvalidThresholds):
        grid_step(0.5, 0.3)  # 2*eps1 >= eta
    with pytest.raises(InvalidThresholds):
        grid_size(1.2, 0.2, 1.0)


def test_grid_interval_drift(oneway_nd, h_oneway_nd, rng):
    """State drift within one grid interval stays within half the margin."""
    eta, eps1 = 0.5, 0.2
    dt = grid_step(eta, eps1)
    cfg = anchored_configuration(oneway_nd, 5)
    orbit = run_orbit_cached(cfg, h_oneway_nd, 1000)
    worst = 0.0
    for i in (1, 7, 23):
        ti = i * dt
        ri = orbit_site_average(orbit, h_oneway_nd, ti)
        for u in rng.uniform(0, dt, 6):
            rt = orbit_site_average(orbit, h_oneway_nd, ti - float(u))
            worst = max(worst, trace_distance(ri, rt))
    assert worst <= 0.5 * (eta - eps1)


def test_check_condition_examples():
    d = 4
    e1 = np.zeros((d, d), complex)
    e1[1, 1] = 1
    assert not check_condition(e1, 0.5, 0.25, e1)
    half = np.zeros((d, d), complex)
    half[1, 1] = 0.5
    half[2, 2] = 0.5
    # distance 1 > 0.25 + 5/16
    assert check_condition(half, 0.5, 0.25, e1)
    # boundary: exactly at the threshold is not enough
    eta, eps1 = 0.5, 0.25
    thr = eps1 + 1.25 * (eta - eps1)
    boundary = np.zeros((d, d), complex)
    boundary[1, 1] = 1 - thr / 2
    boundary[2, 2] = thr / 2
    assert trace_distance(boundary, e1) == pytest.approx(thr)
    assert not check_condition(boundary, eta, eps1, e1)


def test_check_condition_on_a_stack_matches_per_matrix():
    """A (T, d, d) stack gets the per-matrix answers, unrounded and on the
    rounding grid; one off-grid matrix in the stack is refused."""
    d = 4
    eta, eps1 = 0.5, 0.25
    e1 = np.zeros((d, d), complex)
    e1[1, 1] = 1.0
    half = np.zeros((d, d), complex)
    half[1, 1] = half[2, 2] = 0.5
    rng = np.random.default_rng(3)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    noise = g @ g.conj().T
    noise /= np.trace(noise).real
    stack = np.stack([(1 - s) * e1 + s * ((1 - s) * half + s * noise)
                      for s in np.linspace(0.0, 1.0, 41)])
    places = rounding_precision(eta, eps1, d)
    rounded = round_state(stack, places)
    for states, kw in ((stack, {}), (rounded, {"places": places})):
        got = check_condition(states, eta, eps1, e1, **kw)
        want = [check_condition(s, eta, eps1, e1, **kw) for s in states]
        assert got.shape == (len(states),)
        assert got.tolist() == want
        assert 0 < sum(want) < len(want)
    with pytest.raises(PrecisionViolation):
        check_condition(rounded + 1e-5 * (np.arange(41) == 7)[:, None, None],
                        eta, eps1, e1, places=places)


@settings(max_examples=120, deadline=None)
@given(s=st.integers(1, 24), T=st.integers(1, 16), near=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_screened_check_matches_eigvalsh(s, T, near, seed):
    """On random Hermitian differences A = avg - e1, the screening bounds
    enclose the eigvalsh trace norm, and the screened flags equal
    ``trace_distance > threshold`` at every point.  Generic stacks have norms
    spread over [0, 2 * threshold]; near stacks are scaled to within 1e-12 of
    the threshold, where every point must reach the eigvalsh fallback."""
    eta, eps1 = 0.846, 0.35
    threshold = eps1 + 1.25 * (eta - eps1)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((T, s, s)) + 1j * rng.standard_normal((T, s, s))
    a = g + g.conj().swapaxes(-1, -2)
    norms = np.abs(np.linalg.eigvalsh(a)).sum(axis=-1)
    if near:
        target = threshold + rng.uniform(-1e-12, 1e-12, T)
    else:
        target = rng.uniform(0, 2 * threshold, T)
    a *= (target / norms)[:, None, None]
    e1 = np.zeros((s, s), complex)
    e1[0, 0] = 1.0
    avg = e1 + a
    exact = trace_distance(avg, e1)
    lower, upper = verifier._trace_norm_bounds(PackedLayout.full(s).pack(avg - e1), s)
    # float rounding of the bounds and of eigvalsh, far inside SCREEN_MARGIN
    assert np.all(lower <= exact + 1e-12) and np.all(exact <= upper + 1e-12)
    if near:
        assert np.abs(exact - threshold).max() < 1e-11
    reached = []  # stack lengths handed to the eigvalsh fallback

    def counted(x, y):
        reached.append(len(x))
        return trace_distance(x, y)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier, "trace_distance", counted)
        flags = check_condition(avg, eta, eps1, e1)
    assert flags.tolist() == (exact > threshold).tolist()
    if near:
        assert reached == [T]


def test_screening_decides_the_whole_scan_benchmark_grid(monkeypatch):
    """On the decide_scan benchmark instance (ping_pong, L = 3, 31,497 grid
    points, s = 5) the bounds decide every point: eigvalsh never runs."""
    inst = _instance("ping_pong", "one-way-amp", 3, 0, 0.988, 0.48, 2000)
    assert len(inst.averager.values) == 5
    calls = {}
    _count_calls(monkeypatch, "hamca.dynamics", "trace_distance", calls)
    verdict = decide_finite(inst)
    assert verdict.verdict == "no"
    assert grid_size(inst.eta, inst.eps1, 2000) == 31497
    assert calls == {}


def test_round_state_matches_per_part_rounding():
    """The interleaved-view rounding gives the values of rounding the real
    and imaginary parts apart, on stacks, single matrices, strided views and
    entries that round to signed zeros; running sums started from +0, as
    _grid_fires keeps them, agree bit for bit."""
    rng = np.random.default_rng(11)
    g = rng.standard_normal((40, 6, 6)) + 1j * rng.standard_normal((40, 6, 6))
    places = 9
    scale = 2.0**places

    def running_sums(rounded):
        rounded = rounded.copy()
        rounded[0] += np.zeros(rounded.shape[1:], dtype=complex)
        return np.cumsum(rounded, axis=0).view(np.int64)

    for rho in (g, 1e-3 * g, -1e-4 * g, g[3], g[:, ::2, 1::2], g.real):
        want = (np.round(rho.real * scale) + 1j * np.round(rho.imag * scale)) / scale
        got = round_state(rho, places)
        assert got.dtype == complex and got.shape == rho.shape
        assert np.array_equal(got, want)
        if rho.ndim == 3:
            assert np.array_equal(running_sums(got), running_sums(want))


def test_round_state_precision():
    rng = np.random.default_rng(0)
    d = 8
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    places = rounding_precision(0.5, 0.25, d)
    rounded = round_state(rho, places)
    assert trace_distance(rho, rounded) <= 0.5 * (0.5 - 0.25)
    e1 = np.zeros((d, d), complex)
    e1[1, 1] = 1.0
    # rounded states pass the on-grid validation; raw ones do not
    check_condition(rounded, 0.5, 0.25, e1, places=places)
    with pytest.raises(PrecisionViolation):
        check_condition(rho + 1e-5, 0.5, 0.25, e1, places=places)


def test_truncated_evolution_examples():
    J = 6
    T = np.diag(np.ones(J - 1), 1) + np.diag(np.ones(J - 1), -1)
    v0 = np.zeros(J)
    v0[0] = 1.0
    approx, bound, N = truncated_evolution(T, v0, 0.0, t0=4.0, eta=0.5, eps1=0.2)
    assert np.allclose(approx, v0)
    worst, bound = taylor_bound_check(T, v0, np.linspace(0, 4, 9), 4.0, 0.5, 0.2)
    assert worst <= bound
    # N = 3 bound value
    h2 = np.diag([1.5, -1.5]).astype(float)
    _, bound3, n3 = truncated_evolution(h2, np.array([1.0, 0]), 1.0, 2.0, 0.5, 0.2)
    assert n3 == 3
    assert bound3 == pytest.approx(2.5 * (2**-6 + 0.3 / 16))
    with pytest.raises(ToleranceViolation):
        truncated_evolution(T, v0, 9.0, t0=4.0, eta=0.5, eps1=0.2)


def test_decide_halting_and_not():
    yes = _instance("halt_now", "one-way-amp", 4, 0, 0.846, 0.35, 200)
    assert decide_finite(yes).verdict == "yes"
    no = _instance("ping_pong", "one-way-amp", 4, 0, 0.846, 0.35, 40)
    assert decide_finite(no).verdict == "no"


def test_decide_gap_violation():
    inst = _instance("halt_now", "two-way-amp", 4, 0, 0.846, 0.35, 100)
    inst.gap_floor = None  # default floor 2^-L is far above a long orbit's gap
    with pytest.raises(GapViolation):
        decide_finite(inst)


def test_verdict_ledger_terms():
    inst = _instance("ping_pong", "one-way-amp", 3, 0, 0.988, 0.48, 20)
    verdict = decide_finite(inst)
    terms = {e["term"] for e in verdict.ledger}
    assert {"grid_discretization", "state_rounding", "t0_cutoff"} <= terms
    assert all("value" in e for e in verdict.ledger)


def test_decide_block_mode():
    """The decision pipeline accepts block ensembles; the space average is
    assembled from per-block orbits with size-proportional weights."""
    spec = build_staged_machine("halt_now", "iid-repeat-amp", include_decode=False)
    enc = encode_input("1", Fraction(0))
    params = EnsembleParams("iid", L=4, alpha=Fraction(0), l=2)
    ens = build_initial_ensemble(spec, params, enc)
    inst = DecisionInstance(
        machine=spec, ensemble=ens, eta=0.9, eps1=0.3, t0_override=500
    )
    inst.gap_floor = Fraction(1, 10**6)
    assert decide_finite(inst).verdict == "yes"


def test_fixture_gap_floor_block_ensemble():
    """A block ensemble sizes its fixture floor from the per-block orbits the
    decision averages over (longest J = 49), and the decision accepts it."""
    spec = build_staged_machine("halt_now", "iid-repeat-amp", include_decode=False)
    params = EnsembleParams("iid", L=4, alpha=Fraction(0), l=2)
    ens = build_initial_ensemble(spec, params, encode_input("1", Fraction(0)))
    inst = DecisionInstance(machine=spec, ensemble=ens, eta=0.9, eps1=0.3,
                            t0_override=500)
    inst.gap_floor = fixture_gap_floor(inst)
    assert inst.gap_floor == Fraction(1, 313)
    assert decide_finite(inst).verdict == "yes"


def test_block_mode_refuses_interacting_blocks():
    """Two-way blocks of an iid ensemble end on a left shift off their block,
    which on the whole lattice enters the neighbouring block."""
    spec = build_staged_machine("halt_now", "two-way-amp", include_decode=False)
    params = EnsembleParams("iid", L=4, alpha=Fraction(0), l=2)
    ens = build_initial_ensemble(spec, params, encode_input("1", Fraction(0)))
    inst = DecisionInstance(machine=spec, ensemble=ens, eta=0.846, eps1=0.35,
                            t0_override=20)
    with pytest.raises(MalformedConfiguration):
        decide_finite(inst)


def _per_member_states(avger, ts):
    """Reference: every member's amplitudes added through add_site_states."""
    d = avger.h.site_dim
    out = np.zeros((len(ts), d, d), dtype=complex)
    for orbit, data, w in avger.members:
        amps = orbit_spectrum(orbit).amplitudes(ts)
        c = data.cross
        add_site_states(out, data, np.abs(amps) ** 2,
                        amps[:, c[:, 0]] * np.conj(amps[:, c[:, 1]]), w)
    return out


def _per_member_gap(avger):
    """Reference: the joint spectrum of every member assembled on its own."""
    worst = float("inf")
    for blocks in avger.member_blocks:
        lams = np.array([0.0])
        for orbit in blocks:
            lams = (lams[:, None] + orbit_spectrum(orbit).eigenvalues[None, :]).ravel()
        steps = np.diff(np.sort(lams))
        worst = min(worst, float(steps[steps > 1e-9].min(initial=np.inf)))
    return worst


def _a11_style_ensemble(inner):
    """The 243-member anchored ensemble of the decide benchmark instances."""
    spec = build_staged_machine(inner, "one-way-amp")
    params = EnsembleParams("anchored", L=5, alpha=Fraction(1, 8))
    return spec, build_initial_ensemble(spec, params, encode_input("1", Fraction(1, 8))).members


def test_states_at_matches_per_member_sum(shuttle, oneway, iid_nd):
    """Folded grid states equal the per-member add_site_states sum, and the
    per-shape gap equals the per-member one, for a cycle orbit with a block
    member, a block ensemble and anchored ensembles of many members; the two
    small mixtures also match ensemble_site_average."""
    glide, a1, a2 = control(0, "glide"), a_cell("a1"), a_cell("a2")
    # the two block members share their first block and differ in the gap
    mixed = [(Configuration((glide, a1, a2, a1)), Fraction(1, 3)),
             (Configuration((glide, a1, a2, glide, a1, a2, a1)), Fraction(1, 3)),
             (Configuration((glide, a1, a2, glide, a1, a1)), Fraction(1, 3))]
    params = EnsembleParams("anchored", L=3, alpha=Fraction(1, 4))
    anchored = build_initial_ensemble(oneway, params, encode_input("1", Fraction(1, 4)))
    blocks = build_initial_ensemble(iid_nd, EnsembleParams("iid", L=4, alpha=Fraction(0), l=2),
                                    encode_input("1", Fraction(0)))
    ts = np.linspace(0.0, 7.0, 9)
    cases = [(shuttle, mixed, {"cycle", "dead_end"}, None, True),
             (oneway, anchored.members, {"dead_end"}, None, True),
             (iid_nd, blocks.members, {"dead_end"}, None, False),
             (*_a11_style_ensemble("halt_now"), {"dead_end"}, 5, False),
             (*_a11_style_ensemble("ping_pong"), {"dead_end"}, 5, False)]
    for spec, members, kinds, n_shapes, small in cases:
        h = compile_machine(spec)
        avger = _EnsembleGridAverager(h, SimpleNamespace(members=members))
        assert {orbit.kind for orbit, _, _ in avger.members} == kinds
        if n_shapes is not None:
            assert (len(avger.members), len(avger.shapes)) == (243, n_shapes)
        d, at = h.site_dim, np.ix_(avger.values, avger.values)
        got = np.zeros((len(ts), d, d), dtype=complex)
        got[(slice(None), *at)] = avger.layout.unpack(avger.states_at(ts))
        assert np.abs(got - _per_member_states(avger, ts)).max() < 1e-12
        assert avger.min_orbit_gap() == _per_member_gap(avger)
        if small:
            for k, t in enumerate(ts):
                want = ensemble_site_average(members, h, t)
                assert np.abs(got[k] - want).max() < 1e-12


def _dense_states_at(avger, ts):
    """The dense route: every shape's diagonal and kernel products scattered
    into a (T, s, s) stack of zeros."""
    s = len(avger.values)
    rows, cols = avger.layout.rows, avger.layout.cols
    out = np.zeros((len(ts), s, s), dtype=complex)
    diag = np.arange(s)
    for spectrum, hist, (j0, j1), kernel in avger.shapes.values():
        amps = spectrum.amplitudes(ts)
        out[:, diag, diag] += np.abs(amps) ** 2 @ hist
        pair_w = amps[:, j0] * np.conj(amps[:, j1])
        out[:, rows, cols] += pair_w.real @ kernel + 1j * (pair_w.imag @ kernel)
    return out


def _layout_cases(shuttle, iid_nd):
    """Averagers over one anchored configuration of every fixture-table row
    (L = 6 and 13), shuttle cycles with a block member, iid block ensembles
    and the 243-member benchmark ensembles (several shapes, each reaching a
    part of the pairs)."""
    _, rows = FIXTURE_TABLE.args
    for row in rows:
        for _, h, cfg in _fixture_configs(*row):
            yield _EnsembleGridAverager(h, SimpleNamespace(members=[(cfg, 1)]))
    glide, a1, a2 = control(0, "glide"), a_cell("a1"), a_cell("a2")
    rings = [(Configuration((glide, a2, a2)), Fraction(1, 3)),
             (Configuration((glide, a1, a2, a1, a2)), Fraction(1, 3)),
             (Configuration((glide, a1, a2, glide, a1, a1)), Fraction(1, 3))]
    yield _EnsembleGridAverager(compile_machine(shuttle), SimpleNamespace(members=rings))
    for L, l in ((4, 2), (5, 3)):
        blocks = build_initial_ensemble(iid_nd, EnsembleParams("iid", L=L, alpha=Fraction(0), l=l),
                                        encode_input("1", Fraction(0)))
        yield _EnsembleGridAverager(compile_machine(iid_nd), blocks)
    for inner in ("halt_now", "ping_pong"):
        spec, members = _a11_style_ensemble(inner)
        yield _EnsembleGridAverager(compile_machine(spec), SimpleNamespace(members=members))


def test_packed_states_equal_the_dense_stack(shuttle, iid_nd):
    """Packed rows hold the dense stack's entries bit for bit on the layout;
    off it the dense stack, and the per-member d x d sum outside the
    occupied values, are exactly 0.  Each layout is closed under transpose
    and holds every off-diagonal pair once."""
    ts = np.concatenate([np.linspace(0.0, 7.0, 9), [123.4, 1999.9]])
    kinds, n_shapes = set(), 0
    for avger in _layout_cases(shuttle, iid_nd):
        layout = avger.layout
        s, pairs = layout.s, list(zip(layout.rows.tolist(), layout.cols.tolist()))
        assert s == len(avger.values) and all(v != w for v, w in pairs)
        assert pairs == sorted(set(pairs)) and set(pairs) == {(w, v) for v, w in pairs}
        packed = avger.states_at(ts)
        dense = _dense_states_at(avger, ts)
        assert packed.shape == (len(ts), layout.width)
        assert np.array_equal(packed.view(np.uint64), layout.pack(dense).view(np.uint64))
        assert np.array_equal(layout.unpack(packed).view(np.uint64), dense.view(np.uint64))
        support = np.eye(s, dtype=bool)
        support[layout.rows, layout.cols] = True
        assert not dense[:, ~support].any()
        full = np.zeros((avger.h.site_dim,) * 2, dtype=bool)
        full[np.ix_(avger.values, avger.values)] = support
        assert not _per_member_states(avger, ts)[:, ~full].any()
        kinds |= {kind for _, kind in avger.shapes}
        n_shapes = max(n_shapes, len(avger.shapes))
    assert kinds == {"cycle", "dead_end"} and n_shapes >= 5


def test_phase_table_amplitudes_match_direct_evaluation():
    """Amplitudes from the phase tables of the decide grid agree with
    OrbitSpectrum.amplitudes to 1e-12, for J = 1..64 of both kinds, over
    chunks up to t = 2000, a short last chunk included."""
    dt = grid_step(0.988, 0.48)
    rows = 97
    spectra = {(J, kind): (OrbitSpectrum.of(kind, J),)
               for J in range(1, 65) for kind in ("dead_end", "cycle")}
    tables = verifier._PhaseTables(spectra, dt, rows)
    k_last = int(2000 / dt) - rows
    worst = 0.0
    for k0, n in ((1, rows), (rows + 1, rows), (15_000, 9), (k_last, rows)):
        ts = dt * np.arange(k0, k0 + n)
        assert ts[-1] <= 2000
        phases = tables.at(k0, n)
        for shape, (spectrum,) in spectra.items():
            got = spectrum.amplitudes(ts, phases[shape])
            worst = max(worst, np.abs(got - spectrum.amplitudes(ts)).max())
    assert 0 < worst < 1e-12


def test_decide_fires_at_pinned_grid_sizes():
    """The halting A11 instances fire at the grid sizes they always have."""
    rows = [("halt_now", "one-way-amp", 3, 0.988, 0.48, 200),
            ("halt_now", "one-way-amp", 4, 0.846, 0.35, 200),
            ("halt_now", "one-way-amp", 5, 0.74, 0.30, 200),
            ("halt_now", "two-way-amp", 4, 0.846, 0.35, 400),
            ("halt_now", "iid-repeat-amp", 4, 0.846, 0.35, 2500)]
    fired = [decide_finite(_instance(inner, variant, L, 0, eta, eps1, t0)).fired_at
             for inner, variant, L, eta, eps1, t0 in rows]
    assert fired == [94, 107, 127, 122, 148]


def _per_point_fires(inst, k_max):
    """Reference scan: round, add and check one grid point at a time."""
    avger = inst.averager
    places = rounding_precision(inst.eta, inst.eps1, avger.h.site_dim)
    e1 = basis_state(avger.h, a_cell("a1"))[np.ix_(avger.values, avger.values)]
    dt = grid_step(inst.eta, inst.eps1)
    states = avger.layout.unpack(avger.states_at(dt * np.arange(1, k_max + 1)))
    running = np.zeros(e1.shape, dtype=complex)
    flags = []
    for k in range(1, k_max + 1):
        running += round_state(states[k - 1], places)
        flags.append(check_condition(running / k, inst.eta, inst.eps1, e1))
    return flags


@pytest.mark.parametrize("inner, variant, L, eta, eps1, fires", [
    ("halt_now", "one-way-amp", 3, 0.988, 0.48, True),
    ("halt_now", "one-way-amp", 4, 0.846, 0.35, True),
    ("halt_now", "two-way-amp", 4, 0.846, 0.35, True),
    ("ping_pong", "one-way-amp", 3, 0.988, 0.48, False),
])
def test_grid_fires_matches_per_point_scan(inner, variant, L, eta, eps1, fires, monkeypatch):
    """The chunked scan, on packed rows with phase-table amplitudes, flags
    exactly the grid sizes the per-point loop on dense states with directly
    evaluated amplitudes does, across chunk boundaries: the cell budget is
    cut to 97-point chunks, so 300 points cross three of them."""
    inst = _instance(inner, variant, L, 0, eta, eps1, 100)
    avger = inst.averager
    cells = max(avger.layout.width, sum(J for J, _ in avger.shapes))
    monkeypatch.setattr(verifier, "GRID_CELLS", 97 * cells)
    want = _per_point_fires(inst, 300)
    chunks = []
    states_at = avger.states_at

    def recording(ts, phases=None):
        chunks.append(len(ts))
        assert set(phases) == set(avger.shapes)
        return states_at(ts, phases)

    monkeypatch.setattr(avger, "states_at", recording)
    flags = list(_grid_fires(inst, 300))
    assert chunks == [97, 97, 97, 9] == [len(f) for f in flags]
    assert all(f.dtype == bool for f in flags)
    got = np.concatenate(flags).tolist()
    assert got == want
    assert any(want) == fires


def _dense_scan(inst, k_max, chunk=2048):
    """Reference scan in the full d x d site basis: per grid point the
    weighted sum of every member's orbit_site_average, rounded, averaged and
    measured against the d x d all-a1 state.  Returns (flags, distances)."""
    avger = inst.averager
    h = avger.h
    places = rounding_precision(inst.eta, inst.eps1, h.site_dim)
    e1 = basis_state(h, a_cell("a1"))
    dt = grid_step(inst.eta, inst.eps1)
    threshold = inst.eps1 + 1.25 * (inst.eta - inst.eps1)
    running = np.zeros_like(e1)
    dists = []
    for done in range(0, k_max, chunk):
        ks = np.arange(done + 1, min(done + chunk, k_max) + 1)
        states = np.zeros((len(ks), *e1.shape), dtype=complex)
        for orbit, _, w in avger.members:
            states += w * orbit_site_average(orbit, h, dt * ks)
        sums = running + np.cumsum(round_state(states, places), axis=0)
        running = sums[-1]
        dists.append(trace_distance(sums / ks[:, None, None], e1))
    dists = np.concatenate(dists)
    return (dists > threshold).tolist(), dists


def _compact_scan(inst, k_max):
    """The flags of _grid_fires, the grid sizes whose checks reached
    trace_distance, and the distances measured there.  Every check's screened
    flags are also compared with unscreened eigvalsh flags at every point."""
    threshold = float(inst.eps1) + 1.25 * (float(inst.eta) - float(inst.eps1))
    chunk = {}
    sizes, dists = [], []

    def checking(avg, eta, eps1, e1, places=None, layout=None):
        # the scan hands on packed rows of the averager's layout
        assert layout is inst.averager.layout and avg.shape[-1] == layout.width
        chunk["done"] = chunk.get("done", 0) + len(chunk.get("avg", ()))
        chunk["avg"] = dense = layout.unpack(avg)
        flags = check_condition(avg, eta, eps1, e1, places, layout)
        assert flags.tolist() == (trace_distance(dense, layout.unpack(e1)) > threshold).tolist()
        return flags

    def recording(a, b):
        # the rows of the chunk handed on are the undecided points, in order
        avg = chunk["avg"]
        hit = (avg[:, None] == a[None]).all(axis=(2, 3)).any(axis=1)
        assert np.array_equal(avg[hit], a)
        sizes.append(chunk["done"] + 1 + np.flatnonzero(hit))
        dists.append(trace_distance(a, b))
        return dists[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier, "check_condition", checking)
        mp.setattr(verifier, "trace_distance", recording)
        flags = np.concatenate(list(_grid_fires(inst, k_max))).tolist()
    return flags, np.concatenate(sizes or [[]]).astype(int), np.concatenate(dists or [[]])


def _no_a1_instance(shuttle):
    """Two glide rings over a2 cells: cycle orbits that never hold a1."""
    glide, a2 = control(0, "glide"), a_cell("a2")
    members = [(Configuration((glide, a2, a2)), Fraction(1, 2)),
               (Configuration((glide, a2, a2, a2, a2)), Fraction(1, 2))]
    ens = SimpleNamespace(members=members,
                          params=SimpleNamespace(L=4, boundary="periodic"))
    return DecisionInstance(machine=shuttle, ensemble=ens, eta=0.846, eps1=0.35,
                            t0_override=100)


def test_compact_scan_matches_dense_reference(shuttle, iid_nd):
    """The scan over the occupied site values flags exactly the grid sizes a
    d x d scan of the per-member orbit_site_average sum does, on the A11
    instances, the decide benchmark instances, a block (iid) ensemble and an
    ensemble that never holds a1.  Where the screened check measures a
    distance with eigvalsh, it is within 1e-12 of the d x d one at that grid
    size.  Every grid size is compared up to k: the whole grid where k is
    None, and past every fired_at elsewhere."""
    a11 = [(("halt_now", "one-way-amp", 3, 0, 0.988, 0.48, 200), None),
           (("halt_now", "one-way-amp", 4, 0, 0.846, 0.35, 200), None),
           (("halt_now", "one-way-amp", 5, 0, 0.74, 0.30, 200), None),
           (("halt_now", "two-way-amp", 4, 0, 0.846, 0.35, 400), 2048),
           (("halt_now", "iid-repeat-amp", 4, 0, 0.846, 0.35, 2500), 4096)]
    bench = [(("halt_now", "one-way-amp", 5, Fraction(1, 8), 0.74, 0.30, 200), 1024),
             (("ping_pong", "one-way-amp", 5, Fraction(1, 8), 0.846, 0.35, 40), None),
             (("ping_pong", "one-way-amp", 3, 0, 0.988, 0.48, 2000), None)]
    cases = [(_instance(*row), k) for row, k in a11 + bench]
    blocks = build_initial_ensemble(iid_nd, EnsembleParams("iid", L=4, alpha=Fraction(0), l=2),
                                    encode_input("1", Fraction(0)))
    cases.append((DecisionInstance(machine=iid_nd, ensemble=blocks, eta=0.846, eps1=0.35,
                                   t0_override=100), None))
    no_a1 = _no_a1_instance(shuttle)
    cases.append((no_a1, None))
    a1 = no_a1.averager.h.value_index(a_cell("a1"))
    assert not any(data.hist[:, a1].any() for _, data, _ in no_a1.averager.members)
    compared = 0
    for inst, k in cases:
        avger = inst.averager
        assert a_cell("a1") in [avger.h.site_values[v] for v in avger.values]
        k_max = grid_size(inst.eta, inst.eps1, inst.t0_override)
        k = min(k_max, k or k_max)
        flags, sizes, dists = _compact_scan(inst, k)
        want_flags, want_dists = _dense_scan(inst, k)
        assert flags == want_flags
        assert np.abs(dists - want_dists[sizes - 1]).max(initial=0.0) <= 1e-12
        compared += len(sizes)
    assert compared > 0


def _count_calls(monkeypatch, modname, name, counter):
    """Count calls of ``modname.name`` under every hamca module that holds it."""
    orig = getattr(sys.modules[modname], name)

    def counted(*a, **kw):
        counter[name] = counter.get(name, 0) + 1
        return orig(*a, **kw)

    for key, mod in list(sys.modules.items()):
        if key.startswith("hamca") and getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counted)


def test_decide_steps_each_member_once(tmp_path, monkeypatch):
    """One compilation and one orbit per member, for the fixture floor and the
    decision together (243 members, one control each)."""
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "inner": "halt_now", "variant": "one-way-amp", "decode": True,
        "mode": "anchored", "L": 5, "alpha": [1, 8], "v": "1", "eta": 0.74,
        "eps1": 0.30, "t0_override": 200, "gap_floor_from_fixture": True,
    }))
    calls = {}
    _count_calls(monkeypatch, "hamca.hamiltonian", "compile_machine", calls)
    _count_calls(monkeypatch, "hamca.dynamics", "coded_orbit", calls)
    assert main(["decide", str(path), "--out", str(tmp_path / "v.json")]) == 0
    assert calls == {"compile_machine": 1, "coded_orbit": 243}
    assert json.loads((tmp_path / "v.json").read_text())["verdict"] == "yes"


def test_unique_inverse_matches_numpy_unique():
    rng = np.random.default_rng(5)
    for keys in [np.array([], dtype=np.int64), np.array([7]), rng.integers(0, 40, 300),
                 rng.integers(0, 3, 50) * 1000 + 17]:
        got = verifier._unique_inverse(keys)
        want = np.unique(keys, return_inverse=True)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_decide_imports_no_numpy_ma(tmp_path):
    """A decide run loads no numpy.ma that numpy had not loaded already
    (np.unique imports it on first use, a cost inside every run)."""
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "inner": "halt_now", "variant": "iid-repeat-amp", "decode": False,
        "mode": "iid", "L": 4, "alpha": [0, 1], "l": 2, "v": "1", "eta": 0.846,
        "eps1": 0.35, "t0_override": 40, "gap_floor_from_fixture": True,
    }))
    script = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "from hamca.cli import main\n"
        "assert main(['decide', sys.argv[1], '--override-params', '--out', sys.argv[2]]) == 0\n"
        "print(sorted(m for m in set(sys.modules) - before if m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    src = str(Path(verifier.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "v.json"
    run = subprocess.run([sys.executable, "-c", script, str(path), str(out)],
                         capture_output=True, text=True, env=env, check=True)
    assert run.stdout.strip() == "[]"
    assert json.loads(out.read_text())["verdict"] in ("yes", "no")


def test_semi_decide_dovetails_lattice_sizes():
    """Index 1 never fires, index 2 is unavailable, indices 3 and 4 halt; the
    sweep fires on index 3 at grid size 94 and builds each index once."""
    table = {1: ("ping_pong", 3), 3: ("halt_now", 3), 4: ("halt_now", 4)}
    calls = []

    def instance_at(m):
        calls.append(m)
        if m not in table:
            return None
        inner, L = table[m]
        return _instance(inner, "one-way-amp", L, 0, 0.988, 0.48, 100)

    verdict = semi_decide(instance_at, budget=300)
    assert (verdict.verdict, verdict.fired_at) == ("yes", 94)
    assert calls == list(range(1, 97))
    calls.clear()
    assert semi_decide(instance_at, budget=50).verdict == "budget_exhausted"


def test_semi_decide_visits_pairs_in_diagonal_order(monkeypatch):
    """Lattice indices 2, 3, 5 and 9 are available: the sweep advances their
    scans in the order of a brute-force walk over every diagonal, one grid
    size at a time out of the scans' chunks, builds each index once, and
    stops at the pair that fires."""
    available = {2, 3, 5, 9}
    visits, calls = [], []

    def visit(m, k):
        visits.append((m, k))
        return (m, k) == (9, 4)

    def scan(m, k_max):
        # chunks of three grid sizes, each size recorded when it is read
        for k0 in range(1, k_max + 1, 3):
            yield (visit(m, k) for k in range(k0, min(k0 + 3, k_max + 1)))

    def instance_at(m):
        calls.append(m)
        return m if m in available else None

    def diagonal_walk(budget):
        pairs, diag = [], 2
        while len(pairs) < budget:
            pairs += [(diag - k, k) for k in range(1, diag) if diag - k in available]
            diag += 1
        return pairs[:budget]

    monkeypatch.setattr(verifier, "_grid_fires", scan)
    assert semi_decide(instance_at, budget=25).verdict == "budget_exhausted"
    assert visits == diagonal_walk(25)
    assert calls == list(range(1, visits[-1][0] + visits[-1][1]))
    visits.clear()
    verdict = semi_decide(instance_at, budget=100)
    assert (verdict.verdict, verdict.fired_at) == ("yes", 4)
    assert visits == diagonal_walk(len(visits)) and visits[-1] == (9, 4)


def test_semi_decide_scales_linearly_on_one_lattice():
    """With one lattice, doubling the budget about doubles the time (four
    times as long would mean every diagonal is walked in full)."""
    inst = _instance("ping_pong", "one-way-amp", 3, 0, 0.988, 0.48, 100)
    inst.averager  # noqa: B018  (build the member orbits outside the timing)

    def best_of_three(budget):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            verdict = semi_decide(lambda m: inst if m == 1 else None, budget)
            times.append(time.perf_counter() - t0)
            assert verdict.verdict == "budget_exhausted"
        return min(times)

    assert best_of_three(4000) < 3 * best_of_three(2000)


def test_semi_decide_refuses_budget_above_grid_limit():
    with pytest.raises(DimensionGuard):
        semi_decide(lambda m: None, MAX_GRID_POINTS + 1)


def test_semi_decide_stops_when_no_lattice_is_available():
    """instance_at gives None for every index: the sweep asks for indices
    1..budget once each and then raises, instead of asking forever."""
    calls = []

    def instance_at(m):
        calls.append(m)
        return None

    with pytest.raises(PromiseViolation):
        semi_decide(instance_at, budget=5)
    assert calls == [1, 2, 3, 4, 5]


def test_semi_decide_budget_zero():
    inst = _instance("halt_now", "one-way-amp", 3, 0, 0.988, 0.48, 100)
    verdict = semi_decide(lambda m: inst if m == 1 else None, budget=0)
    assert verdict.verdict == "budget_exhausted"


def test_semi_decide_accepts_halting():
    inst = _instance("halt_now", "one-way-amp", 3, 0, 0.988, 0.48, 100)
    verdict = semi_decide(lambda m: inst if m == 1 else None, budget=400)
    assert verdict.verdict == "yes"


def test_semi_decide_exhausts_on_non_halting():
    inst = _instance("ping_pong", "one-way-amp", 3, 0, 0.988, 0.48, 100)
    verdict = semi_decide(lambda m: inst if m == 1 else None, budget=150)
    assert verdict.verdict == "budget_exhausted"


def test_reduction_parameters_examples():
    d = 5
    a = np.zeros((d, d))
    a[1, 1] = 1.0
    a[2, 2] = -1.0
    c1, eps0, eps1 = reduction_parameters(a, 0.5)
    assert c1 == 1.0
    assert eps1 == pytest.approx(1 / 3)
    assert eps0 == pytest.approx(1 / 3)
    with pytest.raises(DegenerateObservable):
        reduction_parameters(np.eye(d), 0.5)


def test_separation_margins():
    d = 5
    rng = np.random.default_rng(2)
    a = rng.standard_normal((d, d))
    a = (a + a.T) / 2
    a[1, 1], a[2, 2] = 1.3, -0.7
    m = separation_margins(a, 0.5, count=1000, seed=7)
    assert m["near_max"] <= m["eps0"] + 1e-9
    assert m["far_min"] >= 2 * m["eps0"] - 1e-9
    assert m["cross_min"] >= m["eps0"] - 1e-9


def test_rotation_identity_when_target_is_reference():
    d = 4
    psi = np.zeros(d, complex)
    psi[1] = 1.0
    v = rotation_to(psi)
    assert np.allclose(v, np.eye(d))


def test_rotation_requires_orthogonality_to_control():
    psi = np.array([0.6, 0.8, 0, 0], complex)
    with pytest.raises(OverlapViolation):
        rotation_to(psi)


def test_rotation_round_trip_dynamics(rng):
    d, L = 3, 4
    n = L + 1
    h1 = rng.randn(d, d)
    h1 = (h1 + h1.T) / 2
    h2 = rng.randn(d * d, d * d)
    h2 = (h2 + h2.T) / 2
    psi = np.zeros(d, complex)
    theta = 0.12
    psi[1], psi[2] = np.cos(theta), np.sin(theta)
    v = rotation_to(psi, eps1=0.4)
    h1c, h2c = conjugate_local_terms(h1, h2, v)
    H_prime = dense_lattice_hamiltonian(h1, h2, L)
    H_rot = dense_lattice_hamiltonian(h1c, h2c, L)

    def kr(vs):
        out = vs[0]
        for x in vs[1:]:
            out = np.kron(out, x)
        return out

    e0 = np.zeros(d, complex)
    e0[0] = 1
    e1 = np.zeros(d, complex)
    e1[1] = 1
    s_prime = kr([e0] + [psi] * L)
    s_rot = kr([e0] + [e1] * L)
    w1, u1 = np.linalg.eigh(H_prime)
    w2, u2 = np.linalg.eigh(H_rot)
    for t in (0.8, 2.9):
        vp = u1 @ (np.exp(-1j * w1 * t) * (u1.conj().T @ s_prime))
        vr = u2 @ (np.exp(-1j * w2 * t) * (u2.conj().T @ s_rot))
        rp = lattice_site_average(vp, d, n)
        rr = lattice_site_average(vr, d, n)
        assert trace_distance(rp, v @ rr @ v.conj().T) <= 1e-10
        # distance inflation bound against an arbitrary reference state
        sigma = np.zeros((d, d), complex)
        sigma[2, 2] = 1.0
        eps1_eff = trace_distance(
            np.outer(psi, psi.conj()), np.outer(e1, e1.conj())
        )
        assert trace_distance(rp, sigma) <= trace_distance(
            v @ rr @ v.conj().T, sigma
        ) + np.sqrt(2) * eps1_eff + 1e-9
