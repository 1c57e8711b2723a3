"""Orbit dynamics: spectral evolution, time averages, dephasing, distances."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamca.dynamics import (
    KINDS,
    _one_site_pairs,
    check_state,
    coded_orbit,
    dense_cross_term,
    dense_space,
    dephasing_cross_term,
    evolve_spectral,
    lockstep_orbits,
    longterm_site_average,
    orbit_site_average,
    orbit_site_data,
    overlap_kernel,
    pair_overlap_matrix,
    pair_weight_matrix,
    run_orbit_cached,
    site_average_weighted,
    space_average_operator,
    stacked_member_orbits,
    time_avg_probs,
    time_avg_probs_overlap,
    trace_distance,
    trig_kernel,
    trig_kernel_direct,
)
from hamca.encoding import (
    EnsembleParams,
    anchored_configuration,
    build_initial_ensemble,
    encode_input,
    scattered_m_sites,
)
from hamca.hamiltonian import compile_machine, reachable_space
from hamca.machine import (
    Configuration,
    a_cell,
    control,
    run_orbit,
    run_stats,
)
from hamca.staged import FIXTURES, VARIANTS, build_staged_machine

from conftest import reference_orbit_terms, reference_site_average


def test_evolve_identity_at_zero(oneway_nd, h_oneway_nd):
    cfg = anchored_configuration(oneway_nd, 5)
    orbit = run_orbit_cached(cfg, h_oneway_nd, 10_000)
    amps = evolve_spectral(orbit, 0.0)
    assert abs(amps[0] - 1.0) < 1e-12
    assert np.abs(amps[1:]).max() < 1e-12


def test_evolve_unitary(oneway_nd, h_oneway_nd, rng):
    cfg = anchored_configuration(oneway_nd, 6)
    orbit = run_orbit_cached(cfg, h_oneway_nd, 10_000)
    for t in rng.uniform(0, 50, 10):
        amps = evolve_spectral(orbit, t)
        assert abs(np.sum(np.abs(amps) ** 2) - 1.0) < 1e-10


def test_evolve_matches_dense(oneway_nd, h_oneway_nd, rng):
    cfg = anchored_configuration(oneway_nd, 4)
    orbit = run_orbit_cached(cfg, h_oneway_nd, 10_000)
    ds = dense_space(h_oneway_nd, [cfg])
    v0 = ds.state_vector(cfg)
    for t in rng.uniform(0, 50, 20):
        amps = evolve_spectral(orbit, t)
        dense = ds.evolve(v0, t)
        dvec = np.array([dense[ds.space.index[c.cells]] for c in orbit.states])
        assert np.abs(amps - dvec).max() < 1e-9


def test_time_avg_probs_examples():
    assert time_avg_probs(5) == [
        Fraction(1, 4),
        Fraction(1, 6),
        Fraction(1, 6),
        Fraction(1, 6),
        Fraction(1, 4),
    ]
    assert time_avg_probs(2) == [Fraction(1, 2), Fraction(1, 2)]
    assert time_avg_probs(1) == [Fraction(1)]
    for J in (1, 2, 3, 17, 100):
        assert sum(time_avg_probs(J)) == 1
        assert time_avg_probs(J) == time_avg_probs_overlap(J)


def test_time_avg_numeric_long_horizon():
    """Trapezoidal time integration reproduces the visit law at J = 8."""
    J = 8
    T = 10_000 * J
    dt = np.pi / 16  # pi / (8 * ||H||) with ||H|| <= 2
    ts = np.arange(0, T, dt)
    k = np.arange(1, J + 1)
    lam = 2 * np.cos(k * np.pi / (J + 1))
    sin1 = np.sin(k * np.pi / (J + 1))
    sinjk = np.sin(np.outer(np.arange(1, J + 1), k) * np.pi / (J + 1))
    phases = np.exp(-1j * np.outer(ts, lam)) * sin1[None, :]
    amps = (2.0 / (J + 1)) * phases @ sinjk.T  # (T, J)
    probs = np.abs(amps) ** 2
    avg = np.trapezoid(probs, dx=dt, axis=0) / (ts[-1] - ts[0])
    expected = np.array([float(p) for p in time_avg_probs(J)])
    assert np.abs(avg - expected).max() < 5e-3


def test_trig_kernel_examples():
    assert trig_kernel(4, 2, 2) == Fraction(5, 4)
    assert trig_kernel(4, 1, 1) == Fraction(15, 8)
    assert trig_kernel(9, 2, 4) == Fraction(-10, 8)
    assert trig_kernel(9, 4, 2) == Fraction(-10, 8)
    assert trig_kernel(9, 2, 5) == 0
    assert trig_kernel(1, 1, 1) == 1


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 60), st.data())
def test_trig_kernel_matches_direct(J, data):
    j = data.draw(st.integers(1, J))
    jp = data.draw(st.integers(1, J))
    assert trig_kernel(J, j, jp) == trig_kernel_direct(J, j, jp)
    assert trig_kernel(J, j, jp) == overlap_kernel(J, j, jp)


def test_trace_distance_examples():
    d = 4
    e1 = np.zeros((d, d), complex)
    e1[1, 1] = 1
    e2 = np.zeros((d, d), complex)
    e2[2, 2] = 1
    assert trace_distance(e1, e1) == 0
    assert trace_distance(e1, e2) == pytest.approx(2.0)
    assert trace_distance(e1, 0.5 * (e1 + e2)) == pytest.approx(1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_trace_distance_is_a_metric(seed):
    rng = np.random.RandomState(seed)

    def rand_state(d=4):
        g = rng.randn(d, d) + 1j * rng.randn(d, d)
        g = g @ g.conj().T
        return g / np.trace(g).real

    a, b, c = rand_state(), rand_state(), rand_state()
    assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-12)
    assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12


def test_site_average_examples(oneway_nd, h_oneway_nd):
    d = h_oneway_nd.site_dim
    cfg = anchored_configuration(oneway_nd, 5)
    orbit = run_orbit_cached(cfg, h_oneway_nd, 10_000)
    rho0 = orbit_site_average(orbit, h_oneway_nd, 0.0)
    i0 = h_oneway_nd.value_index(control(0, "boot"))
    i1 = h_oneway_nd.value_index(a_cell("a1"))
    assert rho0[i0, i0].real == pytest.approx(1 / 6)
    assert rho0[i1, i1].real == pytest.approx(5 / 6)
    assert abs(np.trace(rho0) - 1) < 1e-12


def test_site_average_matches_dense(oneway, h_oneway, rng):
    enc = encode_input("1", Fraction(1, 4))
    params = EnsembleParams("anchored", L=4, alpha=Fraction(1, 4))
    ens = build_initial_ensemble(oneway, params, enc)
    for t in rng.uniform(0, 30, 4):
        rho_orbit = reference_site_average(h_oneway, ens.members, float(t))
        rho_dense = np.zeros_like(rho_orbit)
        for cfg, w in ens.members:
            ds = dense_space(h_oneway, [cfg])
            rho_dense += float(w) * ds.site_average(ds.evolve(ds.state_vector(cfg), t))
        assert np.abs(rho_orbit - rho_dense).max() < 1e-9


@pytest.mark.parametrize("machine, L", [("twoway_nd", 16), ("shuttle", 19)])
def test_block_states_equal_the_full_states(request, machine, L):
    """The states on the block of occupied values plus ``keep`` are the
    full d x d states on that block, and the full states are exactly zero
    off it, on a dead end and on the shuttle cycle."""
    spec = request.getfixturevalue(machine)
    h = compile_machine(spec)
    orbit = coded_orbit(h, anchored_configuration(spec, L), 10_000)
    ts = np.linspace(0.0, 20.0, 41)
    keep = (h.value_index(a_cell("a1")), h.value_index(a_cell("a2")))
    values, block = orbit_site_average(orbit, h, ts, keep=keep)
    full = orbit_site_average(orbit, h, ts)
    occupied = np.flatnonzero(orbit_site_data(orbit, h).hist.any(axis=0))
    assert values.tolist() == sorted(set(occupied.tolist()) | set(keep))
    assert len(values) < h.site_dim
    inside = np.zeros(h.site_dim, dtype=bool)
    inside[values] = True
    assert not full[:, ~inside].any() and not full[:, :, ~inside].any()
    assert np.abs(full[:, values[:, None], values] - block).max() < 1e-15
    at, one = orbit_site_average(orbit, h, ts[3], keep=keep)
    assert np.array_equal(at, values) and np.abs(one - block[3]).max() < 1e-15


def test_longterm_matches_spectral_projections(oneway, h_oneway):
    cfg = anchored_configuration(oneway, 5, {3: (0, 1)})
    lt, _ = longterm_site_average(oneway, h_oneway, cfg, 10_000)
    ds = dense_space(h_oneway, [cfg])
    lt_dense = ds.longterm_site_average(ds.state_vector(cfg))
    assert np.abs(lt - lt_dense).max() < 1e-9


FIXTURE_TABLE = pytest.mark.parametrize(
    "inner, variant, decode, boundary",
    [(i, v, dec, b) for i in sorted(FIXTURES) for v in VARIANTS
     for dec in (True, False) for b in ("periodic", "open")],
)


def _fixture_configs(inner, variant, decode, boundary):
    """(spec, h, configuration) of one fixture-table row at L = 6 and 13."""
    spec = build_staged_machine(inner, variant, include_decode=decode)
    h = compile_machine(spec, boundary)
    for L in (6, 13):
        m = L // 3
        sites = scattered_m_sites(L, m, witness_at=m, seed=L)
        yield spec, h, anchored_configuration(spec, L, sites, boundary=boundary)


@FIXTURE_TABLE
def test_longterm_fixture_table_matches_dense(inner, variant, decode, boundary):
    """The run_stats route against the dense spectral projections."""
    for spec, h, cfg in _fixture_configs(inner, variant, decode, boundary):
        lt, stats = longterm_site_average(spec, h, cfg, 10_000)
        check_state(lt)
        if reachable_space(h, [cfg]).dim > 4096:
            continue
        ds = dense_space(h, [cfg])
        assert ds.space.dim == stats.length
        lt_dense = ds.longterm_site_average(ds.state_vector(cfg))
        assert np.abs(lt - lt_dense).max() < 1e-9


def _all_pairs_site_data(orbit, h):
    """Reference histogram and cross rows: every step compared with every
    other over all sites, rows in (j, j') order."""
    idx = {v: i for i, v in enumerate(h.site_values)}
    return _all_pairs_from_codes(np.array([[idx[x] for x in c.cells] for c in orbit.states]), h)


def _all_pairs_from_codes(arr, h):
    arr = arr.astype(np.int64)
    hist = np.array([np.bincount(row, minlength=h.site_dim) for row in arr])
    rows = [np.zeros((0, 4), dtype=np.int64)]
    for j in range(len(arr)):
        diff = arr != arr[j]
        jps = np.nonzero(diff.sum(axis=1) == 1)[0]
        at = diff[jps].argmax(axis=1)
        rows.append(np.stack([np.full_like(jps, j), jps, arr[j, at], arr[jps, at]], axis=1))
    return hist, np.concatenate(rows)


def _assert_site_data_matches_all_pairs(orbit, h):
    data = orbit_site_data(orbit, h)
    hist, cross = _all_pairs_site_data(orbit, h)
    assert data.hist.dtype == hist.dtype and np.array_equal(data.hist, hist)
    assert data.cross.dtype == cross.dtype and np.array_equal(data.cross, cross)


@FIXTURE_TABLE
def test_orbit_site_data_fixture_table_matches_all_pairs(inner, variant, decode, boundary):
    """The control-site buckets find exactly the all-pairs cross rows, in order."""
    for _, h, cfg in _fixture_configs(inner, variant, decode, boundary):
        _assert_site_data_matches_all_pairs(run_orbit_cached(cfg, h, 10_000), h)


def test_orbit_site_data_two_way_l40_matches_all_pairs(twoway_nd):
    h = compile_machine(twoway_nd)
    orbit = run_orbit_cached(anchored_configuration(twoway_nd, 40), h, 10_000)
    assert orbit.length == 40**2 + 40 + 5
    _assert_site_data_matches_all_pairs(orbit, h)


def test_one_site_pairs_count_cells_of_wide_codes(twoway_nd):
    """The compare counts differing cells, not bytes: on 16-bit cells with
    every code c relabelled as 257 c (so a differing cell differs in both
    bytes), and on 32- and 64-bit cells, the scan finds the pairs it finds
    on the 8-bit codes, with the relabelled values."""
    h = compile_machine(twoway_nd)
    rows = coded_orbit(h, anchored_configuration(twoway_nd, 9), 10_000).rows
    same, one = _one_site_pairs(h, rows, rows)
    for dtype, spread in ((np.uint16, 257), (np.uint32, 1), (np.uint64, 1)):
        is_control = np.zeros((h.site_dim - 1) * spread + 1, dtype=bool)
        is_control[np.arange(h.site_dim) * spread] = h.step_table.is_control
        fake = SimpleNamespace(step_table=SimpleNamespace(is_control=is_control))
        wide = rows.astype(dtype) * dtype(spread)
        got_same, (ja, jb, va, vb) = _one_site_pairs(fake, wide, wide)
        assert all(np.array_equal(x, y) for x, y in zip(got_same, same))
        assert np.array_equal(ja, one[0]) and np.array_equal(jb, one[1])
        assert np.array_equal(va, one[2] * dtype(spread))
        assert np.array_equal(vb, one[3] * dtype(spread))
    assert len(one[0]) > 0


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_orbit_site_data_random_configurations_match_all_pairs(single_control_rings, data):
    spec, cfg = data.draw(single_control_rings)
    h = compile_machine(spec, cfg.boundary)
    _assert_site_data_matches_all_pairs(run_orbit_cached(cfg, h, 10_000), h)


def _assert_coded_orbit_matches_reference(spec, h, cfg, max_steps=10_000):
    """coded_orbit gives the reference route's rows, terminal and dtype, and
    so does lockstep_orbits on the configuration's row alone."""
    ref = run_orbit(spec, cfg, max_steps)
    got = coded_orbit(h, cfg, max_steps)
    assert got.terminal == ref.terminal
    assert (got.length, got.kind) == (ref.length, ref.kind)
    assert got.rows.dtype == np.min_scalar_type(h.site_dim - 1)
    assert np.array_equal(got.rows, h.encode([c.cells for c in ref.states]))
    one = lockstep_orbits(h, got.rows[:1], np.array([cfg.single_control()]),
                          cfg.boundary == "periodic", max_steps)
    assert (one.length.tolist(), [KINDS[k] for k in one.kind]) == ([ref.length], [ref.kind])
    assert np.array_equal(one.rows, got.rows) and one.rows.dtype == got.rows.dtype
    assert one.orbit.tolist() == [0] * ref.length and one.step.tolist() == list(range(ref.length))
    return got


@FIXTURE_TABLE
def test_coded_orbit_fixture_table_matches_reference(inner, variant, decode, boundary):
    for spec, h, cfg in _fixture_configs(inner, variant, decode, boundary):
        assert _assert_coded_orbit_matches_reference(spec, h, cfg).kind == "dead_end"


def test_coded_orbit_shuttle_cycles_and_budgets(shuttle, twoway_nd):
    """Shuttle rings close into cycles and stop at the open end; every budget
    around the orbit length truncates exactly where machine.run_orbit does."""
    a1, a2, glide = a_cell("a1"), a_cell("a2"), control(0, "glide")
    for boundary, kind in (("periodic", "cycle"), ("open", "dead_end")):
        h = compile_machine(shuttle, boundary)
        for cells in ((a1,), (a1, a2, a1), (a2, a1, a1, a1)):
            cfg = Configuration((glide,) + cells, boundary)
            assert _assert_coded_orbit_matches_reference(shuttle, h, cfg).kind == kind
    h = compile_machine(shuttle)
    cfg = Configuration((glide, a1, a2, a1))
    J = coded_orbit(h, cfg, 1000).length
    for budget in (0, 1, J - 2, J - 1, J):
        _assert_coded_orbit_matches_reference(shuttle, h, cfg, budget)
    h = compile_machine(twoway_nd)
    cfg = anchored_configuration(twoway_nd, 6)
    J = coded_orbit(h, cfg, 1000).length
    kinds = [_assert_coded_orbit_matches_reference(twoway_nd, h, cfg, budget).kind
             for budget in (0, 5, J - 2, J - 1, J)]
    assert kinds == ["truncated"] * 4 + ["dead_end"]


def test_coded_orbit_one_site_ring(shuttle, oneway):
    """A lone control: it reads itself, or would swap with itself, so every
    state and mode is a dead end after one row, on either boundary, in
    coded_orbit, lockstep_orbits and run_stats alike."""
    for spec in (shuttle, oneway):
        for boundary in ("periodic", "open"):
            h = compile_machine(spec, boundary)
            for q in spec.control.states:
                for mode in (0, 1):
                    cfg = Configuration((control(mode, q),), boundary)
                    got = _assert_coded_orbit_matches_reference(spec, h, cfg)
                    assert got.terminal == ("dead_end", 1)
                    ref = run_orbit(spec, cfg, 10_000)  # machine.step's orbit
                    stats = run_stats(spec, cfg, 10_000)
                    assert (stats.length, stats.terminal) == (ref.length, ref.kind)
                    assert (stats.first_hist == stats.last_hist
                            == stats.total_steps_by_value == {cfg.cells[0]: 1})


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_coded_orbit_random_configurations_match_reference(single_control_rings, data):
    spec, cfg = data.draw(single_control_rings)
    _assert_coded_orbit_matches_reference(spec, compile_machine(spec, cfg.boundary), cfg)


def _assert_stacked_matches_reference(h, members):
    """stacked_member_orbits gives each configuration the orbits and weights
    of reference_orbit_terms, and the one-site scan of a stacked group, bucketed
    by (orbit, control site), gives each orbit the histogram and the cross
    rows of orbit_site_data and of the all-pairs reference, in (j, j') order."""
    d = h.site_dim
    got = {}
    for orbits, member, weight in stacked_member_orbits(h, members, 10_000):
        rows, n = orbits.rows, orbits.rows.shape[1]
        _, (a, b, va, vb) = _one_site_pairs(h, rows, rows, orbits.orbit)
        for k in range(len(member)):
            mine = orbits.orbit == k
            assert np.array_equal(orbits.step[mine], np.arange(orbits.length[k]))
            hist = np.zeros((orbits.length[k], d), dtype=np.intp)
            np.add.at(hist, (orbits.step[mine][:, None], rows[mine]), 1)
            at = orbits.orbit[a] == k
            cross = np.stack([orbits.step[a[at]], orbits.step[b[at]], va[at], vb[at]], axis=1)
            got.setdefault(member[k], []).append(
                (rows[mine].tobytes(), n, KINDS[orbits.kind[k]], weight[k], hist, cross))
    assert sorted(got) == list(range(len(members)))
    for k, (cfg, w) in enumerate(members):
        want = []
        for orbit, scale in reference_orbit_terms(h, cfg, 10_000):
            data = orbit_site_data(orbit, h)
            hist, cross = _all_pairs_from_codes(orbit.rows, h)
            assert np.array_equal(data.hist, hist) and np.array_equal(data.cross, cross)
            want.append((orbit.rows.tobytes(), orbit.rows.shape[1], orbit.kind,
                         float(w) * scale, data.hist, data.cross))
        assert len(got[k]) == len(want)
        by_rows = lambda x: x[:2]  # the codes and the width
        for mine, ref in zip(sorted(got[k], key=by_rows), sorted(want, key=by_rows)):
            assert mine[:4] == ref[:4]
            assert np.array_equal(mine[4], ref[4]) and np.array_equal(mine[5], ref[5])


def test_stacked_member_orbits_anchored_ensemble(oneway):
    h = compile_machine(oneway)
    params = EnsembleParams("anchored", L=4, alpha=Fraction(1, 4))
    ens = build_initial_ensemble(oneway, params, encode_input("1", Fraction(1, 4)))
    assert len(ens.members) > 20
    _assert_stacked_matches_reference(h, ens.members)


def test_stacked_member_orbits_iid_blocks(iid_nd):
    """Blocks of widths 1..5 stepped group by group, control-free parts among
    them, on both boundaries, with configurations of other widths and
    without any control mixed in."""
    a1, a2 = a_cell("a1"), a_cell("a2")
    for boundary in ("open", "periodic"):
        params = EnsembleParams("iid", L=5, alpha=Fraction(0), l=2, boundary=boundary)
        ens = build_initial_ensemble(iid_nd, params, encode_input("1", Fraction(0)))
        h = compile_machine(iid_nd, boundary)
        extra = [(Configuration((a1, a2, a1), boundary), Fraction(1, 3)),
                 (Configuration((a2,), boundary), Fraction(1, 5))]
        groups = stacked_member_orbits(h, ens.members + extra, 10_000)
        widths = {orbits.rows.shape[1] for orbits, _, _ in groups}
        assert widths == {1, 2, 3, 4, 5, 6}
        _assert_stacked_matches_reference(h, ens.members + extra)


def test_stacked_member_orbits_shuttle_cycles_and_budgets(shuttle):
    """Rings of several widths close into cycles in one lockstep call, and a
    budget below an orbit's length truncates it as coded_orbit does."""
    a1, a2, glide = a_cell("a1"), a_cell("a2"), control(0, "glide")
    h = compile_machine(shuttle)
    members = [(Configuration((glide,) + cells), Fraction(1, 4))
               for cells in ((a1, a2, a1), (a2, a1, a1), (a1, a1, a1), (a2, a2, a2))]
    _assert_stacked_matches_reference(h, members)
    (orbits, _, _), = stacked_member_orbits(h, members, 10_000)
    assert {KINDS[k] for k in orbits.kind} == {"cycle"}
    J = int(orbits.length.max())
    for budget in (0, 1, J - 1):
        (cut, _, _), = stacked_member_orbits(h, members, budget)
        for k, (cfg, _) in enumerate(members):
            ref = coded_orbit(h, cfg, budget)
            assert (cut.length[k], KINDS[cut.kind[k]]) == (ref.length, ref.kind)
            assert np.array_equal(cut.rows[cut.orbit == k], ref.rows)


@FIXTURE_TABLE
def test_stacked_member_orbits_fixture_table(inner, variant, decode, boundary):
    """One lockstep group per width, against the reference split of every
    configuration of a fixture-table row."""
    rows = list(_fixture_configs(inner, variant, decode, boundary))
    _assert_stacked_matches_reference(rows[0][1], [(cfg, Fraction(1, 2)) for _, _, cfg in rows])


def _path_kernel(J):
    """Dead-end pair weights 4 trig_kernel / (J+1)^2 for |j - j'| in {0, 2}."""
    w = np.zeros((J, J))
    for j in range(1, J + 1):
        for jp in (j - 2, j, j + 2):
            if 1 <= jp <= J:
                w[j - 1, jp - 1] = 4 * trig_kernel(J, j, jp) / (J + 1) ** 2
    return w


def _cycle_weights_by_projection(J):
    """Long-term pair weights of a J-cycle from the dense eigenprojections of
    the ring Hamiltonian, equal eigenvalues grouped."""
    shift = np.roll(np.eye(J), 1, axis=0)
    lam, vecs = np.linalg.eigh(shift + shift.T)
    order = np.argsort(lam)
    w = np.zeros((J, J))
    for group in np.split(order, np.nonzero(np.diff(lam[order]) > 1e-9)[0] + 1):
        col = vecs[:, group] @ vecs[0, group]  # first step projected onto the eigenspace
        w += np.outer(col, col)
    return w


def test_cycle_pair_weights_match_projections():
    for J in range(1, 65):
        w = pair_weight_matrix(J)
        assert w.shape == (J, J)
        assert np.abs(w - _cycle_weights_by_projection(J)).max() < 1e-12


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_longterm_route_on_random_configurations(single_control_rings, data):
    """No dead-end orbit has a cross pair two steps apart, so the route equals
    the full path kernel on the orbit; a cycle equals its projections."""
    spec, cfg = data.draw(single_control_rings)
    h = compile_machine(spec, cfg.boundary)
    lt, stats = longterm_site_average(spec, h, cfg, 10_000)
    orbit = run_orbit_cached(cfg, h, 10_000)
    assert (stats.terminal, stats.length) == (orbit.kind, orbit.length)
    data = orbit_site_data(orbit, h)
    if orbit.kind == "dead_end":
        assert not np.any(np.abs(data.cross[:, 0] - data.cross[:, 1]) == 2)
        w = _path_kernel(orbit.length)
    else:
        w = _cycle_weights_by_projection(orbit.length)
    assert np.abs(lt - site_average_weighted(data, w, h.site_dim)).max() < 1e-12


def test_longterm_cycle_orbit(shuttle):
    """Shuttle rings with J/2 odd and even.  A lap of the control rotates the
    cells by one site, so J = 2(L+1) times the period of the cell pattern;
    J is always even, since every step flips the control's mode."""
    h = compile_machine(shuttle)
    a1, a2 = a_cell("a1"), a_cell("a2")
    lengths = []
    for cells in ((a1,), (a1, a1), (a1, a2), (a1, a2, a1), (a2, a1, a1, a1), (a1,) * 5):
        cfg = Configuration((control(0, "glide"),) + cells)
        lt, stats = longterm_site_average(shuttle, h, cfg, 1000)
        assert stats.terminal == "cycle"
        lengths.append(stats.length)
        ds = dense_space(h, [cfg])
        lt_dense = ds.longterm_site_average(ds.state_vector(cfg))
        assert np.abs(lt - lt_dense).max() < 1e-9
    assert lengths == [4, 6, 12, 24, 40, 12]


def test_step_average_bound(oneway, h_oneway):
    """Long-term average of a site observable sits within 2/L of the
    visit-probability prediction, for both the exact spectral average and a
    numeric long-horizon time integration."""
    L = 6
    cfg = anchored_configuration(oneway, L, {3: (0, 1)})
    orbit = run_orbit_cached(cfg, h_oneway, 10_000)
    d = h_oneway.site_dim
    b = np.zeros((d, d), complex)
    i1 = h_oneway.value_index(a_cell("a1"))
    b[i1, i1] = 1.0
    lt, _ = longterm_site_average(oneway, h_oneway, cfg, 10_000)
    exact = np.trace(lt @ b).real
    data = orbit_site_data(orbit, h_oneway)
    ps = time_avg_probs(orbit.length)
    predicted = sum(
        float(p) * data.hist[j, i1] / data.n_sites for j, p in enumerate(ps)
    )
    assert abs(exact - predicted) <= 2 / L
    # trapezoidal long-horizon integration of the same observable
    J = orbit.length
    dt = np.pi / 16
    ts = np.arange(0, 2000 * J, dt)
    k = np.arange(1, J + 1)
    lam = 2 * np.cos(k * np.pi / (J + 1))
    sin1 = np.sin(k * np.pi / (J + 1))
    sinjk = np.sin(np.outer(np.arange(1, J + 1), k) * np.pi / (J + 1))
    amps = (2.0 / (J + 1)) * (np.exp(-1j * np.outer(ts, lam)) * sin1) @ sinjk.T
    series = (np.abs(amps) ** 2) @ (data.hist[:, i1] / data.n_sites)
    numeric = np.trapezoid(series, dx=dt) / (ts[-1] - ts[0])
    assert abs(numeric - predicted) <= 2 / L


def test_dephasing_distinct_initials(oneway, h_oneway, rng):
    d = h_oneway.site_dim
    b21 = np.zeros((d, d), complex)
    b21[h_oneway.value_index(a_cell("a2")), h_oneway.value_index(a_cell("a1"))] = 1.0
    b11 = np.zeros((d, d), complex)
    b11[h_oneway.value_index(a_cell("a1")), h_oneway.value_index(a_cell("a1"))] = 1.0
    ts = rng.uniform(0, 40, 20)
    x = anchored_configuration(oneway, 5, {2: (0, 1)})
    xp = anchored_configuration(oneway, 5, {3: (0, 1)})
    xbits = anchored_configuration(oneway, 5, {2: (1, 1)})
    for b in (b21, b11):
        assert dephasing_cross_term(h_oneway, x, xp, b, ts) <= 1e-12
        assert dephasing_cross_term(h_oneway, x, xbits, b, ts) <= 1e-12
    # diagonal term is generically nonzero
    assert dephasing_cross_term(h_oneway, x, x, b11, ts) > 1e-3


def test_dephasing_batched_matches_per_time(oneway, h_oneway, rng):
    """All times in one batch give the per-time maximum of |<x'(t)|B|x(t)>|."""
    d = h_oneway.site_dim
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    ts = rng.uniform(0, 40, 20)
    x = anchored_configuration(oneway, 5, {2: (0, 1)})
    for xp in (x, anchored_configuration(oneway, 5, {2: (1, 1)})):
        oa = run_orbit_cached(x, h_oneway, 10_000)
        ob = run_orbit_cached(xp, h_oneway, 10_000)
        m = pair_overlap_matrix(oa, ob, h_oneway, b)
        per_t = max(
            abs(np.conj(evolve_spectral(ob, t)) @ m @ evolve_spectral(oa, t))
            for t in ts
        )
        assert per_t > 1e-3
        assert abs(dephasing_cross_term(h_oneway, x, xp, b, ts) - per_t) < 1e-12


def _a4_anchored_pairs(spec):
    """The anchored pairs of acceptance row A4 at L = 5: one simulation cell
    moved, or its bits changed."""
    configs = [anchored_configuration(spec, 5, {pos: bits})
               for pos in (2, 3, 4, 5) for bits in ((0, 0), (0, 1), (1, 0), (1, 1))]
    configs.append(anchored_configuration(spec, 5))
    pairs = [(configs[i], configs[j]) for i in range(len(configs))
             for j in range(i + 1, len(configs))][:40]
    return pairs + [(configs[0], c) for c in configs[9:16]]


def test_pair_overlap_matrix_matches_dense_operator(oneway, h_oneway):
    """The orbit route's B^(L) entries between the steps of x and x' equal
    the dense oracle's operator on the closure of both; (x, x) adds the
    entries between identical configurations."""
    d = h_oneway.site_dim
    b = np.random.RandomState(11).standard_normal((d, d, 2)) @ np.array([1, 1j])
    pairs = _a4_anchored_pairs(oneway)
    x0 = pairs[0][0]
    entries = 0
    for x, xp in pairs + [(x0, x0)]:
        oa = run_orbit_cached(x, h_oneway, 10_000)
        ob = run_orbit_cached(xp, h_oneway, 10_000)
        ds = dense_space(h_oneway, [x, xp])
        ia = [ds.space.index[c.cells] for c in oa.states]
        ib = [ds.space.index[c.cells] for c in ob.states]
        want = space_average_operator(ds, b)[np.ix_(ib, ia)]
        m = pair_overlap_matrix(oa, ob, h_oneway, b)
        assert np.abs(m - want).max() < 1e-12
        entries += np.count_nonzero(want)
    assert entries > 0


def test_dephasing_iid_block_splits(iid_nd, rng):
    h = compile_machine(iid_nd)
    d = h.site_dim
    b = np.zeros((d, d), complex)
    i1 = h.value_index(a_cell("a1"))
    b[i1, i1] = 1.0
    e0 = control(0, "boot")
    a1 = a_cell("a1")
    x = Configuration((e0, a1, a1, e0, a1))
    xp = Configuration((e0, a1, e0, a1, a1))  # different split point
    ts = rng.uniform(0, 30, 12)
    assert dense_cross_term(h, x, xp, b, ts) <= 1e-12


def test_orbit_confinement(oneway_nd, h_oneway_nd):
    """A legal initial configuration's closure is exactly its orbit span, so
    dense evolution cannot leak outside it."""
    cfg = anchored_configuration(oneway_nd, 5)
    orbit = run_orbit_cached(cfg, h_oneway_nd, 10_000)
    ds = dense_space(h_oneway_nd, [cfg])
    assert ds.space.dim == orbit.length
    v = ds.evolve(ds.state_vector(cfg), 17.3)
    assert abs(np.sum(np.abs(v) ** 2) - 1) < 1e-12


def test_mixture_linearity(oneway, h_oneway):
    enc = encode_input("1", Fraction(1, 4))
    params = EnsembleParams("anchored", L=3, alpha=Fraction(1, 4))
    ens = build_initial_ensemble(oneway, params, enc)
    t = 2.1
    whole = reference_site_average(h_oneway, ens.members, t)
    parts = sum(
        float(w) * reference_site_average(h_oneway, [(c, Fraction(1))], t)
        for c, w in ens.members
    )
    assert np.abs(whole - parts).max() < 1e-12


def test_block_product_site_average_matches_dense(iid_nd):
    h = compile_machine(iid_nd)
    e0 = control(0, "boot")
    a1 = a_cell("a1")
    cfg = Configuration((e0, a1, e0, a1, a1))
    t = 3.3
    rho_blocks = reference_site_average(h, [(cfg, Fraction(1))], t)
    ds = dense_space(h, [cfg])
    rho_dense = ds.site_average(ds.evolve(ds.state_vector(cfg), t))
    assert np.abs(rho_blocks - rho_dense).max() < 1e-12


def test_open_lattice_block_split_matches_dense(oneway_nd):
    """On an open lattice the cells left of the first control stay frozen and
    the last block stops at the lattice end instead of wrapping round."""
    h = compile_machine(oneway_nd, "open")
    e0 = control(0, "boot")
    a1 = a_cell("a1")
    cfg = Configuration((a1, e0, a1, e0, a1, a1), "open")
    ds = dense_space(h, [cfg])
    for t in (1.0, 3.3, 7.0):
        rho_blocks = reference_site_average(h, [(cfg, Fraction(1))], t)
        rho_dense = ds.site_average(ds.evolve(ds.state_vector(cfg), t))
        assert np.abs(rho_blocks - rho_dense).max() < 1e-9
