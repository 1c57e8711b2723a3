"""Compilation to local pair maps, the update isometry, orbit spectra."""

from fractions import Fraction

import numpy as np
import pytest

from hamca.dynamics import coded_orbit, run_orbit_cached
from hamca.encoding import (
    EnsembleParams,
    anchored_configuration,
    build_initial_ensemble,
    encode_input,
    scattered_m_sites,
)
from hamca.hamiltonian import (
    compile_machine,
    energy_gap_bound,
    min_distinct_gap,
    orbit_spectrum,
    reachable_space,
    OrbitSpectrum,
    TruncatedOrbit,
)
from hamca.machine import (
    MARK,
    MINUS,
    PLUS,
    Configuration,
    ControlSet,
    MachineSpec,
    NotReversible,
    Orbit,
    SymbolSet,
    a_cell,
    build_step_table,
    control,
    is_control,
    run_orbit,
    run_stats,
    site_alphabet,
    step,
)
from hamca.staged import FIXTURES, VARIANTS, build_staged_machine

from conftest import split_blocks


def test_dagger_undoes_step_along_runs(oneway, h_oneway, rng):
    """U†, a step of the compiled inverse machine, inverts ``machine.step``
    on configurations drawn from real runs."""
    checked = 0
    for seed in range(8):
        L = int(rng.randint(4, 9))
        m = int(rng.randint(0, 3))
        sites = scattered_m_sites(L, m, witness_at=1, seed=seed) if m else {}
        cfg = anchored_configuration(oneway, L, sites)
        cur = cfg
        for _ in range(40):
            s = step(oneway, cur)
            if s is None:
                break
            assert step(h_oneway.inverse, s).cells == cur.cells
            cur = s
            checked += 1
    assert checked >= 100


def test_update_zero_on_marker_read(oneway_nd, h_oneway=None):
    h = compile_machine(oneway_nd)
    cells = (a_cell("a2"), control(0, "amp"), a_cell(MARK), a_cell("a1"))
    assert coded_orbit(h, Configuration(cells), 1).terminal == ("dead_end", 1)


def test_initial_configuration_has_no_predecessor(oneway, h_oneway):
    cfg = anchored_configuration(oneway, 6, scattered_m_sites(6, 2, witness_at=1))
    assert step(h_oneway.inverse, cfg) is None


def test_update_zero_on_terminal(oneway_nd):
    h = compile_machine(oneway_nd)
    orbit = run_orbit(oneway_nd, anchored_configuration(oneway_nd, 5), 10_000)
    assert orbit.kind == "dead_end"
    assert coded_orbit(h, orbit.states[-1], 1).terminal == ("dead_end", 1)


def _marker_read(direction):
    """One state q of shift class ``direction`` with an identity read-write
    pair on the marked amplification cell."""
    plus, minus = ({"q"}, set()) if direction == PLUS else (set(), {"q"})
    return MachineSpec(
        name="marker-read",
        symbols=SymbolSet(m_track2=("s0", MARK), a_track2=("a1", MARK)),
        control=ControlSet(("q",), frozenset(plus), frozenset(minus)),
        rules={("q", a_cell(MARK)): ("q", a_cell(MARK))},
        shift_enabled=frozenset({"q"}),
        init_state="q",
    )


@pytest.mark.parametrize("direction", [PLUS, MINUS])
def test_compile_refuses_right_mover_on_marker(direction):
    """Only a right-moving state is barred from a rule on the marked cell."""
    spec = _marker_read(direction)
    if direction == PLUS:
        with pytest.raises(NotReversible, match="right-moving"):
            compile_machine(spec)
    else:
        table = compile_machine(spec).step_table
        assert table.ok[~table.jump].sum() == 1  # the one read-write pair


@pytest.mark.parametrize("direction", [PLUS, MINUS])
def test_run_stats_refuses_right_mover_on_marker(direction):
    """The streaming runner compiles the machine itself and keeps the same
    refusal as ``compile_machine``."""
    cfg = Configuration((control(0, "q"), a_cell(MARK), a_cell("a1")))
    if direction == PLUS:
        with pytest.raises(NotReversible, match="right-moving"):
            run_stats(_marker_read(direction), cfg, 100)
    else:
        assert run_stats(_marker_read(direction), cfg, 100).terminal == "dead_end"


def test_machine_level_compilation_is_the_hamiltonians():
    """The alphabet and step table that ``run_stats`` builds in ``machine``
    are ``compile_machine``'s, array by array, on every build."""
    for inner in FIXTURES:
        for variant in VARIANTS:
            for decode in (True, False):
                spec = build_staged_machine(inner, variant, include_decode=decode)
                h = compile_machine(spec)
                values = site_alphabet(spec)
                assert values == h.site_values
                table = build_step_table(spec, {v: k for k, v in enumerate(values)})
                for name, got, want in zip(table._fields, table, h.step_table):
                    if isinstance(want, np.ndarray):
                        assert got.dtype == want.dtype, name
                        assert np.array_equal(got, want), name
                    else:
                        assert got == want, name


def test_dagger_undoes_step_on_every_pair():
    """U†, a step of the compiled inverse machine, inverts ``machine.step``
    on every read-write pair and every shift of every build."""
    for inner in FIXTURES:
        for variant in VARIANTS:
            for decode in (True, False):
                spec = build_staged_machine(inner, variant, include_decode=decode)
                h = compile_machine(spec)
                moves = [(control(spec.rw_mode, q), cell) for q, cell in spec.rules]
                for q in spec.shift_enabled:
                    ctrl = control(spec.shift_mode(), q)
                    plus = spec.control.shift_class(q) == PLUS
                    moves.append((ctrl, a_cell("a1")) if plus else (a_cell("a1"), ctrl))
                assert len(moves) == len(spec.rules) + len(spec.shift_enabled) > 0
                for cells in moves:
                    cfg = Configuration(cells, "open")
                    nxt = step(spec, cfg)
                    assert nxt is not None and nxt != cfg
                    assert step(h.inverse, nxt) == cfg


def test_locality_of_update(oneway, h_oneway):
    """Rewriting a cell two or more sites from the control leaves the local
    action unchanged."""
    L = 8
    cfg = anchored_configuration(oneway, L, {4: (0, 1)})
    base = coded_orbit(h_oneway, cfg, 1)
    flipped = list(cfg.cells)
    flipped[6] = a_cell("a2")  # distance >= 2 from the control at site 0
    other = coded_orbit(h_oneway, Configuration(tuple(flipped)), 1)
    assert base.length == other.length == 2
    assert (base.rows[1, :2] == other.rows[1, :2]).all()
    assert other.rows[1, 6] == h_oneway.value_index(a_cell("a2"))


def test_reachable_closure_is_orbit_for_initial(oneway_nd):
    h = compile_machine(oneway_nd)
    cfg = anchored_configuration(oneway_nd, 5)
    orbit = run_orbit(oneway_nd, cfg, 10_000)
    space = reachable_space(h, [cfg])
    assert space.dim == orbit.length
    u = space.u_matrix()
    assert np.allclose(u @ u.T @ u, u)  # partial isometry on the basis
    assert np.count_nonzero(u) == orbit.length - 1


def test_block_isolation_structural(iid_nd):
    """No update pair joins two control sites; per-block steps commute with
    whole-lattice application order."""
    h = compile_machine(iid_nd)
    e0 = control(0, "boot")
    cells = (e0, a_cell("a1"), e0, a_cell("a1"), a_cell("a1"))
    cfg = Configuration(cells)
    space = reachable_space(h, [cfg])
    # the closure factorizes: dim equals the product of block orbit lengths
    blocks = split_blocks(cfg)
    j1 = run_orbit_cached(blocks[0], h, 1000).length
    j2 = run_orbit_cached(blocks[1], h, 1000).length
    assert space.dim == j1 * j2


@pytest.mark.parametrize("variant", VARIANTS)
def test_block_orbits_agree_on_both_routes(variant):
    """Open blocks step under their own boundary on the compiled route, as
    they do under machine.step, whatever boundary h was compiled with."""
    spec = build_staged_machine("halt_now", variant)
    h = compile_machine(spec)
    blocks = set()
    for L in (4, 5):
        params = EnsembleParams("iid", L=L, alpha=Fraction(1, 2), l=2)
        ens = build_initial_ensemble(spec, params, encode_input("1", Fraction(1, 2)))
        for cfg, _ in ens.members:
            if len(cfg.control_sites()) > 1:
                blocks.update(split_blocks(cfg))
    assert len(blocks) > 50
    for block in blocks:
        ref = run_orbit(spec, block, 10_000)
        got = run_orbit_cached(block, h, 10_000)
        assert got.terminal == ref.terminal
        assert [c.cells for c in got.states] == [c.cells for c in ref.states]


def test_spectrum_examples():
    def fake_orbit(J, kind):
        states = tuple(
            Configuration((control(0, "x"),) + (a_cell("a1"),) * j) for j in range(1, J + 1)
        )
        return Orbit(states, (kind, J))

    spec2 = orbit_spectrum(fake_orbit(2, "dead_end"))
    assert np.allclose(sorted(spec2.eigenvalues), [-1.0, 1.0])
    spec7 = orbit_spectrum(fake_orbit(7, "dead_end"))
    assert min_distinct_gap(spec7.eigenvalues) == pytest.approx(0.4336, abs=2e-4)
    assert energy_gap_bound(fake_orbit(7, "dead_end")) == pytest.approx(0.125)
    cyc4 = orbit_spectrum(fake_orbit(4, "cycle"))
    assert np.allclose(sorted(cyc4.eigenvalues), [-2.0, 0.0, 0.0, 2.0])
    assert energy_gap_bound(fake_orbit(1, "dead_end")) == 2
    with pytest.raises(TruncatedOrbit):
        orbit_spectrum(fake_orbit(3, "truncated"))


def test_spectrum_matches_dense_matrices():
    """Closed forms against direct eigensolves of the path and the cycle."""
    for J in (2, 5, 12, 100):
        path = np.diag(np.ones(J - 1), 1) + np.diag(np.ones(J - 1), -1)
        lam = np.linalg.eigvalsh(path)
        states = None
        spec = orbit_spectrum(
            Orbit(tuple([None] * J), ("dead_end", J))
        )
        assert np.allclose(np.sort(spec.eigenvalues), lam)
    for J in (3, 4, 9):
        cyc = np.zeros((J, J))
        for j in range(J):
            cyc[j, (j + 1) % J] = 1
            cyc[(j + 1) % J, j] = 1
        lam = np.linalg.eigvalsh(cyc)
        spec = orbit_spectrum(Orbit(tuple([None] * J), ("cycle", J)))
        assert np.allclose(np.sort(spec.eigenvalues), lam)


def test_eigenvector_first_row_normalized():
    """The closed-form first row is a unit vector, and it is row 0 of the
    eigenvector matrix, conjugated."""
    for kind, J in (("dead_end", 40), ("cycle", 40), ("cycle", 7)):
        spec = OrbitSpectrum.of(kind, J)
        assert abs((np.abs(spec.first_row) ** 2).sum() - 1.0) < 1e-12
        assert np.array_equal(spec.first_row, np.conj(spec.vectors[0]))


def _dense_amplitudes(kind, J, ts):
    """<j| exp(-i t H) |1> summed term by term over the written-out
    eigenvectors: sines on the path, Fourier modes on the cycle."""
    if kind == "dead_end":
        theta = np.pi / (J + 1)
        k = np.arange(1, J + 1)
        j = np.arange(1, J + 1)[:, None, None]
        terms = ((2 / (J + 1)) * np.sin(k * theta) * np.sin(j * k * theta)
                 * np.exp(-2j * np.outer(ts, np.cos(k * theta))))
    else:
        k = np.arange(J)
        j = np.arange(J)[:, None, None]
        terms = (np.exp(2j * np.pi * j * k / J)
                 * np.exp(-2j * np.outer(ts, np.cos(2 * np.pi * k / J))) / J)
    return terms.sum(axis=-1).T


def test_amplitudes_match_dense_formulas():
    """The transform route equals the written-out sums to 1e-12, for
    J = 1..64 of both kinds, and so does the eigenvector route the decide
    scan takes with phase rows of its own."""
    ts = np.linspace(0.0, 37.0, 11)
    for kind in ("dead_end", "cycle"):
        for J in range(1, 65):
            spec = OrbitSpectrum.of(kind, J)
            want = _dense_amplitudes(kind, J, ts)
            assert np.abs(spec.amplitudes(ts) - want).max() < 1e-12, (kind, J)
            got = spec.phases(ts) @ spec.vectors.T
            assert np.abs(got - want).max() < 1e-12, (kind, J)


def test_spectrum_vectors_built_on_first_use():
    """The eigenvalues, the phase rows and the transform amplitudes come
    without the J x J matrix; it is built on first use (the decide scan
    multiplies its phase rows through it), as orthonormal eigenvectors of
    the path and the cycle, and takes the phase rows to the amplitudes."""
    ts = np.array([0.0, 1.5])
    for kind, J in (("dead_end", 9), ("cycle", 8)):
        spec = OrbitSpectrum.of(kind, J)
        assert min_distinct_gap(spec.eigenvalues) > 0
        amps = spec.amplitudes(ts)
        assert "vectors" not in vars(spec)
        assert np.abs(spec.phases(ts) @ spec.vectors.T - amps).max() < 1e-12
        hop = np.diag(np.ones(J - 1), 1)
        if kind == "cycle":
            hop[-1, 0] = 1
        vecs = spec.vectors
        assert vars(spec)["vectors"] is vecs
        assert np.abs((hop + hop.T) @ vecs - vecs * spec.eigenvalues).max() < 1e-12
        assert np.abs(vecs.conj().T @ vecs - np.eye(J)).max() < 1e-12


def test_min_distinct_gap_is_the_smallest_step_above_tol():
    """The smallest difference of the sorted values that exceeds the
    tolerance: repeats within it are skipped, and no rounding moves a gap
    near it (a gap of 1.6e-9 reads as such, not as the 1e-9 or 2e-9 that
    rounding to multiples of 1e-9 gave)."""
    assert min_distinct_gap(np.array([1.0])) == np.inf
    assert min_distinct_gap(np.array([0.5, 0.5])) == np.inf
    assert min_distinct_gap(np.array([2.0, -1.0, 2.0 + 4e-10, 0.0])) == 1.0
    assert min_distinct_gap(np.array([0.0, 3.0, 1.6e-9])) == 1.6e-9
    assert min_distinct_gap(np.array([0.0, 0.9e-9, 3.0])) == 3.0 - 0.9e-9
    rng = np.random.default_rng(3)
    for _ in range(20):
        grid = rng.integers(0, 9, 30)
        lam = grid * 0.25 + rng.normal(0, 1e-11, 30)
        want = np.diff(np.unique(grid) * 0.25).min(initial=np.inf)
        assert min_distinct_gap(lam) == pytest.approx(want, abs=1e-9)
    for kind in ("dead_end", "cycle"):
        for J in (2, 7, 40):
            lam = OrbitSpectrum.of(kind, J).eigenvalues
            steps = np.diff(np.sort(lam))
            assert min_distinct_gap(lam) == steps[steps > 1e-9].min()


@pytest.mark.parametrize("variant", VARIANTS)
def test_step_table_decodes_to_the_pair_maps(variant):
    """The dense table decodes back to the spec's rules and shift classes,
    the other-mode map and the control mask, and is built once per
    Hamiltonian."""
    spec = build_staged_machine("ping_pong", variant)
    h = compile_machine(spec)
    table = h.step_table
    assert h.step_table is table
    vals, d = h.site_values, h.site_dim
    rw, shifts = {}, {}
    for c in range(d):
        if not table.ok[c].any():  # no step from c: a cell, or a control without one
            assert table.move[c] == 0 and not table.jump[c]
            continue
        _, mode, q = vals[c]
        if table.jump[c]:  # a shift: any cell swaps in, the control turns read-write
            assert mode != spec.rw_mode and table.ok[c].all()
            assert table.at_i[c].tolist() == list(range(d))
            assert set(table.at_k[c].tolist()) == {h.value_index(("Q", spec.rw_mode, q))}
            shifts[q] = {1: PLUS, -1: MINUS}[int(table.move[c])]
        else:  # read-write onto the cell to the right
            assert mode == spec.rw_mode and table.move[c] == 1
            for x in np.flatnonzero(table.ok[c]).tolist():
                c2, x2 = table.at_i[c, x], table.at_k[c, x]
                assert vals[c2][1] != spec.rw_mode
                rw[(q, vals[x])] = (vals[c2][2], vals[x2])
    assert rw == spec.rules
    assert shifts == {q: spec.control.shift_class(q) for q in spec.shift_enabled}
    assert table.is_control.tolist() == [is_control(v) for v in vals]
    for c, c2 in table.other.items():
        assert vals[c2] == ("Q", 1 - vals[c][1], vals[c][2])
    assert len(table.other) == sum(map(is_control, vals))


def test_gap_bound_sweep():
    for J in (1, 7, 100):
        orbit = Orbit(tuple([None] * J), ("dead_end", J))
        bound = float(energy_gap_bound(orbit))
        if J > 1:
            assert min_distinct_gap(orbit_spectrum(orbit).eigenvalues) >= bound - 1e-12
