"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Every tolerance is pinned here; nothing is calibrated at run time.
"""

import json
import time
from fractions import Fraction

import numpy as np

from hamca.cli import main as cli_main
from hamca.dynamics import (
    dense_cross_term,
    dense_space,
    dephasing_cross_term,
    evolve_spectral,
    run_orbit_cached,
    time_avg_probs,
    time_avg_probs_overlap,
    trace_distance,
    trig_kernel,
)
from hamca.encoding import (
    EnsembleParams,
    anchored_configuration,
    build_initial_ensemble,
    encode_input,
    estimate_bad_rate_anchored,
    estimate_bad_rate_iid,
    phase_decode,
    scattered_m_sites,
)
from hamca.hamiltonian import (
    compile_machine,
    energy_gap_bound,
    min_distinct_gap,
    orbit_spectrum,
)
from hamca.machine import (
    Configuration,
    Orbit,
    a_cell,
    cell_to_tag,
    control,
    invert,
    m_cell,
    run_stats,
    stats_average,
    step,
    validate_reversible,
)
from hamca.staged import VARIANTS, build_staged_machine, shuttle_machine
from hamca.verifier import (
    DecisionInstance,
    check_condition,
    decide_finite,
    fixture_gap_floor,
    grid_size,
    grid_step,
    semi_decide,
    separation_margins,
    taylor_bound_check,
    conjugate_local_terms,
    dense_lattice_hamiltonian,
    lattice_site_average,
    rotation_to,
)


def report(name, ok, detail, budget, elapsed):
    line = f"{name} {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s/{budget}s): {detail}"
    print(line)
    assert ok, line
    assert elapsed < budget, f"{name} exceeded its runtime budget: {line}"


# ---------------------------------------------------------------------------


def _small_orbits():
    """At least twenty complete orbits with lengths between 2 and 12."""
    out = []
    drift_1w = build_staged_machine("ping_pong", "one-way-amp", include_decode=False)
    drift_iid = build_staged_machine("ping_pong", "iid-repeat-amp", include_decode=False)
    halt_1w = build_staged_machine("halt_now", "one-way-amp", include_decode=False)
    drift_dec = build_staged_machine("ping_pong", "one-way-amp")
    shuttle = shuttle_machine()
    for spec in (drift_1w, drift_iid):
        for L in (1, 2, 3, 4, 5):
            out.append((spec, anchored_configuration(spec, L)))
    for L in (2, 3):
        out.append((halt_1w, anchored_configuration(halt_1w, L)))
    for L in (1, 2, 3):
        out.append((drift_dec, anchored_configuration(drift_dec, L)))
    for L in (1, 2, 3, 4, 5):
        cells = (control(0, "glide"),) + (a_cell("a1"),) * L
        out.append((shuttle, Configuration(cells)))
    for L in (2, 3):
        cells = (control(0, "glide"), m_cell(1, 0, "s0")) + (a_cell("a1"),) * (L - 1)
        out.append((shuttle, Configuration(cells)))
    return out


def test_a1_spectral_formula_vs_dense_exponential():
    t0 = time.time()
    rng = np.random.RandomState(1)
    worst = 0.0
    n_orbits = 0
    for spec, cfg in _small_orbits():
        h = compile_machine(spec)
        orbit = run_orbit_cached(cfg, h, 10_000)
        assert orbit.kind in ("dead_end", "cycle")
        if not 2 <= orbit.length <= 12:
            continue
        n_orbits += 1
        ds = dense_space(h, [cfg])
        v0 = ds.state_vector(cfg)
        for t in rng.uniform(0, 50, 20):
            amps = evolve_spectral(orbit, t)
            dense = ds.evolve(v0, t)
            dvec = np.array([dense[ds.space.index[c.cells]] for c in orbit.states])
            worst = max(worst, float(np.abs(amps - dvec).max()))
    ok = n_orbits >= 20 and worst <= 1e-9
    report("A1", ok, f"{n_orbits} orbits, max amplitude error {worst:.2e} <= 1e-9",
           10, time.time() - t0)


def test_a2_time_average_law():
    t0 = time.time()
    exact_ok = all(
        time_avg_probs(J) == time_avg_probs_overlap(J) for J in range(1, 501)
    )
    J = 8
    T = 10_000 * J
    dt = np.pi / 16
    ts = np.arange(0, T, dt)
    k = np.arange(1, J + 1)
    lam = 2 * np.cos(k * np.pi / (J + 1))
    sin1 = np.sin(k * np.pi / (J + 1))
    sinjk = np.sin(np.outer(np.arange(1, J + 1), k) * np.pi / (J + 1))
    phases = np.exp(-1j * np.outer(ts, lam)) * sin1[None, :]
    amps = (2.0 / (J + 1)) * phases @ sinjk.T
    avg = np.trapezoid(np.abs(amps) ** 2, dx=dt, axis=0) / (ts[-1] - ts[0])
    numeric_err = float(
        np.abs(avg - np.array([float(p) for p in time_avg_probs(J)])).max()
    )
    ok = exact_ok and numeric_err <= 5e-3
    report("A2", ok,
           f"rational law exact for J<=500: {exact_ok}; numeric J=8 err {numeric_err:.1e} <= 5e-3",
           30, time.time() - t0)


def test_a3_trig_identity():
    t0 = time.time()
    bad = 0
    checked = 0
    for J in range(1, 61):
        theta = np.pi / (J + 1)
        k = np.arange(1, J + 1) * theta
        sinjk = np.sin(np.outer(np.arange(1, J + 1), k))
        weights = np.sin(k) ** 2
        s = (sinjk * weights) @ sinjk.T
        for j in range(1, J + 1):
            for jp in range(1, J + 1):
                val = 8 * s[j - 1, jp - 1]
                n = round(val)
                assert abs(val - n) < 1e-6
                checked += 1
                if Fraction(int(n), 8) != trig_kernel(J, j, jp):
                    bad += 1
    ok = bad == 0
    report("A3", ok, f"{checked} (J,j,j') cells, {bad} mismatches", 5, time.time() - t0)


def test_a4_dephasing():
    t0 = time.time()
    rng = np.random.RandomState(7)
    spec = build_staged_machine("halt_now", "one-way-amp")
    h = compile_machine(spec)
    d = h.site_dim
    i1 = h.value_index(a_cell("a1"))
    i2 = h.value_index(a_cell("a2"))
    b21 = np.zeros((d, d), complex)
    b21[i2, i1] = 1.0
    b11 = np.zeros((d, d), complex)
    b11[i1, i1] = 1.0
    ts = rng.uniform(0, 50, 20)
    L = 5
    configs = []
    for pos in (2, 3, 4, 5):
        for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
            configs.append(anchored_configuration(spec, L, {pos: bits}))
    configs.append(anchored_configuration(spec, L))
    pairs = [(configs[i], configs[j]) for i in range(len(configs))
             for j in range(i + 1, len(configs))][:40]
    worst = 0.0
    for x, xp in pairs:
        for b in (b21, b11):
            worst = max(worst, dephasing_cross_term(h, x, xp, b, ts))
    # block-structured configurations with differing split points
    spec_iid = build_staged_machine("halt_now", "iid-repeat-amp", include_decode=False)
    h_iid = compile_machine(spec_iid)
    di = h_iid.site_dim
    bi = np.zeros((di, di), complex)
    bi[h_iid.value_index(a_cell("a1")), h_iid.value_index(a_cell("a1"))] = 1.0
    e0 = control(0, "boot")
    a1 = a_cell("a1")
    iid_pairs = [
        ((e0, a1, a1, e0, a1), (e0, a1, e0, a1, a1)),
        ((e0, a1, a1, a1, e0), (e0, a1, e0, a1, e0)),
        ((e0, e0, a1, a1, a1), (e0, a1, a1, e0, a1)),
        ((e0, a1, m_cell(0, 0, "s0"), e0, a1), (e0, a1, e0, m_cell(0, 0, "s0"), a1)),
    ]
    n_pairs = len(pairs)
    for ca, cb in iid_pairs:
        worst = max(
            worst,
            dense_cross_term(h_iid, Configuration(ca), Configuration(cb), bi, ts[:12]),
        )
        n_pairs += 1
    # extend anchored pairs with bit-flip-only differences to pass 50 pairs
    extra = [(configs[0], c) for c in configs[9:16]]
    for x, xp in extra:
        worst = max(worst, dephasing_cross_term(h, x, xp, b21, ts))
        n_pairs += 1
    ok = n_pairs >= 50 and worst <= 1e-12
    report("A4", ok, f"{n_pairs} pairs, max cross element {worst:.2e} <= 1e-12",
           60, time.time() - t0)


def test_a5_energy_gap():
    t0 = time.time()
    worst_margin = np.inf
    for J in range(2, 301):
        for kind in ("dead_end", "cycle"):
            orbit = Orbit(tuple([None] * J), (kind, J))
            bound = float(energy_gap_bound(orbit))
            gap = min_distinct_gap(orbit_spectrum(orbit).eigenvalues)
            worst_margin = min(worst_margin, gap - bound)
    ok = worst_margin >= -1e-12
    report("A5", ok, f"min (gap - 8/(J+1)^2) over J<=300 both kinds: {worst_margin:.3e}",
           10, time.time() - t0)


def test_a6_reversibility_and_round_trip():
    t0 = time.time()
    all_valid = all(
        validate_reversible(build_staged_machine(inner, var)).ok()
        for inner in ("halt_now", "ping_pong", "counter")
        for var in VARIANTS
    )
    spec = build_staged_machine("counter", "one-way-amp")
    L = 160
    sites = scattered_m_sites(L, 50, witness_at=50)
    cfg = anchored_configuration(spec, L, sites)
    cur = cfg
    n_fwd = 10_000
    for k in range(n_fwd):
        res = step(spec, cur)
        assert res is not None, f"orbit too short at step {k}"
        cur = res
    inv = invert(spec)
    back = cur
    for _ in range(n_fwd):
        back = step(inv, back)
    ok = all_valid and back.cells == cfg.cells
    report("A6", ok, f"9 builds reversible: {all_valid}; 10^4-step round trip exact",
           5, time.time() - t0)


def test_a7_halting_dichotomy_trend():
    t0 = time.time()
    alpha = Fraction(1, 64)
    # non-halting: the all-a1 weight of the long-term average stays high
    drift = build_staged_machine("ping_pong", "one-way-amp")
    non_halt_ok = True
    details = []
    for L in (200, 500, 1000):
        sites = scattered_m_sites(L, round(alpha * L))
        stats = run_stats(drift, anchored_configuration(drift, L, sites), 10**7)
        loss = 1 - float(stats_average(stats, "a1", L + 1))
        bound = float(alpha) + 2 / L + L ** (-1 / 3)
        non_halt_ok &= loss <= bound
        details.append(f"L={L}: {loss:.4f}<={bound:.4f}")
    # halting: exact envelope and the one-half trend
    halting = build_staged_machine("halt_now", "one-way-amp")
    halt_ok = True
    for L in (500, 2000):
        m = round(alpha * L)
        sites = scattered_m_sites(L, m)
        stats = run_stats(halting, anchored_configuration(halting, L, sites), 10**7)
        J, Lm = stats.length, len(sites)
        j0 = J - 2 * L
        avg = stats_average(stats, "a2", L + 1)
        lo = Fraction((L - Lm - 2) * (L - Lm - 1), (2 * L + j0) * (L + 1))
        hi = Fraction((L + Lm - 2) * (L - Lm - 1), (2 * L + j0) * (L + 1))
        halt_ok &= lo <= avg <= hi
        if L == 2000:
            halt_ok &= abs(float(avg) - 0.5) <= float(alpha) + 0.05
            details.append(f"halt L=2000: avg={float(avg):.4f}")
    ok = non_halt_ok and halt_ok
    report("A7", ok, "; ".join(details), 60, time.time() - t0)


def test_a8_two_way_amplification():
    t0 = time.time()
    spec = build_staged_machine("halt_now", "two-way-amp", include_decode=False)
    L = 2000
    stats = run_stats(spec, anchored_configuration(spec, L), 25_000_000)
    avg = float(stats_average(stats, "a2", L + 1))
    ok = stats.terminal == "dead_end" and abs(avg - 2 / 3) <= 0.05
    report("A8", ok, f"time-averaged a2 fraction {avg:.4f}, |avg - 2/3| <= 0.05",
           30, time.time() - t0)


def test_a8b_two_way_amplification_long_lattice():
    t0 = time.time()
    spec = build_staged_machine("halt_now", "two-way-amp", include_decode=False)
    L = 10_000
    stats = run_stats(spec, anchored_configuration(spec, L), 200_000_000)
    J = stats.length
    avg = float(stats_average(stats, "a2", L + 1))
    ok = (
        stats.terminal == "dead_end"
        and J == L * L + L + 5
        and sum(stats.total_steps_by_value.values()) == J * (L + 1)
        and abs(avg - 2 / 3) <= 0.05
    )
    report("A8b", ok, f"L={L}, J={J}: time-averaged a2 fraction {avg:.4f}, "
           "|avg - 2/3| <= 0.05", 60, time.time() - t0)


def test_a8c_two_way_longterm_state_through_cli(tmp_path):
    t0 = time.time()
    L = 2000
    out = tmp_path / "timeavg.json"
    code = cli_main([
        "timeavg", "--inner", "halt_now", "--variant", "two-way-amp", "--no-decode",
        "--L", str(L), "--max-steps", "10000000", "--out", str(out),
    ])
    data = json.loads(out.read_text())
    J = data["J"]
    i1 = data["basis"].index(cell_to_tag(a_cell("a1")))
    i2 = data["basis"].index(cell_to_tag(a_cell("a2")))
    p1, p2 = data["state"][i1][i1][0], data["state"][i2][i2][0]
    spec = build_staged_machine("halt_now", "two-way-amp", include_decode=False)
    stats = run_stats(spec, anchored_configuration(spec, L), 10_000_000)
    avg = float(stats_average(stats, "a2", L + 1))
    ok = (
        code == 0
        and data["terminal"] == "dead_end"
        and J == L * L + L + 5
        and abs(p2 - 2 / 3) <= 0.05
        and abs(p2 - avg) <= 2 / J
        and abs(data["dist_to_a1"] - 2 * (1 - p1)) <= 1e-12
    )
    report("A8c", ok, f"L={L}, J={J}: long-term a2 weight {p2:.4f}, |rho - 2/3| <= 0.05, "
           f"|rho - stats average| = {abs(p2 - avg):.2e} <= 2/J", 2, time.time() - t0)


def test_a9_iid_block_statistics():
    t0 = time.time()
    spec = build_staged_machine("halt_now", "iid-repeat-amp")
    l = 32
    Lb = l * l
    alpha = Fraction(1, 16)
    sites = scattered_m_sites(Lb, round(alpha * Lb))
    cfg = anchored_configuration(spec, Lb, sites, boundary="open")
    stats = run_stats(spec, cfg, 50_000_000, track_increments=("a2",))
    incs = stats.change_steps["a2"]
    j0 = stats.stage_entry_steps["amp_entry"] - 1
    jf_ok = bool(incs) and 2 * j0 <= incs[0] <= 2 * j0 + 4 * Lb
    deltas = [b - a for a, b in zip(incs, incs[1:])]
    dj_ok = all(j0 <= d <= j0 + 4 * Lb for d in deltas)
    tol = l ** (-1 / 3)
    n1 = float(stats_average(stats, "a1", Lb + 1))
    n2 = float(stats_average(stats, "a2", Lb + 1))
    n3 = float(stats_average(stats, "a3", Lb + 1))
    target = 0.5 * (1 - float(alpha))
    means_ok = abs(n1 - target) <= tol and abs(n2 - target) <= tol and n3 <= tol
    ok = jf_ok and dj_ok and means_ok
    report(
        "A9", ok,
        f"first-flip and spacing bounds exact: {jf_ok and dj_ok}; "
        f"|N1-{target:.3f}|={abs(n1-target):.3f}, |N2-{target:.3f}|={abs(n2-target):.3f} <= {tol:.3f}",
        60, time.time() - t0,
    )


def test_a10_good_rate_bounds():
    t0 = time.time()
    rate_a = estimate_bad_rate_anchored(64, Fraction(1, 8), 2**18, 100_000, seed=20260810)
    bound_a = 2 / 64
    rate_i = estimate_bad_rate_iid(64, 2, 2**20, 100_000, seed=20260810)
    bound_i = 5 * 2**10 / 2**20
    ok = rate_a <= bound_a and rate_i <= bound_i
    report("A10", ok,
           f"anchored {rate_a:.4f} <= {bound_a:.4f}; block-form {rate_i:.6f} <= {bound_i:.6f}",
           120, time.time() - t0)


def _a11_instances():
    table = [
        ("halt_now", "one-way-amp", 3, Fraction(0), 0.988, 0.48, 200, "yes"),
        ("halt_now", "one-way-amp", 4, Fraction(0), 0.846, 0.35, 200, "yes"),
        ("halt_now", "one-way-amp", 5, Fraction(0), 0.74, 0.30, 200, "yes"),
        ("halt_now", "two-way-amp", 4, Fraction(0), 0.846, 0.35, 400, "yes"),
        ("halt_now", "iid-repeat-amp", 4, Fraction(0), 0.846, 0.35, 2500, "yes"),
        ("ping_pong", "one-way-amp", 3, Fraction(0), 0.988, 0.48, 60, "no"),
        ("ping_pong", "one-way-amp", 4, Fraction(0), 0.846, 0.35, 60, "no"),
        ("ping_pong", "one-way-amp", 5, Fraction(0), 0.74, 0.30, 60, "no"),
        ("ping_pong", "two-way-amp", 4, Fraction(0), 0.846, 0.35, 60, "no"),
        ("ping_pong", "one-way-amp", 5, Fraction(1, 8), 0.846, 0.35, 40, "no"),
    ]
    for inner, variant, L, alpha, eta, eps1, t0_override, expect in table:
        spec = build_staged_machine(inner, variant, include_decode=(alpha != 0))
        enc = encode_input("1", alpha)
        params = EnsembleParams("anchored", L=L, alpha=alpha)
        ens = build_initial_ensemble(spec, params, enc)
        inst = DecisionInstance(
            machine=spec, ensemble=ens, eta=eta, eps1=eps1, gamma=1,
            t0_override=t0_override, label=expect,
        )
        inst.gap_floor = fixture_gap_floor(inst)
        yield inst, expect


def _dense_infinite_time_verdict(inst):
    h = compile_machine(inst.machine, inst.ensemble.params.boundary)
    d = h.site_dim
    lt = np.zeros((d, d), complex)
    for cfg, w in inst.ensemble.members:
        ds = dense_space(h, [cfg])
        lt += float(w) * ds.longterm_site_average(ds.state_vector(cfg))
    e1 = np.zeros((d, d), complex)
    i1 = h.value_index(a_cell("a1"))
    e1[i1, i1] = 1.0
    return "yes" if check_condition(lt, inst.eta, inst.eps1, e1) else "no"


def test_a11_decision_pipeline():
    t0 = time.time()
    agree = 0
    taylor_ok = True
    n = 0
    for inst, expect in _a11_instances():
        n += 1
        finite = decide_finite(inst).verdict
        oracle = _dense_infinite_time_verdict(inst)
        budget = 2000 if expect == "yes" else 120
        semi = semi_decide(lambda m, i=inst: i if m == 1 else None, budget).verdict
        semi_expect = "yes" if expect == "yes" else "budget_exhausted"
        if finite == oracle == expect and semi == semi_expect:
            agree += 1
        # truncated-series certificate along this instance's grid
        h = compile_machine(inst.machine, inst.ensemble.params.boundary)
        orbit = run_orbit_cached(inst.ensemble.members[0][0], h, 10_000)
        J = orbit.length
        path = np.diag(np.ones(J - 1), 1) + np.diag(np.ones(J - 1), -1)
        v0 = np.zeros(J)
        v0[0] = 1.0
        dt = grid_step(inst.eta, inst.eps1)
        ts = dt * np.arange(1, grid_size(inst.eta, inst.eps1, 4.0) + 1)
        try:
            taylor_bound_check(path, v0, ts, float(ts[-1]), inst.eta, inst.eps1)
        except Exception:
            taylor_ok = False
    ok = agree == n and taylor_ok
    report("A11", ok,
           f"{agree}/{n} instances agree across finite decision, pair sweep and "
           f"dense oracle; truncation certificate held on every grid point: {taylor_ok}",
           300, time.time() - t0)


def test_a12_phase_decoder():
    t0 = time.time()
    count = 0
    ok = True
    for n in range(1, 11):
        for m in range(1, 2**n, 2):
            v = format(m, "b").zfill(n)
            got = phase_decode(Fraction(m, 2**n), 12)
            ok &= got == (n, v)
            count += 1
    # the decoder rejects any angle that would leave the register off basis
    try:
        phase_decode(Fraction(1, 5), 8)
        ok = False
    except Exception:
        pass
    report("A12", ok, f"exact recovery on all {count} promise-valid inputs up to length 10",
           10, time.time() - t0)


def test_a13_reductions():
    t0 = time.time()
    d = 5
    rng = np.random.default_rng(13)
    a = rng.standard_normal((d, d))
    a = (a + a.T) / 2
    a[1, 1], a[2, 2] = 0.9, -0.3
    m = separation_margins(a, 0.5, count=1000, seed=13)
    balls_ok = (
        m["near_max"] <= m["eps0"] + 1e-9
        and m["far_min"] >= 2 * m["eps0"] - 1e-9
        and m["cross_min"] >= m["eps0"] - 1e-9
    )
    # one-site rotation round trip at L = 4
    dd, L = 3, 4
    h1 = rng.standard_normal((dd, dd))
    h1 = (h1 + h1.T) / 2
    h2 = rng.standard_normal((dd * dd, dd * dd))
    h2 = (h2 + h2.T) / 2
    psi = np.zeros(dd, complex)
    psi[1], psi[2] = np.cos(0.1), np.sin(0.1)
    v = rotation_to(psi, eps1=0.5)
    h1c, h2c = conjugate_local_terms(h1, h2, v)
    Hp = dense_lattice_hamiltonian(h1, h2, L)
    Hr = dense_lattice_hamiltonian(h1c, h2c, L)
    e0 = np.zeros(dd, complex)
    e0[0] = 1
    e1 = np.zeros(dd, complex)
    e1[1] = 1

    def kr(vs):
        out = vs[0]
        for x in vs[1:]:
            out = np.kron(out, x)
        return out

    w1, u1 = np.linalg.eigh(Hp)
    w2, u2 = np.linalg.eigh(Hr)
    sp = kr([e0] + [psi] * L)
    sr = kr([e0] + [e1] * L)
    worst = 0.0
    for t in (0.7, 1.9, 4.2):
        vp = u1 @ (np.exp(-1j * w1 * t) * (u1.conj().T @ sp))
        vr = u2 @ (np.exp(-1j * w2 * t) * (u2.conj().T @ sr))
        rp = lattice_site_average(vp, dd, L + 1)
        rr = lattice_site_average(vr, dd, L + 1)
        worst = max(worst, trace_distance(rp, v @ rr @ v.conj().T))
    rot_ok = worst <= 1e-10
    ok = balls_ok and rot_ok
    report("A13", ok,
           f"ball margins hold on 1000 samples: {balls_ok}; rotation round trip {worst:.1e} <= 1e-10",
           60, time.time() - t0)
