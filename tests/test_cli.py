"""Command-line front end: verbs, artifacts, exit codes, determinism."""

import hashlib
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from hamca import __version__
from hamca.cli import VERBS, InputError, _dumps_with_state, _named_verb, build_parser, main
from hamca.dynamics import (
    basis_state,
    coded_orbit,
    orbit_site_average,
    run_orbit_cached,
    trace_distance,
)
from hamca.encoding import anchored_configuration, scattered_m_sites
from hamca.hamiltonian import (
    OrbitSpectrum,
    compile_machine,
    energy_gap_bound,
    min_distinct_gap,
    orbit_spectrum,
)
from hamca.machine import a_cell, run_orbit, spec_to_json
from hamca.staged import build_staged_machine, shuttle_machine

from conftest import pad_alphabet


def run(args):
    return main(args)


def test_build_and_orbit_round_trip(tmp_path, capsys):
    m = tmp_path / "m.json"
    assert run(["build-machine", "--inner", "halt_now", "--variant", "one-way-amp",
                "--out", str(m)]) == 0
    orb = tmp_path / "orbit.jsonl"
    stats = tmp_path / "stats.csv"
    assert run(["orbit", "--machine", str(m), "--L", "6", "--out", str(orb),
                "--stats-out", str(stats)]) == 0
    lines = orb.read_text().strip().split("\n")
    first = json.loads(lines[0])
    assert first["j"] == 1
    assert len(first["cells"]) == 7
    text = stats.read_text()
    assert text.startswith("# version: hamca")
    assert "j,n_a1,n_a2,n_a3" in text


def test_orbit_missing_machine_exit_2(capsys):
    assert run(["orbit", "--machine", "does-not-exist.json", "--L", "4"]) == 2
    assert "machine spec not found" in capsys.readouterr().err


def test_orbit_terminal_kinds(tmp_path, capsys):
    assert run(["orbit", "--inner", "halt_now", "--variant", "one-way-amp",
                "--no-decode", "--L", "6",
                "--out", str(tmp_path / "a.jsonl"),
                "--stats-out", str(tmp_path / "a.csv")]) == 0
    assert "dead_end" in capsys.readouterr().out


def test_gap_verb(tmp_path):
    out = tmp_path / "gap.json"
    assert run(["gap", "--inner", "halt_now", "--variant", "one-way-amp",
                "--no-decode", "--L", "5", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["satisfied"] is True


def _gap_reference(spec, config, max_steps):
    """The gap JSON from the reference stepper's orbit, built as the verb
    builds it."""
    orbit = run_orbit(spec, config, max_steps)
    gap = min_distinct_gap(orbit_spectrum(orbit).eigenvalues, tol=1e-12)
    bound = energy_gap_bound(orbit)
    result = {
        "version": __version__,
        "J": orbit.length,
        "terminal": orbit.terminal[0],
        "gap_bound": [bound.numerator, bound.denominator],
        "min_distinct_gap": gap,
        "satisfied": bool(gap >= float(bound) - 1e-12),
    }
    return json.dumps(result, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("spec, argv, L, m_sites, J, terminal", [
    (build_staged_machine("halt_now", "two-way-amp", include_decode=False),
     ["--inner", "halt_now", "--variant", "two-way-amp", "--no-decode"],
     40, {}, 1645, "dead_end"),
    (build_staged_machine("halt_now", "one-way-amp"),
     ["--inner", "halt_now", "--variant", "one-way-amp", "--m-count", "2"],
     12, scattered_m_sites(12, 2, seed=0), 49, "dead_end"),
    (shuttle_machine(), None, 19, {}, 40, "cycle"),
])
def test_gap_matches_reference_orbit(tmp_path, capsys, spec, argv, L, m_sites, J, terminal):
    """The gap JSON read off the streaming run equals the one computed from
    ``machine.run_orbit``, on dead-end orbits, with and without the decode
    stage, and on a cycle; at the step budget, J - 1 steps are refused with
    exit 3 and J steps suffice."""
    if argv is None:
        m = tmp_path / "spec.json"
        m.write_text(json.dumps(spec_to_json(spec)))
        argv = ["--machine", str(m)]
    argv = ["gap"] + argv + ["--L", str(L)]
    out = tmp_path / "gap.json"
    assert run(argv + ["--out", str(out)]) == 0
    want = _gap_reference(spec, anchored_configuration(spec, L, m_sites), 200_000)
    assert out.read_text() == want
    assert (json.loads(want)["J"], json.loads(want)["terminal"]) == (J, terminal)
    assert run(argv + ["--max-steps", str(J - 1)]) == 3
    err = capsys.readouterr().err.strip().split("\n")
    assert err[-1] == "resource guard: orbit did not close within the step budget"
    assert run(argv + ["--max-steps", str(J), "--out", str(out)]) == 0
    assert out.read_text() == want


def test_gap_long_orbit_within_budget(tmp_path):
    """A 160,405-step orbit (two-way, L = 400) is measured by the streaming
    run in well under 2 s, without building its configurations."""
    out = tmp_path / "gap.json"
    t0 = time.perf_counter()
    assert run(["gap", "--inner", "halt_now", "--variant", "two-way-amp",
                "--no-decode", "--L", "400", "--out", str(out)]) == 0
    assert time.perf_counter() - t0 < 2.0
    data = json.loads(out.read_text())
    assert (data["J"], data["terminal"], data["satisfied"]) == (160405, "dead_end", True)


@pytest.mark.parametrize("L, J, gap", [(300, 90305, 3.63e-9), (440, 194045, 7.86e-10)])
def test_gap_reports_the_exact_smallest_gap(tmp_path, L, J, gap):
    """Near and below 1e-9 the reported gap is the smallest step of the
    sorted spectrum, not a value rounded to multiples of 1e-9 (4.0e-9 and
    1.0e-9 at these sizes) nor the next step past a 1e-9 tolerance."""
    out = tmp_path / "gap.json"
    assert run(["gap", "--inner", "halt_now", "--variant", "two-way-amp",
                "--no-decode", "--L", str(L), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    lam = OrbitSpectrum.of("dead_end", J).eigenvalues
    assert data["J"] == J
    assert data["min_distinct_gap"] == float(np.diff(np.sort(lam)).min())
    assert data["min_distinct_gap"] == pytest.approx(gap, rel=1e-3)
    assert data["satisfied"] is True


def test_evolve_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["evolve", "--inner", "halt_now", "--variant", "one-way-amp",
            "--no-decode", "--L", "5", "--t-max", "4", "--t-steps", "6"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    body = a.read_text()
    assert "unhalved" in body
    assert "dist_to_a1" in body


def test_evolve_rows_match_per_time_average(tmp_path):
    """The batched evolve verb prints the per-time orbit_site_average."""
    out = tmp_path / "e.csv"
    assert run(["evolve", "--inner", "halt_now", "--variant", "two-way-amp",
                "--no-decode", "--L", "5", "--t-max", "9", "--t-steps", "7",
                "--out", str(out)]) == 0
    rows = [[float(x) for x in ln.split(",")]
            for ln in out.read_text().splitlines() if ln[0].isdigit()]
    spec = build_staged_machine("halt_now", "two-way-amp", include_decode=False)
    h = compile_machine(spec)
    orbit = run_orbit_cached(anchored_configuration(spec, 5), h, 10_000)
    i1, i2 = h.value_index(a_cell("a1")), h.value_index(a_cell("a2"))
    e1 = np.zeros((h.site_dim, h.site_dim))
    e1[i1, i1] = 1.0
    ts = np.linspace(0.0, 9.0, 7)
    batch = orbit_site_average(orbit, h, ts)
    assert len(rows) == 7
    for k, (t, p1, p2, re12, im12, dist, _) in enumerate(rows):
        rho = orbit_site_average(orbit, h, ts[k])
        assert np.abs(batch[k] - rho).max() < 1e-12
        want = [ts[k], rho[i1, i1].real, rho[i2, i2].real, rho[i1, i2].real,
                rho[i1, i2].imag, trace_distance(rho, e1)]
        # rows carry 12 significant digits
        assert np.allclose([t, p1, p2, re12, im12, dist], want, rtol=1e-11, atol=1e-12)


def _dense_evolve_rows(spec, L, ts):
    """The evolve columns from full d x d site states and d x d targets."""
    h = compile_machine(spec)
    orbit = coded_orbit(h, anchored_configuration(spec, L), 10_000)
    i1, i2 = h.value_index(a_cell("a1")), h.value_index(a_cell("a2"))
    e1 = basis_state(h, a_cell("a1"))
    mix = 0.5 * (e1 + basis_state(h, a_cell("a2")))
    rhos = orbit_site_average(orbit, h, ts)
    return np.column_stack([ts, rhos[:, i1, i1].real, rhos[:, i2, i2].real,
                            rhos[:, i1, i2].real, rhos[:, i1, i2].imag,
                            trace_distance(rhos, e1), trace_distance(rhos, mix)])


@pytest.mark.parametrize("argv, spec, L", [
    (["--inner", "halt_now", "--variant", "two-way-amp", "--no-decode"],
     build_staged_machine("halt_now", "two-way-amp", include_decode=False), 16),
    (["--machine", "shuttle.json"], shuttle_machine(), 19),
])
def test_evolve_block_rows_match_the_dense_route(tmp_path, argv, spec, L):
    """The rows evolve computes on the occupied block equal the d x d route,
    on a dead end and on the shuttle cycle."""
    (tmp_path / "shuttle.json").write_text(json.dumps(spec_to_json(shuttle_machine())))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    out = tmp_path / "e.csv"
    assert run(["evolve"] + argv + ["--L", str(L), "--out", str(out)]) == 0
    rows = np.array([[float(x) for x in ln.split(",")]
                     for ln in out.read_text().splitlines() if ln[0].isdigit()])
    want = _dense_evolve_rows(spec, L, np.linspace(0.0, 20.0, 41))
    # rows carry 12 significant digits
    assert np.allclose(rows, want, rtol=1e-11, atol=1e-12)


_INSTANCE = {"inner": "halt_now", "variant": "one-way-amp", "decode": False,
             "mode": "anchored", "L": 3, "alpha": [0, 1], "v": "1",
             "eta": 0.846, "eps1": 0.35, "t0_override": 20}


@pytest.mark.parametrize("argv, instance", [
    (["phase-decode"], None),
    (["phase-decode", "--beta", "1/0"], None),
    (["orbit", "--inner", "nope"], None),
    (["sample-good", "--alpha", "x"], None),
    (["decide"], {"mode": "bogus"}),
    (["decide"], {"mode": "iid"}),
    (["decide"], {"eta": "x"}),
    (["decide"], {"alpha": [1, 0]}),
    (["decide"], {"variant": "nope"}),
    (["decide", "--override-params"],
     {"variant": "two-way-amp", "mode": "iid", "L": 4, "l": 2}),
    (["orbit", "--machine", "classless.json"], None),
    (["gap", "--machine", "classless.json"], None),
    (["decide"], {"machine_ref": "classless.json"}),
    (["orbit", "--machine", "stay.json"], None),
    (["evolve", "--machine", "no_a1.json"], None),
    (["timeavg", "--machine", "no_a1.json"], None),
    (["decide"], {"machine_ref": "no_a1.json"}),
    (["evolve", "--t-steps", "-1"], None),
    (["evolve", "--t-max", "nan"], None),
    (["evolve", "--t-max", "inf"], None),
    *[([verb, "--m-count", "50", "--L", "3"], None)
      for verb in ("timeavg", "evolve", "gap", "orbit")],
    (["sample-good", "--n", "0"], None),
    (["sample-good", "--L", "0"], None),
    (["sample-good", "--L", "-1"], None),
    (["sample-good", "--mode", "iid", "--l", "0"], None),
    (["sample-good", "--samples", "0"], None),
    (["sample-good", "--alpha", "2"], None),
    (["sample-good", "--alpha", "-1"], None),
    (["decide"], {"t0_override": "nan"}),
    (["decide"], {"t0_override": 0}),
    (["decide"], {"t0_override": -1}),
    (["decide", "missing.json"], None),
    (["decide"], {"eta": None}),
])
def test_malformed_input_exit_2(tmp_path, capsys, argv, instance):
    """Every malformed input exits 2 with a one-line message, no traceback.
    A field set to None is left out of the instance file."""
    _write_refused_specs(tmp_path)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    if instance is not None:
        if "machine_ref" in instance:
            instance = {**instance, "machine_ref": str(tmp_path / instance["machine_ref"])}
        path = tmp_path / "inst.json"
        merged = {**_INSTANCE, **instance}
        path.write_text(json.dumps({k: v for k, v in merged.items() if v is not None}))
        argv = argv + [str(path)]
    assert run(argv) == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("error:")


def _oneway_spec():
    return spec_to_json(build_staged_machine("halt_now", "one-way-amp", include_decode=False))


def _write_refused_specs(tmp_path):
    """Spec files that parse but must be refused: a state with no shift class,
    a stay-in-place shift class, and a cell alphabet without the a1 that
    anchored configurations are filled with."""
    data = _oneway_spec()
    classless = {**data, "shift_plus": [q for q in data["shift_plus"] if q != "amp"]}
    (tmp_path / "classless.json").write_text(json.dumps(classless))
    (tmp_path / "stay.json").write_text(json.dumps({**data, "shift_zero": ["amp"]}))
    no_a1 = {**data, "a_track2": [t for t in data["a_track2"] if t != "a1"],
             "rules": [r for r in data["rules"] if "A:a1" not in (r[1], r[3])]}
    (tmp_path / "no_a1.json").write_text(json.dumps(no_a1))


def test_spec_with_empty_stay_class_loads(tmp_path, capsys):
    """Spec files that still list an empty shift_zero keep loading."""
    m = tmp_path / "m.json"
    m.write_text(json.dumps({**_oneway_spec(), "shift_zero": []}))
    assert run(["orbit", "--machine", str(m), "--L", "4",
                "--out", str(tmp_path / "o.jsonl"),
                "--stats-out", str(tmp_path / "o.csv")]) == 0


def test_decide_too_large_to_enumerate_exit_3(tmp_path, capsys):
    """An ensemble too large to enumerate trips the resource guard."""
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({**_INSTANCE, "decode": True, "L": 30, "alpha": [1, 8]}))
    assert run(["decide", str(path)]) == 3
    err = capsys.readouterr().err.strip().split("\n")
    assert err[-1].startswith("resource guard:")


def test_decide_too_large_with_fixture_floor_exit_3(tmp_path, capsys):
    """Sizing the fixture floor of an empty ensemble leaves the refusal to
    the decision."""
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({**_INSTANCE, "decode": True, "L": 30, "alpha": [1, 8],
                                "gap_floor_from_fixture": True}))
    assert run(["decide", str(path)]) == 3
    err = capsys.readouterr().err.strip().split("\n")
    assert err[-1] == "resource guard: instance carries no explicit configurations"


def test_decide_interacting_blocks_exit_2(tmp_path, capsys):
    """Two-way blocks of an iid ensemble end on a left shift off their block:
    the stacked route refuses the split, exit 2 with a one-line message."""
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({**_INSTANCE, "variant": "two-way-amp", "mode": "iid",
                                "L": 4, "l": 2, "gap_floor_from_fixture": True}))
    assert run(["decide", str(path), "--override-params"]) == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert err == ["error: block decomposition refused: a block orbit shifts left off its block"]


def test_decide_truncated_member_orbit_exit_3(tmp_path, capsys, monkeypatch):
    """A member orbit longer than the orbit budget refuses the instance."""
    import hamca.verifier as verifier

    monkeypatch.setattr(verifier, "ORBIT_BUDGET", 10)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_INSTANCE))
    assert run(["decide", str(path), "--override-params"]) == 3
    err = capsys.readouterr().err.strip().split("\n")
    assert err == ["resource guard: orbit budget exhausted while preparing instance"]


def test_decide_grid_guard_exit_3(tmp_path, capsys):
    """The default cutoff at L=5 needs about 1.4e8 grid points: refused at once."""
    path = tmp_path / "inst.json"
    data = {k: v for k, v in _INSTANCE.items() if k != "t0_override"}
    path.write_text(json.dumps({**data, "inner": "ping_pong", "L": 5}))
    t0 = time.perf_counter()
    assert run(["decide", str(path)]) == 3
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err.strip().split("\n")
    assert err[-1].startswith("resource guard: time grid")


def test_decide_semi_budget_guard_exit_3(tmp_path, capsys):
    """A pair budget above the grid limit is refused before any pair runs."""
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({**_INSTANCE, "semi": True, "budget": 2**20 + 1}))
    t0 = time.perf_counter()
    assert run(["decide", str(path)]) == 3
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err.strip().split("\n")
    assert err[-1] == f"resource guard: pair budget {2**20 + 1} exceeds {2**20} grid points"


def test_evolve_initial_distance_small(tmp_path):
    """At time zero the averaged state sits near the all-a1 site state."""
    out = tmp_path / "e.csv"
    assert run(["evolve", "--inner", "ping_pong", "--variant", "one-way-amp",
                "--no-decode", "--L", "40", "--t-max", "0", "--t-steps", "1",
                "--out", str(out)]) == 0
    row = out.read_text().strip().split("\n")[-1].split(",")
    assert float(row[5]) <= 2 / 41 + 1e-9


def test_timeavg_verb(tmp_path):
    out = tmp_path / "avg.json"
    assert run(["timeavg", "--inner", "halt_now", "--variant", "one-way-amp",
                "--no-decode", "--L", "4", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert abs(sum(row[i][0] for i, row in enumerate(data["state"])) - 1) < 1e-9


@pytest.mark.parametrize("argv", [
    ["--inner", "halt_now", "--variant", "two-way-amp", "--no-decode", "--L", "40"],
    ["--inner", "halt_now", "--variant", "two-way-amp", "--no-decode", "--L", "60"],
    ["--machine", "shuttle.json", "--L", "19"],
])
def test_timeavg_bytes_are_json_dumps(tmp_path, argv):
    """The state writer gives the bytes of json.dumps(indent=1, sort_keys=True)
    on dead-end orbits and on a cycle."""
    (tmp_path / "shuttle.json").write_text(json.dumps(spec_to_json(shuttle_machine())))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    out = tmp_path / "avg.json"
    assert run(["timeavg"] + argv + ["--out", str(out)]) == 0
    text = out.read_text()
    data = json.loads(text)
    # floats round-trip exactly through their repr, so re-encoding gives the
    # bytes json.dumps wrote for the same payload
    assert text == json.dumps(data, indent=1, sort_keys=True) + "\n"


def test_state_writer_matches_json_dumps():
    """Complex off-diagonal entries (the shuttle cycle's site state at
    t = 1.3), signs, zeros and exponents are spelled as json spells them."""
    spec = shuttle_machine()
    h = compile_machine(spec)
    orbit = run_orbit_cached(anchored_configuration(spec, 19), h, 10_000)
    shuttle = orbit_site_average(orbit, h, 1.3)
    off = shuttle - np.diag(np.diag(shuttle))
    assert orbit.kind == "cycle" and np.abs(off.imag).max() > 1e-3
    odd = np.array([[1.0, -0.0 + 2.5e-17j, 1e-310], [1e300 - 3j, 0.1 + 0.2, -7.0]])
    payload = {"zeta": [1, {"b": 2, "a": "x"}], "J": 3, "dist": 0.1 + 0.2}
    for rho in (shuttle, odd):
        state = [[[v.real, v.imag] for v in row] for row in rho]
        want = json.dumps({**payload, "state": state}, indent=1, sort_keys=True)
        assert _dumps_with_state(payload, rho) == want


def _stdout_of(parse, capsys):
    """What a parse printed and the code it exited with."""
    with pytest.raises(SystemExit) as exc:
        parse()
    return capsys.readouterr().out, exc.value.code


def test_help_lists_every_verb(capsys):
    """``hamca --help`` is the full parser's help, with every verb and its
    help line."""
    text, code = _stdout_of(lambda: main(["--help"]), capsys)
    assert code == 0
    assert text == build_parser().format_help()
    for verb, (help_line, _) in VERBS.items():
        assert verb in text and help_line in text


@pytest.mark.parametrize("verb", list(VERBS))
def test_verb_help_matches_the_full_parser(capsys, verb):
    """Each verb's --help exits 0 and prints what the full parser prints."""
    text, code = _stdout_of(lambda: main([verb, "--help"]), capsys)
    assert code == 0 and text.startswith(f"usage: hamca {verb}")
    full, _ = _stdout_of(lambda: build_parser().parse_args([verb, "--help"]), capsys)
    assert text == full


def test_parse_errors_keep_their_message(capsys):
    """An unknown verb and a bad option exit 2 with the one-line message of
    the full parser."""
    with pytest.raises(InputError) as exc:
        build_parser().parse_args(["bogus"])
    assert str(exc.value).startswith("hamca: argument verb: invalid choice: 'bogus'")
    cases = [(["bogus"], str(exc.value)),
             (["evolve", "--bogus"], "hamca: unrecognized arguments: --bogus"),
             (["--seed", "3", "evolve", "--L", "x"],
              "hamca evolve: argument --L: invalid int value: 'x'"),
             (["--seed", "x", "evolve"], "hamca: argument --seed: invalid int value: 'x'")]
    for argv, message in cases:
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, verb", [
    (["--seed", "3", "timeavg", "--L", "40", "--out", "x.json"], "timeavg"),
    (["timeavg", "--L", "40"], "timeavg"),
    (["--seed=3", "timeavg", "--L", "40"], None),
    (["--seed"], None),
    (["decide", "inst.json", "--t0-override", "5"], "decide"),
    (["--se", "3", "timeavg"], None),
    (["--help", "timeavg"], None),
    ([], None),
])
def test_one_verb_parser_parses_as_the_full_one(argv, verb):
    """The verb is read off the line first or past ``--seed N`` only; what
    the one-verb parser makes of the line is what the full parser makes of
    it."""
    assert _named_verb(argv) == verb
    if verb is not None:
        assert vars(build_parser(verb).parse_args(argv)) == vars(build_parser().parse_args(argv))


def test_timeavg_cycle_kernel_guard_exit_3(tmp_path, capsys):
    """A cycle longer than 4096 steps is refused before its J x J kernel is
    built; a short cycle still runs."""
    m = tmp_path / "shuttle.json"
    m.write_text(json.dumps(spec_to_json(shuttle_machine())))
    out = tmp_path / "avg.json"
    assert run(["timeavg", "--machine", str(m), "--L", "19", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert (data["J"], data["terminal"]) == (40, "cycle")
    t0 = time.perf_counter()
    assert run(["timeavg", "--machine", str(m), "--L", "2100"]) == 3
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err.strip().split("\n")
    assert err[-1].startswith("resource guard: cycle kernel refuses J = 4202")


def test_decide_verb(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "inner": "halt_now", "variant": "one-way-amp", "decode": False,
        "mode": "anchored", "L": 4, "alpha": [0, 1], "v": "1",
        "eta": 0.846, "eps1": 0.35, "t0_override": 200,
        "gap_floor_from_fixture": True,
    }))
    out = tmp_path / "verdict.json"
    assert run(["decide", str(inst), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["verdict"] == "yes"
    assert any(e["term"] == "grid_discretization" for e in data["error_ledger"])


_A11_NO = {"inner": "ping_pong", "variant": "one-way-amp", "decode": True,
           "mode": "anchored", "L": 5, "alpha": [1, 8], "v": "1", "eta": 0.846,
           "eps1": 0.35, "t0_override": 40, "gap_floor_from_fixture": True}

# The decide instances of the benchmark, with the SHA-256 of their output.
DECIDE_BYTES = [
    ({"inner": "halt_now", "variant": "one-way-amp", "decode": True, "mode": "anchored",
      "L": 5, "alpha": [1, 8], "v": "1", "eta": 0.74, "eps1": 0.30, "t0_override": 200,
      "gap_floor_from_fixture": True},
     "717665d1cf3affe972d49f3834ade827ba1a5bec5804d794300e2630098edcf0"),
    (_A11_NO, "bc86c63551b6be0b6bb141f0b7de043c77af228447c0d73cfb75ee5bc1ad3452"),
    (dict(_A11_NO, semi=True, budget=20),
     "4b3934ee65b246e71187477d459fb8091a645ddd7824e6d7ade161f33211c354"),
    ({"inner": "ping_pong", "variant": "one-way-amp", "decode": False, "mode": "anchored",
      "L": 3, "alpha": [0, 1], "v": "1", "eta": 0.988, "eps1": 0.48, "t0_override": 2000,
      "gap_floor_from_fixture": True},
     "e391f49afc49f794faaa167706842e2b93b141a2d1a7d147fb026bed2e990671"),
]


@pytest.mark.parametrize("instance, digest", DECIDE_BYTES,
                         ids=["halting", "nonhalting", "pair_sweep", "scan"])
def test_decide_output_bytes_are_pinned(tmp_path, instance, digest):
    """decide writes the same bytes as ever on the four benchmark instances:
    verdict, fired_at, ledger and echoed instance alike."""
    path, out = tmp_path / "inst.json", tmp_path / "v.json"
    path.write_text(json.dumps(instance))
    assert run(["--seed", "1", "decide", str(path), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_decide_malformed_instance(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["decide", str(bad)]) == 2


def test_sample_good_verb(tmp_path):
    out = tmp_path / "sg.json"
    assert run(["sample-good", "--samples", "5000", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["within_bound"] is True


def test_sample_good_iid_verb(tmp_path):
    out = tmp_path / "sg.json"
    assert run(["sample-good", "--mode", "iid", "--samples", "5000", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["mode"] == "iid" and data["within_bound"] is True


@pytest.mark.parametrize("verb", ["orbit", "timeavg"])
def test_alpha_sets_the_simulation_cell_count(tmp_path, verb):
    """Without --m-count, --alpha places round(alpha * L) simulation cells:
    at L = 16, --alpha 1/8 writes the artifact of --m-count 2, which is not
    the artifact of no simulation cells."""
    extra = ["--stats-out", str(tmp_path / "s.csv")] if verb == "orbit" else []
    texts = []
    for k, opts in enumerate((["--alpha", "1/8"], ["--m-count", "2"], [])):
        out = tmp_path / f"{k}.out"
        assert run([verb, "--L", "16", "--out", str(out)] + opts + extra) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1] != texts[2]


def test_irreversible_build_exit_2(monkeypatch, capsys):
    """An inner fixture whose rules collide makes the build raise the
    library's NotReversible: exit 2 with one error line."""
    import hamca.staged as staged

    def clash(a_pass):
        inner = staged.halt_now(a_pass)
        rules = {**inner.rules, ("back", a_cell("a2")): ("back", a_cell("a1"))}
        return replace(inner, rules=rules)  # ("go", a1) maps to ("back", a1) too

    monkeypatch.setitem(staged.FIXTURES, "clash", clash)
    assert run(["gap", "--inner", "clash", "--L", "4"]) == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("error: collision:")


@pytest.mark.parametrize("argv", [
    # an orbit that cannot close within the step budget
    ["timeavg", "--inner", "ping_pong", "--variant", "one-way-amp",
     "--no-decode", "--L", "200", "--max-steps", "50"],
    # more site values than the byte lattice of run_stats holds
    ["gap", "--machine", "wide.json"],
    # an orbit longer than --max-steps on the coded route
    ["evolve", "--inner", "ping_pong", "--variant", "one-way-amp",
     "--no-decode", "--L", "200", "--max-steps", "50"],
], ids=["truncated", "wide_alphabet", "evolve_truncated"])
def test_resource_guard_exit_3(tmp_path, capsys, argv):
    spec = pad_alphabet(build_staged_machine("halt_now", "one-way-amp", include_decode=False), 257)
    (tmp_path / "wide.json").write_text(json.dumps(spec_to_json(spec)))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert run(argv) == 3
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("resource guard:")


@pytest.mark.parametrize("exc, line", [
    (MemoryError(), "resource guard: out of memory"),
    (MemoryError("Unable to allocate 5.3 GiB"), "resource guard: Unable to allocate 5.3 GiB"),
], ids=["python", "numpy"])
def test_memory_error_exit_3(monkeypatch, capsys, exc, line):
    """A failed allocation is a resource guard: exit 3, one line, no traceback."""
    import hamca.cli as cli

    def verb(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_gap", verb)
    assert run(["gap"]) == 3
    assert capsys.readouterr().err.strip().split("\n") == [line]


def test_phase_decode_verb(tmp_path, capsys):
    assert run(["phase-decode", "--v", "1101", "--n-prime", "8", "--out", "-"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["bits"] == "1101"
    assert data["length"] == 4
    assert run(["phase-decode", "--beta", "1/3", "--n-prime", "4"]) == 2
