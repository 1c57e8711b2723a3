"""Machine-level behaviour: validation, stepping, orbits, inversion."""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamca.machine import (
    BLANK,
    MARK,
    Configuration,
    ControlSet,
    MachineSpec,
    MalformedConfiguration,
    NotReversible,
    SymbolSet,
    a_cell,
    amplification_stats,
    cell_to_tag,
    cell_track2,
    control,
    invert,
    is_control,
    run_orbit,
    run_stats,
    spec_from_json,
    spec_to_json,
    step,
    tag_to_cell,
    validate_reversible,
)
from hamca.encoding import anchored_configuration, scattered_m_sites
from hamca.hamiltonian import DimensionGuard, compile_machine
from hamca.staged import FIXTURES, VARIANTS, build_staged_machine

from conftest import pad_alphabet


def small_symbols():
    return SymbolSet(m_track2=(BLANK, MARK), a_track2=("a1", "a2", MARK))


def test_validate_clean_fixture(oneway):
    assert validate_reversible(oneway).ok()


def test_validate_reports_collision():
    rules = {
        ("q", a_cell("a1")): ("q", a_cell("a2")),
        ("q", a_cell("a2")): ("q", a_cell("a2")),  # same target
    }
    spec = MachineSpec(
        name="bad",
        symbols=small_symbols(),
        control=ControlSet(("q",), frozenset({"q"}), frozenset()),
        rules=rules,
        shift_enabled=frozenset({"q"}),
        init_state="q",
    )
    report = validate_reversible(spec)
    assert len(report.collisions) == 1
    assert not report.ok()
    with pytest.raises(NotReversible):
        invert(spec)


def test_validate_reports_direction_violation():
    spec = MachineSpec(
        name="bad-dir",
        symbols=small_symbols(),
        control=ControlSet(("q",), frozenset({"q"}), frozenset({"q"})),
        rules={("q", a_cell("a1")): ("q", a_cell("a1"))},
        shift_enabled=frozenset({"q"}),
        init_state="q",
    )
    report = validate_reversible(spec)
    assert report.direction_violations
    assert not report.ok()


def test_step_boot_marks_first_cell(oneway):
    cfg = anchored_configuration(oneway, 4)
    nxt = step(oneway, cfg)
    assert nxt.cells[1] == a_cell(MARK)
    assert nxt.cells[0] == control(1, "scan")


def test_step_right_mover_dies_on_marked_cell(oneway_nd):
    # amplification state re-reading the marker: the forbidden pattern
    cells = (a_cell("a2"), control(0, "amp"), a_cell(MARK), a_cell("a1"))
    assert step(oneway_nd, Configuration(cells)) is None


def test_step_open_boundary_exhaustion(drifter_nd):
    cells = (a_cell("a1"), a_cell("a1"), control(1, "drift"))
    assert step(drifter_nd, Configuration(cells, "open")) is None


def test_step_requires_single_control(oneway):
    cells = (control(0, "boot"), a_cell("a1"), control(0, "boot"), a_cell("a1"))
    with pytest.raises(MalformedConfiguration):
        step(oneway, Configuration(cells))


def test_orbit_cycle_is_full_period(shuttle):
    cfg = Configuration((control(0, "glide"),) + (a_cell("a1"),) * 4)
    orbit = run_orbit(shuttle, cfg, 10_000)
    assert orbit.terminal == ("cycle", 2 * 5)
    assert len({c.cells for c in orbit.states}) == orbit.length


def test_orbit_dead_end_after_sweep(oneway_nd):
    for L in (4, 6, 7, 13, 20):
        cfg = anchored_configuration(oneway_nd, L)
        orbit = run_orbit(oneway_nd, cfg, 10_000)
        assert orbit.kind == "dead_end"
        # the amplification sweep fills configurations j0..J, 2L of them
        j0 = run_stats(oneway_nd, cfg, 10_000).stage_entry_steps["amp_entry"]
        assert orbit.length == j0 + 2 * L - 1
        # the final configuration is about to re-read the marker rightward
        last = orbit.states[-1]
        i = last.single_control()
        assert last.cells[i][1] == 0  # read-write mode
        assert cell_track2(last.cells[(i + 1) % last.size]) == MARK


def test_orbit_truncation():
    spec = build_staged_machine("ping_pong", "one-way-amp")
    orbit = run_orbit(spec, anchored_configuration(spec, 4), 0)
    assert orbit.terminal == ("truncated", 1)


def test_invert_is_involution(oneway):
    twice = invert(invert(oneway))
    assert twice.rules == oneway.rules
    assert twice.rw_mode == oneway.rw_mode
    assert twice.control.plus == oneway.control.plus


def test_invert_round_trip_long(oneway):
    spec = build_staged_machine("counter", "one-way-amp")
    L = 60
    sites = scattered_m_sites(L, 20, witness_at=20)
    cfg = anchored_configuration(spec, L, sites)
    cur = cfg
    for _ in range(10_000):
        res = step(spec, cur)
        if res is None:
            break
        cur = res
    steps_taken = _count_back(spec, cfg, cur)
    inv = invert(spec)
    back = cur
    for _ in range(steps_taken):
        back = step(inv, back)
    assert back.cells == cfg.cells
    assert step(inv, back) is None  # no predecessor before the start


def _count_back(spec, start, end):
    cur = start
    k = 0
    while cur.cells != end.cells:
        cur = step(spec, cur)
        k += 1
    return k


def test_track1_immutable_and_kind_conserved(oneway):
    L = 10
    sites = scattered_m_sites(L, 3, witness_at=1)
    cfg = anchored_configuration(oneway, L, sites)
    orbit = run_orbit(oneway, cfg, 10_000)
    bits0 = sorted(x[1:3] for x in cfg.cells if not is_control(x) and x[0] == "M")
    kinds0 = sorted(x[0] for x in cfg.cells if not is_control(x))
    for c in orbit.states:
        bits = sorted(x[1:3] for x in c.cells if not is_control(x) and x[0] == "M")
        kinds = sorted(x[0] for x in c.cells if not is_control(x))
        assert bits == bits0
        assert kinds == kinds0


def test_injectivity_exhaustive_small(shuttle):
    """All single-control configurations on a short ring map injectively."""
    cells = shuttle.symbols.cells()
    L = 4
    seen = {}
    for pos in range(L + 1):
        for mode in (0, 1):
            for combo in itertools.product(cells, repeat=L):
                lattice = list(combo[:pos]) + [control(mode, "glide")] + list(combo[pos:])
                cfg = Configuration(tuple(lattice))
                res = step(shuttle, cfg)
                if res is None:
                    continue
                key = res.cells
                assert key not in seen, (cfg.cells, seen[key])
                seen[key] = cfg.cells


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_injectivity_sampled(data, oneway):
    """Random configuration pairs at L = 5 never collide under the step map."""
    cells = oneway.symbols.cells()
    L = 5

    def draw_cfg():
        pos = data.draw(st.integers(0, L))
        mode = data.draw(st.integers(0, 1))
        q = data.draw(st.sampled_from(sorted(oneway.control.states)))
        body = [
            cells[data.draw(st.integers(0, len(cells) - 1))] for _ in range(L)
        ]
        lattice = body[:pos] + [control(mode, q)] + body[pos:]
        return Configuration(tuple(lattice))

    a, b = draw_cfg(), draw_cfg()
    ra, rb = step(oneway, a), step(oneway, b)
    if ra is not None and rb is not None and a.cells != b.cells:
        assert ra.cells != rb.cells


def test_counts_invariant_after_marking(oneway):
    """n_a1 + n_a2 equals the flippable-cell count at every step past the first."""
    L = 12
    sites = scattered_m_sites(L, 3, witness_at=1)
    cfg = anchored_configuration(oneway, L, sites)
    orbit = run_orbit(oneway, cfg, 10_000)
    n1 = amplification_stats(orbit, "a1").counts
    n2 = amplification_stats(orbit, "a2").counts
    expected = L - len(sites) - 1
    assert all(a + b == expected for a, b in zip(n1[1:], n2[1:]))


def test_run_stats_matches_orbit(oneway):
    L = 9
    sites = scattered_m_sites(L, 2, witness_at=1)
    cfg = anchored_configuration(oneway, L, sites)
    orbit = run_orbit(oneway, cfg, 10_000)
    stats = run_stats(oneway, cfg, 10_000, track_increments=("a2",))
    assert stats.length == orbit.length
    assert stats.terminal == orbit.kind
    for sym in ("a1", "a2"):
        series = amplification_stats(orbit, sym)
        exact = sum(
            v
            for k, v in stats.total_steps_by_value.items()
            if k[0] != "Q" and cell_track2(k) == sym
        )
        assert exact == series.total
    # increment steps reproduce the count series
    counts = amplification_stats(orbit, "a2").counts
    incs = stats.change_steps["a2"]
    assert [counts[j - 1] for j in incs] == list(range(1, len(incs) + 1))


def _reference_stats(spec, cfg, max_steps, track=()):
    """Every RunStats field rebuilt from the reference stepper's orbit."""
    orbit = run_orbit(spec, cfg, max_steps)

    def hist(c):
        out = {}
        for x in c.cells:
            out[x] = out.get(x, 0) + 1
        return out

    totals = {}
    for c in orbit.states:
        for x, k in hist(c).items():
            totals[x] = totals.get(x, 0) + k
    change = {}
    for s in track:
        counts = [
            sum(1 for x in c.cells if not is_control(x) and cell_track2(x) == s)
            for c in orbit.states
        ]
        change[s] = [j + 1 for j in range(1, len(counts)) if counts[j] > counts[j - 1]]
    marks = {}
    for label, state in spec.stage_marks.items():
        for j, c in enumerate(orbit.states, start=1):
            if c.cells[c.single_control()][2] == state:
                marks[label] = j
                break
    return {
        "length": orbit.length,
        "terminal": orbit.kind,
        "total_steps_by_value": totals,
        "first_hist": hist(orbit.states[0]),
        "last_hist": hist(orbit.states[-1]),
        "change_steps": change,
        "stage_entry_steps": marks,
    }


def _program_stats(spec, cfg, max_steps, track=()):
    """RunStats as a dict, with zero counts dropped from its histograms."""
    stats = run_stats(spec, cfg, max_steps, track_increments=track)
    assert all(stats.first_hist.values())
    out = dataclasses.asdict(stats)
    for key in ("total_steps_by_value", "first_hist", "last_hist"):
        out[key] = {v: k for v, k in out[key].items() if k}
    return out


def _assert_two_routes(spec, cfg, max_steps=10_000, track=()):
    ref = _reference_stats(spec, cfg, max_steps, track)
    assert _program_stats(spec, cfg, max_steps, track) == ref
    return ref


@pytest.mark.parametrize("boundary", ["periodic", "open"])
@pytest.mark.parametrize("decode", [True, False])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("inner", sorted(FIXTURES))
def test_run_stats_two_routes(inner, variant, decode, boundary):
    """Every RunStats field equals the one rebuilt from run_orbit."""
    spec = build_staged_machine(inner, variant, include_decode=decode)
    for L in (6, 13):
        m = L // 3
        sites = scattered_m_sites(L, m, witness_at=m, seed=L)
        cfg = anchored_configuration(spec, L, sites, boundary=boundary)
        for track in ((), ("a2",)):
            _assert_two_routes(spec, cfg, track=track)


def _ring(state, mode, pos, cells, boundary="periodic"):
    lattice = list(cells[:pos]) + [control(mode, state)] + list(cells[pos:])
    return Configuration(tuple(lattice), boundary)


@pytest.mark.parametrize("L", [1, 2, 5, 17])
def test_run_stats_shuttle_cycle(shuttle, L):
    """The shuttle's whole orbit is one glide that closes into a cycle."""
    cfg = _ring("glide", 0, 0, (a_cell("a1"),) * L)
    stats = run_stats(shuttle, cfg, 10_000)
    assert (stats.terminal, stats.length) == ("cycle", 2 * (L + 1))
    _assert_two_routes(shuttle, cfg)


def test_run_stats_budget_inside_a_glide(shuttle):
    """A step budget that ends anywhere inside a glide truncates as orbit_of."""
    L = 9
    mixed = _ring("glide", 0, 0, (a_cell("a1"), a_cell("a2")) * 4 + (a_cell("a1"),))
    uniform = _ring("glide", 0, 0, (a_cell("a1"),) * L)
    for cfg in (mixed, uniform):
        for max_steps in range(2 * (L + 1)):
            stats = run_stats(shuttle, cfg, max_steps)
            assert (stats.terminal, stats.length) == ("truncated", max_steps + 1)
            _assert_two_routes(shuttle, cfg, max_steps)
    # the budget that just reaches the repeat closes the cycle
    assert run_stats(shuttle, uniform, 2 * (L + 1)).terminal == "cycle"


def test_run_stats_open_end_inside_a_glide(shuttle, twoway_nd):
    """Glides in both directions dead-end at the ends of an open lattice."""
    cells = (a_cell("a1"), a_cell("a2"), a_cell("a1"), a_cell("a1"))
    right = _ring("glide", 0, 0, cells, "open")
    assert _assert_two_routes(shuttle, right)["length"] == 2 * len(cells) + 1
    left = _ring("amp_l2", 1, len(cells), cells, "open")
    assert _assert_two_routes(twoway_nd, left)["terminal"] == "dead_end"
    assert run_stats(twoway_nd, left, 10_000).length == 2 * len(cells) + 1


def test_run_stats_glides_cross_the_seam(shuttle, twoway_nd):
    """Periodic glides wrap past site 0 in both directions."""
    cells = (a_cell("a1"), a_cell("a2"), a_cell("a1"), a_cell("a1"), a_cell("a2"))
    assert _assert_two_routes(shuttle, _ring("glide", 0, 3, cells))["terminal"] == "cycle"
    left = _ring("amp_l2", 1, 2, cells)
    assert _assert_two_routes(twoway_nd, left)["terminal"] == "cycle"
    L = 40  # the two-way sweeps cross the seam L - 1 times
    ref = _assert_two_routes(twoway_nd, anchored_configuration(twoway_nd, L), track=("a2",))
    assert (ref["terminal"], ref["length"]) == ("dead_end", L * L + L + 5)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_run_stats_matches_reference_on_random_configurations(single_control_rings, data):
    """Arbitrary cells, control site, mode and state, on both boundaries."""
    spec, cfg = data.draw(single_control_rings)
    max_steps = data.draw(st.sampled_from([10_000, 0, 1, 2, 3, 7, 20]))
    track = data.draw(st.sampled_from([(), ("a2",), ("a2", "a3", MARK)]))
    _assert_two_routes(spec, cfg, max_steps, track)


def test_run_stats_on_a_full_byte_alphabet(twoway_nd):
    """At 256 site values, controls coded up to 255, every RunStats field
    still equals the reference's, and the padding changes none of them."""
    spec = pad_alphabet(twoway_nd, 256)
    h = compile_machine(spec)
    cfg = anchored_configuration(spec, 12)
    assert h.site_dim == 256
    assert h.encode([cfg.cells])[0, cfg.single_control()] >= 128  # a code with the top bit
    ref = _assert_two_routes(spec, cfg, track=("a2",))
    assert ref == _program_stats(twoway_nd, cfg, 10_000, ("a2",))


def test_run_stats_refuses_more_than_256_site_values(oneway_nd):
    """The byte lattice holds 256 site values; one more is refused before
    the first step."""
    spec = pad_alphabet(oneway_nd, 257)
    with pytest.raises(DimensionGuard, match="257 site values"):
        run_stats(spec, anchored_configuration(spec, 4), 10_000)


def test_spec_json_round_trip(oneway):
    data = spec_to_json(oneway)
    back = spec_from_json(data)
    assert back.rules == oneway.rules
    assert back.control == oneway.control
    assert back.symbols == oneway.symbols
    assert back.shift_enabled == oneway.shift_enabled


@pytest.mark.parametrize("variant", VARIANTS)
def test_site_tags_round_trip(variant):
    """Every site value of every build, controls included, reads back from
    its tag."""
    for inner in FIXTURES:
        values = compile_machine(build_staged_machine(inner, variant)).site_values
        assert any(map(is_control, values)) and not all(map(is_control, values))
        assert [tag_to_cell(cell_to_tag(v)) for v in values] == list(values)
