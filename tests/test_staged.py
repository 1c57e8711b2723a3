"""Stage assembly: decode walk, amplification variants, fixture behaviour."""

import pytest

from hamca.encoding import anchored_configuration, scattered_m_sites
from hamca.machine import (
    MARK,
    MARK3,
    Configuration,
    a_cell,
    amplification_stats,
    control,
    m_cell,
    run_orbit,
    run_stats,
    validate_reversible,
)
from hamca.staged import (
    ONE_WAY,
    VARIANTS,
    build_staged_machine,
)


@pytest.mark.parametrize("inner", ["halt_now", "ping_pong", "counter"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_all_builds_reversible(inner, variant):
    spec = build_staged_machine(inner, variant)
    assert validate_reversible(spec).ok()


def test_two_way_entry_rewrites_marker(twoway_nd):
    # the halt walker reading the marked cell rewrites it and turns around
    q, cell = ("back", a_cell(MARK))
    assert twoway_nd.rules[(q, cell)] == ("amp_r1", a_cell(MARK3))
    # same on a simulation-cell marker, bits preserved
    assert twoway_nd.rules[("back", m_cell(1, 0, MARK))] == (
        "amp_r1",
        m_cell(1, 0, MARK3),
    )


def test_iid_re_entry_row(iid_nd):
    # after a re-run accepts, reading the marked cell resumes the sweep
    assert iid_nd.rules[("re.back", a_cell(MARK))] == ("amp0", a_cell(MARK))
    # the returning sweep state hands over to the primed stage at the marker
    assert iid_nd.rules[("amp2", a_cell(MARK))] == ("re.go", a_cell(MARK))


def test_decode_scan_finds_witness():
    spec = build_staged_machine("halt_now", ONE_WAY)
    L = 10
    sites = {3: (0, 0), 5: (0, 1), 8: (0, 0)}  # witness on the second m-cell
    cfg = anchored_configuration(spec, L, sites)
    orbit = run_orbit(spec, cfg, 10_000)
    assert orbit.kind == "dead_end"
    # amplification happened: a2 cells appear
    assert amplification_stats(orbit, "a2").counts[-1] > 0


def test_decode_dead_ends_without_witness():
    spec = build_staged_machine("halt_now", ONE_WAY)
    L = 8
    sites = {3: (0, 0), 5: (1, 0)}  # no second-bit-1 cell anywhere
    orbit = run_orbit(spec, anchored_configuration(spec, L, sites), 10_000)
    assert orbit.kind == "dead_end"
    assert amplification_stats(orbit, "a2").total == 0


def test_one_way_clustered_extremes():
    """Exact flip-time sums at the two extreme placements.

    With K = L - Lm - 1 flippable cells the sweep gives sum_j N2(j) equal to
    K(K+1) when the simulation cells sit directly after the marker and
    K(L+Lm) when they sit at the far end; every other placement falls in
    between, so does the printed coarse envelope used by the statistics.
    """
    spec = build_staged_machine("halt_now", ONE_WAY)
    L, Lm = 24, 5
    K = L - Lm - 1
    left = {p: (0, 1 if p == 2 else 0) for p in range(2, 2 + Lm)}
    st = run_stats(spec, anchored_configuration(spec, L, left), 10**6)
    total_left = sum(
        v for k, v in st.total_steps_by_value.items() if k[:2] == ("A", "a2")
    )
    assert total_left == K * (K + 1)
    right = {p: (0, 1 if p == L - Lm + 1 else 0) for p in range(L - Lm + 1, L + 1)}
    st = run_stats(spec, anchored_configuration(spec, L, right), 10**6)
    total_right = sum(
        v for k, v in st.total_steps_by_value.items() if k[:2] == ("A", "a2")
    )
    assert total_right == K * (L + Lm)


def test_two_way_flips_both_sides(twoway_nd):
    L = 8
    orbit = run_orbit(twoway_nd, anchored_configuration(twoway_nd, L), 10_000)
    assert orbit.kind == "dead_end"
    final = orbit.states[-1].cells
    # the marker was crossed: rewritten to its passable form
    marks = [x for x in final if x[0] == "A" and x[1].startswith("mk")]
    assert marks and marks[0][1] == "mk2"
    # flips reach both neighbours of the marked cell around the ring
    n2 = amplification_stats(orbit, "a2").counts
    assert n2[-1] >= L - 4


def test_two_way_open_boundary_middle_control(twoway_nd):
    """With the control in the middle of an open lattice the amplification
    rewrites cells on both sides of the marked cell."""
    half = 6
    cells = (
        (a_cell("a1"),) * half
        + (control(0, "boot"),)
        + (a_cell("a1"),) * half
    )
    orbit = run_orbit(twoway_nd, Configuration(cells, "open"), 10_000)
    assert orbit.kind == "dead_end"
    final = orbit.states[-1].cells
    left = sum(1 for x in final[:half] if x[:2] == ("A", "a2"))
    right = sum(1 for x in final[half:] if x[:2] == ("A", "a2"))
    assert left >= 2 and right >= 2


def test_two_way_increment_cost_grows(twoway_nd):
    """The k-th rewrite arrives after a delay growing linearly in k."""
    L = 60
    cfg = anchored_configuration(twoway_nd, L)
    stats = run_stats(twoway_nd, cfg, 10**6, track_increments=("a2",))
    incs = stats.change_steps["a2"]
    deltas = [b - a for a, b in zip(incs, incs[1:])]
    k = len(deltas)
    early = sum(deltas[: k // 4]) / (k // 4)
    late = sum(deltas[-(k // 4):]) / (k // 4)
    assert late > 2.5 * early


def test_iid_flip_costs_one_rerun_each(iid_nd):
    L = 16
    cfg = anchored_configuration(iid_nd, L)
    stats = run_stats(iid_nd, cfg, 10**6, track_increments=("a2",))
    incs = stats.change_steps["a2"]
    j0 = stats.stage_entry_steps["amp_entry"] - 1
    assert incs, "no amplification happened"
    assert 2 * j0 <= incs[0] <= 2 * j0 + 4 * L
    deltas = [b - a for a, b in zip(incs, incs[1:])]
    assert all(j0 <= d <= j0 + 4 * L for d in deltas)


def test_counter_run_length_grows_quadratically():
    spec = build_staged_machine("counter", ONE_WAY)
    lengths = []
    for k in (4, 8, 16):
        L = 3 * k + 4
        sites = scattered_m_sites(L, k + 1, witness_at=k + 1)
        stats = run_stats(spec, anchored_configuration(spec, L, sites), 10**6)
        j0 = stats.length - 2 * L
        lengths.append(j0)
    assert lengths[1] > 2.5 * lengths[0]
    assert lengths[2] > 2.5 * lengths[1]


def test_ping_pong_never_amplifies(drifter):
    L = 10
    sites = scattered_m_sites(L, 3, witness_at=1)
    orbit = run_orbit(drifter, anchored_configuration(drifter, L, sites), 10**5)
    assert orbit.kind == "dead_end"
    assert amplification_stats(orbit, "a2").total == 0
