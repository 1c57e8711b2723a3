"""Two-mode reversible Turing machines on finite one-dimensional lattices.

A machine alternates read-write steps and shift steps.  Lattice sites hold
either the finite control (a (mode, state) pair) or a tape cell.  Cells come
in two kinds: amplification cells ("A", symbol) and simulation cells
("M", bit1, bit2, symbol) whose bit pair is read-only.  In read-write mode
the control acts on the cell immediately to its right; in shift mode the
control swaps with a neighbour according to the state's shift class.  A
configuration with no applicable rule has no successor; injectivity of the
rule table makes the whole step map injective, which is what "reversible"
means here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

# Cell symbols are tuples: ("A", a) or ("M", b1, b2, s).
# Control sites are tuples: ("Q", mode, state) with mode in {0, 1}.
Cell = tuple
Site = tuple

MODE0 = 0

PLUS = "+"
MINUS = "-"

# Second-track symbol marking the left end of the tape.  MARK2/MARK3 are the
# rewritten forms used by the two-way amplification stage.
MARK = "mk"
MARK2 = "mk2"
MARK3 = "mk3"

BLANK = "s0"  # fresh second-track symbol of a simulation cell

BITS = ((0, 0), (0, 1), (1, 0), (1, 1))


def a_cell(sym: str) -> Cell:
    return ("A", sym)


def m_cell(b1: int, b2: int, sym: str) -> Cell:
    return ("M", b1, b2, sym)


def control(mode: int, state: str) -> Site:
    return ("Q", mode, state)


def is_control(site: Site) -> bool:
    return site[0] == "Q"


def cell_track2(cell: Cell) -> str:
    """Second-track symbol of a cell of either kind."""
    return cell[1] if cell[0] == "A" else cell[3]


class MalformedConfiguration(ValueError):
    pass


class NotReversible(ValueError):
    pass


@dataclass(frozen=True)
class SymbolSet:
    """Cell alphabet of a machine: simulation-track and amplification-track symbols."""

    m_track2: tuple  # second-track symbols available on M-cells
    a_track2: tuple  # second-track symbols available on A-cells

    def cells(self) -> list:
        out = [("A", a) for a in self.a_track2]
        out.extend(("M", b1, b2, s) for (b1, b2) in BITS for s in self.m_track2)
        return out

    def validate(self) -> list:
        problems = []
        if BLANK not in self.m_track2:
            problems.append("m_track2 must contain the blank symbol")
        if MARK not in self.m_track2:
            problems.append("m_track2 must contain the left-end marker")
        if MARK not in self.a_track2:
            problems.append("a_track2 must contain the left-end marker")
        return problems


@dataclass(frozen=True)
class ControlSet:
    """Control states with their shift classes.

    The two class sets must be disjoint and cover every state (unique
    direction property); violations are reported by ``validate_reversible``,
    and ``shift_class`` raises on a state with no class.
    """

    states: tuple
    plus: frozenset
    minus: frozenset

    def shift_class(self, state: str) -> str:
        if state in self.plus:
            return PLUS
        if state in self.minus:
            return MINUS
        raise NotReversible(f"state {state!r} has no shift class")

    def direction_problems(self) -> list:
        problems = [
            f"state {q!r} is in both shift classes +/-"
            for q in sorted(self.plus & self.minus)
        ]
        declared = self.plus | self.minus
        for q in self.states:
            if q not in declared:
                problems.append(f"state {q!r} has no shift class")
        return problems


@dataclass(frozen=True)
class MachineSpec:
    """Rule table plus structural data of a two-mode machine.

    ``rw_mode`` is the mode in which read-write rules fire; shifts happen in
    the other mode.  ``shift_enabled`` lists the states that may shift at
    all: a state that is never produced by a read-write rule cannot occur in
    shift mode along a legal run, and giving it no shift keeps legal initial
    configurations free of predecessors.
    """

    name: str
    symbols: SymbolSet
    control: ControlSet
    rules: Mapping  # (state, cell) -> (state', cell')
    rw_mode: int = MODE0
    shift_enabled: frozenset = frozenset()
    init_state: str = "boot"
    variant: str = "one-way-amp"
    stage_marks: Mapping = field(default_factory=dict)  # label -> state name

    def shift_mode(self) -> int:
        return 1 - self.rw_mode

    def rule_items(self):
        return sorted(self.rules.items(), key=lambda kv: repr(kv[0]))


@dataclass(frozen=True)
class ValidationReport:
    collisions: tuple
    direction_violations: tuple
    structural: tuple

    def ok(self) -> bool:
        return not (self.collisions or self.direction_violations or self.structural)

    def summary(self) -> str:
        if self.ok():
            return "reversible"
        lines = list(self.structural)
        lines += [f"collision: {c}" for c in self.collisions]
        lines += [f"direction: {d}" for d in self.direction_violations]
        return "; ".join(lines)


@dataclass(frozen=True)
class Configuration:
    cells: tuple
    boundary: str = "periodic"  # or "open"

    def __post_init__(self):
        if self.boundary not in ("periodic", "open"):
            raise MalformedConfiguration(f"unknown boundary {self.boundary!r}")

    @property
    def size(self) -> int:
        return len(self.cells)

    def control_sites(self) -> list:
        return [i for i, x in enumerate(self.cells) if is_control(x)]

    def single_control(self) -> int:
        sites = self.control_sites()
        if len(sites) != 1:
            raise MalformedConfiguration(
                f"expected exactly one control site, found {len(sites)}"
            )
        return sites[0]


@dataclass(frozen=True)
class Orbit:
    """Maximal forward trajectory of a configuration under the step map.

    ``terminal`` is ("dead_end", J), ("cycle", period) or ("truncated", n).
    States are pairwise distinct except for the cycle closure, which is not
    stored twice.
    """

    states: tuple
    terminal: tuple

    @property
    def length(self) -> int:
        return len(self.states)

    @property
    def kind(self) -> str:
        return self.terminal[0]


# ---------------------------------------------------------------------------
# Validation and inversion
# ---------------------------------------------------------------------------


def validate_reversible(spec: MachineSpec) -> ValidationReport:
    """Scan the rule table for injectivity collisions and direction violations."""
    structural = list(spec.symbols.validate())
    known_cells = set(spec.symbols.cells())
    seen_targets = {}
    collisions = []
    for src, dst in spec.rule_items():
        q, cell = src
        q2, cell2 = dst
        if q not in spec.control.states or q2 not in spec.control.states:
            structural.append(f"rule {src}->{dst} uses an undeclared state")
        if cell not in known_cells or cell2 not in known_cells:
            structural.append(f"rule {src}->{dst} uses an undeclared cell symbol")
        if cell[0] != cell2[0]:
            structural.append(f"rule {src}->{dst} changes the cell kind")
        if cell[0] == "M" and cell2[0] == "M" and cell[1:3] != cell2[1:3]:
            structural.append(f"rule {src}->{dst} rewrites a read-only bit pair")
        if dst in seen_targets:
            collisions.append(f"{seen_targets[dst]} and {src} both map to {dst}")
        else:
            seen_targets[dst] = src
    direction = spec.control.direction_problems()
    return ValidationReport(tuple(collisions), tuple(direction), tuple(structural))


def require_reversible(spec: MachineSpec) -> None:
    """Raise NotReversible with the report summary unless ``spec`` validates."""
    report = validate_reversible(spec)
    if not report.ok():
        raise NotReversible(report.summary())


def invert(spec: MachineSpec) -> MachineSpec:
    """Machine that undoes one step of ``spec`` per step.

    Read-write rules become their inverse relation, shift classes flip sign
    and the roles of the two modes swap, so running the result forward walks
    the original trajectory backward.
    """
    require_reversible(spec)
    inv_rules = {dst: src for src, dst in spec.rules.items()}
    ctrl = ControlSet(
        states=spec.control.states, plus=spec.control.minus, minus=spec.control.plus
    )
    name = spec.name[:-4] if spec.name.endswith("~inv") else spec.name + "~inv"
    return replace(
        spec,
        name=name,
        control=ctrl,
        rules=inv_rules,
        rw_mode=spec.shift_mode(),
    )


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------


def step(spec: MachineSpec, config: Configuration):
    """One machine step on a single-control configuration.

    Returns the next Configuration, or None when there is none.  Raises
    MalformedConfiguration when the control site is missing or duplicated.
    """
    i = config.single_control()
    cells = config.cells
    n = len(cells)
    _, mode, q = cells[i]

    def site(k):
        if config.boundary == "periodic":
            return k % n
        return k if 0 <= k < n else None

    if mode == spec.rw_mode:
        r = site(i + 1)
        if r is None:
            return None  # tape exhausted at the open boundary
        target = cells[r]
        if is_control(target):
            return None  # adjacent control: blocks never interact
        rule = spec.rules.get((q, target))
        if rule is None:
            return None
        q2, cell2 = rule
        new = list(cells)
        new[i] = control(1 - mode, q2)
        new[r] = cell2
        return Configuration(tuple(new), config.boundary)

    # shift mode
    if q not in spec.shift_enabled:
        return None
    j = site(i + 1) if spec.control.shift_class(q) == PLUS else site(i - 1)
    if j is None:
        return None  # shifted off the open lattice
    if is_control(cells[j]):
        return None
    new = list(cells)
    new[j] = control(1 - mode, q)
    new[i] = cells[j]
    return Configuration(tuple(new), config.boundary)


def orbit_of(successor, config: Configuration, max_steps: int) -> Orbit:
    """Iterate ``successor`` (next configuration or None) until a dead end, a
    repeat, or the step budget.

    Visited configurations are kept in a hash set keyed by the full cell
    tuple; on a hash hit the closure is confirmed by tuple equality, and by
    injectivity the repeat can only be the initial configuration.
    """
    states = [config]
    seen = {config.cells: 0}
    current = config
    for _ in range(max_steps):
        current = successor(current)
        if current is None:
            return Orbit(tuple(states), ("dead_end", len(states)))
        hit = seen.get(current.cells)
        if hit is not None:
            if hit != 0:  # pragma: no cover - impossible for injective maps
                raise AssertionError("re-entry into the middle of an orbit")
            return Orbit(tuple(states), ("cycle", len(states)))
        seen[current.cells] = len(states)
        states.append(current)
    return Orbit(tuple(states), ("truncated", len(states)))


def run_orbit(spec: MachineSpec, config: Configuration, max_steps: int) -> Orbit:
    """Orbit of ``config`` under ``step``, the reference route."""
    return orbit_of(lambda cfg: step(spec, cfg), config, max_steps)


# ---------------------------------------------------------------------------
# Streaming runner: exact per-step symbol statistics without storing
# configurations.  Used for long amplification runs (thousands of sites,
# millions of steps).
# ---------------------------------------------------------------------------


@dataclass
class RunStats:
    """Exact bookkeeping of one forward run of length J (configurations 1..J).

    ``total_steps_by_value`` maps each site value v to Σ_{j=1..J} (number of
    sites holding v in configuration j).  ``first_hist`` and ``last_hist`` are
    the site-value counts of configurations 1 and J.  ``change_steps``
    records, for each tracked second-track symbol, the steps j at which its
    site count grew.  ``stage_entry_steps`` maps an instrumentation label to
    the first step j whose configuration has the control in the labelled
    state.
    """

    length: int
    terminal: str
    total_steps_by_value: dict
    first_hist: dict
    last_hist: dict
    change_steps: dict
    stage_entry_steps: dict


def run_stats(
    spec: MachineSpec,
    config: Configuration,
    max_steps: int,
    track_increments: Sequence[str] = (),
) -> RunStats:
    """Run forward by ``compile_machine``'s pair maps, counting exactly.

    Site values are coded by ``LocalHamiltonian.encode`` and the lattice is a
    ``bytearray`` of those codes, one byte per site, so a machine with more
    than 256 site values is refused with ``DimensionGuard`` before any step.
    Almost every step belongs to a glide: identity read-write steps
    alternating with shifts across the cells they leave unchanged.  A glide
    keeps the cell multiset and the control state fixed, so it costs one
    ``lstrip``/``rstrip`` of the lattice by the codes it passes, which finds
    the cell that ends it, and one slice move of the cells it passes; the
    statistics follow from per-value counts times durations.  Every other
    step is one plain Python step on ints: O(events) Python steps plus O(n)
    bytes work per glide.

    A "+" state glides from read-write mode and reads each cell it passes; a
    "-" state glides from shift mode and reads each cell right after pulling
    it past.  A glide stops before the cell that ends it, at the lattice end
    or the periodic seam, at the step budget, and before the control would
    reach the site of the start's predecessor in that predecessor's state,
    where the loop checks for cycle closure.
    """
    from .hamiltonian import (  # imports this module
        DimensionGuard,
        apply_update_dagger,
        compile_machine,
    )

    i0 = config.single_control()
    h = compile_machine(spec, config.boundary)
    values = h.site_values
    V = len(values)
    if V > 256:
        raise DimensionGuard(f"{V} site values exceed the 256 of the byte lattice")
    codes = h.encode([config.cells], np.uint8)[0]
    lat = bytearray(codes)
    n = len(lat)
    periodic = config.boundary == "periodic"

    move, jump, ok, at_i, at_k, other, _ = h.step_table  # the pair maps in codes
    state_of = {k: v[2] for k, v in enumerate(values) if v[0] == "Q"}

    # the orbit is a cycle exactly when it reaches the start's predecessor
    prev = apply_update_dagger(h, config)
    if prev is None:
        i_prev, c_prev, q_prev, lat_prev = -1, -1, None, None
    else:
        lat_prev = h.encode([prev.cells], np.uint8)[0].tobytes()
        i_prev = prev.single_control()
        c_prev = lat_prev[i_prev]
        q_prev = state_of[c_prev]

    # glide-starting control -> (direction, codes read by identity, whether
    # the glide must stop short of the predecessor's control site)
    glides = [None] * V
    for c_sh in np.flatnonzero(jump).tolist():
        c_rw = other[c_sh]
        row = ok[c_rw] & (at_i[c_rw] == c_sh) & (at_k[c_rw] == np.arange(V))
        if row.any():
            glides[c_rw if move[c_sh] > 0 else c_sh] = (
                int(move[c_sh]), bytes(np.flatnonzero(row).tolist()), state_of[c_rw] == q_prev)
    move, jump, ok, at_i, at_k = (a.tolist() for a in (move, jump, ok, at_i, at_k))

    count = np.bincount(codes, minlength=V).tolist()
    first_hist = {values[k]: m for k, m in enumerate(count) if m}
    c = lat[i0]
    count[c] -= 1  # cells only: the control is accounted per state segment
    count_start = [1] * V  # configuration from which count[v] has held
    totals = [0] * V
    seg_start, seg_code = 1, c  # control state unchanged since seg_start
    track2 = [None if v[0] == "Q" else cell_track2(v) for v in values]
    track = {s: [] for s in track_increments}
    label_of_state = {v: k for k, v in spec.stage_marks.items()}
    marks = {}
    if state_of[c] in label_of_state:
        marks[label_of_state[state_of[c]]] = 1

    i = i0
    j = 1
    terminal = "truncated"
    while j <= max_steps:
        if i == i_prev and c == c_prev and lat == lat_prev:
            terminal = "cycle"
            break
        glide = glides[c]
        if glide is not None:
            d, row, guard = glide
            if d > 0 and i + 1 < n and lat[i + 1] in row:
                hi = min(n, i + 1 + (max_steps - j + 1) // 2)  # the budget's glide pairs
                if guard and i_prev >= i:
                    hi = min(hi, i_prev)
                if hi > i + 1:
                    run = lat[i + 1:hi]
                    g = len(run) - len(run.lstrip(row))
                    lat[i:i + g] = lat[i + 1:i + g + 1]
                    i += g
                    lat[i] = c
                    j += 2 * g
                    continue
            elif d < 0 and i > 0 and lat[i - 1] in row:
                lo = max(0, i - (max_steps - j + 1) // 2)
                if guard and i_prev < i:
                    lo = max(lo, i_prev + 1)
                if lo < i:
                    run = lat[lo:i]
                    g = len(run) - len(run.rstrip(row))
                    lat[i - g + 1:i + 1] = lat[i - g:i]
                    i -= g
                    lat[i] = c
                    j += 2 * g
                    continue
        # one plain step, by the rule of dynamics.lockstep_orbits
        k = i + move[c]
        if periodic:
            k %= n
        elif not 0 <= k < n:
            terminal = "dead_end"
            break
        old = lat[k]
        # k == i: no move, or a one-site ring's control would meet itself
        if k == i or not ok[c][old]:
            terminal = "dead_end"
            break
        c2, new = at_i[c][old], at_k[c][old]
        j += 1
        lat[i] = c2
        lat[k] = new
        if jump[c]:  # a shift: the cell moves to i, the control on to k
            i, c = k, new
            continue
        if new != old:
            for v, dv in ((old, -1), (new, 1)):
                totals[v] += count[v] * (j - count_start[v])
                count[v] += dv
                count_start[v] = j
            t2 = track2[new]
            if t2 in track and track2[old] != t2:
                track[t2].append(j)
        if state_of[c2] != state_of[c]:
            span = j - seg_start  # modes alternate, starting with seg_code
            totals[seg_code] += (span + 1) // 2
            totals[other[seg_code]] += span // 2
            seg_start, seg_code = j, c2
            label = label_of_state.get(state_of[c2])
            if label is not None and label not in marks:
                marks[label] = j
        c = c2

    J = j
    span = J + 1 - seg_start
    totals[seg_code] += (span + 1) // 2
    totals[other[seg_code]] += span // 2
    for v in range(V):
        totals[v] += count[v] * (J + 1 - count_start[v])
    count[c] += 1
    return RunStats(
        length=J,
        terminal=terminal,
        total_steps_by_value={values[v]: t for v, t in enumerate(totals) if t},
        first_hist=first_hist,
        last_hist={values[v]: m for v, m in enumerate(count) if m},
        change_steps=track,
        stage_entry_steps=marks,
    )


# ---------------------------------------------------------------------------
# Amplification statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AmplificationStats:
    """Counts of a second-track symbol along an orbit."""

    counts: tuple  # N(j) for j = 1..J
    average: Fraction  # (1/J) Σ_j N(j) / (number of sites)

    @property
    def total(self) -> int:
        return sum(self.counts)


def amplification_stats(orbit: Orbit, track2_symbol: str) -> AmplificationStats:
    if orbit.kind == "truncated":
        raise ValueError("amplification statistics need a complete orbit")
    counts = []
    for cfg in orbit.states:
        c = 0
        for x in cfg.cells:
            if not is_control(x) and cell_track2(x) == track2_symbol:
                c += 1
        counts.append(c)
    J = len(counts)
    n_sites = orbit.states[0].size
    avg = Fraction(sum(counts), J * n_sites)
    return AmplificationStats(tuple(counts), avg)


def stats_average(stats: RunStats, track2_symbol: str, n_sites: int) -> Fraction:
    """(1/J) Σ_j N_sym(j) / n_sites from a streaming run, exact."""
    total = 0
    for value, duration in stats.total_steps_by_value.items():
        if value[0] != "Q" and cell_track2(value) == track2_symbol:
            total += duration
    return Fraction(total, stats.length * n_sites)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def cell_to_tag(x: Site) -> str:
    if x[0] == "Q":
        return f"Q:{x[1]}:{x[2]}"
    if x[0] == "A":
        return f"A:{x[1]}"
    return f"M:{x[1]}{x[2]}:{x[3]}"


def tag_to_cell(tag: str) -> Site:
    kind, rest = tag.split(":", 1)
    if kind == "Q":
        mode, state = rest.split(":", 1)
        return control(int(mode), state)
    if kind == "A":
        return a_cell(rest)
    bits, sym = rest.split(":", 1)
    return m_cell(int(bits[0]), int(bits[1]), sym)


def spec_to_json(spec: MachineSpec) -> dict:
    return {
        "name": spec.name,
        "variant": spec.variant,
        "rw_mode": spec.rw_mode,
        "init_state": spec.init_state,
        "states": list(spec.control.states),
        "shift_plus": sorted(spec.control.plus),
        "shift_minus": sorted(spec.control.minus),
        "shift_enabled": sorted(spec.shift_enabled),
        "m_track2": list(spec.symbols.m_track2),
        "a_track2": list(spec.symbols.a_track2),
        "rules": [
            [src[0], cell_to_tag(src[1]), dst[0], cell_to_tag(dst[1])]
            for src, dst in spec.rule_items()
        ],
        "stage_marks": dict(spec.stage_marks),
    }


def spec_from_json(data: dict) -> MachineSpec:
    if data.get("shift_zero"):
        raise ValueError("stay-in-place shift class (shift_zero) is not supported")
    rules = {}
    for q, ctag, q2, ctag2 in data["rules"]:
        rules[(q, tag_to_cell(ctag))] = (q2, tag_to_cell(ctag2))
    return MachineSpec(
        name=data["name"],
        symbols=SymbolSet(tuple(data["m_track2"]), tuple(data["a_track2"])),
        control=ControlSet(
            states=tuple(data["states"]),
            plus=frozenset(data["shift_plus"]),
            minus=frozenset(data["shift_minus"]),
        ),
        rules=rules,
        rw_mode=data["rw_mode"],
        shift_enabled=frozenset(data["shift_enabled"]),
        init_state=data["init_state"],
        variant=data["variant"],
        stage_marks=dict(data.get("stage_marks", {})),
    )


def save_spec(spec: MachineSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(spec_to_json(spec), fh, indent=1, sort_keys=True)


def load_spec(path) -> MachineSpec:
    """Read a spec file, refusing a spec that ``validate_reversible`` rejects."""
    with open(path) as fh:
        spec = spec_from_json(json.load(fh))
    require_reversible(spec)
    return spec


def orbit_to_jsonl(orbit: Orbit) -> str:
    lines = []
    for j, cfg in enumerate(orbit.states, start=1):
        lines.append(
            json.dumps(
                {"j": j, "cells": [cell_to_tag(x) for x in cfg.cells]},
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"
