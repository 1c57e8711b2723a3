"""Builder for the staged machine: mark, decode, simulate, amplify.

The staged machine boots by marking the left end of its tape, optionally
scans for the length marker encoded in the second bits of simulation cells
(the decode stage), runs an embedded inner machine on the simulation cells
while skipping amplification cells, and, if the inner machine halts, enters
an amplification stage that rewrites amplification cells from a1 to a2.

Three amplification variants are provided:

* ``one-way-amp``  - sweep right once, flipping a1 to a2, until the marked
  cell is re-read (dead end).
* ``two-way-amp``  - alternate right and left frontiers around the marked
  cell, using a3 as the in-flight symbol and rewriting the marker so it can
  be crossed.
* ``iid-repeat-amp`` - between consecutive flips, re-run the decode and
  simulation stages in a primed copy of their states.

Every rule preserves the cell kind and the read-only bit pair, so the
machine never creates or destroys simulation cells and never touches the
encoded input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .machine import (
    BITS,
    BLANK,
    MARK,
    MARK2,
    MARK3,
    MINUS,
    PLUS,
    ControlSet,
    MachineSpec,
    SymbolSet,
    a_cell,
    m_cell,
    require_reversible,
)

ONE_WAY = "one-way-amp"
TWO_WAY = "two-way-amp"
IID = "iid-repeat-amp"
VARIANTS = (ONE_WAY, TWO_WAY, IID)


@dataclass(frozen=True)
class InnerMachine:
    """Simulation-stage machine embedded between decode and amplification.

    ``halt_state`` must be a left-moving state whose walk ends at the marked
    cell; the builder attaches the variant's amplification entry there.  A
    ``None`` halt state means the machine never hands over (non-halting
    fixture).
    """

    name: str
    classes: dict  # state -> shift class
    init_state: str
    halt_state: str
    work_symbols: tuple
    rules: dict


def _mark_cells(syms: str = MARK):
    """The marked cell in either kind: one A version, four M versions."""
    return [a_cell(syms)] + [m_cell(b1, b2, syms) for b1, b2 in BITS]


def _m_blank(b2=None):
    if b2 is None:
        return [m_cell(b1, bb2, BLANK) for b1, bb2 in BITS]
    return [m_cell(b1, b2, BLANK) for b1 in (0, 1)]


def _ident(rules, state, cells):
    for c in cells:
        rules[(state, c)] = (state, c)


# ---------------------------------------------------------------------------
# Inner fixtures
# ---------------------------------------------------------------------------


def halt_now(a_pass) -> InnerMachine:
    """Halts after reading a single cell, whatever it holds."""
    rules = {}
    readable = [a_cell(a) for a in a_pass] + _m_blank()
    for c in readable:
        rules[("go", c)] = ("back", c)
    return InnerMachine(
        name="halt_now",
        classes={"go": PLUS, "back": MINUS},
        init_state="go",
        halt_state="back",
        work_symbols=(),
        rules=rules,
    )


def ping_pong(a_pass) -> InnerMachine:
    """Drifts right forever; on a finite tape it dies re-reading the marker."""
    rules = {}
    _ident(rules, "drift", [a_cell(a) for a in a_pass] + _m_blank())
    return InnerMachine(
        name="ping_pong",
        classes={"drift": PLUS},
        init_state="drift",
        halt_state=None,
        work_symbols=(),
        rules=rules,
    )


def counter(a_pass) -> InnerMachine:
    """Converts every zero-bit simulation cell in round trips; halts at the
    first cell with second bit 1.

    With k convertible cells before that end marker the run takes Theta(k^2)
    steps, which is the knob for making the pre-amplification phase long.
    The conversion leaves c0/c1 symbols behind, so this fixture is not
    suitable for the re-running variant.  A configuration whose first
    simulation cell already has second bit 1 has no successor here.
    """
    rules = {}
    A = [a_cell(a) for a in a_pass]
    s0_0 = _m_blank(b2=0)
    end = _m_blank(b2=1)

    def mc(sym, b2=0):
        return [m_cell(b1, b2, sym) for b1 in (0, 1)]

    _ident(rules, "seek", A)
    for c in s0_0:
        rules[("seek", c)] = ("ret", m_cell(c[1], c[2], "f0"))
    _ident(rules, "ret", A)
    _ident(rules, "go", A)
    for c in mc("f0"):
        rules[("go", c)] = ("seek2", m_cell(c[1], c[2], "c0"))
    _ident(rules, "seek2", A)
    for c in s0_0:
        rules[("seek2", c)] = ("ret2", m_cell(c[1], c[2], "f"))
    for c in end:
        rules[("seek2", c)] = ("dn", c)
    _ident(rules, "ret2", A + mc("c0") + mc("c1"))
    _ident(rules, "go2", A + mc("c0") + mc("c1"))
    for c in mc("f"):
        rules[("go2", c)] = ("seek2", m_cell(c[1], c[2], "c1"))
    _ident(rules, "dn", A + mc("c0") + mc("c1"))
    # round-trip turns at the marked cell
    for c in _mark_cells():
        rules[("ret", c)] = ("go", c)
        rules[("ret2", c)] = ("go2", c)
    return InnerMachine(
        name="counter",
        classes={
            "seek": PLUS,
            "ret": MINUS,
            "go": PLUS,
            "seek2": PLUS,
            "ret2": MINUS,
            "go2": PLUS,
            "dn": MINUS,
        },
        init_state="seek",
        halt_state="dn",
        work_symbols=("f0", "c0", "f", "c1"),
        rules=rules,
    )


FIXTURES = {"halt_now": halt_now, "ping_pong": ping_pong, "counter": counter}


# ---------------------------------------------------------------------------
# Stage assembly
# ---------------------------------------------------------------------------


def _prefixed(inner: InnerMachine, prefix: str) -> InnerMachine:
    ren = {q: prefix + q for q in inner.classes}
    return InnerMachine(
        name=prefix + inner.name,
        classes={ren[q]: c for q, c in inner.classes.items()},
        init_state=ren[inner.init_state],
        halt_state=ren[inner.halt_state] if inner.halt_state else None,
        work_symbols=inner.work_symbols,
        rules={(ren[q], c): (ren[q2], c2) for (q, c), (q2, c2) in inner.rules.items()},
    )


def _decode_rules(rules, classes, a_pass, s_pass, scan, rewind, exit_state):
    """Length-marker scan: right to the first second-bit-1 cell, back to the
    marked cell, then hand over.  Nothing is rewritten."""
    classes[scan] = PLUS
    classes[rewind] = MINUS
    A = [a_cell(a) for a in a_pass]
    passive = [m_cell(b1, 0, s) for b1 in (0, 1) for s in s_pass]
    _ident(rules, scan, A + passive)
    for c in _m_blank(b2=1):
        rules[(scan, c)] = (rewind, c)
    _ident(rules, rewind, A + passive)
    for c in _mark_cells():
        rules[(rewind, c)] = (exit_state, c)


def build_staged_machine(
    inner_name: str,
    variant: str,
    include_decode: bool = True,
) -> MachineSpec:
    """Assemble the four-stage machine around a named inner fixture;
    ``NotReversible`` if the assembly is not reversible."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    factory = FIXTURES[inner_name]
    a_plain = ("a1", "a2", "a3") if variant in (TWO_WAY, IID) else ("a1", "a2")
    inner = factory(a_plain)
    if variant == IID and inner.halt_state is not None:
        re_inner = _prefixed(inner, "re.")
    else:
        re_inner = None

    a_track2 = a_plain + ((MARK, MARK2, MARK3) if variant == TWO_WAY else (MARK,))
    m_track2 = (BLANK,) + tuple(inner.work_symbols) + (
        (MARK, MARK2, MARK3) if variant == TWO_WAY else (MARK,)
    )
    symbols = SymbolSet(m_track2=m_track2, a_track2=a_track2)

    rules = {}
    classes = {"boot": PLUS}
    s_pass = (BLANK,) + tuple(inner.work_symbols)
    stage_marks = {}

    def wire_front(scan, rewind, target):
        """boot or re-entry side of decode"""
        if include_decode:
            _decode_rules(rules, classes, a_plain, s_pass, scan, rewind, target)
            return scan
        return target

    # stage 1: mark the first cell
    first = wire_front("scan", "rewind", inner.init_state)
    rules[("boot", a_cell("a1"))] = (first, a_cell(MARK))
    for b1, b2 in BITS:
        rules[("boot", m_cell(b1, b2, BLANK))] = (first, m_cell(b1, b2, MARK))

    # stage 3: the inner machine
    classes.update(inner.classes)
    rules.update(inner.rules)

    # stage 4 wiring
    if inner.halt_state is not None:
        if variant == ONE_WAY:
            classes["amp"] = PLUS
            for c in _mark_cells():
                rules[(inner.halt_state, c)] = ("amp", c)
            rules[("amp", a_cell("a1"))] = ("amp", a_cell("a2"))
            _ident(rules, "amp", [m_cell(b1, b2, s) for b1, b2 in BITS for s in s_pass])
            stage_marks["amp_entry"] = "amp"
        elif variant == TWO_WAY:
            classes.update(
                {"amp_r0": PLUS, "amp_r1": PLUS, "amp_l2": MINUS, "amp_l3": MINUS}
            )
            for c in _mark_cells():
                rules[(inner.halt_state, c)] = (
                    "amp_r1",
                    c[:1] + c[1:-1] + (MARK3,) if c[0] == "M" else a_cell(MARK3),
                )
            m_skip = [m_cell(b1, b2, s) for b1, b2 in BITS for s in s_pass]
            _ident(rules, "amp_r0", [a_cell("a1"), a_cell("a2")] + _mark_cells(MARK2) + m_skip)
            rules[("amp_r0", a_cell("a3"))] = ("amp_r1", a_cell("a2"))
            _ident(rules, "amp_r1", m_skip)
            rules[("amp_r1", a_cell("a1"))] = ("amp_l2", a_cell("a3"))
            _ident(rules, "amp_l2", [a_cell("a1"), a_cell("a2")] + _mark_cells(MARK2) + m_skip)
            rules[("amp_l2", a_cell("a3"))] = ("amp_l3", a_cell("a2"))
            for c in _mark_cells(MARK3):
                rules[("amp_l2", c)] = (
                    "amp_l3",
                    c[:1] + c[1:-1] + (MARK2,) if c[0] == "M" else a_cell(MARK2),
                )
            _ident(rules, "amp_l3", m_skip)
            rules[("amp_l3", a_cell("a1"))] = ("amp_r0", a_cell("a3"))
            stage_marks["amp_entry"] = "amp_r1"
        else:  # IID
            classes.update({"amp0": PLUS, "amp1": PLUS, "amp2": MINUS})
            for c in _mark_cells():
                rules[(inner.halt_state, c)] = ("amp1", c)
            m_skip = [m_cell(b1, b2, s) for b1, b2 in BITS for s in s_pass]
            _ident(rules, "amp0", [a_cell("a2")] + m_skip)
            rules[("amp0", a_cell("a3"))] = ("amp1", a_cell("a2"))
            _ident(rules, "amp1", m_skip)
            rules[("amp1", a_cell("a1"))] = ("amp2", a_cell("a3"))
            _ident(rules, "amp2", [a_cell("a2")] + m_skip)
            re_first = wire_front("re.scan", "re.rewind", re_inner.init_state)
            for c in _mark_cells():
                rules[("amp2", c)] = (re_first, c)
            classes.update(re_inner.classes)
            rules.update(re_inner.rules)
            for c in _mark_cells():
                rules[(re_inner.halt_state, c)] = ("amp0", c)
            stage_marks["amp_entry"] = "amp1"
            stage_marks["flip_ready"] = "amp0"

    shift_enabled = frozenset(q2 for q2, _ in rules.values())
    states = tuple(sorted(classes))
    spec = MachineSpec(
        name=f"{inner.name}.{variant}" + ("" if include_decode else ".nodecode"),
        symbols=symbols,
        control=ControlSet(
            states=states,
            plus=frozenset(q for q in states if classes[q] == PLUS),
            minus=frozenset(q for q in states if classes[q] == MINUS),
        ),
        rules=rules,
        rw_mode=0,
        shift_enabled=shift_enabled,
        init_state="boot",
        variant=variant,
        stage_marks=stage_marks,
    )
    require_reversible(spec)
    return spec


def shuttle_machine() -> MachineSpec:
    """Minimal machine whose control glides around the ring forever.

    Started from a marker-free configuration it realizes a cyclic orbit of
    period 2(L+1); it is the cycle fixture and never halts.
    """
    rules = {}
    cells = [a_cell("a1"), a_cell("a2")] + _m_blank()
    _ident(rules, "glide", cells)
    symbols = SymbolSet(m_track2=(BLANK, MARK), a_track2=("a1", "a2", MARK))
    spec = MachineSpec(
        name="shuttle",
        symbols=symbols,
        control=ControlSet(states=("glide",), plus=frozenset({"glide"}), minus=frozenset()),
        rules=rules,
        rw_mode=0,
        shift_enabled=frozenset({"glide"}),
        init_state="glide",
        variant=ONE_WAY,
    )
    require_reversible(spec)
    return spec
