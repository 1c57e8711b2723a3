"""Local update operator U and Hamiltonian H = U + U† on the lattice.

U is kept as a partial injection on the configuration basis, represented by
two-site pair maps: read-write pairs act on (control site, cell to its
right); shift pairs swap the control with a neighbour.  H is never
materialized on the full tensor space; dense linear algebra happens only on
the subspace reachable from a seed set of configurations, which for a legal
initial configuration is exactly its orbit.

``apply_update`` and ``LocalHamiltonian.step_table`` (the pair maps in
site-value codes, which ``machine.run_stats`` and ``dynamics.coded_orbit``
step through) deliberately re-implement the stepping mechanics from the pair
maps alone, so agreement with ``machine.step`` is a two-route check of the
compilation, not a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .machine import (
    MARK,
    MINUS,
    PLUS,
    Configuration,
    MachineSpec,
    MalformedConfiguration,
    NotReversible,
    Orbit,
    cell_to_tag,
    is_control,
    require_reversible,
    tag_to_cell,
)


class TruncatedOrbit(ValueError):
    pass


class DimensionGuard(ValueError):
    pass


class StepTable(NamedTuple):
    """The pair maps over site-value codes, for the integer steppers."""

    rw_next: dict  # (control, cell) -> (control', cell')
    shift_next: dict  # shift-mode control -> (read-write control, +1 or -1)
    other: dict  # control -> the same state's control in the other mode
    is_control: np.ndarray  # bool per site-value code


@dataclass(frozen=True)
class LocalHamiltonian:
    """Pair maps of the one-step isometry, plus shift metadata."""

    site_values: tuple  # every value a site can hold (cells and controls)
    rw_mode: int
    u0_pairs: dict  # ((mode,q), cell) -> ((mode',q'), cell')
    shift_dirs: dict  # state -> "+" | "-", for the shift-enabled states only
    boundary: str = "periodic"  # as compiled; each configuration steps under its own

    @property
    def site_dim(self) -> int:
        return len(self.site_values)

    @cached_property
    def u0_inverse(self) -> dict:
        """Read-write pairs looked up by their target, for the adjoint."""
        return {dst: src for src, dst in self.u0_pairs.items()}

    @cached_property
    def value_code(self) -> dict:
        """Site value -> its index in ``site_values``: the one site-value code."""
        return {v: i for i, v in enumerate(self.site_values)}

    def encode(self, rows, dtype=np.intp) -> np.ndarray:
        """(rows, sites) array of the codes of configuration rows (sequences of
        site values); a value outside ``site_values`` is a malformed input."""
        code = self.value_code
        try:
            return np.array([[code[x] for x in row] for row in rows], dtype=dtype)
        except KeyError as exc:
            raise MalformedConfiguration(
                f"site value {exc.args[0]!r} is not in the machine's site alphabet"
            ) from None

    def value_index(self, value) -> int:
        return int(self.encode([[value]])[0, 0])

    @cached_property
    def step_table(self) -> StepTable:
        """The pair maps in site-value codes, built once per Hamiltonian."""
        code = self.value_code
        controls = {k: v for k, v in enumerate(self.site_values) if is_control(v)}
        other = {k: code[("Q", 1 - m, q)] for k, (_, m, q) in controls.items()}
        rw_next = {
            (code[("Q",) + src], code[cell]): (code[("Q",) + dst], code[cell2])
            for (src, cell), (dst, cell2) in self.u0_pairs.items()
        }
        shift_next = {}
        for q, d in self.shift_dirs.items():
            c_rw = code[("Q", self.rw_mode, q)]
            shift_next[other[c_rw]] = (c_rw, 1 if d == PLUS else -1)
        is_ctrl = np.zeros(self.site_dim, dtype=bool)
        is_ctrl[list(controls)] = True
        return StepTable(rw_next, shift_next, other, is_ctrl)


def compile_machine(spec: MachineSpec, boundary: str = "periodic") -> LocalHamiltonian:
    """Compile a reversible machine into local pair maps."""
    require_reversible(spec)
    u0 = {}
    for (q, cell), (q2, cell2) in spec.rules.items():
        t2 = cell[1] if cell[0] == "A" else cell[3]
        if t2 == MARK and q in spec.control.plus:
            raise NotReversible(
                "read-write pair from a right-moving state onto the marked cell"
            )
        u0[((spec.rw_mode, q), cell)] = ((spec.shift_mode(), q2), cell2)
    dirs = {q: spec.control.shift_class(q) for q in sorted(spec.shift_enabled)}
    values = tuple(spec.symbols.cells()) + tuple(
        ("Q", m, q) for m in (0, 1) for q in spec.control.states
    )
    return LocalHamiltonian(
        site_values=values,
        rw_mode=spec.rw_mode,
        u0_pairs=u0,
        shift_dirs=dirs,
        boundary=boundary,
    )


def _apply_at(h: LocalHamiltonian, cells, i, boundary, dagger=False):
    """Apply the (possibly adjoint) update at control site i; None if null.

    Sites wrap under the configuration's own ``boundary``, as in
    ``machine.step``, so an open block steps as open on any ``h``.
    """
    n = len(cells)

    def site(k):
        if boundary == "periodic":
            return k % n
        return k if 0 <= k < n else None

    _, mode, q = cells[i]
    # U acts as read-write in the read-write mode; U† undoes one from the other
    if (mode == h.rw_mode) != dagger:
        r = site(i + 1)
        if r is None or is_control(cells[r]):
            return None
        hit = (h.u0_inverse if dagger else h.u0_pairs).get(((mode, q), cells[r]))
        if hit is None:
            return None
        (m2, q2), cell2 = hit
        out = list(cells)
        out[i] = ("Q", m2, q2)
        out[r] = cell2
        return tuple(out)
    d = h.shift_dirs.get(q)
    if d is None:
        return None
    # a "+" shift moves the control right; undoing it moves it back left
    j = site(i + 1) if (d == PLUS) != dagger else site(i - 1)
    if j is None or is_control(cells[j]):
        return None
    out = list(cells)
    out[j] = ("Q", 1 - mode, q)
    out[i] = cells[j]
    return tuple(out)


def apply_update(h: LocalHamiltonian, config: Configuration):
    """U applied to a single-control basis configuration; None where U|x> = 0."""
    out = _apply_at(h, config.cells, config.single_control(), config.boundary)
    return None if out is None else Configuration(out, config.boundary)


def apply_update_dagger(h: LocalHamiltonian, config: Configuration):
    """U† applied to a single-control basis configuration; None where U†|x> = 0."""
    out = _apply_at(h, config.cells, config.single_control(), config.boundary, True)
    return None if out is None else Configuration(out, config.boundary)


def _branches(h: LocalHamiltonian, cells, boundary, dagger):
    outs = []
    for i, x in enumerate(cells):
        if is_control(x):
            out = _apply_at(h, cells, i, boundary, dagger=dagger)
            if out is not None:
                outs.append(out)
    return outs


@dataclass
class ReachableSpace:
    """Basis closure of a seed set under U and U†, with U as a sparse matrix.

    ``basis`` lists cell tuples; ``u_target[k]`` is the index of U|k> per
    control site (several entries when several blocks can step), so the U
    matrix has entries U[t, k] = 1 for t in u_target[k].
    """

    basis: list
    index: dict
    u_edges: list  # list of (source_idx, target_idx)
    boundary: str

    @property
    def dim(self):
        return len(self.basis)

    def u_matrix(self) -> np.ndarray:
        m = np.zeros((self.dim, self.dim))
        for k, t in self.u_edges:
            m[t, k] = 1.0
        return m

    def h_matrix(self) -> np.ndarray:
        u = self.u_matrix()
        return u + u.T


def reachable_space(
    h: LocalHamiltonian, seeds: Iterable[Configuration], guard: int = 1 << 20
) -> ReachableSpace:
    """Breadth-first closure under both U and U† starting from the seeds."""
    basis = []
    index = {}
    boundary = None
    frontier = []
    for cfg in seeds:
        if boundary is None:
            boundary = cfg.boundary
        if cfg.cells not in index:
            index[cfg.cells] = len(basis)
            basis.append(cfg.cells)
            frontier.append(cfg.cells)
    edges = set()
    while frontier:
        cells = frontier.pop()
        k = index[cells]
        for t_cells in _branches(h, cells, boundary, dagger=False):
            if t_cells not in index:
                if len(basis) >= guard:
                    raise DimensionGuard(f"reachable subspace exceeds {guard} states")
                index[t_cells] = len(basis)
                basis.append(t_cells)
                frontier.append(t_cells)
            edges.add((k, index[t_cells]))
        for s_cells in _branches(h, cells, boundary, dagger=True):
            if s_cells not in index:
                if len(basis) >= guard:
                    raise DimensionGuard(f"reachable subspace exceeds {guard} states")
                index[s_cells] = len(basis)
                basis.append(s_cells)
                frontier.append(s_cells)
            edges.add((index[s_cells], k))
    return ReachableSpace(basis=basis, index=index, u_edges=sorted(edges), boundary=boundary)


# ---------------------------------------------------------------------------
# Orbit-restricted spectra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitSpectrum:
    """Eigendata of H on the span of a J-orbit: the one home of its closed forms.

    Dead-end orbits carry the J-site path spectrum 2cos(k pi/(J+1)) with sine
    eigenvectors; cyclic orbits carry the circulant spectrum 2cos(2 pi k/J)
    with Fourier eigenvectors.  The J x J eigenvector matrix is built on
    first use, so reading the eigenvalues costs O(J).
    """

    kind: str  # "dead_end" or "cycle"
    length: int
    eigenvalues: np.ndarray

    @classmethod
    def of(cls, kind: str, J: int) -> "OrbitSpectrum":
        if kind == "dead_end":
            lam = 2 * np.cos(np.arange(1, J + 1) * np.pi / (J + 1))
        else:
            lam = 2 * np.cos(2 * np.pi * np.arange(J) / J)
        return cls(kind, J, lam)

    @cached_property
    def vectors(self) -> np.ndarray:
        """Columns are the eigenvectors over j = 1..J, in the order of
        ``eigenvalues``."""
        J = self.length
        if self.kind == "dead_end":
            k = np.arange(1, J + 1)
            j = np.arange(1, J + 1)[:, None]
            return np.sqrt(2.0 / (J + 1)) * np.sin(j * k[None, :] * np.pi / (J + 1))
        k = np.arange(J)
        j = np.arange(J)[:, None]
        return np.exp(2j * np.pi * k[None, :] * j / J) / np.sqrt(J)

    def phases(self, ts) -> np.ndarray:
        """Rows e^{-i t lambda_k} conj(<1|v_k>) for every t in ``ts``, shape
        (T, J): the amplitudes are these rows through the eigenvectors."""
        return np.exp(-1j * np.outer(ts, self.eigenvalues)) * np.conj(self.vectors[0])

    def amplitudes(self, ts, phases=None) -> np.ndarray:
        """<j| exp(-i t H) |1> for every t in ``ts`` and j = 1..J, shape (T, J).

        ``phases`` are the rows ``phases(ts)``, for a caller that holds them
        already (the decide scan builds them from tables of its grid)."""
        if phases is None:
            phases = self.phases(ts)
        return phases @ self.vectors.T


def orbit_spectrum(orbit: Orbit) -> OrbitSpectrum:
    """Eigendata of H restricted to the orbit span."""
    if orbit.kind == "truncated":
        raise TruncatedOrbit("spectrum needs a complete orbit")
    return OrbitSpectrum.of(orbit.kind, orbit.length)


def energy_gap_bound(orbit: Orbit) -> Fraction:
    """Certified lower bound 8/(J+1)^2 on distinct-eigenvalue gaps."""
    if orbit.kind == "truncated":
        raise TruncatedOrbit("gap bound needs a complete orbit")
    J = orbit.length
    return Fraction(8, (J + 1) ** 2)


def min_distinct_gap(eigenvalues: np.ndarray, tol: float = 1e-9) -> float:
    """Smallest gap between eigenvalues that differ after rounding to
    multiples of ``tol``; inf when they all round to one value.  The gaps
    between distinct values are the positive differences of the sorted ones."""
    steps = np.diff(np.sort(np.round(eigenvalues / tol) * tol))
    return float(steps[steps > 0].min(initial=np.inf))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def hamiltonian_to_json(h: LocalHamiltonian) -> dict:
    def ctag(mq):
        return f"Q:{mq[0]}:{mq[1]}"

    return {
        "boundary": h.boundary,
        "rw_mode": h.rw_mode,
        "site_dim": h.site_dim,
        "u0_pairs": sorted(
            [ctag(src[0]), cell_to_tag(src[1]), ctag(dst[0]), cell_to_tag(dst[1])]
            for src, dst in h.u0_pairs.items()
        ),
        "shift_dirs": dict(sorted(h.shift_dirs.items())),
        "site_values": [cell_to_tag(v) for v in h.site_values],
    }


def hamiltonian_from_json(data: dict) -> LocalHamiltonian:
    for q, d in data["shift_dirs"].items():
        if d not in (PLUS, MINUS):
            raise ValueError(f"state {q!r} has shift direction {d!r}, not + or -")
    u0 = {}
    for c1, t1, c2, t2 in data["u0_pairs"]:
        src_q = tag_to_cell(c1)
        dst_q = tag_to_cell(c2)
        u0[((src_q[1], src_q[2]), tag_to_cell(t1))] = (
            (dst_q[1], dst_q[2]),
            tag_to_cell(t2),
        )
    return LocalHamiltonian(
        site_values=tuple(tag_to_cell(t) for t in data["site_values"]),
        rw_mode=data["rw_mode"],
        u0_pairs=u0,
        shift_dirs=dict(data["shift_dirs"]),
        boundary=data["boundary"],
    )
