"""Local update operator U and Hamiltonian H = U + U† on the lattice.

U is kept as a partial injection on the configuration basis, represented by
two-site pair maps: read-write pairs act on (control site, cell to its
right); shift pairs swap the control with a neighbour.  H is never
materialized on the full tensor space; dense linear algebra happens only on
the subspace reachable from a seed set of configurations, which for a legal
initial configuration is exactly its orbit.

``_apply_at`` (behind ``apply_update_dagger`` and ``reachable_space``) and
``LocalHamiltonian.step_table`` (the pair maps in site-value codes, which
``machine.run_stats`` and ``dynamics.coded_orbit`` step through)
deliberately re-implement the stepping mechanics from the pair maps alone,
so agreement with ``machine.step`` is a two-route check of the compilation,
not a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .machine import (
    MARK,
    PLUS,
    Configuration,
    MachineSpec,
    MalformedConfiguration,
    NotReversible,
    Orbit,
    is_control,
    require_reversible,
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
    with Fourier eigenvectors.  ``amplitudes`` sums over those eigenvectors
    by a fast transform, a type-I sine transform for a dead end and an
    inverse DFT for a cycle, in O(T J log J) time and O(T J) memory.  The
    J x J eigenvector matrix is built only for a caller that hands in phase
    rows of its own (the decide scan, whose orbits are short), so reading
    the eigenvalues costs O(J).
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

    @cached_property
    def first_row(self) -> np.ndarray:
        """conj(<1|v_k>) in closed form: row 0 of ``vectors``, conjugated,
        without the matrix."""
        J = self.length
        if self.kind == "dead_end":
            return np.sqrt(2.0 / (J + 1)) * np.sin(np.arange(1, J + 1) * np.pi / (J + 1))
        return np.full(J, 1 / np.sqrt(J))

    def phases(self, ts) -> np.ndarray:
        """Rows e^{-i t lambda_k} conj(<1|v_k>) for every t in ``ts``, shape
        (T, J): the amplitudes are these rows through the eigenvectors."""
        return np.exp(-1j * np.outer(ts, self.eigenvalues)) * self.first_row

    def amplitudes(self, ts, phases=None) -> np.ndarray:
        """<j| exp(-i t H) |1> for every t in ``ts`` and j = 1..J, shape (T, J).

        ``phases`` are the rows ``phases(ts)``, for a caller that holds them
        already (the decide scan builds them from tables of its grid); they
        go through the eigenvector matrix.  Otherwise the sum over k is a
        transform of one length-J row per time: for a cycle
        (1/J) sum_k e^{-i t lambda_k} e^{2 pi i j k/J}, an inverse DFT; for
        a dead end sum_k x_k sin(j k theta) with theta = pi/(J+1) and
        x_k = (2/(J+1)) sin(k theta) e^{-i t lambda_k}, a type-I sine
        transform, taken as i/2 times the DFT of the odd extension
        (0, x, 0, -reversed x) of length 2(J+1).
        """
        if phases is not None:
            return phases @ self.vectors.T
        # imported here: its first import costs about 2 ms, which only the
        # callers of the transform should pay
        from numpy import fft

        waves = np.exp(-1j * np.outer(ts, self.eigenvalues))
        J = self.length
        if self.kind == "cycle":
            return fft.ifft(waves, axis=1)
        odd = np.zeros((len(waves), 2 * (J + 1)), dtype=complex)
        np.multiply(waves, np.sqrt(2.0 / (J + 1)) * self.first_row, out=odd[:, 1 : J + 1])
        np.negative(odd[:, J:0:-1], out=odd[:, J + 2 :])
        return 0.5j * fft.fft(odd, axis=1)[:, 1 : J + 1]


def orbit_spectrum(orbit: Orbit) -> OrbitSpectrum:
    """Eigendata of H restricted to the orbit span."""
    if orbit.kind == "truncated":
        raise TruncatedOrbit("spectrum needs a complete orbit")
    return OrbitSpectrum.of(orbit.kind, orbit.length)


def energy_gap_bound(orbit: Orbit | OrbitSpectrum) -> Fraction:
    """Certified lower bound 8/(J+1)^2 on distinct-eigenvalue gaps of a
    J-orbit, read from its ``kind`` and ``length``."""
    if orbit.kind == "truncated":
        raise TruncatedOrbit("gap bound needs a complete orbit")
    J = orbit.length
    return Fraction(8, (J + 1) ** 2)


def min_distinct_gap(eigenvalues: np.ndarray, tol: float = 1e-9) -> float:
    """Smallest difference of the sorted eigenvalues that exceeds ``tol``;
    inf when none does.  Differences up to ``tol`` are taken for repeats of
    one eigenvalue, not for gaps."""
    steps = np.diff(np.sort(eigenvalues))
    return float(steps[steps > tol].min(initial=np.inf))
