"""Local update operator U and Hamiltonian H = U + U† on the lattice.

U is a partial injection on the configuration basis, built from two-site
pair maps: read-write pairs act on (control site, cell to its right); shift
pairs swap the control with a neighbour.  H is never materialized on the
full tensor space; dense linear algebra happens only on the subspace
reachable from a seed set of configurations, which for a legal initial
configuration is exactly its orbit.

U is applied by exactly two routes.  The reference is ``machine.step_at``
on the machine's spec, and U† is the same step on the inverse machine
``machine.invert(spec)``, which ``compile_machine`` builds once as
``LocalHamiltonian.inverse``; ``reachable_space`` takes U† from it.  The
engine is the step table, the pair maps as dense arrays over site-value
codes, which ``machine.run_stats``, ``dynamics.coded_orbit`` and
``dynamics.lockstep_orbits`` all step through by one rule.  ``machine``
compiles the alphabet, the table and the inverse; ``compile_machine`` builds
on it, and ``run_stats`` never imports this module.  The table is filled from
the rule table alone, so agreement with ``machine.step`` is a two-route check
of the compilation, not a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

import numpy as np

from .machine import (
    Configuration,
    DimensionGuard,
    MachineSpec,
    Orbit,
    StepTable,
    build_step_table,
    compiled_inverse,
    encode_sites,
    is_control,
    site_alphabet,
    step_at,
)

# Largest dimension built as a dense square array (cycle kernel, dense oracle).
DENSE_GUARD = 4096


class TruncatedOrbit(ValueError):
    pass


@dataclass(frozen=True)
class LocalHamiltonian:
    """A reversible machine and its inverse, with their site-value code."""

    site_values: tuple  # every value a site can hold (cells and controls)
    spec: MachineSpec  # U steps by this machine
    inverse: MachineSpec  # and U† by this one, invert(spec)
    boundary: str = "periodic"  # as compiled; each configuration steps under its own

    @property
    def site_dim(self) -> int:
        return len(self.site_values)

    @cached_property
    def value_code(self) -> dict:
        """Site value -> its index in ``site_values``: the one site-value code."""
        return {v: i for i, v in enumerate(self.site_values)}

    def encode(self, rows, dtype=np.intp) -> np.ndarray:
        """(rows, sites) array of site-value codes, by ``machine.encode_sites``."""
        return encode_sites(self.value_code, rows, dtype)

    def value_index(self, value) -> int:
        return int(self.encode([[value]])[0, 0])

    @cached_property
    def step_table(self) -> StepTable:
        """``machine.build_step_table`` in this code, built once per Hamiltonian."""
        return build_step_table(self.spec, self.value_code)


def compile_machine(spec: MachineSpec, boundary: str = "periodic") -> LocalHamiltonian:
    """Compile a reversible machine: ``machine.compiled_inverse`` and its alphabet."""
    return LocalHamiltonian(site_alphabet(spec), spec, compiled_inverse(spec), boundary)


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


def reachable_space(h: LocalHamiltonian, seeds: Iterable[Configuration]) -> ReachableSpace:
    """Breadth-first closure under both U and U† starting from the seeds:
    ``step_at`` on every control, on the machine and on its inverse.  A
    closure that grows past ``DENSE_GUARD`` states raises ``DimensionGuard``
    at once."""
    basis = []
    index = {}
    boundary = None
    frontier = []

    def add(cells):
        if cells not in index:
            if len(basis) >= DENSE_GUARD:
                raise DimensionGuard(f"dense closure exceeds {DENSE_GUARD} states")
            index[cells] = len(basis)
            basis.append(cells)
            frontier.append(cells)
        return index[cells]

    for cfg in seeds:
        if boundary is None:
            boundary = cfg.boundary
        add(cfg.cells)
    edges = set()
    while frontier:
        cells = frontier.pop()
        k = index[cells]
        sites = [i for i, x in enumerate(cells) if is_control(x)]
        for out in filter(None, (step_at(h.spec, cells, i, boundary) for i in sites)):
            edges.add((k, add(out)))
        for out in filter(None, (step_at(h.inverse, cells, i, boundary) for i in sites)):
            edges.add((add(out), k))
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
    J x J eigenvector matrix ``vectors`` is built only for the decide scan,
    which takes its phase rows from a table of its grid through it (its
    orbits are short), so reading the eigenvalues costs O(J).
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

    def amplitudes(self, ts) -> np.ndarray:
        """<j| exp(-i t H) |1> for every t in ``ts`` and j = 1..J, shape (T, J):
        the rows ``phases(ts)`` through the eigenvectors.

        The sum over k is a transform of one length-J row per time: for a cycle
        (1/J) sum_k e^{-i t lambda_k} e^{2 pi i j k/J}, an inverse DFT; for
        a dead end sum_k x_k sin(j k theta) with theta = pi/(J+1) and
        x_k = (2/(J+1)) sin(k theta) e^{-i t lambda_k}, a type-I sine
        transform, taken as i/2 times the DFT of the odd extension
        (0, x, 0, -reversed x) of length 2(J+1).
        """
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
