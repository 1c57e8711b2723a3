"""Decision machinery: time grids, threshold checks, finite-lattice decisions.

The decision target is whether the long-term space-averaged single-site
state escapes the neighbourhood of the all-a1 site state.  The procedure
discretizes time with a step set by the threshold margin, averages rounded
states over the grid, and fires when the averaged distance exceeds
eps1 + (5/4)(eta - eps1); the bound chain guarantees soundness, so firing
certifies the escape, and on escaping instances some grid eventually fires.

One grid scan, ``_grid_fires``, serves the finite and the semi-decision; it
makes one ``states_at`` call and one batched check per chunk of grid points.
Each member orbit is stepped once, by the instance's ``averager``.  The scan
works in the basis of the s site values the ensemble occupies (plus a1):
every entry of the d x d site state outside that block is exactly 0, and the
all-a1 state lies inside it, so the distances are the d x d ones.  Within
the block it keeps only the entries the member orbits can reach, as packed
(chunk, s + P) rows of a ``PackedLayout``: the s diagonal entries and the P
off-diagonal value pairs of the orbits' cross pairs.  Rounding, the running
sums and the trace-norm bounds run on those rows; dense s x s matrices are
rebuilt only for the points the bounds leave to the eigensolver.  The grid is
arithmetic, so the amplitudes of a chunk come from per-shape phase tables
(``_PhaseTables``) at J exponentials per shape, not T J.

Every numerical shortcut carries its certified error term; verdicts return
the full ledger of those terms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .dynamics import (
    basis_state,
    batch_site_data,
    member_orbit_terms,
    trace_distance,
)
from .encoding import InitialEnsemble
from .hamiltonian import (
    DimensionGuard,
    LocalHamiltonian,
    TruncatedOrbit,
    compile_machine,
    min_distinct_gap,
    orbit_spectrum,
)
from .machine import MachineSpec, a_cell

# Certified upper bound on the operator norm of H = U + U^dagger for a
# partial isometry U; the exact orbit spectrum never exceeds it.
NORM_H_BOUND = 2.0

# Largest time grid decide_finite scans: the default cutoff t0 grows as
# 2^(4L+3), so a few more sites turn seconds into hours.
MAX_GRID_POINTS = 1 << 20

# Entries of one grid chunk: a chunk holds max(1, GRID_CELLS // max(s + P,
# sum J)) grid points, so that neither its packed (chunk, s + P) stack nor the
# phase tables of the orbit shapes (chunk x J each) exceed GRID_CELLS entries.
# A complex array of that many entries is 64 KiB; at 2^14 entries the scan
# ran no faster and its peak RSS rose by 0.6-1.5 MB.
GRID_CELLS = 1 << 12

# Absolute margin by which the trace-norm bounds of check_condition must clear
# the threshold before they decide a point without an eigensolver; it covers
# the rounding of the bounds and of eigvalsh many times over.
SCREEN_MARGIN = 1e-9

# Steps a member orbit may take before the instance is refused.
ORBIT_BUDGET = 200000

# Largest joint spectrum of a block configuration whose gap is certified.
PRODUCT_GUARD = 200000


class InvalidThresholds(ValueError):
    pass


class PrecisionViolation(ValueError):
    pass


class PromiseViolation(ValueError):
    pass


class GapViolation(ValueError):
    pass


class ToleranceViolation(ValueError):
    pass


class DegenerateObservable(ValueError):
    pass


class OverlapViolation(ValueError):
    pass


def grid_step(eta, eps1) -> float:
    """Step that keeps each interval's state drift within (eta-eps1)/2."""
    eta, eps1 = float(eta), float(eps1)
    if not (0 < eps1 and 2 * eps1 <= eta < 1):
        raise InvalidThresholds(f"need 0 < 2*eps1 <= eta < 1, got eta={eta}, eps1={eps1}")
    return (eta - eps1) / (4 * NORM_H_BOUND)


def grid_size(eta, eps1, t0) -> int:
    """Grid points of step ``grid_step`` up to the cutoff ``t0``."""
    return math.ceil(t0 / grid_step(eta, eps1))


def t0_cutoff(L: int, gamma: int) -> int:
    """Cutoff time valid under the spectral-gap floor 2^-L^gamma."""
    return 2 ** (2 * (L + 1) + 2 * L**gamma + 1)


def rounding_precision(eta, eps1, d: int) -> int:
    """Binary places sufficient for the rounding term of the bound chain.

    Entrywise error delta gives trace-norm error at most d^{3/2} * delta for
    a d x d matrix (Frobenius route), so 2^-p below (eta-eps1)/(2 d^{3/2})
    suffices; one extra bit covers the real/imaginary split.
    """
    need = (float(eta) - float(eps1)) / (2.0 * d ** 1.5)
    return max(1, math.ceil(-math.log2(need)) + 1)


def round_state(rho: np.ndarray, places: int) -> np.ndarray:
    """Real and imaginary parts rounded to ``places`` binary places.

    ``rho`` is any complex array: dense (..., s, s) states, or the packed
    (chunk, s + P) rows of the decide scan, whose entries are exactly those
    of the dense states, so both round to the same values.  It rounds the
    interleaved float view through one temporary.  Scaling by a power of two
    is exact, so the values are those of rounding each part on its own; only
    the signs of zeros may differ, and the running sums of ``_grid_fires``,
    which start from +0, never carry a -0.  An entry that is exactly 0 stays
    exactly 0.
    """
    scale = 2.0**places
    parts = np.ascontiguousarray(rho, dtype=complex).view(np.float64) * scale
    np.round(parts, out=parts)
    parts /= scale
    return parts.view(complex)


@dataclass(frozen=True, eq=False)
class PackedLayout:
    """Where the entries of an s x s state sit in a packed row of s + P.

    Column i < s holds the diagonal entry (i, i) and column s + p the
    off-diagonal entry (rows[p], cols[p]); every other entry of the state is
    exactly 0.  ``pack`` and ``unpack`` move entries without arithmetic, so
    a packed row holds the bits of the dense entries and back.
    """

    s: int
    rows: np.ndarray
    cols: np.ndarray

    @classmethod
    def full(cls, s: int) -> PackedLayout:
        """Every entry of an s x s matrix, off-diagonal pairs row by row."""
        rows, cols = np.nonzero(~np.eye(s, dtype=bool))
        return cls(s, rows, cols)

    @property
    def width(self) -> int:
        return self.s + len(self.rows)

    def pack(self, dense: np.ndarray) -> np.ndarray:
        """(..., s, s) -> (..., s + P): the diagonal, then the pairs."""
        diag = dense.diagonal(axis1=-2, axis2=-1)
        return np.concatenate([diag, dense[..., self.rows, self.cols]], axis=-1)

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        """(..., s + P) -> (..., s, s), zero off the layout."""
        s = self.s
        out = np.zeros((*packed.shape[:-1], s, s), dtype=complex)
        diag = np.arange(s)
        out[..., diag, diag] = packed[..., :s]
        out[..., self.rows, self.cols] = packed[..., s:]
        return out


def _trace_norm_bounds(a: np.ndarray, s: int):
    """Lower and upper bounds on the trace norm of each Hermitian s x s
    matrix of a packed (..., s + P) stack, without an eigensolver.

    The first s entries of a row are the diagonal and the others every
    other entry that may be nonzero, each once.  Lower: the pinching
    inequality, ||A||_1 >= sum_i |A_ii|.  Upper: the triangle inequality
    over matrix units, ||A||_1 <= sum_ij |A_ij|, and Cauchy-Schwarz over the
    at most s singular values, ||A||_1 <= sqrt(s) ||A||_F (Bhatia, Matrix
    Analysis, 1997, ch. IV).  Rows are summed as products with a vector of
    ones, since numpy reduces a short last axis row by row.
    """
    mag = np.abs(a)
    ones = np.ones(a.shape[-1])
    lower = np.abs(a[..., :s].real) @ ones[:s]
    frobenius = np.sqrt((mag * mag) @ ones)
    upper = np.minimum(mag @ ones, math.sqrt(s) * frobenius)
    return lower, upper


def check_condition(
    avg_rho_ap: np.ndarray,
    eta,
    eps1,
    e1_state: np.ndarray,
    places: int = None,
    layout: PackedLayout = None,
):
    """Fire when the grid-averaged rounded state is provably far from the
    all-a1 site state; strict inequality at the threshold.

    A (T, d, d) stack is answered state by state.  With a ``layout``, the
    states and ``e1_state`` come as packed (..., s + P) rows of it instead;
    dense matrices are packed with ``PackedLayout.full`` and answered by the
    same check.  When ``places`` is given, the input must already be on the
    binary-fraction grid of that precision (the rounding step of the bound
    chain).

    The flags are those of ``trace_distance(avg, e1) > threshold``, but the
    eigensolver runs only where ``_trace_norm_bounds`` of A = avg - e1 cannot
    place the distance: the pinching lower bound sum_i |A_ii| and the upper
    bound min(sum_ij |A_ij|, sqrt(s) ||A||_F).  A point whose lower bound
    exceeds the threshold by more than ``SCREEN_MARGIN`` (1e-9) fires, and
    one whose upper bound falls short of it by more than that margin does
    not.  The bounds and eigvalsh each agree with the exact trace norm far
    inside that margin on state-sized matrices (rounding of order 1e-15), so
    every screened flag equals the eigvalsh flag; points within the margin
    go to ``trace_distance``, as dense matrices rebuilt by ``unpack``.
    """
    if layout is None:
        layout = PackedLayout.full(avg_rho_ap.shape[-1])
        avg_rho_ap, e1_state = layout.pack(avg_rho_ap), layout.pack(e1_state)
    if places is not None:
        scale = 2.0**places
        offgrid = max(
            np.abs(avg_rho_ap.real * scale - np.round(avg_rho_ap.real * scale)).max(),
            np.abs(avg_rho_ap.imag * scale - np.round(avg_rho_ap.imag * scale)).max(),
        )
        if offgrid > 1e-9:
            raise PrecisionViolation(
                f"state entries are not {places}-place binary fractions"
            )
    threshold = float(eps1) + 1.25 * (float(eta) - float(eps1))
    shape = avg_rho_ap.shape
    stack = avg_rho_ap.reshape(-1, shape[-1])
    lower, upper = _trace_norm_bounds(stack - e1_state, layout.s)
    fires = lower > threshold
    undecided = (lower <= threshold + SCREEN_MARGIN) & (upper >= threshold - SCREEN_MARGIN)
    if undecided.any():
        dense = layout.unpack(stack[undecided])
        fires[undecided] = trace_distance(dense, layout.unpack(e1_state)) > threshold
    fires = fires.reshape(shape[:-1])
    return fires if fires.ndim else bool(fires)


# ---------------------------------------------------------------------------
# Decision instances
# ---------------------------------------------------------------------------


@dataclass
class DecisionInstance:
    machine: MachineSpec
    ensemble: InitialEnsemble
    eta: float
    eps1: float
    gamma: int = 1
    t0_override: float = None
    gap_floor: Fraction = None  # explicit floor; default 2^-L^gamma
    label: str = ""

    def floor(self) -> float:
        if self.gap_floor is not None:
            return float(self.gap_floor)
        L = self.ensemble.params.L
        return 2.0 ** -(L**self.gamma)

    @cached_property
    def averager(self) -> _EnsembleGridAverager:
        """The grid averager over the member orbits (per block for block
        members), each orbit stepped once for the life of the instance."""
        h = compile_machine(self.machine, self.ensemble.params.boundary)
        return _EnsembleGridAverager(h, self.ensemble)


def fixture_gap_floor(instance: DecisionInstance) -> Fraction:
    """Gap floor attached to a fixture instance: 8/(J_max+1)^2 with J_max the
    longest orbit the decision averages over (integer-reciprocal form)."""
    j_max = max((orbit.length for orbit, _, _ in instance.averager.members), default=1)
    return Fraction(1, math.ceil(Fraction((j_max + 1) ** 2, 8)))


@dataclass
class Verdict:
    verdict: str  # "yes" | "no" | "budget_exhausted"
    fired_at: int = None
    ledger: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "fired_at_grid_size": self.fired_at,
            "error_ledger": self.ledger,
        }


def _ledger(inst: DecisionInstance):
    margin = float(inst.eta) - float(inst.eps1)
    places = rounding_precision(inst.eta, inst.eps1, inst.averager.h.site_dim)
    return [
        {"term": "grid_discretization", "value": 0.5 * margin,
         "mechanism": "state drift over one grid interval"},
        {"term": "state_rounding", "value": 0.5 * margin,
         "mechanism": f"entries rounded to {places} binary places"},
        {"term": "norm_evaluation", "value": 0.25 * margin,
         "mechanism": "budget reserved for the trace-norm computation"},
        {"term": "t0_cutoff", "value": 2.0 ** -(inst.ensemble.params.L ** inst.gamma),
         "mechanism": "finite-time surrogate under the gap floor"},
    ]


class _EnsembleGridAverager:
    """Grid-point space averages of a classical mixture, batched over time.

    Multi-control (block) configurations enter through their per-block orbits
    with size-proportional weights; the space average splits exactly that way
    because no update pair crosses a block boundary.  Amplitudes depend only
    on an orbit's shape (J, kind), so the members of one shape are folded
    once into a weighted histogram and a real kernel over the step pairs and
    value pairs they occupy; a grid chunk then costs a fixed amount of work
    per shape, not per member.  States are kept in the basis of ``values``,
    the sorted indices of the site values some member's orbit holds, plus
    a1: no entry outside that block is ever nonzero.  Within it, ``layout``
    packs the diagonal and the value pairs some member's cross rows occupy
    (closed under transpose, as the cross rows are ordered pairs); no other
    entry is ever nonzero either.  ``shapes`` maps each shape to its fold,
    whose ``OrbitSpectrum`` also serves ``min_orbit_gap``.
    """

    def __init__(self, h: LocalHamiltonian, ensemble: InitialEnsemble):
        self.h = h
        orbits, weights = [], []
        self.member_blocks = []  # per ensemble member: list of orbits
        for cfg, w in ensemble.members:
            block_orbits = []
            for orbit, scale in member_orbit_terms(h, cfg, ORBIT_BUDGET):
                if orbit.kind == "truncated":
                    raise TruncatedOrbit(
                        "orbit budget exhausted while preparing instance"
                    )
                orbits.append(orbit)
                weights.append(float(w) * scale)
                block_orbits.append(orbit)
            self.member_blocks.append(block_orbits)
        # one one-site scan over all member orbits of each lattice width
        self.members = list(zip(orbits, batch_site_data(orbits, h), weights))
        occupied = np.zeros(h.site_dim, dtype=bool)
        occupied[h.value_index(a_cell("a1"))] = True
        for _, data, _ in self.members:
            occupied |= data.hist.any(axis=0)
        self.values = np.flatnonzero(occupied)
        by_shape = {}
        for orbit, data, w in self.members:
            by_shape.setdefault((orbit.length, orbit.kind), []).append((orbit, data, w))
        folds = {shape: _fold_shape(group, self.values) for shape, group in by_shape.items()}
        # the layout's pairs are those of every shape; each kernel gets a
        # column per pair, zero where its shape never reaches the pair
        s = len(self.values)
        keys = [pairs for *_, pairs, _ in folds.values()]
        pair_keys, _ = _unique_inverse(np.concatenate(keys or [np.zeros(0, np.intp)]))
        self.layout = PackedLayout(s, *divmod(pair_keys, s))
        self.shapes = {}
        for shape, (spectrum, hist, steps, pairs, kernel) in folds.items():
            wide = np.zeros((len(kernel), len(pair_keys)))
            wide[:, np.searchsorted(pair_keys, pairs)] = kernel
            self.shapes[shape] = (spectrum, hist, steps, wide)

    def states_at(self, ts: np.ndarray, phases: dict = None) -> np.ndarray:
        """The packed (T, s + P) rows, in ``layout``, of the space-averaged
        site states at ``ts``; every other entry of the d x d state is
        exactly 0.

        ``phases``, when given, maps each shape to its rows
        ``OrbitSpectrum.phases(ts)`` (``_PhaseTables.at`` on the decide
        grid); otherwise they are evaluated here.  Each shape's diagonal and
        kernel products are added straight into their columns.
        """
        s = len(self.values)
        out = np.zeros((len(ts), self.layout.width), dtype=complex)
        diag, pairs_re, pairs_im = out.real[:, :s], out.real[:, s:], out.imag[:, s:]
        for shape, (spectrum, hist, (j0, j1), kernel) in self.shapes.items():
            amps = spectrum.amplitudes(ts, None if phases is None else phases[shape])
            diag += np.abs(amps) ** 2 @ hist
            pair_w = amps[:, j0] * np.conj(amps[:, j1])
            # two real products: a complex @ would map extra BLAS pages
            pairs_re += pair_w.real @ kernel
            pairs_im += pair_w.imag @ kernel
        return out

    def min_orbit_gap(self) -> float:
        """Smallest distinct-eigenvalue gap over the reachable spectra.

        For a block configuration the reachable spectrum is the sumset of the
        per-block spectra, assembled exactly (up to ``PRODUCT_GUARD``
        eigenvalues) because sums of per-block eigenvalues can come closer
        than any single block's gap.  The spectra depend only on the block
        shapes, so each distinct tuple of shapes is sized once, from the
        spectra of the folds.
        """
        block_shapes = {
            tuple((orbit.length, orbit.kind) for orbit in blocks)
            for blocks in self.member_blocks
        }
        worst = float("inf")
        for shapes in block_shapes:
            lams = np.array([0.0])
            for shape in shapes:
                eigenvalues = self.shapes[shape][0].eigenvalues
                if len(lams) * len(eigenvalues) > PRODUCT_GUARD:
                    raise DimensionGuard(
                        "joint spectrum too large to certify the gap floor"
                    )
                lams = (lams[:, None] + eigenvalues[None, :]).ravel()
            worst = min(worst, min_distinct_gap(lams))
        return worst


def _unique_inverse(keys: np.ndarray):
    """Sorted distinct keys and each key's position among them, as
    ``np.unique(keys, return_inverse=True)`` gives, without its imports."""
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ranked[new], inverse


def _fold_shape(group, values: np.ndarray):
    """Fold (orbit, data, weight) members of one orbit shape into
    (spectrum, histogram, step pairs, value pairs, kernel) over the site
    values ``values`` (sorted, holding every value the members occupy).

    The (J, s) histogram is sum_m (w_m / n_m) hist_m on the columns of
    ``values``.  The kernel holds, for every step pair (j, j') and value pair
    (v, v') some member's cross rows occupy, the summed w_m / n_m of the
    members with that row; only occupied pairs get a row or column.  Value
    pairs come as sorted keys v s + v', v and v' positions in ``values``.
    """
    orbit = group[0][0]
    J, s = orbit.length, len(values)
    hist = sum(w / data.n_sites * data.hist for _, data, w in group)[:, values]
    cross = np.concatenate([data.cross for _, data, _ in group])
    scale = np.concatenate(
        [np.full(len(data.cross), w / data.n_sites) for _, data, w in group]
    )
    steps, row = _unique_inverse(cross[:, 0] * J + cross[:, 1])
    at = np.searchsorted(values, cross[:, 2:])
    pairs, col = _unique_inverse(at[:, 0] * s + at[:, 1])
    kernel = np.zeros((len(steps), len(pairs)))
    np.add.at(kernel, (row, col), scale)
    return orbit_spectrum(orbit), hist, divmod(steps, J), pairs, kernel


class _PhaseTables:
    """Rows e^{-i m dt lambda} conj(V_0), m < ``rows``, of each orbit shape
    on the arithmetic grid t_k = k dt.

    The rows of a chunk that starts at grid index k0 are the first rows of
    the table times e^{-i k0 dt lambda}: J exponentials per shape and chunk,
    where ``OrbitSpectrum.phases`` takes T J.
    """

    def __init__(self, shapes: dict, dt: float, rows: int):
        self.dt = dt
        self.tables = {
            shape: (spectrum.phases(dt * np.arange(rows)), spectrum.eigenvalues)
            for shape, (spectrum, *_) in shapes.items()
        }

    def at(self, k0: int, n: int) -> dict:
        """Each shape's rows at t = (k0 + m) dt, m < n."""
        return {
            shape: table[:n] * np.exp(-1j * (k0 * self.dt) * lam)
            for shape, (table, lam) in self.tables.items()
        }


def _grid_fires(inst: DecisionInstance, k_max: int):
    """Yield, chunk by chunk, the flags of grid sizes k = 1..k_max in order:
    flag k says whether the check fires on the average of the rounded states
    at the first k grid points."""
    avger = inst.averager
    layout = avger.layout
    places = rounding_precision(inst.eta, inst.eps1, avger.h.site_dim)
    # e1 is diagonal and inside values, so avg - e1 is zero off the layout
    # and its trace norm is that of the values block
    block = np.ix_(avger.values, avger.values)
    e1_state = layout.pack(basis_state(avger.h, a_cell("a1"))[block])
    dt = grid_step(inst.eta, inst.eps1)
    cells = max(layout.width, sum(J for J, _ in avger.shapes))
    chunk = max(1, min(k_max, GRID_CELLS // cells))
    tables = _PhaseTables(avger.shapes, dt, chunk)
    running = np.zeros(layout.width, dtype=complex)
    for done in range(0, k_max, chunk):
        ks = np.arange(done + 1, min(done + chunk, k_max) + 1)
        phases = tables.at(done + 1, len(ks))
        avg = round_state(avger.states_at(dt * ks, phases), places)
        # carrying into the first row keeps the point-by-point summation order;
        # in place, since every fresh stack-sized array costs page faults
        avg[0] += running
        np.cumsum(avg, axis=0, out=avg)
        running = avg[-1].copy()
        avg /= ks[:, None]
        yield check_condition(avg, inst.eta, inst.eps1, e1_state, layout=layout)


def decide_finite(instance: DecisionInstance) -> Verdict:
    """Scan all grid sizes up to the cutoff; fire on the threshold check."""
    if not instance.ensemble.members:
        raise PromiseViolation("instance carries no explicit configurations")
    t0 = instance.t0_override
    if t0 is None:
        t0 = t0_cutoff(instance.ensemble.params.L, instance.gamma)
    k_max = grid_size(instance.eta, instance.eps1, t0)
    if k_max > MAX_GRID_POINTS:
        raise DimensionGuard(f"time grid of {k_max} points exceeds {MAX_GRID_POINTS}")
    floor = instance.floor()
    measured = instance.averager.min_orbit_gap()
    if measured < floor:
        raise GapViolation(
            f"measured orbit gap {measured:.3g} below the floor {floor:.3g}"
        )
    ledger = _ledger(instance)
    done = 0
    for flags in _grid_fires(instance, k_max):
        first = int(flags.argmax())
        if flags[first]:
            return Verdict("yes", fired_at=done + first + 1, ledger=ledger)
        done += len(flags)
    return Verdict("no", ledger=ledger)


def semi_decide(instance_at, budget: int) -> Verdict:
    """Dovetail over (grid size, lattice index) pairs.

    ``instance_at(m)`` builds the instance for the m-th admissible lattice
    size (m = 1, 2, ...), or returns None when that size is unavailable.
    Pairs are visited along diagonals K + m = const, K ascending within a
    diagonal; the verdict is "yes" as soon as the check fires on some pair,
    "budget_exhausted" after ``budget`` pairs.  Each diagonal brings in one
    new index, so the sweep keeps the scans of the available indices and
    visits only those.  A budget above ``MAX_GRID_POINTS`` is refused, since
    a lattice may be asked for every grid size up to it.  When
    ``instance_at`` returns None for every index 1..budget, the sweep raises
    ``PromiseViolation`` after those ``budget`` calls rather than asking for
    ever larger indices.  The sweep never fires on an instance whose state
    stays within the threshold at every grid, so a "yes" is sound by the
    same bound chain as the finite decision.
    """
    if budget > MAX_GRID_POINTS:
        raise DimensionGuard(f"pair budget {budget} exceeds {MAX_GRID_POINTS} grid points")
    scans = []  # (m, grid scan) of the available indices, m ascending
    spent = 0
    diag = 2
    while spent < budget:
        inst = instance_at(diag - 1)
        if inst is not None:
            # a lattice's k-th visit asks for grid size k <= budget, one
            # flag at a time out of the scan's chunks
            flags = itertools.chain.from_iterable(_grid_fires(inst, budget))
            scans.append((diag - 1, flags))
        elif not scans and diag - 1 >= budget:
            raise PromiseViolation(f"no instance for any lattice index 1..{budget}")
        for m, scan in reversed(scans):
            if spent >= budget:
                break
            spent += 1
            if next(scan):
                return Verdict("yes", fired_at=diag - m)
        diag += 1
    return Verdict("budget_exhausted")


# ---------------------------------------------------------------------------
# Truncated Taylor evolution with certified error
# ---------------------------------------------------------------------------


def truncated_evolution(h_matrix: np.ndarray, v0: np.ndarray, t: float, t0: float,
                        eta: float, eps1: float):
    """Taylor-truncated propagator on an explicit (orbit-restricted) matrix.

    The series keeps 2 N^2 terms with N = ceil(t0 * ||H||); together with a
    per-term Hamiltonian tolerance budget this certifies
    ||rho_ap - rho||_1 <= (5/2) (2^-(N^2-N) + (eta-eps1)/16).
    """
    if t > t0:
        raise ToleranceViolation("evaluation beyond the cutoff time")
    norm_ap = float(np.linalg.norm(h_matrix, 2))
    N = math.ceil(t0 * norm_ap) if norm_ap > 0 else 1
    terms = 2 * N * N
    acc = v0.astype(complex)
    term = v0.astype(complex)
    for k in range(1, terms + 1):
        term = (-1j * t / k) * (h_matrix @ term)
        acc = acc + term
    bound = 2.5 * (2.0 ** -(N * N - N) + (eta - eps1) / 16.0)
    return acc, bound, N


def taylor_bound_check(h_matrix: np.ndarray, v0: np.ndarray, ts, t0, eta, eps1):
    """Empirical check that the certified bound dominates the true error."""
    vals, vecs = np.linalg.eigh(h_matrix)
    worst = 0.0
    bound = None
    for t in ts:
        approx, bound, _ = truncated_evolution(h_matrix, v0, t, t0, eta, eps1)
        exact = vecs @ (np.exp(-1j * vals * t) * (vecs.conj().T @ v0))
        rho_a = np.outer(approx, approx.conj())
        rho_e = np.outer(exact, exact.conj())
        err = trace_distance(rho_a, rho_e)
        if err > bound:
            raise ToleranceViolation(f"measured error {err} above the bound {bound}")
        worst = max(worst, err)
    return worst, bound


# ---------------------------------------------------------------------------
# Observable reduction and the one-site rotation
# ---------------------------------------------------------------------------


def reduction_parameters(a_matrix: np.ndarray, eta: float):
    """Thresholds that turn the state decision into an observable decision."""
    a11 = float(np.real(a_matrix[1, 1]))
    a22 = float(np.real(a_matrix[2, 2]))
    gap = abs(a11 - a22)
    norm = float(np.linalg.norm(a_matrix, 2))
    if gap < 1e-12 * max(1.0, norm):
        raise DegenerateObservable("observable cannot separate the two site states")
    c1 = a11
    eps1 = eta * gap / (3 * norm)
    eps0 = eps1 * norm
    return c1, eps0, eps1


def sample_ball(rng, center: np.ndarray, radius: float, count: int):
    """States within trace-norm ``radius`` of ``center`` (mixing route)."""
    d = center.shape[0]
    out = []
    for _ in range(count):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        g = g @ g.conj().T
        tau = g / np.trace(g).real
        dist = trace_distance(center, tau)
        s = rng.uniform(0, 1) * min(1.0, radius / dist)
        out.append((1 - s) * center + s * tau)
    return out


def separation_margins(a_matrix, eta, count=1000, seed=7):
    """Monte Carlo check of the separation inequalities on the two balls."""
    c1, eps0, eps1 = reduction_parameters(a_matrix, eta)
    d = a_matrix.shape[0]
    e1 = np.zeros((d, d), dtype=complex)
    e1[1, 1] = 1.0
    mix = np.zeros((d, d), dtype=complex)
    mix[1, 1] = 1 - eta
    mix[2, 2] = eta
    rng = np.random.default_rng(seed)
    near = sample_ball(rng, e1, eps1, count)
    far = sample_ball(rng, mix, eps1, count)
    near_dev = max(abs(np.trace(s @ a_matrix).real - c1) for s in near)
    far_dev = min(abs(np.trace(s @ a_matrix).real - c1) for s in far)
    cross = min(
        abs(np.trace((s1 - s2) @ a_matrix).real) for s1, s2 in zip(near, far)
    )
    return {"near_max": near_dev, "far_min": far_dev, "cross_min": cross,
            "eps0": eps0, "eps1": eps1, "c1": c1}


def rotation_to(psi_prime: np.ndarray, eps1: float = None) -> np.ndarray:
    """Unitary fixing everything orthogonal to span{e1, psi'} and sending e1
    to psi'; requires <e0|psi'> = 0."""
    d = psi_prime.shape[0]
    psi = psi_prime / np.linalg.norm(psi_prime)
    if abs(psi[0]) > 1e-12:
        raise OverlapViolation("target state must be orthogonal to the control state")
    if eps1 is not None:
        e1 = np.zeros(d, dtype=complex)
        e1[1] = 1.0
        dist = trace_distance(np.outer(psi, psi.conj()), np.outer(e1, e1))
        if dist > eps1 + 1e-12:
            raise OverlapViolation(
                f"target state at trace distance {dist} from the reference (> {eps1})"
            )
    u1 = np.zeros(d, dtype=complex)
    u1[1] = 1.0
    c = np.vdot(u1, psi)
    w = psi - c * u1
    nw = np.linalg.norm(w)
    if nw < 1e-14:
        return np.eye(d, dtype=complex)
    u2 = w / nw
    phi = -np.conj(nw) * u1 + np.conj(c) * u2
    v = np.eye(d, dtype=complex)
    v -= np.outer(u1, u1.conj()) + np.outer(u2, u2.conj())
    v += np.outer(psi, u1.conj()) + np.outer(phi, u2.conj())
    return v


def conjugate_local_terms(h1: np.ndarray, h2: np.ndarray, v: np.ndarray):
    """Site-local conjugation of one- and two-body terms by V†.V."""
    vd = v.conj().T
    h1c = vd @ h1 @ v
    vv = np.kron(v, v)
    h2c = vv.conj().T @ h2 @ vv
    return h1c, h2c


def dense_lattice_hamiltonian(h1: np.ndarray, h2: np.ndarray, L: int) -> np.ndarray:
    """Shift-invariant chain of L+1 sites, periodic, built dense (small d)."""
    d = h1.shape[0]
    n = L + 1
    dim = d**n
    H = np.zeros((dim, dim), dtype=complex)
    eye = [np.eye(d**k) for k in range(n + 1)]
    for i in range(n):
        H += np.kron(np.kron(eye[i], h1), eye[n - i - 1])
    for i in range(n):
        if i < n - 1:
            H += np.kron(np.kron(eye[i], h2), eye[n - i - 2])
        else:
            # wrap term acting on sites (n-1, 0): cyclic axis shift puts the
            # first factor of h2 on the last site and the second on site 0
            term = np.kron(h2, eye[n - 2]).reshape([d] * (2 * n))
            axes = list(range(1, n)) + [0]
            full = axes + [n + a for a in axes]
            H += np.transpose(term, full).reshape(dim, dim)
    return H


def lattice_site_average(vec: np.ndarray, d: int, n: int) -> np.ndarray:
    """Space-averaged one-site state of a dense lattice vector."""
    rho = np.zeros((d, d), dtype=complex)
    psi = vec.reshape([d] * n)
    for i in range(n):
        moved = np.moveaxis(psi, i, 0).reshape(d, -1)
        rho += moved @ moved.conj().T
    return rho / n
