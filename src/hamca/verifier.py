"""Decision machinery: time grids, threshold checks, finite-lattice decisions.

The decision target is whether the long-term space-averaged single-site
state escapes the neighbourhood of the all-a1 site state.  The procedure
discretizes time with a step set by the threshold margin, averages rounded
states over the grid, and fires when the averaged distance exceeds
eps1 + (5/4)(eta - eps1); the bound chain guarantees soundness, so firing
certifies the escape, and on escaping instances some grid eventually fires.

One grid scan, ``_grid_fires``, serves the finite and the semi-decision; it
makes one ``states_at`` call and one batched check per chunk of grid points.
The instance's ``averager`` steps every member orbit once: the members are
stacked as code rows and stepped in lockstep, batch by batch, and each batch
is folded straight into per-shape histograms and sparse kernel entries, so
the set-up holds no per-member arrays beyond one batch.  The scan works in
the basis of the s site values the ensemble occupies (plus a1): every entry
of the d x d site state outside that block is exactly 0, and the all-a1
state lies inside it, so the distances are the d x d ones.  Within the
block it keeps only the entries the member orbits can reach, as packed
(chunk, s + P) rows of a ``PackedLayout``: the s diagonal entries and the P
off-diagonal value pairs of the orbits' cross pairs.  Rounding, the running
sums and the trace-norm bounds run on those rows; dense s x s matrices are
rebuilt only for the points the bounds leave to the eigensolver.  All shapes
of a chunk are evaluated at once, from one phase table over every shape's
eigenvalues: the grid is arithmetic, so a chunk's phase rows are the table's
times sum J exponentials, not T sum J.

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
    KINDS,
    _one_site_pairs,
    basis_state,
    stacked_member_orbits,
    trace_distance,
)
from .encoding import InitialEnsemble
from .hamiltonian import (
    DimensionGuard,
    LocalHamiltonian,
    OrbitSpectrum,
    TruncatedOrbit,
    compile_machine,
    min_distinct_gap,
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
# phase table and amplitudes of all orbit shapes (chunk x sum J) exceed
# GRID_CELLS entries.  The two (chunk, E) temporaries of the kernel entries
# in states_at are not counted, and E is larger: 2.7 sum J on the 243-member
# halting instance, 2.4 sum J at L = 10.  Counting them too made the
# 243-member decides about 4 % slower, and lowered peak RSS by 0.1 MB of 38
# at L = 5, 3 MB of 135 at L = 10 and 5 MB of 378 at L = 12.
# A complex array of GRID_CELLS entries is 64 KiB; at 2^14 entries the scan
# ran no faster and its peak RSS rose by 0.6-1.5 MB.
GRID_CELLS = 1 << 12

# Absolute margin by which the trace-norm bounds of check_condition must clear
# the threshold before they decide a point without an eigensolver; it covers
# the rounding of the bounds and of eigvalsh many times over.
SCREEN_MARGIN = 1e-9

# Steps a member orbit may take before the instance is refused.
ORBIT_BUDGET = 200000

# Ensemble members stepped and folded together by the grid averager; the
# stacked rows of one batch bound its working set.  decide on the halting
# instance peaked at 64, 81, 101 and 130 MB at L = 10 with batches of 2^8,
# 2^10, 2^11 and 2^12 members, each in 2.4-3.0 s, and at 281, 298 and 378 MB
# at L = 12 with 2^8, 2^10 and 2^12, in 28, 25 and 24 s.
MEMBER_BATCH = 1 << 10

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
    j_max = max((J for J, _ in instance.averager.shapes), default=1)
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
    into a weighted histogram and sparse kernel entries over the step pairs
    and value pairs they occupy; a grid chunk then costs a fixed amount of
    work per shape, not per member.

    The members are stepped ``MEMBER_BATCH`` at a time, in lockstep, by
    ``stacked_member_orbits``, and each batch is folded straight from its
    stacked rows: its histogram counts and its one-site pairs (one scan,
    bucketed by (orbit, control site)) are added into running sums, term by
    term in orbit order, so the sums are those of adding member after
    member.  Nothing per member outlives its batch but its shape, weight and
    configuration index.

    ``shapes`` maps each shape to its ``OrbitSpectrum``, in the order of the
    shapes' columns: shape g owns J_g consecutive columns of every
    (T, sum J) amplitude array.  States are kept in the basis of ``values``,
    the sorted indices of the site values some member's orbit holds, plus
    a1: no entry outside that block is ever nonzero.  Within it, ``layout``
    packs the diagonal and the value pairs some member's cross rows occupy
    (closed under transpose, as the cross rows are ordered pairs); no other
    entry is ever nonzero either.  ``hist`` (sum J, s) is the weighted
    histogram of every column, and kernel entry e adds ``entry_w[e]`` times
    amps[:, entry_cols[0, e]] conj(amps[:, entry_cols[1, e]]) into layout
    pair ``entry_pair[e]``, entries sorted by pair.
    """

    def __init__(self, h: LocalHamiltonian, ensemble: InitialEnsemble):
        self.h = h
        d = h.site_dim
        self.shapes = {}
        self.block_shapes = set()  # the distinct sorted tuples of a member's shape numbers
        occupied = np.zeros(d, dtype=bool)
        occupied[h.value_index(a_cell("a1"))] = True
        # running sums: the histogram over (column, value), and the kernel
        # over the sorted keys ((pair0[g] + j J_g + j') d + v) d + v' of the
        # step pairs (j, j') of shape g, whose pair keys start at pair0[g]
        hist, kernel_keys, kernel_w = np.zeros(0), np.zeros(0, dtype=np.intp), np.zeros(0)
        orbit_shape, orbit_member, orbit_weight = [], [], []
        members = ensemble.members
        for first in range(0, len(members), MEMBER_BATCH):
            groups = stacked_member_orbits(h, members[first : first + MEMBER_BATCH], ORBIT_BUDGET)
            if any((orbits.kind == KINDS.index("truncated")).any() for orbits, _, _ in groups):
                raise TruncatedOrbit("orbit budget exhausted while preparing instance")
            shape = [self._shape_numbers(orbits) for orbits, _, _ in groups]
            J, col0, pair0 = self._offsets()
            hist = np.concatenate([hist, np.zeros(col0[-1] * d - len(hist))])
            keys, terms = [], []
            for (orbits, member, weight), g in zip(groups, shape):
                rows, n = orbits.rows, orbits.rows.shape[1]
                step, g_row = orbits.step, g[orbits.orbit]
                row_w = (weight / n)[orbits.orbit]
                # each distinct value of a row once, with its count
                ranked = np.sort(rows, axis=1)
                new = np.ones(rows.shape, dtype=bool)
                np.not_equal(ranked[:, 1:], ranked[:, :-1], out=new[:, 1:])
                r, i = np.nonzero(new)
                occupied[ranked[r, i]] = True
                count = np.diff(np.append(r * n + i, rows.size))
                np.add.at(hist, (col0[g_row[r]] + step[r]) * d + ranked[r, i], row_w[r] * count)
                _, (a, b, va, vb) = _one_site_pairs(h, rows, rows, orbits.orbit)
                ga = g_row[a]
                keys.append(((pair0[ga] + step[a] * J[ga] + step[b]) * d + va) * d + vb)
                terms.append(row_w[a])
                orbit_shape.append(g)
                orbit_member.append(first + member)
                orbit_weight.append(weight)
            kernel_keys, at = _unique_inverse(np.concatenate([kernel_keys, *keys]))
            sums = np.zeros(len(kernel_keys))
            np.add.at(sums, at, np.concatenate([kernel_w, *terms]))
            kernel_w = sums
            self._add_block_shapes(groups, shape)
        self._orbits = tuple(np.concatenate(part or [np.zeros(0)])
                             for part in (orbit_shape, orbit_member, orbit_weight))
        self.values = np.flatnonzero(occupied)
        s = len(self.values)
        J, col0, pair0 = self._offsets()
        self.hist = hist.reshape(col0[-1], d)[:, self.values]
        # kernel entries as (pair of amplitude columns, layout pair), sorted by
        # layout pair
        steps, v01 = divmod(kernel_keys, d * d)
        g = np.searchsorted(pair0, steps, side="right") - 1
        j0, j1 = divmod(steps - pair0[g], J[g])
        pair = np.searchsorted(self.values, v01 // d) * s + np.searchsorted(self.values, v01 % d)
        order = np.argsort(pair, kind="stable")
        pair_keys, self.entry_pair = _unique_inverse(pair[order])
        self.layout = PackedLayout(s, *divmod(pair_keys, s))
        self.entry_cols = np.stack([col0[g] + j0, col0[g] + j1])[:, order]
        self.entry_w = kernel_w[order]
        self.pair_start = np.searchsorted(self.entry_pair, np.arange(len(pair_keys)))
        spectra = list(self.shapes.values())
        self.eigenvalues = np.concatenate([np.zeros(0)] + [sp.eigenvalues for sp in spectra])
        self.first_row = np.concatenate([np.zeros(0)] + [sp.first_row for sp in spectra])
        self._blocks = [(slice(a, b), sp.vectors.T) for a, b, sp in zip(col0, col0[1:], spectra)]

    def _offsets(self):
        """Each shape's J, and the first amplitude column and first step-pair
        key of each shape (one more entry: the totals)."""
        J = np.array([J for J, _ in self.shapes], dtype=np.intp)
        return J, np.cumsum([0, *J]), np.cumsum([0, *J * J])

    def _shape_numbers(self, orbits) -> np.ndarray:
        """Each orbit's shape number, new shapes numbered on in (J, kind) order."""
        keys, inverse = _unique_inverse(orbits.length * len(KINDS) + orbits.kind)
        number = []
        for key in keys.tolist():
            shape = (key // len(KINDS), KINDS[key % len(KINDS)])
            if shape not in self.shapes:
                self.shapes[shape] = OrbitSpectrum.of(shape[1], shape[0])
            number.append(list(self.shapes).index(shape))
        return np.array(number, dtype=np.intp)[inverse]

    def _add_block_shapes(self, groups, shape):
        """Record the sorted tuple of shape numbers of each member's blocks."""
        blocks = {}
        member = np.concatenate([m for _, m, _ in groups])
        for m, g in zip(member.tolist(), np.concatenate(shape).tolist()):
            blocks.setdefault(m, []).append(g)
        self.block_shapes.update(tuple(sorted(g)) for g in blocks.values())

    @property
    def members(self) -> list:
        """Every orbit as a (spectrum, member, weight) triple: the spectrum of
        its shape, the index of its configuration in the ensemble and its
        weight in the space average."""
        spectra = list(self.shapes.values())
        shape, member, weight = (a.tolist() for a in self._orbits)
        return [(spectra[g], m, w) for g, m, w in zip(shape, member, weight)]

    def phases(self, ts) -> np.ndarray:
        """Rows e^{-i t lambda} conj(<1|v>) of every shape's eigenvalues at
        ``ts``, shape (T, sum J): the amplitudes are these rows through each
        shape's eigenvectors."""
        return np.exp(-1j * np.outer(ts, self.eigenvalues)) * self.first_row

    def states_at(self, ts: np.ndarray, phases: np.ndarray = None) -> np.ndarray:
        """The packed (T, s + P) rows, in ``layout``, of the space-averaged
        site states at ``ts``; every other entry of the d x d state is
        exactly 0.

        ``phases``, when given, are the rows ``phases(ts)`` (the decide scan
        builds them from a table of its arithmetic grid).  All shapes go
        through one (T, sum J) amplitude array: one product with ``hist``
        for the diagonal, and the kernel entries gathered and summed per
        layout pair.
        """
        if phases is None:
            phases = self.phases(ts)
        amps = np.empty_like(phases)
        for cols, vectors_t in self._blocks:
            np.matmul(phases[:, cols], vectors_t, out=amps[:, cols])
        s = self.layout.s
        out = np.empty((len(ts), self.layout.width), dtype=complex)
        weights = np.abs(amps)
        weights *= weights
        out[:, :s] = weights @ self.hist
        if len(self.entry_w):
            # in place, so that a chunk holds two (T, E) temporaries, not four
            terms = amps.take(self.entry_cols[0], axis=1)
            other = amps.take(self.entry_cols[1], axis=1)
            np.conjugate(other, out=other)
            terms *= other
            terms *= self.entry_w
            out[:, s:] = np.add.reduceat(terms, self.pair_start, axis=1)
        return out

    def min_orbit_gap(self) -> float:
        """Smallest distinct-eigenvalue gap over the reachable spectra.

        For a block configuration the reachable spectrum is the sumset of the
        per-block spectra, assembled exactly (up to ``PRODUCT_GUARD``
        eigenvalues) because sums of per-block eigenvalues can come closer
        than any single block's gap.  The spectra depend only on the block
        shapes, so each distinct tuple of shapes is sized once, from the
        spectra of the shapes.
        """
        spectra = list(self.shapes.values())
        worst = float("inf")
        for shapes in self.block_shapes:
            lams = np.array([0.0])
            for g in shapes:
                eigenvalues = spectra[g].eigenvalues
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
    order = np.argsort(keys)
    ranked = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ranked[new], inverse


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
    # the grid is arithmetic: the phase rows of a chunk that starts at grid
    # index k0 are the table's first rows times e^{-i k0 dt lambda}
    table = avger.phases(dt * np.arange(chunk))
    running = np.zeros(layout.width, dtype=complex)
    for done in range(0, k_max, chunk):
        ks = np.arange(done + 1, min(done + chunk, k_max) + 1)
        phases = table[: len(ks)] * np.exp(-1j * ((done + 1) * dt) * avger.eigenvalues)
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
