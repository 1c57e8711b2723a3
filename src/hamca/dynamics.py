"""Exact continuous-time dynamics on orbit subspaces.

Everything is computed in the basis of lattice configurations reachable from
the initial one, never on the full tensor space.  A dead-end orbit of length
J carries the J-site path Hamiltonian, whose propagator has the closed sine
form; a cyclic orbit carries the circulant form.  The long-term state of a
dead-end orbit is diagonal, the visit law applied to the counts of one
``run_stats`` pass; a cycle weighs its cross pairs with the closed circulant
kernel.  The brute-force route runs a dense eigendecomposition on the
reachable subspace.

All trace norms are the unhalved sum of absolute eigenvalues, so two
orthogonal pure states are at distance 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .hamiltonian import (
    DimensionGuard,
    LocalHamiltonian,
    ReachableSpace,
    TruncatedOrbit,
    orbit_spectrum,
    reachable_space,
)
from .machine import (
    MINUS,
    Configuration,
    MachineSpec,
    MalformedConfiguration,
    Orbit,
    RunStats,
    is_control,
    run_stats,
    split_blocks,
)

# Largest dimension built as a dense square array (cycle kernel, dense oracle).
DENSE_GUARD = 4096


# ---------------------------------------------------------------------------
# Spectral evolution on a single orbit
# ---------------------------------------------------------------------------


def evolve_spectral(orbit: Orbit, t: float) -> np.ndarray:
    """Amplitudes <j| exp(-i t H) |1> of the orbit's steps, index j-1."""
    return orbit_spectrum(orbit).amplitudes([t])[0]


# ---------------------------------------------------------------------------
# Exact time-average kernels
# ---------------------------------------------------------------------------


def trig_kernel(J: int, j: int, jp: int) -> Fraction:
    """Closed form of sum_k sin^2(pi k/(J+1)) sin(j' k pi/(J+1)) sin(j k pi/(J+1)).

    Four cases: (J+1)/4 on the diagonal away from the ends, 3(J+1)/8 at the
    two ends, -(J+1)/8 two steps off the diagonal, zero elsewhere.  J = 1 is
    the one degenerate size where the end formula does not apply.
    """
    if not (1 <= j <= J and 1 <= jp <= J):
        raise ValueError("indices must lie in 1..J")
    if J == 1:
        return Fraction(1)
    if j == jp:
        if j == 1 or j == J:
            return Fraction(3 * (J + 1), 8)
        return Fraction(J + 1, 4)
    if abs(j - jp) == 2:
        return Fraction(-(J + 1), 8)
    return Fraction(0)


def trig_kernel_direct(J: int, j: int, jp: int) -> Fraction:
    """Direct numerical summation, certified back to an exact rational.

    Every value of the sum is an integer multiple of 1/8, and the float
    error of J <= a few hundred terms is far below the 1/8 spacing, so the
    rounding is exact.
    """
    k = np.arange(1, J + 1) * (np.pi / (J + 1))
    s = float(np.sum(np.sin(k) ** 2 * np.sin(jp * k) * np.sin(j * k)))
    n = round(8 * s)
    if abs(8 * s - n) > 1e-6:
        raise ArithmeticError(f"summation not certifiable at J={J}, j={j}, jp={jp}")
    return Fraction(n, 8)


def _cosine_sum(J: int, m: int) -> int:
    """sum_{k=1..J} cos(m k pi/(J+1)), exact by the geometric-series identity."""
    m = abs(m)
    if m % (2 * (J + 1)) == 0:
        return J
    return -1 if m % 2 == 0 else 0


def overlap_kernel(J: int, j: int, jp: int) -> Fraction:
    """The same sum evaluated through exact cosine sums (independent route)."""
    c = lambda m: _cosine_sum(J, m)
    total = (
        2 * c(j - jp)
        - 2 * c(j + jp)
        - c(j - jp + 2)
        - c(j - jp - 2)
        + c(j + jp + 2)
        + c(j + jp - 2)
    )
    return Fraction(total, 8)


def time_avg_probs(J: int) -> list:
    """Visit probabilities p_j of a dead-end orbit: uniform 1/(J+1) inside,
    3/2 of that at the two ends; the J = 1 orbit sits at its single step."""
    if J < 1:
        raise ValueError("J must be positive")
    if J == 1:
        return [Fraction(1)]
    ps = [Fraction(1, J + 1)] * J
    ps[0] = Fraction(3, 2 * (J + 1))
    ps[-1] = Fraction(3, 2 * (J + 1))
    return ps


def time_avg_probs_overlap(J: int) -> list:
    """p_j recomputed from eigenvector overlaps via exact cosine sums."""
    return [4 * overlap_kernel(J, j, j) / (J + 1) ** 2 for j in range(1, J + 1)]


def pair_weight_matrix(J: int) -> np.ndarray:
    """Infinite-time average of amp_j(t) * conj(amp_j'(t)) on a J-cycle, 0-based.

    Eigenvalue 2cos(2 pi k/J) is shared only by k and -k, so the average is
    the sum over k of the projections of the first step onto {k, -k}:
    (J [j = j'] + J [j + j' = 0 mod J] - 1 - [J even] (-1)^(j+j')) / J^2.
    """
    j = np.arange(J)
    s = j[:, None] + j
    w = J * (j[:, None] == j) + J * (s % J == 0) - 1.0
    if J % 2 == 0:
        w -= 1 - 2 * (s % 2)
    return w / J**2


# ---------------------------------------------------------------------------
# Single-site states
# ---------------------------------------------------------------------------


def check_state(rho: np.ndarray, tol: float = 1e-9) -> None:
    if np.linalg.norm(rho - rho.conj().T) > 1e-12 + tol:
        raise ValueError("state is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10 + tol:
        raise ValueError("state does not have unit trace")
    if np.linalg.eigvalsh(rho).min() < -1e-10 - tol:
        raise ValueError("state is not positive semidefinite")


def trace_distance(a: np.ndarray, b: np.ndarray):
    """Unhalved trace norm of the difference: orthogonal pure states are at 2.
    Stacks of matrices give the array of their distances."""
    dist = np.abs(np.linalg.eigvalsh(a - b)).sum(axis=-1)
    return dist if dist.ndim else float(dist)


def basis_state(h: LocalHamiltonian, value) -> np.ndarray:
    d = h.site_dim
    rho = np.zeros((d, d), dtype=complex)
    k = h.value_index(value)
    rho[k, k] = 1.0
    return rho


# ---------------------------------------------------------------------------
# Orbit-path site averages
# ---------------------------------------------------------------------------


@dataclass
class OrbitSiteData:
    """Per-orbit data for space-averaged single-site matrix elements.

    ``hist``: (J, d) integer counts of each site value per step.
    ``cross``: (n_cross, 4) integer rows (j, j', v, v') for the ordered pairs
    of steps (0-based) whose configurations differ at exactly one site, that
    site holding value index v at step j and v' at step j'; only such pairs
    contribute off-diagonal step-cross terms.
    """

    J: int
    n_sites: int
    hist: np.ndarray
    cross: np.ndarray


# Cells compared per slice of step pairs in _one_site_pairs; bounds its
# temporaries (pair indices, two gathered rows and a bool row per pair).
_PAIR_CELLS = 1 << 20


def _row_dtype(h: LocalHamiltonian) -> np.dtype:
    """The smallest unsigned type that holds every site-value code."""
    return np.min_scalar_type(h.site_dim - 1)


def _coded(orbit, h: LocalHamiltonian) -> np.ndarray:
    """(J, n) site-value codes of an orbit's steps; a ``CodedOrbit`` holds
    them already, an ``Orbit`` of configurations is encoded."""
    if isinstance(orbit, CodedOrbit):
        return orbit.rows
    return h.encode((c.cells for c in orbit.states), _row_dtype(h))


def _one_site_pairs(h: LocalHamiltonian, arr_a: np.ndarray, arr_b: np.ndarray, orbit_of_row=0):
    """Step pairs (j, j') of two coded orbits, j a row of ``arr_a`` and j' of
    ``arr_b``, whose configurations differ at no site or at exactly one.

    Returns ``(ja, jb)`` of the identical pairs and ``(ja, jb, va, vb)`` of
    the one-site pairs, va and vb the two values at the differing site; both
    in (j, j') order.  Two single-control configurations that differ at one
    site or none hold their control on the same site: otherwise each would
    hold a control where the other holds a cell.  So a row is compared only
    with the rows of ``arr_b`` in its control-site bucket, sum_p a_p b_p n
    work for a_p and b_p steps at site p.  When ``arr_a is arr_b`` stacks
    the rows of several orbits, ``orbit_of_row`` numbers each row's orbit and
    the buckets are (orbit, control site), so no pair joins two orbits.  The
    pairs are built and compared in slices of about ``_PAIR_CELLS`` cells, so
    short orbits take one pass.
    """
    is_ctrl = h.step_table.is_control
    site_b = is_ctrl[arr_b].argmax(axis=1) + arr_b.shape[1] * orbit_of_row
    site_a = site_b if arr_a is arr_b else is_ctrl[arr_a].argmax(axis=1)
    order = np.argsort(site_b, kind="stable")  # steps ascending within a bucket
    bucket = site_b[order]
    lo = np.searchsorted(bucket, site_a, side="left")
    size = np.searchsorted(bucket, site_a, side="right") - lo
    # row j pairs with sorted positions lo[j]..lo[j]+size[j]-1; its pairs are
    # numbered from start[j] in one running count
    start = np.cumsum(size) - size
    step = max(1, _PAIR_CELLS // arr_a.shape[1])
    same, one = [], []
    j = 0
    while j < len(arr_a):
        k = max(j + 1, int(np.searchsorted(start, start[j] + step)))
        count = size[j:k]
        a = np.repeat(np.arange(j, k), count)
        b = order[np.repeat(lo[j:k] - start[j:k], count)
                  + np.arange(start[j], start[j] + count.sum())]
        j = k
        diff = arr_a[a] != arr_b[b]
        hits = diff.sum(axis=1)
        at = np.nonzero(hits == 0)[0]
        same.append((a[at], b[at]))
        at = np.nonzero(hits == 1)[0]
        a, b, i = a[at], b[at], diff[at].argmax(axis=1)
        one.append((a, b, arr_a[a, i], arr_b[b, i]))
    return tuple(map(np.concatenate, zip(*same))), tuple(map(np.concatenate, zip(*one)))


def batch_site_data(orbits, h: LocalHamiltonian) -> list:
    """``orbit_site_data`` of each orbit, from one ``_one_site_pairs`` pass
    per lattice width: the rows of the orbits of one width are stacked and
    bucketed by (orbit, control site), then split back per orbit, each in
    its own (j, j') order."""
    arrs = [_coded(orbit, h) for orbit in orbits]
    by_width = {}
    for k, arr in enumerate(arrs):
        by_width.setdefault(arr.shape[1], []).append(k)
    d = h.site_dim
    out = [None] * len(arrs)
    for n, ks in by_width.items():
        arr = np.concatenate([arrs[k] for k in ks])
        lengths = [len(arrs[k]) for k in ks]
        first = np.cumsum(lengths) - lengths  # each orbit's first stacked row
        which = np.repeat(np.arange(len(ks)), lengths)
        R = len(arr)
        hist = np.bincount((np.arange(R)[:, None] * d + arr).ravel(), minlength=R * d)
        _, (ja, jb, va, vb) = _one_site_pairs(h, arr, arr, which)
        base = first[which[ja]]
        cross = np.stack([ja - base, jb - base, va, vb], axis=1)
        hists = np.split(hist.reshape(R, d), first[1:])
        crosses = np.split(cross, np.searchsorted(ja, first[1:]))
        for k, hist_k, cross_k in zip(ks, hists, crosses):
            out[k] = OrbitSiteData(J=len(hist_k), n_sites=n, hist=hist_k, cross=cross_k)
    return out


def orbit_site_data(orbit, h: LocalHamiltonian) -> OrbitSiteData:
    """Histogram and cross pairs of an orbit, its rows in (j, j') order."""
    return batch_site_data([orbit], h)[0]


def add_site_states(
    out: np.ndarray,
    data: OrbitSiteData,
    step_w: np.ndarray,
    pair_w: np.ndarray,
    weight: float = 1.0,
) -> None:
    """Add ``weight`` times the space-averaged site states into ``out`` in place.

    ``step_w`` (..., J) weighs each step's site histogram on the diagonal and
    ``pair_w`` (..., n_cross) each cross pair of ``data.cross``; ``out`` is
    (..., d, d) with the same leading shape.  A pure state sum_j a_j |j; x>
    has step weights |a_j|^2 and pair weights a_j conj(a_j').
    """
    d = out.shape[-1]
    scale = weight / data.n_sites
    out[..., np.arange(d), np.arange(d)] += scale * (step_w @ data.hist)
    np.add.at(out, (..., data.cross[:, 2], data.cross[:, 3]), scale * pair_w)


def site_average_weighted(data: OrbitSiteData, w: np.ndarray, d: int) -> np.ndarray:
    """Space-averaged state under a step-pair weight matrix w[j, j']."""
    rho = np.zeros((d, d), dtype=complex)
    add_site_states(rho, data, np.real(np.diag(w)), w[data.cross[:, 0], data.cross[:, 1]])
    return rho


def orbit_site_average(orbit: Orbit, h: LocalHamiltonian, t, keep=None):
    """Space-averaged site state at time ``t``; for an array of times, the
    (T, d, d) stack of them, from one pass over the orbit.

    With ``keep`` (site-value codes), the states are built on the block of
    the values the orbit occupies plus ``keep`` only, as the decide scan
    builds its own: the result is ``(values, states)``, ``values`` the
    sorted codes of the block and ``states`` (..., s, s) over them.  Every
    entry outside the block is exactly 0, so nothing d x d is built.
    """
    data = orbit_site_data(orbit, h)
    amps = orbit_spectrum(orbit).amplitudes(np.atleast_1d(t))
    if keep is not None:
        occupied = data.hist.any(axis=0)
        occupied[list(keep)] = True
        values = np.flatnonzero(occupied)
        at = np.searchsorted(values, data.cross[:, 2:])
        data = OrbitSiteData(data.J, data.n_sites, data.hist[:, values],
                             np.concatenate([data.cross[:, :2], at], axis=1))
    s = data.hist.shape[1]
    rho = np.zeros((len(amps), s, s), dtype=complex)
    c = data.cross
    add_site_states(rho, data, np.abs(amps) ** 2, amps[:, c[:, 0]] * np.conj(amps[:, c[:, 1]]))
    rho = rho if np.ndim(t) else rho[0]
    return rho if keep is None else (values, rho)


def longterm_site_average(
    spec: MachineSpec, h: LocalHamiltonian, cfg: Configuration, max_steps: int
) -> tuple[np.ndarray, RunStats]:
    """Infinite-time space-averaged site state of a single-control
    configuration, with the ``run_stats`` counts of its orbit.

    The dead-end path kernel couples a step only with itself and with the
    steps two away, and configurations j and j+2 differ at the control's old
    and new sites, since read-write steps and shifts alternate.  So no cross
    pair carries weight, and the state is the visit law (3/2 weight at the
    two ends) on the diagonal, straight from the counts.  A cycle weighs the
    cross pairs of its coded orbit with ``pair_weight_matrix``; one longer
    than ``DENSE_GUARD`` steps is refused before anything is built.
    """
    stats = run_stats(spec, cfg, max_steps)
    if stats.terminal == "truncated":
        raise TruncatedOrbit("orbit did not close within the step budget")
    if stats.terminal == "cycle":
        if stats.length > DENSE_GUARD:
            raise DimensionGuard(
                f"cycle kernel refuses J = {stats.length} (> {DENSE_GUARD})"
            )
        data = orbit_site_data(coded_orbit(h, cfg, max_steps), h)
        rho = site_average_weighted(data, pair_weight_matrix(stats.length), h.site_dim)
        return rho, stats
    counts = [
        2 * stats.total_steps_by_value.get(v, 0)
        + stats.first_hist.get(v, 0)
        + stats.last_hist.get(v, 0)
        for v in h.site_values
    ]
    rho = np.diag(np.array(counts) / (2 * (stats.length + 1) * cfg.size))
    return rho.astype(complex), stats


def member_orbit_terms(h: LocalHamiltonian, cfg: Configuration, max_steps: int):
    """Orbit contributions of one configuration to the space average.

    A single-control configuration contributes its own coded orbit with
    weight one.
    A multi-control configuration splits into non-interacting blocks, and the
    space average over the whole lattice is the size-weighted sum of the
    per-block space averages, so each block orbit enters with weight
    block_size / lattice_size.  A control-free part (the whole configuration,
    or the cells left of the first control on an open lattice) is frozen.
    The split is refused when a block orbit ends on a left shift off the
    start of its block: on the whole lattice that shift enters the
    neighbouring block, so the blocks interact.
    """
    sites = cfg.control_sites()
    if len(sites) > 1:
        blocks = split_blocks(cfg, sites)
        # every block starts at its control; only an open lattice's head has none
        parts = [(b, 0 if is_control(b.cells[0]) else None) for b in blocks]
    else:
        parts = [(cfg, sites[0] if sites else None)]
    out = []
    for block, site in parts:
        if site is None:
            # no control: the update never acts, the part is frozen
            frozen = CodedOrbit(h.encode([block.cells], _row_dtype(h)), ("dead_end", 1))
            out.append((frozen, block.size / cfg.size))
            continue
        orbit = coded_orbit(h, block, max_steps, site)
        head = h.site_values[orbit.rows[-1, 0]]
        if (
            block is not cfg
            and orbit.kind == "dead_end"
            and is_control(head)
            and head[1] != h.rw_mode
            and h.shift_dirs.get(head[2]) == MINUS
        ):
            raise MalformedConfiguration(
                "block decomposition refused: a block orbit shifts left off its block"
            )
        out.append((orbit, block.size / cfg.size))
    return out


def ensemble_site_average(members, h: LocalHamiltonian, t: float, max_steps=100000):
    """Space-averaged state of a classical mixture of configurations at time t.

    ``members`` is an iterable of (Configuration, weight).  Each configuration
    evolves inside its own orbit (per block, when it carries several control
    sites); weights combine linearly, mixtures having no cross terms between
    distinct initial configurations.
    """
    rho = np.zeros((h.site_dim, h.site_dim), dtype=complex)
    total = 0.0
    for cfg, weight in members:
        for orbit, scale in member_orbit_terms(h, cfg, max_steps):
            rho += float(weight) * scale * orbit_site_average(orbit, h, t)
        total += float(weight)
    if abs(total - 1.0) > 1e-9:
        rho /= total
    return rho


@dataclass(frozen=True)
class CodedOrbit:
    """An orbit as its (J, n) site-value codes, one row per step, in the
    smallest unsigned type; ``terminal`` as in ``machine.Orbit``."""

    rows: np.ndarray
    terminal: tuple

    @property
    def length(self) -> int:
        return len(self.rows)

    @property
    def kind(self) -> str:
        return self.terminal[0]


def coded_orbit(
    h: LocalHamiltonian, cfg: Configuration, max_steps: int, control: int = None
) -> CodedOrbit:
    """Forward orbit of a single-control configuration, stepped as a list of
    site-value codes through ``h.step_table``, under the configuration's own
    boundary.  It ends as ``machine.orbit_of`` does: at a dead end, in a cycle
    on return to the start row (by injectivity no other row recurs), or
    truncated after ``max_steps`` steps.  ``control`` is the configuration's
    one control site, when the caller has already found it."""
    rw_next, shift_next, _, _ = h.step_table
    values, rw_mode = h.site_values, h.rw_mode
    periodic = cfg.boundary == "periodic"
    i = i0 = cfg.single_control() if control is None else control
    row = h.encode([cfg.cells])[0].tolist()
    start, c0, n = row[:], row[i], len(row)
    flat = row[:]
    kind = "dead_end"
    for _ in range(max_steps):
        c = row[i]
        if values[c][1] == rw_mode:
            k = 0 if i + 1 == n and periodic else i + 1
            # None also at the open end, and when k is the control itself
            hit = rw_next.get((c, row[k])) if k < n else None
            if hit is None:
                break
            row[i], row[k] = hit
        else:
            hit = shift_next.get(c)
            if hit is None:
                break
            c, k = hit[0], i + hit[1]
            if periodic:
                k %= n
            elif not 0 <= k < n:
                break
            if k == i:  # a one-site ring: the control would swap with itself
                break
            row[i], row[k] = row[k], c
            i = k
        if i == i0 and row[i] == c0 and row == start:
            kind = "cycle"
            break
        flat += row
    else:
        kind = "truncated"
    rows = np.array(flat, dtype=_row_dtype(h)).reshape(-1, n)
    return CodedOrbit(rows, (kind, len(rows)))


def run_orbit_cached(cfg: Configuration, h: LocalHamiltonian, max_steps: int) -> Orbit:
    """``coded_orbit`` decoded to configurations: the compiled route beside
    ``machine.run_orbit``.  Nothing is cached."""
    orbit = coded_orbit(h, cfg, max_steps)
    values = h.site_values
    states = tuple(
        Configuration(tuple(values[k] for k in row), cfg.boundary)
        for row in orbit.rows.tolist()
    )
    return Orbit(states, orbit.terminal)


# ---------------------------------------------------------------------------
# Dense oracle on the reachable subspace
# ---------------------------------------------------------------------------


@dataclass
class DenseSpace:
    """Eigendecomposed H on the closure of a seed set of configurations."""

    space: ReachableSpace
    eigvals: np.ndarray
    eigvecs: np.ndarray
    site_dim: int
    codes: np.ndarray  # (dim, n) site-value codes of the basis states

    def evolve(self, amplitudes: np.ndarray, t: float) -> np.ndarray:
        coeff = self.eigvecs.conj().T @ amplitudes
        return self.eigvecs @ (np.exp(-1j * self.eigvals * t) * coeff)

    def state_vector(self, cfg: Configuration) -> np.ndarray:
        v = np.zeros(self.space.dim, dtype=complex)
        v[self.space.index[cfg.cells]] = 1.0
        return v

    @cached_property
    def _site_pairs(self) -> np.ndarray:
        """Rows (b, b', v, v') of the basis pairs that agree off one site i,
        that site holding value index v in b and v' in b'; a basis state pairs
        with itself once per site."""
        groups = {}
        for b, row in enumerate(self.codes.tolist()):
            for i, v in enumerate(row):
                groups.setdefault((i, tuple(row[:i] + row[i + 1 :])), []).append((b, v))
        return np.array(
            [(b1, b2, v1, v2) for hits in groups.values() for b1, v1 in hits for b2, v2 in hits]
        ).T

    def site_average(self, vec: np.ndarray) -> np.ndarray:
        """Space-averaged single-site state of an arbitrary vector."""
        b1, b2, v1, v2 = self._site_pairs
        rho = np.zeros((self.site_dim, self.site_dim), dtype=complex)
        np.add.at(rho, (v1, v2), vec[b1] * np.conj(vec[b2]))
        return rho / self.codes.shape[1]

    def longterm_site_average(self, vec: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """Infinite-time average via spectral projections, eigenvalues grouped
        within ``tol`` before projecting."""
        coeff = self.eigvecs.conj().T @ vec
        order = np.argsort(self.eigvals)
        dim = len(self.eigvals)
        avg_vecs = []
        start = 0
        while start < dim:
            end = start
            while (
                end + 1 < dim
                and self.eigvals[order[end + 1]] - self.eigvals[order[start]] < tol
            ):
                end += 1
            group = order[start : end + 1]
            avg_vecs.append(self.eigvecs[:, group] @ coeff[group])
            start = end + 1
        d = self.site_dim
        rho = np.zeros((d, d), dtype=complex)
        for gv in avg_vecs:
            rho += self.site_average(gv)
        return rho


def dense_space(h: LocalHamiltonian, seeds) -> DenseSpace:
    space = reachable_space(h, seeds)
    if space.dim > DENSE_GUARD:
        raise DimensionGuard(
            f"dense oracle refuses {space.dim} basis states (> {DENSE_GUARD})"
        )
    vals, vecs = np.linalg.eigh(space.h_matrix())
    return DenseSpace(
        space=space,
        eigvals=vals,
        eigvecs=vecs,
        site_dim=h.site_dim,
        codes=h.encode(space.basis),
    )


# ---------------------------------------------------------------------------
# Cross terms between distinct initial configurations
# ---------------------------------------------------------------------------


def pair_overlap_matrix(
    orbit_a: Orbit, orbit_b: Orbit, h: LocalHamiltonian, b_matrix: np.ndarray
) -> np.ndarray:
    """M[j', j] = <j'; x'| B^(L) |j; x> for the space average of B: only
    steps that differ at one site or none have a nonzero entry."""
    arr_a, arr_b = _coded(orbit_a, h), _coded(orbit_b, h)
    (sa, sb), (ja, jb, va, vb) = _one_site_pairs(h, arr_a, arr_b)
    n = arr_a.shape[1]
    out = np.zeros((len(arr_b), len(arr_a)), dtype=complex)
    out[sb, sa] = b_matrix[arr_b[sb], arr_a[sa]].sum(axis=1) / n
    out[jb, ja] = b_matrix[vb, va] / n
    return out


def dephasing_cross_term(
    h: LocalHamiltonian,
    x: Configuration,
    xp: Configuration,
    b_matrix: np.ndarray,
    ts,
    max_steps: int = 100000,
) -> float:
    """max over t of |<x'| e^{itH} B^(L) e^{-itH} |x>| through orbit expansions."""
    orbit_a = coded_orbit(h, x, max_steps)
    orbit_b = coded_orbit(h, xp, max_steps)
    if orbit_a.kind == "truncated" or orbit_b.kind == "truncated":
        raise TruncatedOrbit("dephasing check needs complete orbits")
    m = pair_overlap_matrix(orbit_a, orbit_b, h, b_matrix)
    aa = orbit_spectrum(orbit_a).amplitudes(ts)
    ab = orbit_spectrum(orbit_b).amplitudes(ts)
    vals = np.abs(np.sum((np.conj(ab) @ m) * aa, axis=1))
    return float(np.max(vals, initial=0.0))


def space_average_operator(ds: DenseSpace, b_matrix: np.ndarray) -> np.ndarray:
    """B^(L) = (1/n) sum_i B_i assembled on a dense closure basis from the
    site pairs ``site_average`` uses: <b'| B_i |b> = B[v', v] when b and b'
    agree off site i."""
    b1, b2, v1, v2 = ds._site_pairs
    out = np.zeros((ds.space.dim, ds.space.dim), dtype=complex)
    np.add.at(out, (b2, b1), b_matrix[v2, v1] / ds.codes.shape[1])
    return out


def dense_cross_term(
    h: LocalHamiltonian,
    x: Configuration,
    xp: Configuration,
    b_matrix: np.ndarray,
    ts,
) -> float:
    """Same cross element computed densely; handles multi-block configurations."""
    ds = dense_space(h, [x, xp])
    op = space_average_operator(ds, b_matrix)
    vx = ds.state_vector(x)
    vxp = ds.state_vector(xp)
    worst = 0.0
    for t in ts:
        ex = ds.evolve(vx, t)
        exp_ = ds.evolve(vxp, t)
        worst = max(worst, float(abs(exp_.conj() @ op @ ex)))
    return worst
