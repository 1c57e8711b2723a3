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
    DENSE_GUARD,
    DimensionGuard,
    LocalHamiltonian,
    ReachableSpace,
    TruncatedOrbit,
    orbit_spectrum,
    reachable_space,
)
from .machine import (
    Configuration,
    MachineSpec,
    MalformedConfiguration,
    Orbit,
    RunStats,
    run_stats,
)


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


def orbit_site_data(orbit, h: LocalHamiltonian) -> OrbitSiteData:
    """Histogram and cross pairs of an orbit, its rows in (j, j') order."""
    arr = _coded(orbit, h)
    J, n = arr.shape
    d = h.site_dim
    hist = np.bincount((np.arange(J)[:, None] * d + arr).ravel(), minlength=J * d)
    _, (ja, jb, va, vb) = _one_site_pairs(h, arr, arr)
    return OrbitSiteData(J, n, hist.reshape(J, d), np.stack([ja, jb, va, vb], axis=1))


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


def coded_orbit(h: LocalHamiltonian, cfg: Configuration, max_steps: int) -> CodedOrbit:
    """Forward orbit of a single-control configuration, stepped as a list of
    site-value codes through ``h.step_table`` by the rule of
    ``lockstep_orbits``, under the configuration's own boundary.  It ends as
    ``machine.orbit_of`` does: at a dead end, in a cycle on return to the
    start row (by injectivity no other row recurs), or truncated after
    ``max_steps`` steps."""
    move, jump, ok, at_i, at_k = (a.tolist() for a in h.step_table[:5])
    periodic = cfg.boundary == "periodic"
    i = i0 = cfg.single_control()
    row = h.encode([cfg.cells])[0].tolist()
    start, c0, n = row[:], row[i], len(row)
    flat = row[:]
    kind = "dead_end"
    for _ in range(max_steps):
        c = row[i]
        k = i + move[c]
        if periodic:
            k %= n
        elif not 0 <= k < n:
            break
        x = row[k]
        # k == i: no move, or a one-site ring's control would meet itself
        if k == i or not ok[c][x]:
            break
        row[i], row[k] = at_i[c][x], at_k[c][x]
        if jump[c]:
            i = k
        if i == i0 and row[i] == c0 and row == start:
            kind = "cycle"
            break
        flat += row
    else:
        kind = "truncated"
    rows = np.array(flat, dtype=_row_dtype(h)).reshape(-1, n)
    return CodedOrbit(rows, (kind, len(rows)))


@dataclass
class StackedOrbits:
    """Forward orbits of many configurations of one width, stacked step-major.

    ``rows`` (R, n) holds the site-value codes of every step of every orbit:
    all first steps, then all second steps, and so on, each step's rows in
    orbit order.  ``orbit`` and ``step`` give each row's orbit and 0-based
    step, ``length`` and ``kind`` each orbit's J and terminal, ``kind`` as
    codes into ``KINDS``.
    """

    rows: np.ndarray
    orbit: np.ndarray
    step: np.ndarray
    length: np.ndarray
    kind: np.ndarray


KINDS = ("dead_end", "cycle", "truncated")


def lockstep_orbits(
    h: LocalHamiltonian, rows: np.ndarray, sites: np.ndarray, periodic: bool, max_steps: int
) -> StackedOrbits:
    """``coded_orbit`` of every row of ``rows`` at once.

    ``rows`` (m, n) are the codes of single-control configurations of one
    width and boundary, the control of row k at ``sites[k]``; a row with
    site -1 holds no control and is a dead end of one step.  Each step is a
    few array operations on the rows still running, through the dense arrays
    ``h.step_table``, and a row stops where ``coded_orbit`` stops: at a
    dead end, on return to its start row (a cycle; the return is not
    stored), or after ``max_steps`` steps (truncated, with max_steps + 1
    rows).  Per step this costs tens of microseconds against a few for one
    ``coded_orbit`` step, so it pays only for many rows; ``coded_orbit``
    stays the stepper of single orbits.
    """
    move, jump, ok, at_i, at_k = h.step_table[:5]
    m, n = rows.shape
    live = np.flatnonzero(sites >= 0)
    cur, at = rows[live], sites[live]
    start, at0 = cur, at
    base = n * np.arange(len(live))
    out_rows, out_orbit = [rows], [np.arange(m)]
    kind = np.zeros(m, dtype=np.int8)
    for _ in range(max_steps):
        if not len(live):
            break
        flat = cur.reshape(-1)
        c = flat[base + at]
        # no step off an open end, for a control without a move (move 0),
        # where a one-site ring's control would meet itself, or for a
        # read-write pair without a rule
        k = at + move[c]
        if periodic:
            k %= n
            go = k != at
        else:
            go = (k != at) & (0 <= k) & (k < n)
            k = np.clip(k, 0, n - 1)
        x = flat[base + k]
        go &= ok[c, x]
        if not go.all():
            keep = np.flatnonzero(go)
            live, at, at0, start, cur = live[keep], at[keep], at0[keep], start[keep], cur[keep]
            c, k, x, base = c[keep], k[keep], x[keep], base[: len(keep)]
        else:
            cur = cur.copy()
        flat = cur.reshape(-1)
        flat[base + at] = at_i[c, x]
        flat[base + k] = at_k[c, x]
        at = np.where(jump[c], k, at)
        back = np.flatnonzero(at == at0)
        if len(back):
            back = back[(cur[back] == start[back]).all(axis=1)]
        if len(back):
            kind[live[back]] = KINDS.index("cycle")
            keep = np.ones(len(live), dtype=bool)
            keep[back] = False
            live, at, at0, start, cur = live[keep], at[keep], at0[keep], start[keep], cur[keep]
            base = base[: len(live)]
        out_rows.append(cur)
        out_orbit.append(live)
    else:
        kind[live] = KINDS.index("truncated")
    sizes = [len(o) for o in out_orbit]
    orbit = np.concatenate(out_orbit)
    return StackedOrbits(
        rows=np.concatenate(out_rows),
        orbit=orbit,
        step=np.repeat(np.arange(len(sizes)), sizes),
        length=np.bincount(orbit, minlength=m),
        kind=kind,
    )


def _member_parts(h: LocalHamiltonian, codes: np.ndarray, periodic: bool):
    """The parts ``stacked_member_orbits`` splits each configuration into,
    on the (M, n) codes of configurations of one width and boundary.

    Returns one array per field of the parts: the row of each part's
    configuration, its width, the site it starts at, its control site
    within it (-1 for a control-free part) and whether it is a block of a
    split configuration.  A configuration with at most one control is one
    part; one with several is cut at each control into blocks reaching up
    to the next control (cyclically when periodic), plus, on an open
    lattice, the control-free head left of its first control.
    """
    n = codes.shape[1]
    ctrl = h.step_table.is_control[codes]
    count = ctrl.sum(axis=1)
    whole = np.flatnonzero(count <= 1)
    sites = [np.where(count[whole] == 1, ctrl[whole].argmax(axis=1), -1)]
    members, widths = [whole], [np.full(len(whole), n)]
    starts, split = [np.zeros(len(whole), dtype=np.intp)], [np.zeros(len(whole), dtype=bool)]
    row, site = np.nonzero(ctrl[count > 1])
    if len(row):
        row = np.flatnonzero(count > 1)[row]
        first = np.ones(len(row), dtype=bool)
        first[1:] = row[1:] != row[:-1]
        # each block runs to the next control of its row; the last one to the
        # first control one lattice on (periodic) or to the lattice end
        end = np.append(site[1:], 0)
        last = np.append(first[1:], True)
        end[last] = site[first] + n if periodic else n
        heads = first & (site > 0) & (not periodic)
        members += [row, row[heads]]
        widths += [end - site, site[heads]]
        starts += [site, np.zeros(heads.sum(), dtype=np.intp)]
        sites += [np.zeros(len(row), dtype=np.intp), np.full(heads.sum(), -1)]
        split += [np.ones(len(row) + heads.sum(), dtype=bool)]
    members, widths, starts, sites, split = map(
        np.concatenate, (members, widths, starts, sites, split))
    return members, widths, starts, sites, split


def stacked_member_orbits(h: LocalHamiltonian, members, max_steps: int) -> list:
    """The forward orbits of every configuration of ``members``
    [(Configuration, weight)], stepped in lockstep.

    A single-control configuration is one orbit of weight one.  A
    multi-control configuration splits into non-interacting blocks, each a
    control with the cells up to the next control, and the space average
    over the whole lattice is the size-weighted sum of the per-block space
    averages, so each block orbit enters with weight block width / lattice
    width.  A control-free part (the whole configuration, or the cells left
    of the first control on an open lattice) is frozen: one step, a dead
    end.  The split is refused (``MalformedConfiguration``) when a block
    orbit ends on a left shift off the start of its block: on the whole
    lattice that shift enters the neighbouring block, so the blocks
    interact.

    The configurations of one width and boundary are encoded in one
    ``h.encode`` call and split by ``_member_parts``; the parts of one width
    and boundary are stepped by one ``lockstep_orbits`` call.  Returns one
    (StackedOrbits, member, weight) triple per such group, giving per orbit
    the index of its configuration in ``members`` and the weight
    w * part width / lattice width it enters the space average with.
    """
    by_kind = {}
    for k, (cfg, _) in enumerate(members):
        by_kind.setdefault((cfg.size, cfg.boundary), []).append(k)
    weights = np.array([float(w) for _, w in members])
    table = h.step_table
    refuses = table.jump & (table.move < 0)  # shift-mode controls that move left
    out = []
    for (n, boundary), ks in by_kind.items():
        codes = h.encode((members[k][0].cells for k in ks), _row_dtype(h))
        member, width, start, site, split = _member_parts(h, codes, boundary == "periodic")
        for w, part_split in sorted(set(zip(width.tolist(), split.tolist()))):
            at = np.flatnonzero((width == w) & (split == part_split))
            cols = (start[at, None] + np.arange(w)) % n
            orbits = lockstep_orbits(h, codes[member[at, None], cols], site[at],
                                     boundary == "periodic" and not part_split, max_steps)
            if part_split:  # the block refusal, on each orbit's last row
                ends = orbits.step == orbits.length[orbits.orbit] - 1
                last = orbits.rows[ends, 0][np.argsort(orbits.orbit[ends])]
                if (refuses[last] & (orbits.kind == KINDS.index("dead_end"))).any():
                    raise MalformedConfiguration(
                        "block decomposition refused: a block orbit shifts left off its block"
                    )
            index = np.asarray(ks)[member[at]]
            out.append((orbits, index, weights[index] * (w / n)))
    return out


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
    space = reachable_space(h, seeds)  # refuses more than DENSE_GUARD states
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
