"""Product initial states, frequency-encoded inputs, and goodness statistics.

An input bit string v (promise: last bit 1) is stored as the rate
beta = 0.v1 v2 ... vn of ones among the first bits of simulation cells,
with a length witness at rate 1/n^2 on the second bits.  Classical mixtures
over lattice configurations are product measures; amplitudes never appear
here, only their squared weights, kept as exact rationals.

``phase_decode`` recovers (|v|, v) from the rotation-angle form of beta with
exact angle arithmetic on a single two-level register: the register is on a
basis state at every read-out point, which is what makes the loop usable
inside a classical reversible machine.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .machine import (
    BITS,
    BLANK,
    Configuration,
    MachineSpec,
    a_cell,
    control,
    is_control,
    m_cell,
)


class PromiseViolated(ValueError):
    pass


class NoValidCodeword(ValueError):
    pass


class OraclePromiseViolated(ValueError):
    pass


class ParamsViolation(ValueError):
    pass


A1 = a_cell("a1")

# Largest support an ensemble enumerates; a larger one is a sampling handle.
ENUMERATION_LIMIT = 10**6


# ---------------------------------------------------------------------------
# Input encoding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InputEncoding:
    v: str
    beta: Fraction
    marker_rate: Fraction
    alpha: Fraction

    @property
    def n(self) -> int:
        return len(self.v)


def encode_input(v: str, alpha: Fraction = Fraction(1, 256)) -> InputEncoding:
    if not v or set(v) - {"0", "1"}:
        raise PromiseViolated("input must be a nonempty bit string")
    if v[-1] != "1":
        raise PromiseViolated("input must end in 1")
    n = len(v)
    beta = Fraction(int(v, 2), 2**n)
    alpha = Fraction(alpha)
    if not 0 <= alpha < 1:
        raise ParamsViolation("simulation-cell rate must lie in [0, 1)")
    return InputEncoding(v=v, beta=beta, marker_rate=Fraction(1, n * n), alpha=alpha)


def alpha_from_eps1(eps1: Fraction) -> Fraction:
    """Rate of simulation cells derived from the target accuracy: (eps1/4)^2."""
    return Fraction(eps1, 4) ** 2


def recover_beta(beta_prime: Fraction, n_prime: int) -> str:
    """Unique codeword within 2^-(n_prime+1) of the measured rate.

    Valid codewords are dyadic rationals in (0,1) with at most n_prime
    fractional bits; stripping trailing zeros yields the bit string.
    """
    beta_prime = Fraction(beta_prime)
    scale = 2**n_prime
    m = round(beta_prime * scale)
    if abs(beta_prime - Fraction(m, scale)) >= Fraction(1, 2 * scale):
        raise NoValidCodeword(f"no codeword within 2^-{n_prime + 1} of {beta_prime}")
    if not 0 < m < scale:
        raise NoValidCodeword("recovered rate is outside (0, 1)")
    while m % 2 == 0:
        m //= 2
        n_prime -= 1
    return format(m, "b").zfill(n_prime)


# ---------------------------------------------------------------------------
# Ensemble parameters and construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnsembleParams:
    mode: str  # "anchored" or "iid"
    L: int
    alpha: Fraction
    l: int = 0  # block scale, iid only
    boundary: str = "periodic"

    def __post_init__(self):
        if self.mode not in ("anchored", "iid"):
            raise ParamsViolation(f"unknown ensemble mode {self.mode!r}")
        if self.mode == "iid" and self.l < 1:
            raise ParamsViolation(f"iid mode needs a block scale l >= 1, got {self.l!r}")

    def violations(self, n: int) -> list:
        """Threshold checks; desk-scale runs record these instead of failing."""
        out = []
        n0 = 4 / Fraction(self.alpha) if self.alpha else None
        if n0 is not None and n < n0:
            out.append(f"n={n} below the rate threshold {n0}")
        if self.mode == "anchored":
            if self.L < 2 * n**3:
                out.append(f"L={self.L} below 2 n^3 = {2 * n**3}")
        else:
            if self.l < n**6:
                out.append(f"l={self.l} below n^6 = {n**6}")
            if self.L + 1 < self.l**11:
                out.append(f"L+1={self.L + 1} below l^11 = {self.l**11}")
        return out


@dataclass
class InitialEnsemble:
    """Dephased classical mixture over lattice configurations.

    Either an explicit weighted list (exact rationals summing to one) or a
    sampling handle when the support is too large to enumerate.
    """

    params: EnsembleParams
    encoding: InputEncoding
    members: list  # [(Configuration, Fraction)] or [] when sampled
    site_support: list  # [(site value, Fraction)] for the repeated sites
    e0_value: tuple
    metadata: dict = field(default_factory=dict)

    @property
    def exact(self) -> bool:
        return bool(self.members)

    def total_weight(self) -> Fraction:
        return sum((w for _, w in self.members), Fraction(0))


def site_distribution(encoding: InputEncoding, e0_value=None, e0_rate=Fraction(0)):
    """Per-site value distribution of the repeated factor, exact."""
    alpha, beta, mr = encoding.alpha, encoding.beta, encoding.marker_rate
    rest = 1 - e0_rate
    out = []
    if e0_rate:
        out.append((e0_value, Fraction(e0_rate)))
    out.append((A1, rest * (1 - alpha)))
    for b1, b2 in BITS:
        p1 = beta if b1 else 1 - beta
        p2 = mr if b2 else 1 - mr
        w = rest * alpha * p1 * p2
        if w:
            out.append((m_cell(b1, b2, BLANK), w))
    return out


def build_initial_ensemble(
    spec: MachineSpec, params: EnsembleParams, encoding: InputEncoding
) -> InitialEnsemble:
    """Product measure over configurations; exact enumeration when feasible."""
    e0 = control(spec.rw_mode, spec.init_state)
    if params.mode == "anchored":
        repeated = params.L
        support = site_distribution(encoding)
    else:
        repeated = params.L + 1
        support = site_distribution(
            encoding, e0_value=e0, e0_rate=Fraction(1, params.l**2)
        )
    meta = {
        "violations": params.violations(encoding.n),
        "support_per_site": len(support),
    }
    if len(support) ** repeated > ENUMERATION_LIMIT:
        return InitialEnsemble(params, encoding, [], support, e0, meta)
    # a member's weight is the product of its sites' weights, multiplied as
    # integer numerators and denominators and reduced once
    values, weights = zip(*support)
    nums = [Fraction(w).numerator for w in weights]
    dens = [Fraction(w).denominator for w in weights]
    head = (e0,) if params.mode == "anchored" else ()
    members = []
    for cells, ns, ds in zip(
        itertools.product(values, repeat=repeated),
        itertools.product(nums, repeat=repeated),
        itertools.product(dens, repeat=repeated),
    ):
        num = math.prod(ns)
        if num:
            w = Fraction(num, math.prod(ds))
            members.append((Configuration(head + cells, params.boundary), w))
    return InitialEnsemble(params, encoding, members, support, e0, meta)


def sample_configs(ensemble: InitialEnsemble, count: int, seed: int) -> list:
    """Independent draws from the product measure, reproducible under the seed."""
    rng = np.random.RandomState(seed)
    values = [v for v, _ in ensemble.site_support]
    probs = np.array([float(w) for _, w in ensemble.site_support])
    probs = probs / probs.sum()
    repeated = (
        ensemble.params.L
        if ensemble.params.mode == "anchored"
        else ensemble.params.L + 1
    )
    out = []
    for _ in range(count):
        picks = rng.choice(len(values), size=repeated, p=probs)
        cells = tuple(values[k] for k in picks)
        if ensemble.params.mode == "anchored":
            cells = (ensemble.e0_value,) + cells
        out.append(Configuration(cells, ensemble.params.boundary))
    return out


def ensemble_to_json(ensemble: InitialEnsemble, sampler_seed: int = None) -> dict:
    """Portable form: parameters plus either the explicit weighted list or a
    sampler specification (per-site support and seed)."""
    from .machine import cell_to_tag

    def frac(x):
        f = Fraction(x)
        return [f.numerator, f.denominator]

    data = {
        "mode": ensemble.params.mode,
        "L": ensemble.params.L,
        "l": ensemble.params.l,
        "boundary": ensemble.params.boundary,
        "v": ensemble.encoding.v,
        "alpha": frac(ensemble.encoding.alpha),
        "violations": list(ensemble.metadata.get("violations", [])),
    }
    if ensemble.exact:
        data["members"] = [
            [[cell_to_tag(x) for x in cfg.cells], frac(w)]
            for cfg, w in ensemble.members
        ]
    else:
        data["sampler"] = {
            "seed": sampler_seed,
            "site_support": [
                [cell_to_tag(v), frac(w)] for v, w in ensemble.site_support
            ],
            "repeated_sites": (
                ensemble.params.L
                if ensemble.params.mode == "anchored"
                else ensemble.params.L + 1
            ),
        }
    return data


# ---------------------------------------------------------------------------
# Goodness classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GoodnessVerdict:
    good: bool
    reasons: tuple

    @staticmethod
    def from_reasons(reasons) -> "GoodnessVerdict":
        rs = tuple(reasons)
        return GoodnessVerdict(good=not rs, reasons=rs)


def _decode_simulation(m_bits, n: int, beta: Fraction, frequency_step: bool):
    """Walk the simulation cells: find the length witness, then estimate the
    rate.  Returns a list of failure labels (empty means success)."""
    reasons = []
    n_prime = None
    for k, (b1, b2) in enumerate(m_bits):
        if b2 == 1:
            n_prime = k  # k cells with second bit 0 precede the witness
            break
    if n_prime is None:
        return ["G-b:no-length-witness"]
    if not (n <= n_prime <= n**3):
        reasons.append(f"G-b:witness-out-of-range:{n_prime}")
    reads = n_prime + 1
    budget = 2 ** (4 * n**3)
    if reads > budget:
        reasons.append("G-b:budget-exceeded")
    if reasons or not frequency_step:
        return reasons
    need = 2 ** (4 * n_prime)
    if reads + need > budget:
        return ["G-b:budget-exceeded"]
    if need > len(m_bits):
        return ["G-b:tape-exhausted"]
    ones = sum(b1 for b1, _ in m_bits[:need])
    beta_prime = Fraction(ones, need)
    try:
        recovered = recover_beta(beta_prime, n_prime)
    except NoValidCodeword:
        return ["G-b:rate-not-decodable"]
    expected = format(int(beta * 2**n), "b").zfill(n)
    if recovered != expected:
        return ["G-b:wrong-decode"]
    return []


def classify_good(
    config: Configuration,
    params: EnsembleParams,
    encoding: InputEncoding,
    frequency_step: bool = True,
) -> GoodnessVerdict:
    """Check the goodness conditions a configuration must satisfy for the
    statistical bounds to apply."""
    if params.mode == "anchored":
        return _classify_anchored(config, params, encoding, frequency_step)
    return _classify_iid(config, params, encoding, frequency_step)


def _m_sequence(cells):
    return [(c[1], c[2]) for c in cells if not is_control(c) and c[0] == "M"]


def _classify_anchored(config, params, encoding, frequency_step):
    reasons = []
    psi_sites = list(config.cells[1:])
    L = len(psi_sites)
    m_all = _m_sequence(psi_sites)
    rate = Fraction(len(m_all), L)
    window = L ** (-1 / 3)
    if not (float(encoding.alpha) - window < float(rate) < float(encoding.alpha) + window):
        reasons.append(f"G-a:rate:{rate}")
    # the machine scans cells after the marked one, i.e. sites 2..L
    scanned = _m_sequence(psi_sites[1:])
    reasons.extend(
        _decode_simulation(scanned, encoding.n, encoding.beta, frequency_step)
    )
    return GoodnessVerdict.from_reasons(reasons)


def stats_blocks(config: Configuration):
    """Blocks in the statistics convention: a block is a maximal run of cell
    sites terminated by a control site, the first block starting at site 0."""
    blocks = []
    current = []
    for x in config.cells:
        current.append(x)
        if is_control(x):
            blocks.append(current)
            current = []
    if current:
        blocks.append(current)  # unterminated tail block
    return blocks


def _classify_iid(config, params, encoding, frequency_step):
    l, n = params.l, encoding.n
    blocks = stats_blocks(config)
    k_star = int((1 - Fraction(1, l**2)) * Fraction(1, l**2) * (config.size))
    reasons = []
    first = blocks[: max(k_star, 0)]
    covered = sum(len(b) for b in first)
    # symmetric concentration window around the expected coverage; the
    # one-sided form obtained by bounding the upper end with the lattice
    # size would let a single oversized block through
    center = (1 - Fraction(1, l**2)) * config.size
    if abs(covered - center) >= k_star * Fraction(1, l**2):
        reasons.append(f"G-c:coverage:{covered}")
    bad_cover = 0
    for b in first:
        if not (l <= len(b) <= l**4):
            bad_cover += len(b)
            continue
        body = b[:-1] if is_control(b[-1]) else b
        sub = _decode_simulation(_m_sequence(body), n, encoding.beta, frequency_step)
        m_count = len(_m_sequence(body))
        blen = len(body)
        if blen and not (
            float(encoding.alpha) - blen ** (-1 / 3)
            < m_count / blen
            < float(encoding.alpha) + blen ** (-1 / 3)
        ):
            sub = sub + ["GB-2:rate"]
        if sub:
            bad_cover += len(b)
    if bad_cover > (2 * l**2 * Fraction(1, n) + 3) * k_star:
        reasons.append(f"G-d:bad-cover:{bad_cover}")
    return GoodnessVerdict.from_reasons(reasons)


def good_rate_bounds(params: EnsembleParams, n: int) -> Fraction:
    """Closed-form upper bound on the weight of bad configurations."""
    if params.mode == "anchored":
        return Fraction(2, n)
    return Fraction(5 * params.l**10, params.L)


# ---------------------------------------------------------------------------
# Monte Carlo bad-rate estimators on sufficient statistics
# ---------------------------------------------------------------------------


def estimate_bad_rate_anchored(
    n: int, alpha: Fraction, L: int, samples: int, seed: int
) -> float:
    """Fraction of sampled configurations failing G-a or the length-witness
    part of G-b (the rate-estimation step fails with probability below
    2 exp(-2^(n-2)/3), invisible at any sampling effort)."""
    rng = np.random.RandomState(seed)
    a = float(alpha)
    m_scan = rng.binomial(L - 1, a, size=samples)
    first_site = rng.binomial(1, a, size=samples)
    m_all = m_scan + first_site
    window = L ** (-1 / 3)
    bad_a = np.abs(m_all / L - a) >= window
    witness = rng.geometric(1.0 / n**2, size=samples)  # cells read to find it
    n_prime = witness - 1
    bad_b = (witness > m_scan) | (n_prime < n) | (n_prime > n**3)
    return float(np.mean(bad_a | bad_b))


def estimate_bad_rate_iid(n: int, l: int, L: int, samples: int, seed: int) -> float:
    """Fraction of sampled configurations failing the block-coverage checks,
    with block badness reduced to the length window (reduced-scale surrogate
    for the per-block decode conditions)."""
    rng = np.random.RandomState(seed)
    p = 1.0 / l**2
    k_star = int((1 - p) * p * (L + 1))
    total_len = k_star + rng.negative_binomial(k_star, p, size=samples)
    bad_c = np.abs(total_len - (1 - p) * (L + 1)) >= k_star * p
    # short blocks: lengths 1..l-1; long blocks: length > l^4
    w_sum = np.zeros(samples)
    for m in range(1, l):
        p_m = p * (1 - p) ** (m - 1)
        w_sum += m * rng.binomial(k_star, p_m, size=samples)
    p_long = (1 - p) ** (l**4)
    c_long = rng.binomial(k_star, p_long, size=samples)
    extra = np.zeros(samples, dtype=np.int64)
    mask = c_long > 0
    if mask.any():
        extra[mask] = c_long[mask] + rng.negative_binomial(
            c_long[mask], p, size=int(mask.sum())
        )
    w_sum += c_long * l**4 + extra
    bad_d = w_sum > (2 * l**2 / n + 3) * k_star
    return float(np.mean(bad_c | bad_d))


# ---------------------------------------------------------------------------
# Phase decoder
# ---------------------------------------------------------------------------


def _register(theta: Fraction):
    """Content of the two-level register after rotating by theta*pi from the
    zero state: 0 or 1 when on a basis state, None otherwise."""
    r = theta % 2
    if r == 0 or r == 1:
        return 0
    if r == Fraction(1, 2) or r == Fraction(3, 2):
        return 1
    return None


def phase_decode(beta: Fraction, n_prime: int):
    """Recover (|v|, v) from the rotation angle pi*beta using one register.

    Phase one applies the beta rotation in halving powers until the register
    flips to the one state, which pins the length.  Phase two re-derives each
    earlier bit by composing the beta rotation with counted corrective
    rotations by -pi/2^{|v|}; the register is checked to be on a basis state
    at every read-out.
    """
    beta = Fraction(beta)
    if not 0 < beta < 1:
        raise OraclePromiseViolated("angle must encode a rate in (0, 1)")
    theta = Fraction(0)
    n = None
    for k1 in range(n_prime, -1, -1):
        theta = (theta + (2**k1) * beta) % 2
        content = _register(theta)
        if content is None:
            raise OraclePromiseViolated(f"register off basis after pass {k1}")
        if content == 1:
            n = k1 + 1
            break
    if n is None:
        raise OraclePromiseViolated("length never detected; witness bound too small")
    bits = {n: 1}
    for p in range(n - 1, 0, -1):
        s_p = sum(bits[k] * 2 ** (n + p - 1 - k) for k in range(p + 1, n + 1))
        theta_p = ((2 ** (p - 1)) * beta - Fraction(s_p, 2**n)) % 2
        content = _register(theta_p)
        if content is None:
            raise OraclePromiseViolated(f"register off basis at bit {p}")
        bits[p] = content
    v = "".join(str(bits[k]) for k in range(1, n + 1))
    if Fraction(int(v, 2), 2**n) != beta:
        raise OraclePromiseViolated("decoded bits do not reproduce the angle")
    return n, v


# ---------------------------------------------------------------------------
# Configuration helpers
# ---------------------------------------------------------------------------


def anchored_configuration(
    spec: MachineSpec, L: int, m_sites: dict = None, boundary: str = "periodic"
) -> Configuration:
    """Control at site 0, cells a1 except the given simulation sites.

    ``m_sites`` maps site index (1-based over the cell sites) to a bit pair.
    """
    m_sites = m_sites or {}
    cells = [control(spec.rw_mode, spec.init_state)]
    for pos in range(1, L + 1):
        if pos in m_sites:
            b1, b2 = m_sites[pos]
            cells.append(m_cell(b1, b2, BLANK))
        else:
            cells.append(A1)
    return Configuration(tuple(cells), boundary)


def scattered_m_sites(L: int, count: int, witness_at: int = 1, seed=None) -> dict:
    """Spread of ``count`` simulation sites over 2..L, with the length witness
    (second bit 1) on the ``witness_at``-th of them.

    With no seed the spread is even and starts right after the marked cell,
    which keeps the pre-amplification walk short; with a seed the positions
    are drawn uniformly.
    """
    if count == 0:
        return {}
    if seed is None:
        positions = np.unique(np.round(np.linspace(2, L, count)).astype(int))
    else:
        rng = np.random.RandomState(seed)
        positions = np.sort(rng.choice(np.arange(2, L + 1), size=count, replace=False))
    sites = {}
    for k, pos in enumerate(positions, start=1):
        sites[int(pos)] = (0, 1 if k == witness_at else 0)
    return sites
