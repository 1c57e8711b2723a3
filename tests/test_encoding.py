"""Input encoding, ensembles, goodness statistics, the phase decoder."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamca.encoding import (
    EnsembleParams,
    NoValidCodeword,
    OraclePromiseViolated,
    PromiseViolated,
    anchored_configuration,
    build_initial_ensemble,
    classify_good,
    encode_input,
    estimate_bad_rate_anchored,
    estimate_bad_rate_iid,
    good_rate_bounds,
    phase_decode,
    recover_beta,
    sample_configs,
    site_distribution,
)
from hamca.machine import Configuration, a_cell, control

bitstrings = st.integers(1, 12).flatmap(
    lambda n: st.integers(0, 2 ** (n - 1) - 1).map(
        lambda m: format(2 * m + 1, "b").zfill(n)
    )
)


def test_encode_examples():
    enc = encode_input("101")
    assert enc.beta == Fraction(5, 8)
    assert enc.marker_rate == Fraction(1, 9)
    # second-qubit weights (1 - 1/9, 1/9) = (8/9, 1/9)
    assert 1 - enc.marker_rate == Fraction(8, 9)
    assert encode_input("1").beta == Fraction(1, 2)
    with pytest.raises(PromiseViolated):
        encode_input("10")
    with pytest.raises(PromiseViolated):
        encode_input("")


def test_recover_beta_examples():
    assert recover_beta(Fraction(5, 8), 5) == "101"
    assert recover_beta(Fraction(3, 4) - Fraction(1, 64), 4) == "11"
    assert recover_beta(Fraction(int("011111", 2), 64), 2) == "1"
    with pytest.raises(NoValidCodeword):
        recover_beta(Fraction(3, 16), 3)  # exactly between two codewords


@settings(max_examples=150, deadline=None)
@given(bitstrings, st.integers(0, 4))
def test_recover_beta_round_trip(v, extra):
    n = len(v)
    beta = Fraction(int(v, 2), 2**n)
    assert recover_beta(beta, n + extra) == v


def test_ensemble_alpha_zero_is_single_configuration(oneway):
    enc = encode_input("1", alpha=Fraction(0))
    params = EnsembleParams("anchored", L=3, alpha=Fraction(0))
    ens = build_initial_ensemble(oneway, params, enc)
    assert len(ens.members) == 1
    cfg, w = ens.members[0]
    assert w == 1
    assert cfg.cells == (control(0, "boot"),) + (a_cell("a1"),) * 3


def test_ensemble_product_measure(oneway):
    enc = encode_input("1", alpha=Fraction(1, 4))
    params = EnsembleParams("anchored", L=3, alpha=Fraction(1, 4))
    ens = build_initial_ensemble(oneway, params, enc)
    assert sum(w for _, w in ens.members) == 1
    no_m = sum(
        w for c, w in ens.members if all(x[0] != "M" for x in c.cells)
    )
    assert no_m == Fraction(27, 64)


def _fraction_loop_members(spec, params, enc):
    """Reference enumeration: each member's weight as a running product of
    its sites' Fractions, zero-weight members dropped."""
    e0 = control(spec.rw_mode, spec.init_state)
    if params.mode == "anchored":
        support, repeated, head = site_distribution(enc), params.L, (e0,)
    else:
        support = site_distribution(enc, e0_value=e0, e0_rate=Fraction(1, params.l**2))
        repeated, head = params.L + 1, ()
    members = []
    for combo in itertools.product(support, repeat=repeated):
        w = Fraction(1)
        for _, wi in combo:
            w *= wi
        if w:
            cells = head + tuple(v for v, _ in combo)
            members.append((Configuration(cells, params.boundary), w))
    return members


@pytest.mark.parametrize("mode, L, alpha, l, v", [
    ("anchored", 5, Fraction(1, 8), 0, "1"),
    ("anchored", 3, Fraction(1, 4), 0, "101"),
    ("anchored", 3, Fraction(0), 0, "1"),
    ("iid", 4, Fraction(0), 2, "1"),
    ("iid", 3, Fraction(1, 8), 3, "11"),
])
def test_ensemble_weights_equal_fraction_products(oneway, iid_nd, mode, L, alpha, l, v):
    """The integer-product weights are the Fractions of the running product,
    member by member in the same order, on anchored and iid supports."""
    spec = oneway if mode == "anchored" else iid_nd
    params = EnsembleParams(mode, L=L, alpha=alpha, l=l)
    enc = encode_input(v, alpha)
    got = build_initial_ensemble(spec, params, enc).members
    want = _fraction_loop_members(spec, params, enc)
    assert [c.cells for c, _ in got] == [c.cells for c, _ in want]
    assert all(type(wg) is Fraction and wg == ww for (_, wg), (_, ww) in zip(got, want))
    assert sum(w for _, w in got) == 1


def test_ensemble_iid_block_length_law(iid_nd):
    """Geometric block-length law with mean l^2 per the marker rate."""
    l = 10
    enc = encode_input("1", alpha=Fraction(0))
    dist = site_distribution(enc, e0_value=control(0, "boot"), e0_rate=Fraction(1, l * l))
    p0 = dict((v, w) for v, w in dist)[control(0, "boot")]
    mean = 1 / p0
    assert mean == l * l


def test_ensemble_sampler_deterministic(oneway):
    enc = encode_input("1", alpha=Fraction(1, 4))
    params = EnsembleParams("anchored", L=6, alpha=Fraction(1, 4))
    ens = build_initial_ensemble(oneway, params, enc)
    a = sample_configs(ens, 20, seed=9)
    b = sample_configs(ens, 20, seed=9)
    assert [c.cells for c in a] == [c.cells for c in b]
    c = sample_configs(ens, 20, seed=10)
    assert [x.cells for x in a] != [x.cells for x in c]


def test_sampled_m_frequency(oneway):
    enc = encode_input("1", alpha=Fraction(1, 4))
    params = EnsembleParams("anchored", L=64, alpha=Fraction(1, 4))
    ens = build_initial_ensemble(oneway, params, enc)
    draws = sample_configs(ens, 1500, seed=3)
    m_rate = np.mean(
        [sum(1 for x in c.cells if x[0] == "M") / 64 for c in draws]
    )
    assert abs(m_rate - 0.25) < 0.01


def test_classify_good_rate_window(oneway):
    enc = encode_input("1", alpha=Fraction(1, 4))
    params = EnsembleParams("anchored", L=64, alpha=Fraction(1, 4))
    # sixteen simulation cells (rate exactly 1/4), witness on the second
    positions = list(range(3, 64, 4))
    sites = {k: (0, 1 if k == positions[1] else 0) for k in positions}
    assert len(sites) == 16
    cfg = anchored_configuration(oneway, 64, sites)
    verdict = classify_good(cfg, params, enc, frequency_step=False)
    assert verdict.good, verdict.reasons
    # all-amplification configuration fails the rate window
    bare = anchored_configuration(oneway, 64)
    verdict = classify_good(bare, params, enc, frequency_step=False)
    assert not verdict.good
    assert any(r.startswith("G-a") for r in verdict.reasons)


def test_classify_good_witness_conditions(oneway):
    enc = encode_input("1", alpha=Fraction(1, 4))
    params = EnsembleParams("anchored", L=16, alpha=Fraction(1, 4))
    # witness on the first scanned cell: index below the input length
    sites = {2: (0, 1), 5: (0, 0), 9: (0, 0), 13: (0, 0)}
    cfg = anchored_configuration(oneway, 16, sites)
    verdict = classify_good(cfg, params, enc, frequency_step=False)
    assert "G-b:witness-out-of-range:0" in verdict.reasons
    # no witness at all
    sites = {2: (0, 0), 5: (0, 0), 9: (0, 0), 13: (0, 0)}
    cfg = anchored_configuration(oneway, 16, sites)
    verdict = classify_good(cfg, params, enc, frequency_step=False)
    assert "G-b:no-length-witness" in verdict.reasons


def test_classify_good_literal_frequency(oneway):
    """Small enough instance to run the full rate-estimation step."""
    v = "11"
    enc = encode_input(v, alpha=Fraction(1, 2))
    L = 600
    params = EnsembleParams("anchored", L=L, alpha=Fraction(1, 2))
    rng = np.random.RandomState(0)
    sites = {}
    pos = 2
    k = 0
    beta = float(enc.beta)
    while pos <= L:
        k += 1
        b2 = 1 if k == 3 else 0  # witness at the third cell: n' = 2
        sites[pos] = (int(rng.rand() < beta), b2)
        pos += 2
    cfg = anchored_configuration(oneway, L, sites)
    verdict = classify_good(cfg, params, enc, frequency_step=True)
    # needs 2^(4*2) = 256 rate reads out of ~300 cells; rate 3/4 decodes to 11
    assert verdict.good or verdict.reasons == ("G-a:rate:" + "1/2",), verdict.reasons


def test_classify_iid_blocks(iid_nd):
    l = 2
    enc = encode_input("1", alpha=Fraction(0))
    params = EnsembleParams("iid", L=63, alpha=Fraction(0), l=l)
    e0 = control(0, "boot")
    a1 = a_cell("a1")
    # blocks of length 4 = l^2 everywhere: inside the window [l, l^4]
    cells = tuple((e0 if i % 4 == 3 else a1) for i in range(64))
    verdict = classify_good(Configuration(cells), params, enc, frequency_step=False)
    assert verdict.good, verdict.reasons
    # all-cells block: single oversized block breaks the coverage count
    cells = tuple([a1] * 64)
    verdict = classify_good(Configuration(cells), params, enc, frequency_step=False)
    assert not verdict.good


def test_good_rate_bounds_examples():
    assert good_rate_bounds(EnsembleParams("anchored", 2**18, Fraction(1, 8)), 64) == Fraction(1, 32)
    assert good_rate_bounds(EnsembleParams("anchored", 2**18, Fraction(1, 8)), 1000) == Fraction(1, 500)
    assert good_rate_bounds(
        EnsembleParams("iid", 2**20, Fraction(1, 8), l=2), 64
    ) == Fraction(5 * 2**10, 2**20)


def test_params_violations_recorded(oneway):
    enc = encode_input("1", alpha=Fraction(1, 4))
    params = EnsembleParams("anchored", L=4, alpha=Fraction(1, 4))
    ens = build_initial_ensemble(oneway, params, enc)
    assert ens.metadata["violations"]  # desk scale: thresholds not met, recorded


def test_bad_rate_estimators_under_bounds():
    r = estimate_bad_rate_anchored(64, Fraction(1, 8), 2**18, 20_000, seed=11)
    assert r <= float(Fraction(2, 64))
    r2 = estimate_bad_rate_iid(64, 2, 2**20, 5_000, seed=11)
    assert r2 <= float(Fraction(5 * 2**10, 2**20))


def test_block_length_distribution_close_to_mean():
    rng = np.random.RandomState(4)
    l = 10
    lengths = rng.geometric(1.0 / l**2, size=200_000)
    assert abs(lengths.mean() - l**2) / l**2 < 0.02
    # short-block weight matches the geometric tail bound
    short = (lengths <= l - 1).mean()
    assert short <= l * (1.0 / l**2) + 3 * lengths.std() / np.sqrt(len(lengths))


def test_rate_window_envelope_monte_carlo():
    """Chernoff-style envelope on the rate window at two lattice sizes."""
    rng = np.random.RandomState(8)
    alpha = 0.25
    for L in (2**12, 2**15):
        counts = rng.binomial(L, alpha, size=40_000)
        fail = np.abs(counts / L - alpha) >= L ** (-1 / 3)
        sigma = np.sqrt(fail.mean() * (1 - fail.mean()) / len(fail) + 1e-12)
        assert fail.mean() <= 0.25 * L ** (-1 / 3) + 3 * sigma


def test_phase_decode_examples():
    assert phase_decode(Fraction(1, 2), 3) == (1, "1")
    assert phase_decode(Fraction(5, 8), 5) == (3, "101")
    assert phase_decode(Fraction(3, 4), 8) == (2, "11")
    with pytest.raises(OraclePromiseViolated):
        phase_decode(Fraction(1, 3), 6)  # not a dyadic angle


@settings(max_examples=200, deadline=None)
@given(bitstrings)
def test_phase_decode_round_trip(v):
    n = len(v)
    beta = Fraction(int(v, 2), 2**n)
    assert phase_decode(beta, n + 2) == (n, v)
