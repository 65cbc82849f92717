import gc
import itertools
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy import fft, integrate, signal, special

from coharq import analytic
from coharq.analytic import (ConsistencyError, cdf_inr_sum, cdf_rtd_sum,
                             diversity_gain, event_label, event_table, gain_sum_cdf,
                             packets_per_slot, throughput_closed)
from coharq.cli import grid_throughputs, optimize_rates, resolve_policy
from coharq.fading import ConfigurationError, FadingProfile
from coharq.montecarlo import analytic_counterparts
from coharq.protocol import AllocationPolicy, PolicyKind, ProtocolConfig
from coharq.rates import Scheme
from test_acceptance import _hypoexp_cdf_oracle


# ---------------------------------------------------------------------------
# thresholds and first-round probabilities


def test_thresholds_from_rates():
    # C = (e^R - 1) / P, infinite once e^R overflows a double
    assert analytic._gain_threshold(1.0, 4.0) == pytest.approx(math.expm1(1.0) / 4.0)
    assert analytic._gain_threshold(2.0, 4.0) == pytest.approx(math.expm1(2.0) / 4.0)
    assert analytic._gain_threshold(1000.0, 4.0) == math.inf


def _first_round_failure(lam, c):
    """alpha (or beta): Pr(one Exp(lam) gain < threshold c)."""
    return -math.expm1(-lam * c)


def gamma_m2(alpha, beta):
    """The paper's M = 2 packet-start rate 1 / (1 + alpha + beta - alpha*beta):
    a packet lasts one slot iff both users decode at round one, else two."""
    return 1.0 / (1.0 + alpha + beta - alpha * beta)


def test_alpha_beta_and_gamma():
    a, b = _first_round_failure(1.0, 0.5), _first_round_failure(2.0, 1.0)
    assert a == pytest.approx(1 - math.exp(-0.5), rel=1e-12)
    assert b == pytest.approx(1 - math.exp(-2.0), rel=1e-12)
    gammas = []
    for fa, fb in ((0.0, 0.0), (1.0, 1.0), (a, b)):
        ev = np.zeros((3, 3))
        ev[1, 1] = (1 - fa) * (1 - fb)
        ev[2, 2] = 1 - ev[1, 1]
        gammas.append(packets_per_slot(ev))
        assert gammas[-1] == pytest.approx(gamma_m2(fa, fb), rel=1e-12)
    assert gammas[:2] == [1.0, 0.5]


# ---------------------------------------------------------------------------
# phi, Pr(g2(t) + g2(t+1) + g1(t+1) < C_B): user B still short after the
# coordinated slot (two own-band copies plus one donated copy), against
# oracles


@pytest.mark.parametrize("lambdas,c_a,c_b", [
    ((1.0, 1.0), 0.3, 0.3),
    ((1.0, 2.0), 0.5, 0.8),
    ((3.0, 0.7), 1.2, 0.4),
])
def test_phi_against_quadrature(lambdas, c_a, c_b):
    lam1, lam2 = lambdas

    # oracle: integrate the joint density of (X1+X2, Y) with X~Exp(lam2),
    # Y~Exp(lam1) over the simplex x+y < c_b
    def inner(y):
        # CDF of Erlang(2, lam2) at c_b - y
        u = c_b - y
        return 1 - math.exp(-lam2 * u) * (1 + lam2 * u)

    oracle, err = integrate.quad(lambda y: lam1 * math.exp(-lam1 * y) * inner(y),
                                 0.0, c_b, epsabs=1e-13)
    assert gain_sum_cdf(1, 2, lambdas, c_b) == pytest.approx(oracle, abs=max(1e-11, 10 * err))


def test_phi_equal_lambda_is_erlang3_limit():
    # lam1 == lam2 -> sum of three iid Exp(lam) below c_b
    lam, c_b = 1.5, 0.9
    x = lam * c_b
    erlang3 = 1 - math.exp(-x) * (1 + x + x * x / 2)
    assert gain_sum_cdf(1, 2, (lam, lam), c_b) == pytest.approx(erlang3, rel=1e-9)
    # a 1e-7 relative gap moves phi by O(1e-7)
    near = gain_sum_cdf(1, 2, (lam, lam * (1 + 1e-7)), c_b)
    assert near == pytest.approx(erlang3, rel=1e-6)


def test_phi_near_equal_lambdas():
    # just past the old 1e-5 equal-lambda switch the three-copy closed form
    # lost 0.7% here; the phase-type oracle is exact
    want = _hypoexp_cdf_oracle(1, 2, (1.0, 1.00002), 0.05)
    assert want == pytest.approx(2.006828632e-05, rel=1e-9)
    assert gain_sum_cdf(1, 2, (1.0, 1.00002), 0.05) == pytest.approx(want, rel=1e-10)


def test_phi_monte_carlo_oracle():
    rng = np.random.default_rng(99)
    lam1, lam2, c_b = 1.0, 2.0, 0.8
    n = 400_000
    s = (rng.exponential(1 / lam2, n) + rng.exponential(1 / lam2, n)
         + rng.exponential(1 / lam1, n))
    est = np.mean(s < c_b)
    val = gain_sum_cdf(1, 2, (lam1, lam2), c_b)
    assert abs(val - est) < 3 * math.sqrt(val * (1 - val) / n)


def test_mixture_past_its_term_budget_is_refused():
    """The mixture needs about min(c lf / ls, lf z) terms: past the budget
    the CDF names both fading parameters instead of running for hours, and
    a huge ratio with few terms still has its value."""
    for n, m, lambdas, z in ((1, 1, (1e300, 1.0), 1.0), (1, 2, (1e7, 1.0), 1.5)):
        with pytest.raises(analytic.ClosedFormRangeError,
                           match=r"fading parameters .* and .* too far apart"):
            gain_sum_cdf(n, m, lambdas, z)
    # lf z = 10 terms: the slow copy must fall below z less the fast one,
    # whose mean is 1e-300, so the CDF is about z - 1e-300
    assert gain_sum_cdf(1, 1, (1e300, 1.0), 1e-299) == pytest.approx(9e-300, rel=1e-4)


# ---------------------------------------------------------------------------
# RTD accumulated-rate CDF


def test_cdf_rtd_hypoexponential_example():
    # n = m = 1, lam = (1, 2), P = 1, x = log(2) -> z = 1
    # hypoexponential CDF: 1 - 2 e^{-z} + e^{-2z}
    val = cdf_rtd_sum(1, 1, (1.0, 2.0), 1.0, math.log(2))
    assert val == pytest.approx(1 - 2 * math.exp(-1) + math.exp(-2), rel=1e-12)


def test_cdf_rtd_equal_lambda_erlang():
    # equal lambdas -> Erlang(n+m); z = (e^x - 1)/P
    lam, p, x = 2.0, 4.0, 1.0
    z = math.expm1(x) / p
    u = lam * z
    erlang3 = 1 - math.exp(-u) * (1 + u + u * u / 2)
    assert cdf_rtd_sum(2, 1, (lam, lam), p, x) == pytest.approx(erlang3, rel=1e-10)


def _partial_fraction_cdf(n, m, lambdas, z):
    """Distinct-rate closed form: the Erlang CDFs P(k, l z) weighted by the
    partial-fraction coefficients of (1 + s/l1)^-n (1 + s/l2)^-m. Exact, and
    well conditioned while the two rates are far apart."""
    lam1, lam2 = lambdas
    total = 0.0
    for own, other, lam, r in ((n, m, lam1, lam1 / lam2), (m, n, lam2, lam2 / lam1)):
        for k in range(1, own + 1):
            coef = ((-r) ** (own - k) * math.comb(n + m - k - 1, own - k)
                    * (1.0 - r) ** -(n + m - k))
            total += coef * special.gammainc(k, lam * z)
    return total


@pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 6) for m in range(1, 6)])
def test_partial_fraction_reconstruction(n, m):
    # at well-separated rates the gamma mixture reconstructs the
    # partial-fraction closed form it replaced
    rng = np.random.default_rng(n * 10 + m)
    lambdas, power = (1.3, 0.6), 2.0
    for x in rng.uniform(0.01, 4.0, size=10):
        want = _partial_fraction_cdf(n, m, lambdas, math.expm1(x) / power)
        assert cdf_rtd_sum(n, m, lambdas, power, x) == pytest.approx(want, rel=1e-9, abs=1e-12)


@given(n=st.integers(0, 10), m=st.integers(0, 10),
       gap=st.floats(1e-7, 9.0), slow_first=st.booleans(),
       z=st.floats(1e-3, 30.0))
def test_gain_sum_cdf_matches_phase_type_oracle(n, m, gap, slow_first, z):
    assume(n + m > 0)
    lambdas = (1.0, 1.0 + gap) if slow_first else (1.0 + gap, 1.0)
    assert gain_sum_cdf(n, m, lambdas, z) == pytest.approx(
        _hypoexp_cdf_oracle(n, m, lambdas, z), abs=1e-10)


@pytest.mark.parametrize("n,m,lambdas,want", [
    # the partial fractions returned 0.0, 1.0 and 1.0 here
    (4, 4, (1.0, 1.001), 0.547597133453085),
    (8, 8, (1.0, 1.05), 0.0101619825357958),
    (10, 10, (1.0, 1.0001), 2.5309841182e-4),
])
def test_cdf_rtd_near_equal_lambdas(n, m, lambdas, want):
    got = cdf_rtd_sum(n, m, lambdas, 1.0, math.log(9))
    assert got == pytest.approx(_hypoexp_cdf_oracle(n, m, lambdas, 8.0), abs=1e-12)
    assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("lambdas", [(1.0, 1.0 + 1e-7), (1.0, 2.0), (10.0, 1.0), (100.0, 1.0)])
@pytest.mark.parametrize("z", [1e-9, 1e-12])
def test_gain_sum_cdf_deep_tail(lambdas, z):
    # small-z leading term l1^n l2^m z^(n+m) / (n+m)!; the next term is
    # O(z (n l1 + m l2)) relative
    lam1, lam2 = lambdas
    for n in range(11):
        for m in range(11):
            if n + m == 0:
                continue
            lead = lam1 ** n * lam2 ** m * z ** (n + m) / math.factorial(n + m)
            assert gain_sum_cdf(n, m, lambdas, z) == pytest.approx(lead, rel=1e-6)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cdf", [cdf_rtd_sum, cdf_inr_sum])
@pytest.mark.parametrize("x", [100.0, 1000.0, 1e6])
def test_cdf_saturates_at_large_target(cdf, x):
    assert cdf(1, 1, (1.0, 2.0), 1.0, x) == 1.0
    assert cdf(3, 0, (1.0, 2.0), 10.0, x) == 1.0


def _rtd_quad_oracle(n, m, lambdas, power, x):
    """Independent oracle: convolve exponentials by iterated quadrature."""
    lam1, lam2 = lambdas
    z = math.expm1(x) / power
    rates = [lam1] * n + [lam2] * m

    def cdf(level, v):
        if level == 0:
            return 1.0 if v >= 0 else 0.0
        lam = rates[level - 1]
        val, _ = integrate.quad(
            lambda t: lam * math.exp(-lam * t) * cdf(level - 1, v - t), 0, max(v, 0),
            epsabs=1e-12, limit=200)
        return val

    return cdf(len(rates), z)


@pytest.mark.parametrize("n,m,lambdas", [
    (1, 2, (1.0, 2.0)),
    (2, 2, (0.5, 3.0)),
    (3, 1, (2.0, 2.0)),
])
def test_cdf_rtd_against_quadrature(n, m, lambdas):
    for x in (0.3, 1.0, 2.5):
        assert cdf_rtd_sum(n, m, lambdas, 1.7, x) == pytest.approx(
            _rtd_quad_oracle(n, m, lambdas, 1.7, x), abs=1e-8)


def test_cdf_rtd_validity_grid():
    xs = np.linspace(0.0, 6.0, 40)
    vals = [cdf_rtd_sum(3, 2, (1.0, 2.5), 2.0, x) for x in xs]
    assert vals[0] == pytest.approx(0.0, abs=1e-12)
    assert all(0.0 <= v <= 1.0 + 1e-12 for v in vals)
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.99


# ---------------------------------------------------------------------------
# INR accumulated-rate CDF


def _inr_quad_oracle(n, m, lambdas, power, x):
    lam1, lam2 = lambdas

    def density(lam):
        return lambda z: (lam / power) * math.exp(z) * math.exp(-lam * math.expm1(z) / power)

    rates = [lam1] * n + [lam2] * m

    def cdf(level, v):
        if level == 0:
            return 1.0 if v >= 0 else 0.0
        f = density(rates[level - 1])
        val, _ = integrate.quad(lambda t: f(t) * cdf(level - 1, v - t), 0, max(v, 0),
                                epsabs=1e-11, limit=200)
        return val

    return cdf(len(rates), x)


@pytest.mark.parametrize("n,m,lambdas,power", [
    (1, 1, (1.0, 2.0), 1.0),
    (2, 1, (1.0, 1.0), 4.0),
    (1, 2, (0.5, 2.0), 10.0),
])
def test_cdf_inr_against_quadrature(n, m, lambdas, power):
    for x in (0.5, 1.5):
        assert cdf_inr_sum(n, m, lambdas, power, x) == pytest.approx(
            _inr_quad_oracle(n, m, lambdas, power, x), abs=1e-8)


@pytest.mark.parametrize("n,m,power,x", [
    (1, 1, 1.0, 1.0),
    (2, 1, 0.1, 0.5),
    (1, 2, 10.0, 2.0),
])
def test_cdf_inr_grid_boundary(n, m, power, x):
    """Band 1 copies spanning _INR_MIN_STEPS grid steps, log1p(P / lambda)
    = _INR_MIN_STEPS x / _INR_GRID_N, stay within 1e-6 of quadrature; 1%
    fewer steps are refused, naming both fading parameters and the power.
    A band without copies is not checked, and one copy stays exact."""
    lam = power / math.expm1(analytic._INR_MIN_STEPS * x / analytic._INR_GRID_N)
    lambdas = (lam * (1 - 1e-9), 1.0)
    assert cdf_inr_sum(n, m, lambdas, power, x) == pytest.approx(
        _inr_quad_oracle(n, m, lambdas, power, x), abs=1e-6)
    far = (lam * 1.01, 1.0)
    with pytest.raises(analytic.ClosedFormRangeError,
                       match=rf"fading parameters {far[0]:g} and 1 at power {power:g} "):
        cdf_inr_sum(n, m, far, power, x)
    assert cdf_inr_sum(0, 2, far, power, x) == cdf_inr_sum(2, 0, (1.0, far[0]), power, x)
    assert cdf_inr_sum(1, 0, far, power, x) == analytic._mi_cdf_single(far[0], power, x)


@lru_cache(maxsize=None)
def _inr_cdf_grid_fftconvolve(rates, power, x, n_intervals):
    # the convolution as scipy's fftconvolve computes it, one density per copy
    h = x / n_intervals
    z = np.linspace(0.0, x, n_intervals + 1)
    dens = [analytic._mi_density(z, lam, power) for lam in rates]
    c = dens[0]
    for f in dens[1:]:
        full = signal.fftconvolve(c, f)[: n_intervals + 1]
        c = h * (full - 0.5 * (c[0] * f + c * f[0]))
    return float(np.trapezoid(c, dx=h))


@pytest.mark.parametrize("copies", range(2, 7))
def test_inr_grid_equals_fftconvolve(copies):
    # one batched pass over every (n, m) with 2 <= n + m <= copies shares
    # prefixes such as (1.0, 1.0) between tuples, yet each entry equals its
    # own tuple's convolution exactly
    tuples = [(1.0,) * n + (2.5,) * (total - n)
              for total in range(2, copies + 1) for n in range(total + 1)]
    for power in (1.0, 10.0, 100.0):
        for x in (0.5, 2.0, 5.0):
            for grid in (analytic._INR_GRID_N, 2 * analytic._INR_GRID_N):
                got = analytic._inr_cdf_grids(tuples, power, x, grid)
                assert got.keys() == set(tuples)
                for rates in tuples:
                    assert got[rates] == _inr_cdf_grid_fftconvolve(rates, power, x, grid)


def test_fft_length_is_the_next_5_smooth_length():
    for n in range(1, 20001):
        length = analytic._fft_length(n)
        assert length == fft.next_fast_len(n, real=True)
        assert length >= n
        for p in (2, 3, 5):
            while length % p == 0:
                length //= p
        assert length == 1
    assert analytic._fft_length(2 * 2048 + 1) == 4320
    assert analytic._fft_length(2 * 4096 + 1) == 8640


def test_cdf_inr_single_copy_closed_form():
    # one copy: Pr(log(1+Pg) < x) = 1 - exp(-lam (e^x - 1)/P)
    lam, p, x = 1.5, 3.0, 1.2
    expected = -math.expm1(-lam * math.expm1(x) / p)
    assert cdf_inr_sum(1, 0, (lam, 9.0), p, x) == pytest.approx(expected, rel=1e-9)


def test_accumulation_cdf_edges():
    lam = (1.0, 1.0)
    assert analytic._accumulated_cdfs(Scheme.RTD, [(0, 0)], lam, 1.0, 0.5) == {(0, 0): 1.0}
    assert analytic._accumulated_cdfs(Scheme.RTD, [(0, 0)], lam, 1.0, -0.5) == {(0, 0): 0.0}
    a = analytic._accumulated_cdfs(Scheme.RTD, [(1, 1)], (1.0, 2.0), 1.0, math.log(2))[1, 1]
    assert a == pytest.approx(cdf_rtd_sum(1, 1, (1.0, 2.0), 1.0, math.log(2)), rel=1e-12)
    b = analytic._accumulated_cdfs(Scheme.INR, [(1, 1)], (1.0, 2.0), 1.0, 0.8)[1, 1]
    assert b == pytest.approx(cdf_inr_sum(1, 1, (1.0, 2.0), 1.0, 0.8), rel=1e-12)


# ---------------------------------------------------------------------------
# event algebra, M = K = 2 reductions


PARAMS = dict(lambdas=(1.0, 2.0), power=3.0, rate_a=1.0, rate_b=0.8)


def _components():
    """(C_B, alpha, beta) at PARAMS."""
    c_a, c_b = (math.expm1(PARAMS[r]) / PARAMS["power"] for r in ("rate_a", "rate_b"))
    lam1, lam2 = PARAMS["lambdas"]
    return c_b, _first_round_failure(lam1, c_a), _first_round_failure(lam2, c_b)


def test_event_reductions_m2_rtd():
    c_b, a, b = _components()
    ev = event_table(Scheme.RTD, 2, PARAMS["lambdas"], PARAMS["power"],
                     PARAMS["rate_a"], PARAMS["rate_b"])
    phi = gain_sum_cdf(1, 2, PARAMS["lambdas"], c_b)
    assert ev[1, 1] == pytest.approx((1 - a) * (1 - b), rel=1e-10)
    assert ev[1, 2] == pytest.approx((1 - a) * (b - phi), rel=1e-10)
    assert ev[1, 0] == pytest.approx((1 - a) * phi, rel=1e-10)
    assert packets_per_slot(ev) == pytest.approx(gamma_m2(a, b), rel=1e-10)


def test_eq5_assembly_identity():
    c_b, a, b = _components()
    ev = event_table(Scheme.RTD, 2, PARAMS["lambdas"], PARAMS["power"],
                     PARAMS["rate_a"], PARAMS["rate_b"])
    out_b = packets_per_slot(ev) * ev[:, 0].sum()
    # the paper's per-slot outage of user B (RTD, M = K = 2): both users
    # failed round one and B fails on two own-band copies, or A decoded
    # round one and B fails on three combined copies (phi)
    gam = gamma_m2(a, b)
    closed = (gam * a * gain_sum_cdf(0, 2, PARAMS["lambdas"], c_b)
              + gam * (1.0 - a) * gain_sum_cdf(1, 2, PARAMS["lambdas"], c_b))
    assert out_b == pytest.approx(closed, abs=1e-12)


@pytest.mark.parametrize("scheme", [Scheme.RTD, Scheme.INR])
@pytest.mark.parametrize("max_rounds", [2, 3, 4])
def test_event_tables_sum_to_one(scheme, max_rounds):
    for lambdas in ((1.0, 2.0), (1.0, 1.001)):
        ev = event_table(scheme, max_rounds, lambdas, 2.0, 1.0, 1.0)
        tol = 1e-10 if max_rounds == 2 else 1e-6
        assert ev.shape == (max_rounds + 1, max_rounds + 1)
        assert ev.sum() == pytest.approx(1.0, abs=tol)
        assert (ev >= -1e-15).all()


def test_event_check_raises():
    bad = np.zeros((3, 3))
    bad[1, 1] = 0.7
    with pytest.raises(ConsistencyError):
        throughput_closed(bad, 1.0, 1.0)


def test_outage_conventions_related_by_gamma():
    # per-packet outage is row 0 (user A) or column 0 (user B) of the table;
    # the per-slot outage is that times gamma
    cfg = ProtocolConfig(profile=FadingProfile(lambdas=(1.0, 1.0)), rates=(1.0, 1.0),
                         power=1.0, scheme=Scheme.INR, max_rounds=2)
    ana = analytic_counterparts(cfg, AllocationPolicy(PolicyKind.ROUND_ROBIN_GENERAL))
    ev = event_table(Scheme.INR, 2, (1.0, 1.0), 1.0, 1.0, 1.0)
    assert ana["gamma"] == packets_per_slot(ev)
    assert ana["outage_packet_user0"] == pytest.approx(ev[0, 0] + ev[0, 1] + ev[0, 2], rel=1e-12)
    assert ana["outage_packet_user1"] == pytest.approx(ev[0, 0] + ev[1, 0] + ev[2, 0], rel=1e-12)
    for u in range(2):
        assert ana[f"outage_user{u}"] == pytest.approx(
            ana["gamma"] * ana[f"outage_packet_user{u}"], rel=1e-12)


def test_rtd_outage_never_below_inr():
    # INR accumulates at least as much information per copy
    for p in (0.5, 2.0, 10.0):
        rtd = event_table(Scheme.RTD, 2, (1.0, 2.0), p, 1.0, 1.0)
        inr = event_table(Scheme.INR, 2, (1.0, 2.0), p, 1.0, 1.0)
        assert rtd[:, 0].sum() >= inr[:, 0].sum() - 1e-9


@pytest.mark.parametrize("scheme", [Scheme.RTD, Scheme.INR])
@pytest.mark.parametrize("max_rounds", [1, 3])
def test_noncoordinated_table_is_product_of_marginals(scheme, max_rounds):
    # without coordination each user runs single-user HARQ on its own band:
    # Pr(decode at r) = F(r-1) - F(r), Pr(outage) = F(M), F(0) = 1
    cdf = cdf_rtd_sum if scheme is Scheme.RTD else cdf_inr_sum
    lambdas, power, rates = (1.0, 2.0), 3.0, (1.0, 0.8)

    def marginal(own, other, rate):
        f = [1.0] + [cdf(c, 0, (own, other), power, rate) for c in range(1, max_rounds + 1)]
        return np.array([f[-1]] + [f[r - 1] - f[r] for r in range(1, max_rounds + 1)])

    expected = np.outer(marginal(lambdas[0], lambdas[1], rates[0]),
                        marginal(lambdas[1], lambdas[0], rates[1]))
    got = event_table(scheme, max_rounds, lambdas, power, *rates, coordinated=False)
    np.testing.assert_array_equal(got, expected)
    coord = event_table(scheme, max_rounds, lambdas, power, *rates)
    assert (coord[0, 0] == got[0, 0]) and (coord[1, 1] == got[1, 1])


@pytest.mark.parametrize("scheme", [Scheme.RTD, Scheme.INR])
def test_event_table_cold_equals_warm(scheme):
    args = (scheme, 3, (1.0, 2.0), 4.0)
    # warm: A's table at 1.0 and B's at 1.5 come from the cache, built for
    # the earlier rate pairs
    for pair in ((1.0, 0.5), (0.5, 1.5), (1.0, 1.5)):
        warm = event_table(*args, *pair)
    analytic._resolve_given.cache_clear()
    analytic._INR_CACHE.clear()
    cold = event_table(*args, 1.0, 1.5)
    assert analytic._resolve_given.cache_info().misses == 2
    assert cold.tobytes() == warm.tobytes()
    # the cached per-user tables are shared, so callers cannot write them
    q = analytic._resolve_given(scheme, 3, False, (1.0, 2.0), 4.0, 1.0)
    with pytest.raises(ValueError):
        q[0, 0] = 0.5


def test_cold_inr_table_leaves_no_cyclic_garbage():
    # buffers held in a reference cycle outlive the call until the cyclic
    # collector runs, and raise the peak memory of a rate search
    gc.collect()
    gc.disable()
    try:
        event_table(Scheme.INR, 3, (1.0, 2.0), 7.389, 1.0, 1.5)  # a power no other test uses
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("scheme", ["rtd", "inr"])
@pytest.mark.parametrize("policy", ["coord", "noncoord", "round-robin"])
@pytest.mark.parametrize("max_rounds", [2, 3])
def test_optimize_rates_equals_per_pair_counterparts(scheme, policy, max_rounds):
    grid = [(0.5 * a, 0.5 * b) for a in range(1, 5) for b in range(1, 5)]
    pol = resolve_policy(policy, 2)
    for lambdas in ((1.0, 1.0), (1.0, 2.0), (1.0, 1.001)):
        cfg = ProtocolConfig(profile=FadingProfile(lambdas=lambdas), rates=(1.0, 1.0),
                             power=10.0, scheme=Scheme(scheme), max_rounds=max_rounds)
        etas = [analytic_counterparts(replace(cfg, rates=pair), pol)["throughput"]
                for pair in grid]
        # the largest throughput; among equal ones the smaller R_A + R_B,
        # then the earlier pair
        best = max(range(len(grid)), key=lambda i: (etas[i], -sum(grid[i]), -i))
        assert optimize_rates(cfg, pol, grid) == (grid[best], etas[best])


@pytest.mark.parametrize("scheme", ["rtd", "inr"])
@pytest.mark.parametrize("policy", ["coord", "noncoord", "round-robin"])
def test_grid_throughputs_equal_per_pair_counterparts(scheme, policy):
    grid = [(0.5 * a, 0.5 * b) for a in range(1, 5) for b in range(1, 5)] + [(0, 2), (1.0, 0.0)]
    pol = resolve_policy(policy, 2)
    for lambdas, max_rounds in (((1.0, 2.0), 3), ((1.0, 1.0), 2)):
        cfg = ProtocolConfig(profile=FadingProfile(lambdas=lambdas), rates=(1.0, 1.0),
                             power=10.0, scheme=Scheme(scheme), max_rounds=max_rounds)
        etas = grid_throughputs(cfg, pol, grid)
        assert etas == [analytic_counterparts(replace(cfg, rates=pair), pol)["throughput"]
                        for pair in grid]
    for bad in ((1.0, -0.5), (1.0, math.nan), (1.0,), (1.0, 1.0, 1.0)):
        with pytest.raises(ConfigurationError):
            grid_throughputs(cfg, pol, [(1.0, 1.0), bad])


def test_rate_search_builds_one_resolve_table_per_user_and_rate():
    rates = (0.5, 1.0, 1.5)
    cfg = ProtocolConfig(profile=FadingProfile(lambdas=(1.0, 2.0)), rates=(1.0, 1.0),
                         power=3.0, scheme=Scheme.RTD, max_rounds=3)
    analytic._resolve_given.cache_clear()
    optimize_rates(cfg, resolve_policy("coord", 2), list(itertools.product(rates, rates)))
    assert analytic._resolve_given.cache_info().misses == 2 * len(rates)


# ---------------------------------------------------------------------------
# throughput


def test_throughput_synthetic():
    # rows index A's round, columns B's, 0 = outage
    ev = np.array([[0.0, 0.05, 0.0],
                   [0.05, 0.5, 0.2],
                   [0.0, 0.1, 0.1]])
    gamma = packets_per_slot(ev)
    # slots: 1 for A1B1, 2 for every other nonzero cell
    assert gamma == pytest.approx(1.0 / (0.5 + 2 * 0.5), rel=1e-12)
    eta = throughput_closed(ev, 1.0, 2.0)
    # A succeeds with prob 0.95, B with 0.95
    assert eta == pytest.approx(gamma * (1.0 * 0.95 + 2.0 * 0.95), rel=1e-12)


def test_throughput_zero_rate():
    ev = event_table(Scheme.RTD, 2, (1.0, 1.0), 1.0, 0.0, 0.0)
    assert throughput_closed(ev, 0.0, 0.0) == 0.0


def test_throughput_high_power_limit():
    # at very high power nothing fails, so eta -> R_A + R_B
    ev = event_table(Scheme.INR, 2, (1.0, 1.0), 1e6, 1.0, 1.5)
    assert throughput_closed(ev, 1.0, 1.5) == pytest.approx(2.5, rel=1e-4)


# ---------------------------------------------------------------------------
# general-M events and diversity


def test_event_probability_general_first_round():
    a = event_table(Scheme.RTD, 3, (1.0, 2.0), 2.0, 1.0, 1.0)[1, 1]
    c = math.expm1(1.0) / 2.0
    al, be = _first_round_failure(1.0, c), _first_round_failure(2.0, c)
    assert a == pytest.approx((1 - al) * (1 - be), rel=1e-10)


def test_event_probability_outage_label():
    q = event_table(Scheme.RTD, 2, (1.0, 1.0), 0.5, 2.0, 2.0)[0, 0]
    assert 0.0 < q < 1.0
    assert event_label(0, 0) == "AoutBout"
    assert event_label(0, 2) == "AoutB2"
    assert event_label(3, 0) == "A3Bout"
    assert event_label(1, 2) == "A1B2"


def test_diversity_gain_examples():
    assert diversity_gain(1, 2) == 3
    assert diversity_gain(0, 2) == 2
    assert diversity_gain(2, 2) == 4
    assert diversity_gain(1, 3) == 5
    assert diversity_gain(0, 1) == 1
    with pytest.raises(ValueError):
        diversity_gain(-1, 2)
    with pytest.raises(ValueError):
        diversity_gain(1, 0)
