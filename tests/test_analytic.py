import gc
import itertools
import math
from dataclasses import replace
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import fft, integrate, signal, special

from coharq import analytic
from coharq.analytic import (ConsistencyError, cdf_inr_sum, cdf_rtd_sum,
                             diversity_gain, event_label, event_table, gain_sum_cdf,
                             packets_per_slot, throughput_closed)
from coharq.cli import grid_throughputs, optimize_rates, resolve_policy
from coharq.fading import ConfigurationError, FadingProfile
from coharq.montecarlo import analytic_counterparts, grid_tables
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
    assert gain_sum_cdf(1, 1, (1e300, 1.0), 1e-299) == pytest.approx(9e-300, rel=1e-4, abs=0.0)


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
            assert gain_sum_cdf(n, m, lambdas, z) == pytest.approx(lead, rel=1e-6, abs=0.0)


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


def _inr_quad_oracle(n, m, lambdas, power, x, epsabs=1e-11):
    lam1, lam2 = lambdas

    def density(lam):
        return lambda z: (lam / power) * math.exp(z) * math.exp(-lam * math.expm1(z) / power)

    rates = [lam1] * n + [lam2] * m

    def cdf(level, v):
        if level == 0:
            return 1.0 if v >= 0 else 0.0
        f = density(rates[level - 1])
        val, _ = integrate.quad(lambda t: f(t) * cdf(level - 1, v - t), 0, max(v, 0),
                                epsabs=epsabs, limit=200)
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


def test_cdf_inr_deep_tail_against_quadrature():
    """In deep outage the convolution keeps its relative accuracy: three
    copies at up to 60 dB, down to about 1e-19, match quadrature taken to a
    relative tolerance alone within 1e-10."""
    smallest = 1.0
    for (n, m), lambdas, power, x in itertools.product(
            ((2, 1), (1, 2)), ((1.0, 1.0), (0.5, 2.0)), (1e2, 1e4, 1e6), (1.0, 3.0)):
        want = _inr_quad_oracle(n, m, lambdas, power, x, epsabs=0.0)
        assert cdf_inr_sum(n, m, lambdas, power, x) == pytest.approx(want, rel=1e-10, abs=0.0)
        smallest = min(smallest, want)
    assert smallest < 2e-19


@pytest.mark.parametrize("n,m,power,x", [
    (1, 1, 1.0, 1.0),
    (2, 1, 0.1, 0.5),
    (1, 2, 10.0, 2.0),
])
def test_cdf_inr_grid_boundary(n, m, power, x):
    """Band 1 copies whose density width spans the fewest grid steps the
    check admits, P / (P + lambda) = max(8, 2n) x / _INR_GRID_N,
    stay within 1e-6 of quadrature; 1% fewer steps are refused, naming both
    fading parameters and the power. A band without copies is not checked,
    and one copy stays exact. Seven copies at 8 steps, 7.6e-7 off a
    2^16-step grid (eight, 1.9e-6), are refused: the floor grows with the
    copies."""
    steps = max(analytic._INR_MIN_STEPS, 2 * n)
    lam = power * (analytic._INR_GRID_N / (steps * x) - 1)
    lambdas = (lam * (1 - 1e-9), 1.0)
    assert cdf_inr_sum(n, m, lambdas, power, x) == pytest.approx(
        _inr_quad_oracle(n, m, lambdas, power, x), abs=1e-6)
    far = (lam * 1.01, 1.0)
    with pytest.raises(analytic.ClosedFormRangeError,
                       match=rf"fading parameters {far[0]:g} and 1 at power {power:g} "):
        cdf_inr_sum(n, m, far, power, x)
    assert cdf_inr_sum(0, 2, far, power, x) == cdf_inr_sum(2, 0, (1.0, far[0]), power, x)
    assert cdf_inr_sum(1, 0, far, power, x) == analytic._mi_cdf_single(far[0], power, x)
    with pytest.raises(analytic.ClosedFormRangeError, match="under 14 steps"):
        cdf_inr_sum(7, 0, (25.6, 1.0), 0.01, 0.1)


def test_cdf_inr_grid_boundary_at_high_power(monkeypatch):
    """At P / lambda = e^128 a copy's density is a unit-scale Gumbel density
    near 128 nats, far narrower than log1p(P / lambda): two copies on a
    grid of 8 steps per nat (x = 256) stay within 1e-6 of quadrature, a
    257-nat target is refused, and so is the 0.49-nat step at P = 1e217,
    x = 1000, 2.6e-6 off quadrature. Seven copies at 1e-4 nats, about
    2e-32, match the small-target series (10^-4)^7 / 7!; copies whose
    lower-tail bound F1(x)^n F2(x)^m underflows are 0 without the grid, and
    the bound reads a threshold past float range as a one-copy CDF of 1."""
    lambdas = (math.exp(-128.0), math.exp(-128.0))
    assert cdf_inr_sum(1, 1, lambdas, 1.0, 256.0) == pytest.approx(
        _inr_quad_oracle(1, 1, lambdas, 1.0, 256.0), abs=1e-6)
    for args in ((lambdas, 1.0, 257.0), ((1.0, 1.0), 1e217, 1000.0)):
        with pytest.raises(analytic.ClosedFormRangeError, match="under 8 steps"):
            cdf_inr_sum(1, 1, *args)
    assert cdf_inr_sum(3, 4, (1.0, 1.0), 1.0, 1e-4) == pytest.approx(
        1e-4 ** 7 / math.factorial(7), rel=1e-6, abs=0.0)

    def no_grid(*args):
        raise AssertionError("the grid ran")
    monkeypatch.setattr(analytic, "_inr_cdf_grids", no_grid)
    assert cdf_inr_sum(2000, 0, (1.0, 1.0), 1.0, 1e-4) == 0.0
    with pytest.raises(analytic.ClosedFormRangeError, match="under 8 steps"):
        cdf_inr_sum(2, 0, (1.0, 1.0), 1e217, 1000.0)


def test_inr_density_stays_finite_up_to_the_admitted_target():
    """_check_inr_grid admits targets under 256 nats only, so the INR
    density's exponent never overflows: at P = 1e217 and a target just under
    the limit, the (1, 1) and (2, 0) CDFs raise no floating-point error and
    lie in [0, 1]."""
    x = math.nextafter(analytic._INR_GRID_N / analytic._INR_MIN_STEPS, 0.0)
    keys = [(1, 1, 1.0, 1.0, x), (2, 0, 1.0, 1.0, x)]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        cdf = analytic._cdf_inr_counts(keys, 1e217)
    assert set(cdf) == set(keys)
    assert all(0.0 <= p <= 1.0 for p in cdf.values())


@lru_cache(maxsize=None)
def _inr_chain_fftconvolve(lam, copies, power, x, n_intervals):
    # the densities of 1..copies copies at lam, each step as scipy's
    # fftconvolve computes the trapezoid-corrected convolution
    h = x / n_intervals
    f = analytic._mi_density(np.linspace(0.0, x, n_intervals + 1), lam, power)
    chain = [f]
    while len(chain) < copies:
        c = chain[-1]
        full = signal.fftconvolve(c, f)[: n_intervals + 1]
        chain.append(h * (full - 0.5 * (c[0] * f + c * f[0])))
    return tuple(chain)


def _inr_split_oracle(dens_side, cdf_side, power, x, n_intervals):
    """int_0^x dens(a^p)(s) G(b^q)(x - s) ds by the trapezoid rule, for
    dens_side (a, p) and cdf_side (b, q): G(b^1) in closed form, G(b^q) the
    cumulative trapezoid of dens(b^q)."""
    (a, p), (b, q) = dens_side, cdf_side
    h = x / n_intervals
    z = np.linspace(0.0, x, n_intervals + 1)
    dens = _inr_chain_fftconvolve(a, p, power, x, n_intervals)[-1]
    if q == 1:
        g = -np.expm1(-(b / power) * np.expm1(z))
    else:
        g = integrate.cumulative_trapezoid(_inr_chain_fftconvolve(b, q, power, x, n_intervals)[-1],
                                           dx=h, initial=0)
    return float(np.trapezoid(dens * g[::-1], dx=h))


def _inr_split(n, m, lam1, lam2):
    # the decomposition _inr_cdf_grids takes: copies at one fading parameter
    # a as dens(a^(k-1)) against the one-copy CDF, else the band with more
    # copies (band 1 on a tie) as the density, the other as the CDF
    if lam1 == lam2 or not (n and m):
        lam = lam1 if n else lam2
        return (lam, n + m - 1), (lam, 1)
    return ((lam1, n), (lam2, m)) if n >= m else ((lam2, m), (lam1, n))


@pytest.mark.parametrize("copies", range(2, 7))
def test_inr_grid_equals_fftconvolve(copies):
    # one batched pass over every count with 2 <= n + m <= copies, at unequal
    # and equal fading parameters and at three targets, one row each,
    # shares the per-lambda density chains and the CDFs between counts, yet
    # each entry equals its own count's chain and product integral on its
    # own target's grid exactly
    counts = [(n, total - n, lam1, lam2) for total in range(2, copies + 1)
              for n in range(total + 1) for lam1, lam2 in ((1.0, 2.5), (2.5, 1.0), (1.0, 1.0))]
    keys = [count + (x,) for x in (0.5, 2.0, 5.0) for count in counts]
    for power in (1.0, 10.0, 100.0):
        for grid in (analytic._INR_GRID_N, 2 * analytic._INR_GRID_N):
            got = analytic._inr_cdf_grids(keys, power, grid)
            assert got.keys() == set(keys)
            for *count, x in keys:
                want = _inr_split_oracle(*_inr_split(*count), power, x, grid)
                assert got[(*count, x)] == want


def _richardson(values):
    coarse, fine = values
    return (4.0 * fine - coarse) / 3.0


@pytest.mark.parametrize("lambdas", [(1.0, 2.0), (0.5, 3.0), (1.0, 1.001)])
def test_cdf_inr_four_and_five_copies(lambdas):
    """The counts an M = 3 coordinated search reads past nested quadrature's
    reach: both splits of a mixed count, dens(a^n) G(b^m) and
    dens(b^m) G(a^n), agree within 1e-9, and each value within 1e-7 of a
    2^15-step grid (Richardson from 2^14 steps)."""
    for (n, m), order, power, x in itertools.product(
            ((2, 1), (3, 1), (3, 2)), (lambdas, lambdas[::-1]), (1.0, 10.0, 100.0),
            (0.5, 1.5, 3.0)):
        key = (n, m, *order)
        got = cdf_inr_sum(n, m, order, power, x)
        splits = ((order[0], n), (order[1], m)), ((order[1], m), (order[0], n))
        for split in splits:
            other = _richardson([_inr_split_oracle(*split, power, x, grid)
                                 for grid in (analytic._INR_GRID_N, 2 * analytic._INR_GRID_N)])
            assert got == pytest.approx(other, abs=1e-9), (key, power, x, split)
        fine = _richardson([analytic._inr_cdf_grids([key + (x,)], power, grid)[key + (x,)]
                            for grid in (2 ** 14, 2 ** 15)])
        assert got == pytest.approx(fine, abs=1e-7), (key, power, x)


def _inr_cdf_or_refusal(n, m, lambdas, power, x):
    # evaluated cold: the cache key does not name the grid
    analytic._CDF_CACHE.clear()
    try:
        return cdf_inr_sum(n, m, lambdas, power, x)
    except analytic.ClosedFormRangeError:
        return None


@settings(derandomize=True, max_examples=300, deadline=None)
@given(copies=st.integers(2, 24), share=st.floats(0.0, 1.0),
       lam1=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
       ratio=st.one_of(st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e),
                       st.floats(-1e-3, 1e-3).map(lambda d: 1.0 + d)),
       power_db=st.floats(-20.0, 80.0), spread=st.floats(0.05, 3.0))
@example(copies=5, share=0.6, lam1=1.0, ratio=2.0, power_db=5.0, spread=1.0)
@example(copies=4, share=0.5, lam1=1.0, ratio=1.001, power_db=15.0, spread=0.7)
@example(copies=24, share=1.0, lam1=1.0, ratio=1.0, power_db=20.0, spread=1.0)
@example(copies=16, share=0.25, lam1=0.01, ratio=1e6, power_db=-20.0, spread=0.5)
def test_inr_cdf_on_its_grid_matches_the_finest_grid(copies, share, lam1, ratio, power_db,
                                                      spread):
    """Each copy count on the coarsest grid that resolves it (_inr_grid) lies
    within 1e-9 of Richardson from the _INR_GRID_N and 2 _INR_GRID_N step
    grids, for 2 to 24 copies, fading ratios from near 1 to 1e6 and -20 to
    80 dB, at targets from 0.05 to 3 times the copies' mean mutual
    information, up to 255 nats; and it is refused exactly where the finest
    grid is."""
    n = round(share * copies)
    lambdas, power = (lam1, lam1 * ratio), 10.0 ** (power_db / 10.0)
    # E log(1 + gP) = e^a E1(a), a = lam / P, about 1 / a for large a
    mean = sum(c * (math.exp(a) * special.exp1(a) if a < 500.0 else 1.0 / a)
               for c, a in ((n, lambdas[0] / power), (copies - n, lambdas[1] / power)))
    x = min(float(spread * mean), 255.0)
    got = _inr_cdf_or_refusal(n, copies - n, lambdas, power, x)
    with mock.patch.object(analytic, "_INR_GRID_MIN", analytic._INR_GRID_N):
        want = _inr_cdf_or_refusal(n, copies - n, lambdas, power, x)
    if want is None:
        assert got is None
    else:
        assert got == pytest.approx(want, abs=1e-9)


def test_inr_cdf_does_not_depend_on_its_batch(monkeypatch):
    """A count's value is the same, bit for bit, evaluated alone or with
    counts that take other grids (256 to 2048 steps against its 128) and
    with other targets as rows of its passes (three rows in each pass, the
    1024- and 2048-step base grids among them), cold or from the cache."""
    passes = []  # (steps, targets) of each pass
    grids = analytic._inr_cdf_grids

    def counted(keys, power, n_intervals):
        passes.append((n_intervals, {key[-1] for key in keys}))
        return grids(keys, power, n_intervals)

    monkeypatch.setattr(analytic, "_inr_cdf_grids", counted)
    power = 10.0
    key = (2, 1, 1.0, 2.0, 1.5)
    counts = [(3, 3, 2.0, 2.0), (12, 0, 1.0, 2.0), (20, 4, 1.0, 2.0), (2, 2, 1e-3, 1e3)]
    others = [count + (1.5,) for count in counts]
    assert len({analytic._inr_grid(*k[:4], power, k[4]) for k in [key] + others}) == 5
    # the same counts at targets that keep each count on its grid at 1.5 nats
    near = [k[:4] + (x,) for k in [key] + others for x in (1.3, 1.6)]
    for k in near:
        assert analytic._inr_grid(*k[:4], power, k[4]) == analytic._inr_grid(*k[:4], power, 1.5)
    alone = {}
    for k in [key] + others + near:
        analytic._CDF_CACHE.clear()
        alone[k] = analytic._accumulated_cdfs(Scheme.INR, [k], power)[k]
    assert all(isinstance(v, float) for v in alone.values())
    analytic._CDF_CACHE.clear()
    passes.clear()
    cold = analytic._accumulated_cdfs(Scheme.INR, others + near + [key], power)
    assert sorted(n for n, _ in passes) == sorted(
        n for base in (128, 256, 512, 1024, 2048) for n in (base, 2 * base))
    assert all(targets == {1.3, 1.5, 1.6} for _, targets in passes)
    warm = analytic._accumulated_cdfs(Scheme.INR, [key] + others[:1] + near[:2], power)
    assert cold == alone
    assert warm == {k: alone[k] for k in warm}
    assert cdf_inr_sum(2, 1, (1.0, 2.0), power, 1.5) == alone[key]


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
    empty = (0, 0, 1.0, 1.0)
    assert analytic._accumulated_cdfs(Scheme.RTD, [empty + (0.5,)], 1.0) == {empty + (0.5,): 1.0}
    assert analytic._accumulated_cdfs(Scheme.RTD, [empty + (-0.5,)], 1.0) == {empty + (-0.5,): 0.0}
    a = analytic._accumulated_cdfs(Scheme.RTD, [(1, 1, 1.0, 2.0, math.log(2))], 1.0)
    assert a[1, 1, 1.0, 2.0, math.log(2)] == pytest.approx(
        cdf_rtd_sum(1, 1, (1.0, 2.0), 1.0, math.log(2)), rel=1e-12)
    b = analytic._accumulated_cdfs(Scheme.INR, [(1, 1, 1.0, 2.0, 0.8)], 1.0)
    assert b[1, 1, 1.0, 2.0, 0.8] == pytest.approx(cdf_inr_sum(1, 1, (1.0, 2.0), 1.0, 0.8),
                                                   rel=1e-12)
    # both fading orders and two targets in one call: each key its own CDF
    keys = [(2, 1, 1.0, 2.0, 1.5), (2, 1, 2.0, 1.0, 1.5), (2, 1, 1.0, 2.0, 0.5)]
    both = analytic._accumulated_cdfs(Scheme.RTD, keys, 1.0)
    assert both == {key: cdf_rtd_sum(2, 1, key[2:4], 1.0, key[4]) for key in keys}


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


def _clear_closed_form_caches():
    analytic._Q_CACHE.clear()
    analytic._CDF_CACHE.clear()


@pytest.fixture
def resolve_calls(monkeypatch):
    """The rates each _resolve_pair call builds, one list per call."""
    calls = []
    build = analytic._resolve_pair

    def counted(*args):
        calls.append(list(args[-1]))
        return build(*args)

    monkeypatch.setattr(analytic, "_resolve_pair", counted)
    return calls


@pytest.mark.parametrize("scheme", [Scheme.RTD, Scheme.INR])
def test_event_table_cold_equals_warm(scheme, resolve_calls):
    args = (scheme, 3, (1.0, 2.0), 4.0)
    # warm: A's table at 1.0 and B's at 1.5 come from the cache, built for
    # the earlier rate pairs, and the last pair builds nothing
    for pair in ((1.0, 0.5), (0.5, 1.5), (1.0, 1.5)):
        warm = event_table(*args, *pair)
    assert resolve_calls == [[1.0, 0.5], [1.5]]
    _clear_closed_form_caches()
    resolve_calls.clear()
    cold = event_table(*args, 1.0, 1.5)
    assert resolve_calls == [[1.0, 1.5]]
    assert cold.tobytes() == warm.tobytes()
    # the cached per-user tables are shared, so callers cannot write them
    for lambdas in ((1.0, 2.0), (1.0, 1.0)):
        event_table(scheme, 3, lambdas, 4.0, 1.0, 1.0, coordinated=False)
        for q in analytic._Q_CACHE[scheme.value, 3, False, lambdas, 4.0, 1.0]:
            with pytest.raises(ValueError):
                q[0, 0] = 0.5


@pytest.mark.parametrize("scheme", [Scheme.RTD, Scheme.INR])
def test_disjoint_rate_sets_stack_like_single_pairs(scheme, resolve_calls):
    """A grid whose users hold no rate in common: each stacked table equals
    the one-pair call's, with the caches cold and warm."""
    args = (scheme, 3, (1.0, 2.0), 4.0)
    grid = np.array(list(itertools.product((0.5, 1.0), (1.5, 2.0))))
    _clear_closed_form_caches()
    cold = event_table(*args, grid[:, 0], grid[:, 1])
    assert resolve_calls == [[0.5, 1.0, 1.5, 2.0]]
    warm = event_table(*args, grid[:, 0], grid[:, 1])
    assert cold.shape == (len(grid), 4, 4) and cold.tobytes() == warm.tobytes()
    for pair, table in zip(grid, cold):
        _clear_closed_form_caches()
        for _ in range(2):  # cold, then warm
            assert table.tobytes() == event_table(*args, *pair).tobytes()


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


def _convolved(count, lambdas, power, x):
    """Whether the INR closed form convolves this copy count, rather than
    taking it exact: saturated, one copy, or a lower-tail bound that
    underflows to 0."""
    n, m = count
    return not (analytic._saturated(n, m, lambdas, power, x) or n + m == 1
                or analytic._inr_lower_tail(n, m, *lambdas, power, x) == 0.0)


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
    # At these powers and rates a copy count that one user's band makes
    # exact (saturated at lambda = 100, or a lower-tail bound that underflows
    # at lambda = 1e-120) is convolved for the other user, and one-copy
    # counts sit beside convolved ones: the grid, cold, equals each pair
    # evaluated cold on its own, in both lambda orders
    for lambdas, power, rates in (((1.0, 100.0), 1.0, (1.0, 1.5, 2.0)),
                                  ((1e-50, 1e-120), 1.0, (1e-50, 2e-50))):
        assert any(_convolved(c, lambdas, power, x) != _convolved(c, lambdas[::-1], power, x)
                   for c in analytic._donated(3, True)[1] - {(0, 0)} for x in rates)
        pairs = list(itertools.product(rates, rates))
        for order in (lambdas, lambdas[::-1]):
            cfg = ProtocolConfig(profile=FadingProfile(lambdas=order), rates=(1.0, 1.0),
                                 power=power, scheme=Scheme(scheme), max_rounds=3)
            _clear_closed_form_caches()
            etas = grid_throughputs(cfg, pol, pairs)
            for pair, eta in zip(pairs, etas):
                _clear_closed_form_caches()
                assert eta == analytic_counterparts(replace(cfg, rates=pair), pol)["throughput"]
    for bad in ((1.0, -0.5), (1.0, math.nan), (1.0,), (1.0, 1.0, 1.0)):
        with pytest.raises(ConfigurationError):
            grid_throughputs(cfg, pol, [(1.0, 1.0), bad])


def test_rate_search_builds_one_resolve_table_per_user_and_rate(resolve_calls):
    rates = (0.5, 1.0, 1.5)
    for scheme in Scheme:
        cfg = ProtocolConfig(profile=FadingProfile(lambdas=(1.0, 2.0)), rates=(1.0, 1.0),
                             power=3.0, scheme=scheme, max_rounds=3)
        _clear_closed_form_caches()
        resolve_calls.clear()
        optimize_rates(cfg, resolve_policy("coord", 2), list(itertools.product(rates, rates)))
        # one call, which builds both users' tables at each rate once
        assert resolve_calls == [list(rates)]
        assert len(analytic._Q_CACHE) == len(rates)


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("policy", ["coord", "noncoord"])
def test_search_tables_do_not_depend_on_what_warmed_the_caches(scheme, policy):
    """A search's tables are the same bytes with the caches cold, after the
    other policy's search warmed them (which shares copy counts with it),
    and after the other scheme's search did."""
    grid = [(0.5 * a, 0.5 * b) for a in range(1, 9) for b in range(1, 9)]

    def tables(scheme, policy):
        cfg = ProtocolConfig(profile=FadingProfile(lambdas=(1.0, 2.0)), rates=(1.0, 1.0),
                             power=10.0, scheme=scheme, max_rounds=3)
        return grid_tables(cfg, resolve_policy(policy, 2), grid, 1, 1)[0].tobytes()

    other_policy = "noncoord" if policy == "coord" else "coord"
    other_scheme = Scheme.INR if scheme is Scheme.RTD else Scheme.RTD
    _clear_closed_form_caches()
    cold = tables(scheme, policy)
    built_cold = len(analytic._CDF_CACHE)
    for warm_scheme, warm_policy in ((scheme, other_policy), (other_scheme, policy)):
        _clear_closed_form_caches()
        tables(warm_scheme, warm_policy)
        warmed = len(analytic._CDF_CACHE)
        assert tables(scheme, policy) == cold
        if warm_scheme is scheme:  # the warming search served some counts
            assert len(analytic._CDF_CACHE) - warmed < built_cold


def _resolve_oracle(max_rounds, lambdas, power, rate):
    """One user's resolve table, each CDF of its copy counts evaluated cold
    and on its own: the user holds c own copies after round c, and as many
    of the other band's as the other user, resolved at round j, donated."""
    def short(own, donated):
        analytic._CDF_CACHE.clear()
        return 1.0 if own == donated == 0 else cdf_inr_sum(own, donated, lambdas, power, rate)

    rounds = range(max_rounds + 1)
    g = [[short(c, max(c - j, 0) if j else 0) for j in rounds] for c in rounds]
    return np.array([g[-1]] + [[a - b for a, b in zip(x, y)] for x, y in zip(g, g[1:])])


def test_inr_rate_search_takes_one_pass_per_base_grid(monkeypatch):
    """With unequal fading the two users' INR copy counts differ; a search
    sends both users' counts at all its rates through one coarse and one
    fine convolution pass per base grid that _inr_grid gives them, each
    count in the pass of its own grid, on the row of its rate; and each
    user's resolve table equals one built from its own counts, each
    evaluated on its own."""
    calls = []
    grids = analytic._inr_cdf_grids

    def counted(keys, power, n_intervals):
        calls.append((n_intervals, frozenset(keys)))
        return grids(keys, power, n_intervals)

    monkeypatch.setattr(analytic, "_inr_cdf_grids", counted)
    rates, power = (0.5, 1.0, 1.5), 5.5  # a power no other test uses
    cfg = ProtocolConfig(profile=FadingProfile(lambdas=(1.0, 2.0)), rates=(1.0, 1.0),
                         power=power, scheme=Scheme.INR, max_rounds=3)
    grid = list(itertools.product(rates, rates))
    _clear_closed_form_caches()
    tables, packets = grid_tables(cfg, resolve_policy("coord", 2), grid, 1, 1)
    assert packets == 1
    counts = analytic._donated(3, True)[1]
    by_grid = {}
    for x in rates:
        for lam in ((1.0, 2.0), (2.0, 1.0)):
            for count in counts:
                if any(count) and _convolved(count, lam, power, x):
                    by_grid.setdefault(analytic._inr_grid(*count, *lam, power, x),
                                       set()).add(count + lam + (x,))
    want = [(n, frozenset(keys)) for base, keys in by_grid.items() for n in (base, 2 * base)]
    assert sorted(calls, key=str) == sorted(want, key=str)
    # here every count's grid is coarser than the finest, at 1.5 nats the
    # counts take two, and a pass serves several rates
    assert max(n for n, _ in calls) < analytic._INR_GRID_N
    assert sum(any(key[-1] == 1.5 for key in keys) for keys in by_grid.values()) == 2
    assert any(len({key[-1] for key in keys}) > 1 for keys in by_grid.values())
    for (rate_a, rate_b), table in zip(grid, tables):
        q_a = _resolve_oracle(3, (1.0, 2.0), power, rate_a)
        q_b = _resolve_oracle(3, (2.0, 1.0), power, rate_b)
        assert table.tobytes() == (q_a * q_b.T).tobytes()


def test_a_refused_user_refuses_only_where_it_holds_the_rate():
    """At M = 5, lambda = (1, 100) and P = 0.5 the INR closed form refuses
    B's copy counts at 1.1 nats (five copies at lambda = 100 span under 10
    steps of the grid) but not A's (four donated ones, 8 steps): a table in
    which only A holds 1.1 stands, cold and warm, equal to one built from
    each user's own counts, and one in which B holds it is refused."""
    args = (Scheme.INR, 5, (1.0, 100.0), 0.5)
    want = (_resolve_oracle(5, (1.0, 100.0), 0.5, 1.1)
            * _resolve_oracle(5, (100.0, 1.0), 0.5, 0.5).T)
    _clear_closed_form_caches()
    for _ in range(2):
        assert event_table(*args, 1.1, 0.5).tobytes() == want.tobytes()
        assert event_table(*args, [1.1, 0.5], [0.5, 0.5])[0].tobytes() == want.tobytes()
        for rates in ((0.5, 1.1), ([1.1, 0.5], [0.5, 1.1])):
            with pytest.raises(analytic.ClosedFormRangeError, match="under 10 steps"):
                event_table(*args, *rates)


def _table_sums_oracle(table):
    # one table's reduction: each user mass one matrix-vector product, the
    # slots summed one cell at a time in table_cells order
    flat, decodes, slots = analytic.table_cells(table.shape[0] - 1, table.ndim)
    cells = table.ravel()[flat]
    return ~decodes @ cells, decodes @ cells, sum((slots * cells).tolist())


def _assert_stack_reduces_per_table(tables, rates, packets):
    k = len(rates)
    outage, decoded, slots = analytic.table_sums(tables, k)
    etas = throughput_closed(tables, *rates, packets=packets)
    assert outage.shape == decoded.shape == (len(tables), k) and slots.shape == etas.shape
    for i, table in enumerate(tables):
        want = _table_sums_oracle(table)
        pair = [r[i] for r in rates]
        n = packets if np.isscalar(packets) else packets[i]
        assert outage[i].tobytes() == want[0].tobytes()
        assert decoded[i].tobytes() == want[1].tobytes()
        assert slots[i] == want[2]
        assert etas[i] == float(np.asarray(pair) @ want[1]) / want[2]
        assert etas[i] == throughput_closed(table, *pair, packets=n)
        vals = analytic.reduce_table(table, pair, packets=n)
        assert analytic.reduce_table(table, pair, packets=n,
                                     sums=(outage[i], decoded[i], slots[i])) == vals


def test_stacked_reductions_equal_per_table():
    """table_sums, throughput_closed and reduce_table on a stack of tables
    equal the per-table values bit for bit. The closed-form stacks hold
    tables whose user masses a gemm, or a sequential sum of the decoded
    cells, changes in the last bits; the count stacks are exact."""
    grid = np.array([(0.5 * a, 0.5 * b) for a in range(1, 5) for b in range(1, 5)])
    naive_differs = 0
    for scheme, (lambdas, m), db in itertools.product(
            Scheme, (((1.0, 2.0), 2), ((1.0, 3.0), 3), ((2.0, 1.0), 4)), (0.0, 7.0, 12.0)):
        power = 10.0 ** (db / 10.0)
        tables = event_table(scheme, m, lambdas, power, grid[:, 0], grid[:, 1])
        for table, pair in zip(tables, grid):
            assert table.tobytes() == event_table(scheme, m, lambdas, power, *pair).tobytes()
        _assert_stack_reduces_per_table(tables, tuple(grid.T), 1.0)
        flat, decodes, _ = analytic.table_cells(m, 2)
        cells = tables.reshape(len(grid), -1)[:, flat]
        per_table = analytic.table_sums(tables, 2)[1]
        sequential = np.array([[sum(c[d].tolist()) for d in decodes] for c in cells])
        naive_differs += ((cells @ decodes.T != per_table).any(axis=1)
                          | (sequential != per_table).any(axis=1)).sum()
    assert naive_differs > 0
    rng = np.random.default_rng(7)
    for k, m in ((2, 2), (2, 3), (3, 2), (3, 3)):
        counts = rng.integers(0, 10**6, size=(12,) + (m + 1,) * k)
        rates = tuple(rng.uniform(0.1, 3.0, size=12) for _ in range(k))
        packets = counts.reshape(12, -1).sum(axis=1)
        _assert_stack_reduces_per_table(counts, rates, packets)
        assert analytic.table_sums(counts, k)[0].dtype == np.int64


def test_event_table_refuses_rate_arrays_of_unequal_shapes():
    with pytest.raises(ValueError, match="shapes"):
        event_table(Scheme.RTD, 2, (1.0, 1.0), 1.0, [1.0, 2.0], [1.0])
    assert event_table(Scheme.RTD, 2, (1.0, 1.0), 1.0, [], []).shape == (0, 3, 3)


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


@pytest.mark.parametrize("coordinated", [True, False], ids=["coord", "noncoord"])
@pytest.mark.parametrize("max_rounds", [2, 3])
@pytest.mark.parametrize("scheme", [Scheme.RTD, Scheme.INR], ids=["rtd", "inr"])
def test_closed_form_outage_slope_is_the_diversity_gain(scheme, max_rounds, coordinated):
    """From 40 to 50 dB and from 50 to 60 dB the closed-form packet outage
    of user 0 falls by 10^-d per decade of power, d = diversity_gain(J, M),
    with J = 1 helper when coordinated and none when not (lambdas (1, 1),
    rates 1 nat)."""
    outage = [analytic.reduce_table(event_table(scheme, max_rounds, (1.0, 1.0), 10.0 ** (db / 10),
                                                1.0, 1.0, coordinated=coordinated),
                                    (1.0, 1.0))["outage_packet_user0"]
              for db in (40, 50, 60)]
    gain = diversity_gain(1 if coordinated else 0, max_rounds)
    for low, high in zip(outage, outage[1:]):
        assert math.log10(high / low) == pytest.approx(-gain, abs=0.01)
