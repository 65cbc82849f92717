"""Closed-form and semi-numerical probability engine for coordinated HARQ.

Covers the two-user event algebra (decode-round probabilities, outage,
throughput, fairness), the CDF of the RTD accumulated SNR (a sum of
exponential gains, evaluated as a gamma mixture with nonnegative weights
for any pair of fading parameters, equal or not), the INR accumulated
mutual-information CDF via iterated numerical convolution, and the
diversity-gain formula. Everything here is deterministic and serves as the
simulator's cross-check (and vice versa).

Conventions: rates in nats per channel use, natural logs, power linear.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .rates import Scheme
from .special import gammainc_lower

# Size, relative to the value computed, below which a remainder is dropped:
# the tail of the RTD gamma mixture, or the chance of falling short of a
# target; well under the double-precision spacing at 1.
_NEGLIGIBLE = 1e-17

# Base grid resolution for the INR convolution (doubled once for Richardson
# extrapolation, giving an effective O(h^4) scheme).
_INR_GRID_N = 2048


class ConsistencyError(ValueError):
    """Probabilities that should form a distribution do not."""


# ---------------------------------------------------------------------------
# thresholds and first-round probabilities


@dataclass(frozen=True)
class ThresholdPair:
    """Gain-domain decoding thresholds C = (e^R - 1) / P for the two users."""

    c_a: float
    c_b: float

    def __post_init__(self):
        if self.c_a < 0 or self.c_b < 0:
            raise ValueError("thresholds must be nonnegative")

    @classmethod
    def from_rates(cls, rate_a: float, rate_b: float, power: float) -> "ThresholdPair":
        if power <= 0:
            raise ValueError("power must be positive")
        return cls(_gain_threshold(rate_a, power), _gain_threshold(rate_b, power))


def _gain_threshold(rate: float, power: float) -> float:
    # math.expm1 overflows past ~709.78 nats; no gain reaches the threshold then
    try:
        return math.expm1(rate) / power
    except OverflowError:
        return math.inf


def alpha_beta(thresholds: ThresholdPair, lambdas) -> tuple:
    """First-round failure probabilities (alpha for user A, beta for user B)."""
    lam1, lam2 = lambdas
    alpha = -math.expm1(-lam1 * thresholds.c_a)
    beta = -math.expm1(-lam2 * thresholds.c_b)
    return alpha, beta


def gamma_norm(alpha: float, beta: float) -> float:
    """Packet-start rate 1 / (1 + alpha + beta - alpha*beta).

    Equals packets per slot in the long run: a packet lasts one slot iff
    both users decode at round one, two slots otherwise (M = 2).
    """
    if not (0 <= alpha <= 1 and 0 <= beta <= 1):
        raise ValueError("alpha, beta must lie in [0, 1]")
    return 1.0 / (1.0 + alpha + beta - alpha * beta)


def phi_coordinated(thresholds: ThresholdPair, lambdas) -> float:
    """Pr(g2(t) + g2(t+1) + g1(t+1) < C_B): user B still failing after the
    coordinated slot in which it received both bands (two own-band copies
    plus one donated copy).
    """
    return gain_sum_cdf(1, 2, lambdas, thresholds.c_b)


# ---------------------------------------------------------------------------
# sum-of-exponentials CDF (RTD accumulation)


def gain_sum_cdf(n: int, m: int, lambdas, z: float) -> float:
    """CDF at z of S, the sum of n Exp(l1) and m Exp(l2) gains.

    Evaluated as a gamma mixture with nonnegative weights (Moschopoulos,
    1985): with lf the faster rate among the bands holding copies, c the copy
    count at the slower rate ls and r = ls / lf, S ~ Gamma(n + m + K, lf)
    with K ~ NegBin(c, r). Summing the mixture by parts with y = lf z gives
    F = sum_{k<K} W_k pi_{n+m+k}(y) + W_K P(n+m+K, y), with W the NegBin CDF,
    pi the Poisson(y) pmf and P the regularized lower incomplete gamma. Every
    term is nonnegative, so nothing cancels near equal rates. The sum stops
    at the first K whose remainder, at most min(1 - W_K, P(n+m+K, y)), is
    below 1e-17 of the partial sum; equal rates, or no copy at the slower
    rate, stop it at K = 0 (the Erlang CDF). The work grows with the rate
    ratio lf / ls, as K does.
    """
    lam1, lam2 = lambdas
    if z <= 0.0:
        return 0.0
    lam_f = max(lam1 if n else 0.0, lam2 if m else 0.0)
    c, lam_s = (n, lam1) if lam1 < lam_f else (m, lam2)
    a = n + m
    r = lam_s / lam_f
    q = 1.0 - r
    y = lam_f * z
    if y == math.inf:
        return 1.0
    log_y = math.log(y)
    p = r ** c  # NegBin pmf at k
    w = p  # NegBin CDF at k
    log_pi = a * log_y - y - math.lgamma(a + 1)  # Poisson pmf at a + k, in logs
    total = 0.0
    k = 0
    while True:
        pi = math.exp(log_pi)
        rho = q * (c + k) / (k + 1)  # p_{k+1} / p_k, nonincreasing in k
        s = a + k + 1
        nb_tail = p * rho / (1.0 - rho) if rho < 1.0 else math.inf
        poisson_tail = pi * s / (s - y) if s > y else math.inf
        if not min(nb_tail, poisson_tail) > _NEGLIGIBLE * total:  # NaN ends it too
            break
        total += w * pi
        p *= rho
        w += p
        log_pi += log_y - math.log(s)
        k += 1
    return total + w * gammainc_lower(a + k, y)


def _saturated(n: int, m: int, lambdas, power: float, x: float) -> bool:
    """True when n + m copies fall short of x nats with probability 1 to
    double precision, for RTD and INR alike.

    Under INR, reaching x needs some copy to carry x / (n+m) nats on its
    own, and RTD accumulates no more than INR, so the union bound over
    copies, sum_i exp(-l_i expm1(x / (n+m)) / P), bounds 1 - CDF(x).
    """
    gain = _gain_threshold(x / (n + m), power)
    lam1, lam2 = lambdas
    return n * math.exp(-lam1 * gain) + m * math.exp(-lam2 * gain) < _NEGLIGIBLE


def cdf_rtd_sum(n: int, m: int, lambdas, power: float, x: float) -> float:
    """CDF at x of log(1 + P * S), S the sum of n Exp(l1) and m Exp(l2) gains:
    `gain_sum_cdf` at z = (e^x - 1) / P.
    """
    if n < 0 or m < 0 or n + m < 1:
        raise ValueError(f"invalid copy counts ({n}, {m})")
    if x <= 0.0:
        return 0.0
    if _saturated(n, m, lambdas, power, x):
        return 1.0
    return gain_sum_cdf(n, m, lambdas, _gain_threshold(x, power))


# ---------------------------------------------------------------------------
# INR accumulated mutual-information CDF (numerical convolution)


def _mi_density(z: np.ndarray, lam: float, power: float) -> np.ndarray:
    # density of log(1 + g*P), g ~ Exp(lam): (lam/P) e^z exp(-lam (e^z - 1)/P)
    return (lam / power) * np.exp(z) * np.exp(-(lam / power) * np.expm1(z))


def _mi_cdf_single(lam: float, power: float, x: float) -> float:
    return -math.expm1(-(lam / power) * math.expm1(x)) if x > 0 else 0.0


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, n >= 1: a length at which a real FFT is
    fast (lengths with a large prime factor run several times slower)."""
    best = 1 << (n - 1).bit_length()  # a power of two is 5-smooth
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _inr_cdf_grid(rates, power: float, x: float, n_intervals: int) -> float:
    h = x / n_intervals
    z = np.linspace(0.0, x, n_intervals + 1)
    length = _fft_length(2 * n_intervals + 1)
    # a rates tuple holds at most two distinct values: each one's density and
    # spectrum are computed once and reused by every convolution step
    dens = {lam: _mi_density(z, lam, power) for lam in set(rates)}
    spectra = {lam: np.fft.rfft(f, length) for lam, f in dens.items()}
    c = dens[rates[0]]
    for lam in rates[1:]:
        f = dens[lam]
        full = np.fft.irfft(np.fft.rfft(c, length) * spectra[lam], length)[: n_intervals + 1]
        # trapezoid-corrected discrete convolution on [0, x]
        c = h * (full - 0.5 * (c[0] * f + c * f[0]))
    return float(np.trapezoid(c, dx=h))


@lru_cache(maxsize=4096)
def _cdf_inr_cached(n: int, m: int, lam1: float, lam2: float, power: float, x: float) -> float:
    rates = (lam1,) * n + (lam2,) * m
    if len(rates) == 1:
        return _mi_cdf_single(rates[0], power, x)
    coarse = _inr_cdf_grid(rates, power, x, _INR_GRID_N)
    fine = _inr_cdf_grid(rates, power, x, 2 * _INR_GRID_N)
    val = (4.0 * fine - coarse) / 3.0
    return float(min(max(val, 0.0), 1.0))


def cdf_inr_sum(n: int, m: int, lambdas, power: float, x: float) -> float:
    """CDF at x of the sum of n + m independent per-copy mutual informations
    log(1 + g*P), with n copies at rate l1 and m at rate l2.

    Evaluated by iterated numerical convolution of the single-copy densities
    on [0, x] with Richardson extrapolation; absolute accuracy ~1e-6.
    """
    if n < 0 or m < 0 or n + m < 1:
        raise ValueError(f"invalid copy counts ({n}, {m})")
    if x <= 0.0:
        return 0.0
    if _saturated(n, m, lambdas, power, x):
        return 1.0
    lam1, lam2 = lambdas
    return _cdf_inr_cached(n, m, float(lam1), float(lam2), float(power), float(x))


def accumulation_cdf(scheme: Scheme, n_band1: int, n_band2: int, lambdas,
                     power: float, x: float) -> float:
    """CDF at x nats of the accumulated decodable rate from n_band1 copies on
    band 1 and n_band2 copies on band 2. With zero copies nothing has been
    received, so the user is undecoded at any nonnegative target."""
    if n_band1 == 0 and n_band2 == 0:
        return 1.0 if x >= 0 else 0.0
    if scheme is Scheme.RTD:
        return cdf_rtd_sum(n_band1, n_band2, lambdas, power, x)
    return cdf_inr_sum(n_band1, n_band2, lambdas, power, x)


# ---------------------------------------------------------------------------
# two-user event algebra


def _resolve_given(scheme: Scheme, donated, lambdas, power: float,
                   rate: float) -> np.ndarray:
    """Q[i, j]: probability that the user resolves at round i when the other
    user resolves at round j, index 0 meaning outage; lambdas[0] is the
    user's own band. After round c the user holds c own-band copies and
    donated[c][j] copies from the other band.
    """
    # each (own, donated) copy count's CDF at the rate, evaluated once
    short = {(own, d): accumulation_cdf(scheme, own, d, lambdas, power, rate)
             for own, row in enumerate(donated) for d in set(row)}
    # g[c][j]: still short after round c; outage is short after the last
    # round, resolving at round i is short after round i-1 but not after i
    g = [[short[own, d] for d in row] for own, row in enumerate(donated)]
    resolved = [[a - b for a, b in zip(before, after)] for before, after in zip(g, g[1:])]
    return np.array([g[-1]] + resolved)


def event_table(scheme: Scheme, max_rounds: int, lambdas, power: float,
                rate_a: float, rate_b: float, *, coordinated: bool = True) -> np.ndarray:
    """Per-packet terminal-event distribution for K = 2 users.

    Cell [i, j] is the probability that user A resolves at round i and user
    B at round j, with index 0 meaning outage: shape (M+1, M+1), indexed
    like `BatchStats.joint_counts`. The A-side stopping condition involves
    only band-1 gains up to A's stop round, and the B-side condition only
    band-2 gains plus band-1 gains from later slots (the donated copies), so
    the two conditions are independent and cell [i, j] is Q_A[i, j] Q_B[j, i].
    `coordinated=False` gives independent single-user HARQ on each band.
    """
    rounds = range(max_rounds + 1)
    # a user that resolves at round j >= 1 donates its band from round j+1
    # on, so by round c the other user holds max(c - j, 0) donated copies
    donated = [[max(c - j, 0) if j and coordinated else 0 for j in rounds] for c in rounds]
    lam_a, lam_b = lambdas
    q_a = _resolve_given(scheme, donated, (lam_a, lam_b), power, rate_a)
    q_b = _resolve_given(scheme, donated, (lam_b, lam_a), power, rate_b)
    return q_a * q_b.T


def event_label(i: int, j: int) -> str:
    """Name of event-table cell [i, j], such as "A1B2" or "AoutB1"."""
    return f"A{i or 'out'}B{j or 'out'}"


def packets_per_slot(table: np.ndarray) -> float:
    """Long-run packet-start rate gamma = 1 / E[slots per packet].

    A packet holds the channel until its last user resolves, so for M
    slots if either user ends in outage. Per-slot frequencies are the
    per-packet table values times gamma.
    """
    M = len(table) - 1
    cells = table.tolist()
    rounds = [*range(1, M + 1), 0]  # outage last, the order the labels sort in
    return 1.0 / sum(max(i or M, j or M) * cells[i][j] for i in rounds for j in rounds)


def throughput_closed(table: np.ndarray, rate_a: float, rate_b: float) -> float:
    """Long-run throughput in npcu: gamma-weighted delivered nats per slot."""
    total = table.sum()
    if abs(total - 1.0) > 1e-6:
        raise ConsistencyError(f"event probabilities sum to {total}, not 1")
    return packets_per_slot(table) * float(rate_a * table[1:].sum()
                                           + rate_b * table[:, 1:].sum())


def outage_b_rtd_closed(thresholds: ThresholdPair, lambdas, alpha: float) -> float:
    """Closed-form per-slot outage frequency of user B (RTD, M = K = 2).

    First branch: both users failed round one, B then fails on two own-band
    copies (two-stage Erlang tail). Second branch: A decoded round one, B
    fails on three combined copies (phi).
    """
    lam2 = lambdas[1]
    c_b = thresholds.c_b
    beta = -math.expm1(-lam2 * c_b)
    gam = gamma_norm(alpha, beta)
    erlang2_tail = gain_sum_cdf(0, 2, lambdas, c_b)
    phi = phi_coordinated(thresholds, lambdas)
    return gam * alpha * erlang2_tail + gam * (1.0 - alpha) * phi


def diversity_gain(helpers: int, max_rounds: int) -> int:
    """High-SNR outage-curve slope d = (J+1)(M-1)+1 for a user whose
    coordination rule can hand it the free bands of J other users."""
    if helpers < 0 or max_rounds < 1:
        raise ValueError("need helpers >= 0 and max_rounds >= 1")
    return (helpers + 1) * (max_rounds - 1) + 1
