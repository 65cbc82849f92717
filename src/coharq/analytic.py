"""Closed-form and semi-numerical probability engine for coordinated HARQ.

Covers the terminal-event algebra (the two-user decode-round table, and
gamma, outage, throughput and fairness from any (M+1)^K table of
probabilities or counts), the CDF of the RTD accumulated SNR (a sum of
exponential gains, evaluated as a gamma mixture with nonnegative weights
for any pair of fading parameters, equal or not), the INR accumulated
mutual-information CDF via iterated numerical convolution, and the
diversity-gain formula. Everything here is deterministic and serves as the
simulator's cross-check (and vice versa).

Conventions: rates in nats per channel use, natural logs, power linear.
"""

import math
from collections import OrderedDict
from functools import lru_cache

import numpy as np

from .rates import Scheme
from .special import gammainc_lower

# Size, relative to the value computed, below which a remainder is dropped:
# the tail of the RTD gamma mixture, or the chance that copies reach a
# target they almost surely fall short of (_saturated); well under the
# double-precision spacing at 1.
_NEGLIGIBLE = 1e-17

# Most terms the RTD gamma mixture may need, about min(c lf / ls, lf z) (see
# gain_sum_cdf): a few seconds of work per 10^6 terms, so fading ratios up
# to 10^6 stay in budget for up to ten copies at the slower rate.
_MAX_MIXTURE_TERMS = 10**7

# Finest base grid of the INR convolution, and the one the refusal check
# reads (_check_inr_grid); each grid is doubled once for Richardson
# extrapolation, giving an effective O(h^4) scheme.
_INR_GRID_N = 2048

# Coarsest base grid of the INR convolution, and the fewest steps of it that
# the narrowest per-copy density must span, per copy and at least (_inr_grid).
# Against Richardson from 2^14 steps the error at s steps per density width
# is about C / s^4, C 1e-3 up to five copies and growing to 0.26 at 24
# (7e-3 at eight, 0.1 at 16): max(64, 16 per copy) steps leave at most
# 1e-10, and 6e-11 at four copies.
_INR_GRID_MIN = 64
_INR_WIDTH_STEPS = 64
_INR_WIDTH_STEPS_PER_COPY = 16

# Fewest base-grid steps that the width of a band's per-copy density may
# span in the INR convolution (_check_inr_grid), two per copy past four
# copies. At 8 steps the error grows with the copies on the band (2.5e-7
# at four, 7.6e-7 at seven, 7.9e-5 at 24; with one copy of a wider band
# beside them 3.4e-7, 1.9e-6 and 8.8e-5) and falls as steps^-4; at the
# floor it stays within 3.4e-7 of a 2^16-step grid for 2 to 24 copies.
_INR_MIN_STEPS = 8


class ConsistencyError(ValueError):
    """Probabilities that should form a distribution do not."""


class ClosedFormRangeError(ValueError):
    """A closed form refuses parameters it cannot evaluate to its accuracy
    in reasonable time; Monte Carlo still serves them."""


# ---------------------------------------------------------------------------
# gain-domain decoding threshold


def _gain_threshold(rate: float, power: float) -> float:
    # C = (e^R - 1) / P: a copy of gain g decodes rate R alone iff g >= C
    # math.expm1 overflows past ~709.78 nats; no gain reaches the threshold then
    try:
        return math.expm1(rate) / power
    except OverflowError:
        return math.inf


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
    ratio lf / ls, as K does: K is about min(c lf / ls, lf z), and past
    _MAX_MIXTURE_TERMS a ClosedFormRangeError names the two fading
    parameters.
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
    if min(c * lam_f / lam_s, y) > _MAX_MIXTURE_TERMS:
        raise ClosedFormRangeError(
            f"fading parameters {lam1:g} and {lam2:g} are too far apart for the RTD "
            f"closed form: its mixture would need more than {_MAX_MIXTURE_TERMS:.0e} terms")
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
    # density of log(1 + g*P), g ~ Exp(lam): (lam/P) e^z exp(-lam (e^z - 1)/P),
    # taken in logs as one exponent; _check_inr_grid admits targets under 256
    # nats only, so expm1(z) and the exponent stay finite on every grid
    return np.exp(math.log(lam) - math.log(power) + z - (lam / power) * np.expm1(z))


def _inr_lower_tail(n: int, m: int, lam1: float, lam2: float, power: float, x: float) -> float:
    """An upper bound on the INR CDF at x: mutual informations are
    nonnegative, so the sum of n + m copies is below x only when every copy
    is, and P(sum < x) <= F1(x)^n F2(x)^m, F the one-copy CDF."""
    gain = _gain_threshold(x, power)
    return (-math.expm1(-lam1 * gain)) ** n * (-math.expm1(-lam2 * gain)) ** m


def _mi_cdf_single(lam: float, power: float, x: float) -> float:
    return -math.expm1(-(lam / power) * math.expm1(x)) if x > 0 else 0.0


@lru_cache(maxsize=64)
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


def _trapezoids(y: np.ndarray, h) -> np.ndarray:
    """The trapezoid areas h (y[i] + y[i+1]) / 2 of samples y at step h,
    along the last axis, in np.trapezoid's float operations: their sum is
    its rule, their running sum scipy's cumulative_trapezoid."""
    area = y[..., 1:] + y[..., :-1]
    area *= h
    area /= 2.0
    return area


def _inr_cdf_grids(keys, power: float, n_intervals: int) -> dict:
    """{(n, m, l1, l2, x): trapezoid CDF at x} for each copy count of at
    least two copies at its target x, on n_intervals steps over [0, x].

    Each distinct target is one row of the pass, on its own grid over
    [0, x]: the FFTs, densities and CDFs below work on all rows at once, and
    each row gets the bits a pass over that target alone would give it.
    Each count is one product integral, int_0^x dens(s) G(x - s) ds, summed
    on its own row: dens the density of the band with more copies (band 1
    on a tie) and G the CDF of the other band's copies; copies all at one
    fading parameter a, a^k, take dens(a^(k-1)) and G the one-copy CDF. G
    of one copy is its closed form, of more the cumulative trapezoid of
    their density. The densities come from one chain per fading parameter,
    dens(a^k) the trapezoid-corrected convolution of dens(a^(k-1)) with
    dens(a), taken as far as the counts of any row need, so a value does
    not depend on the other keys.
    """
    targets = list(dict.fromkeys(key[-1] for key in keys))  # a row each
    row = {x: i for i, x in enumerate(targets)}
    steps = [x / n_intervals for x in targets]
    h = np.array(steps)[:, None]
    # np.linspace(0, x, n_intervals + 1) of each target, float for float
    z = np.arange(n_intervals + 1.0) * h
    z[:, -1] = targets
    length = _fft_length(2 * n_intervals + 1)
    # each count as ((a, p), (b, q)): dens(a^p) against G(b^q)
    splits = {}
    for key in keys:
        n, m, lam1, lam2, _ = key
        if lam1 == lam2 or not (n and m):
            lam = lam1 if n else lam2
            splits[key] = (lam, n + m - 1), (lam, 1)
        else:
            splits[key] = ((lam1, n), (lam2, m)) if n >= m else ((lam2, m), (lam1, n))
    depth = {}  # copies each chain must reach
    for (a, p), (b, q) in splits.values():
        depth[a] = max(depth.get(a, 1), p)
        if q > 1:
            depth[b] = max(depth.get(b, 1), q)
    dens = {}  # dens[lam][k - 1]: density of k copies at lam, a row per target
    for lam, k in depth.items():
        f = _mi_density(z, lam, power)
        chain = [f]
        spec_f = np.fft.rfft(f, length) if k > 1 else None
        while len(chain) < k:
            c = chain[-1]
            spec_c = spec_f if c is f else np.fft.rfft(c, length)
            full = np.fft.irfft(spec_c * spec_f, length)[:, : n_intervals + 1]
            # trapezoid-corrected discrete convolution on [0, x], in place:
            # h * (full - 0.5 * (c[0] * f + c * f[0]))
            ends = c * f[:, :1]
            ends += c[:, :1] * f
            ends *= 0.5
            full -= ends
            full *= h
            chain.append(full)
        dens[lam] = chain
    cdfs = {}  # G(b^q) on the grid
    for _, (b, q) in splits.values():
        if (b, q) not in cdfs:
            if q == 1:
                cdfs[b, q] = -np.expm1(-(b / power) * np.expm1(z))
            else:
                g = cdfs[b, q] = np.zeros(z.shape)
                np.cumsum(_trapezoids(dens[b][q - 1], h), axis=1, out=g[:, 1:])
    # one product integral per count and target, each row on its own
    out, done = {}, {}
    for key, split in splits.items():
        i = row[key[-1]]
        if (split, i) not in done:  # copies all at one fading parameter share it
            (a, p), (b, q) = split
            area = _trapezoids(dens[a][p - 1][i] * cdfs[b, q][i, ::-1], steps[i])
            done[split, i] = float(area.sum())
        out[key] = done[split, i]
    return out


def _check_inr_grid(n: int, m: int, lam1: float, lam2: float, power: float,
                    x: float) -> None:
    """Refuse copy counts the INR convolution cannot resolve on its finest
    grid.

    A copy's mutual information log(1 + gP), g ~ Exp(lam), has a density
    about P / (P + lam) nats wide: an exponential of mean P / lam at low
    power, a unit-scale Gumbel density at high power. Where that spans
    fewer than max(_INR_MIN_STEPS, 2 copies) of the x / _INR_GRID_N grid
    steps, the CDF is wrong with no sign of it (off by 0.18 at P = x = 1
    and lam = 1e5, by 2.6e-6 at P = 1e217 and x = 1000). A
    ClosedFormRangeError names both fading parameters and the power."""
    for lam, copies in ((lam1, n), (lam2, m)):
        width = 1.0 / (1.0 + lam / power)
        steps = max(_INR_MIN_STEPS, 2 * copies)
        if copies and width * _INR_GRID_N < steps * x:
            raise ClosedFormRangeError(
                f"fading parameters {lam1:g} and {lam2:g} at power {power:g} are out of "
                f"reach of the INR closed form: a copy at {lam:g} spreads over about "
                f"{width:.3g} nats, under {steps} steps of its "
                f"{x / _INR_GRID_N:.3g}-nat grid")


def _inr_grid(n: int, m: int, lam1: float, lam2: float, power: float, x: float) -> int:
    """The base grid of a copy count: the fewest steps over [0, x], a power
    of two from _INR_GRID_MIN to _INR_GRID_N, of which the narrowest
    per-copy density of a band holding copies, about P / (P + lam) nats
    wide, spans max(_INR_WIDTH_STEPS, _INR_WIDTH_STEPS_PER_COPY (n + m));
    _INR_GRID_N where even that grid spans fewer."""
    width = min(1.0 / (1.0 + lam / power) for lam, copies in ((lam1, n), (lam2, m)) if copies)
    steps = max(_INR_WIDTH_STEPS, _INR_WIDTH_STEPS_PER_COPY * (n + m))
    grid = _INR_GRID_MIN
    while grid < _INR_GRID_N and width * grid < steps * x:
        grid *= 2
    return grid


def _cdf_inr_counts(keys, power: float) -> dict:
    """{(n, m, l1, l2, x): cdf_inr_sum(n, m, (l1, l2), power, x)} for every
    key of at least one copy at a target x > 0, or the key's
    ClosedFormRangeError where the closed form refuses it.

    Saturated and one-copy counts are exact, and counts whose lower-tail
    bound (_inr_lower_tail) underflows to 0 are 0; the others, however
    small, are refused where the finest grid is too coarse
    (_check_inr_grid). Each other key is evaluated on its own base grid
    (_inr_grid), which depends on the key, the power and x alone; the keys
    on one base grid are evaluated together, whatever their fading
    parameters and targets: one pass on the base grid and one on its double
    (_inr_cdf_grids), each with a row per target, then Richardson
    extrapolation of each. A value is the same whatever else the call
    evaluates.
    """
    out, missing = {}, {}  # missing: base grid -> its keys
    for key in keys:
        n, m, lam1, lam2, x = key
        if _saturated(n, m, (lam1, lam2), power, x):
            out[key] = 1.0
        elif n + m == 1:
            out[key] = _mi_cdf_single(lam1 if n else lam2, power, x)
        elif _inr_lower_tail(n, m, lam1, lam2, power, x) == 0.0:
            out[key] = 0.0
        else:
            try:
                _check_inr_grid(n, m, lam1, lam2, power, x)
            except ClosedFormRangeError as refusal:
                out[key] = refusal.with_traceback(None)
                continue
            missing.setdefault(_inr_grid(n, m, lam1, lam2, power, x), []).append(key)
    for grid, group in missing.items():
        coarse = _inr_cdf_grids(group, power, grid)
        fine = _inr_cdf_grids(group, power, 2 * grid)
        for key in group:
            val = (4.0 * fine[key] - coarse[key]) / 3.0
            out[key] = float(min(max(val, 0.0), 1.0))
    return out


def cdf_inr_sum(n: int, m: int, lambdas, power: float, x: float) -> float:
    """CDF at x of the sum of n + m independent per-copy mutual informations
    log(1 + g*P), with n copies at rate l1 and m at rate l2.

    Evaluated on a grid over [0, x]: the density of the band with more
    copies, by iterated numerical convolution of the one-copy density,
    integrated against the CDF of the other band's copies (_inr_cdf_grids),
    with Richardson extrapolation over the base grid and its double. The
    base grid is the coarsest power of two from 64 to _INR_GRID_N steps on
    which the narrowest per-copy density spans max(64, 16 (n + m)) steps
    (_inr_grid): there the error is at most about 1e-10. Where only the
    finest grid, _INR_GRID_N, resolves the copies, the error grows towards
    the refusal floor, to at most ~1e-6 (3.4e-7 measured). A
    ClosedFormRangeError refuses a band whose copies are too narrow for the
    finest grid (_check_inr_grid). The one-key case of _accumulated_cdfs,
    so a rate search and this call share the CDF cache and the bits.
    """
    if n < 0 or m < 0 or n + m < 1:
        raise ValueError(f"invalid copy counts ({n}, {m})")
    key = (n, m, float(lambdas[0]), float(lambdas[1]), float(x))
    cdf = _accumulated_cdfs(Scheme.INR, [key], float(power))[key]
    if isinstance(cdf, ClosedFormRangeError):
        raise cdf
    return cdf


# Entries each closed-form cache keeps, the least recently used dropped
# first: _CDF_CACHE, (scheme, P, n, m, l1, l2, x) -> the CDF of a copy count
# (_accumulated_cdfs), and _Q_CACHE, (scheme, M, coordinated, lambdas, P,
# rate) -> (Q_A, Q_B) (_resolve_pair, event_table). Schemes are keyed by
# their value, whose hash is cheaper than the enum's.
_CACHE_SIZE = 4096
_CDF_CACHE = OrderedDict()
_Q_CACHE = OrderedDict()


def _keep(cache: OrderedDict, items: dict) -> None:
    """Add `items` to `cache`, dropping its least recently used entries
    past _CACHE_SIZE."""
    cache.update(items)
    while len(cache) > _CACHE_SIZE:
        cache.popitem(last=False)


def _accumulated_cdfs(scheme: Scheme, keys, power: float) -> dict:
    """{(n, m, l1, l2, x): CDF at x nats of the accumulated decodable rate
    from n copies at fading parameter l1 and m at l2} for every key, or the
    key's ClosedFormRangeError where the closed form refuses it: a refusal
    is that key's alone. With zero copies nothing has been received, so the
    user is undecoded at any nonnegative target.

    A key is looked up in _CDF_CACHE before anything is evaluated. Under RTD
    each key missing is its own cdf_rtd_sum; under INR they all go to one
    _cdf_inr_counts call, whatever their fading parameters and targets. The
    values are cached, the refusals not.
    """
    out, missing = {}, []
    tag = scheme.value, power
    for key in keys:
        n, m, _, _, x = key
        if n == m == 0:
            out[key] = 1.0 if x >= 0 else 0.0
        elif x <= 0.0:
            out[key] = 0.0
        elif (cached := _CDF_CACHE.get(tag + key)) is not None:
            _CDF_CACHE.move_to_end(tag + key)
            out[key] = cached
        else:
            missing.append(key)
    if scheme is Scheme.RTD:
        fresh = {}
        for key in missing:
            n, m, lam1, lam2, x = key
            try:
                fresh[key] = cdf_rtd_sum(n, m, (lam1, lam2), power, x)
            except ClosedFormRangeError as refusal:
                fresh[key] = refusal.with_traceback(None)
    else:
        fresh = _cdf_inr_counts(missing, power)
    _keep(_CDF_CACHE, {tag + key: cdf for key, cdf in fresh.items()
                       if not isinstance(cdf, ClosedFormRangeError)})
    out.update(fresh)
    return out


# ---------------------------------------------------------------------------
# two-user event algebra


@lru_cache(maxsize=64)
def _donated(max_rounds: int, coordinated: bool) -> tuple:
    """(donated, counts): donated[c][j] is the other band's copies the user
    holds after round c when the other user resolves at round j, and counts
    every (own, donated) copy count a resolve table reads. Under
    coordination a user that resolves at round j >= 1 donates its band from
    round j+1 on, so by round c the other holds max(c - j, 0)."""
    rounds = range(max_rounds + 1)
    donated = tuple(tuple(max(c - j, 0) if j and coordinated else 0 for j in rounds)
                    for c in rounds)
    return donated, frozenset((own, d) for own, row in enumerate(donated) for d in row)


def _resolve_pair(scheme: Scheme, max_rounds: int, coordinated: bool, lambdas: tuple,
                  power: float, rates) -> dict:
    """{rate: (Q_A, Q_B)} for each of `rates`, lambdas in A's order: Q_A[i, j]
    is the probability that A resolves at round i when B resolves at round
    j, index 0 meaning outage, and Q_B the same with the users swapped. A
    user's Q depends on its own rate alone, so a rate search builds it once
    per rate, not once per rate pair. Every copy count of both users at
    every rate goes to one _accumulated_cdfs call: under INR one pass per
    base grid and one on its double for all of them, a row per rate, one
    density chain per fading parameter shared by both users' counts, and
    one product integral per count; with equal fading parameters both users
    hold the same one Q. The Qs are read-only, for event_table caches them.

    Where the closed form refuses one of a user's counts at a rate, that
    user's Q there is the refusal, which event_table raises only where the
    user holds the rate: the other user's Q, and the other rates', stand.
    """
    donated, counts = _donated(max_rounds, coordinated)
    orders = (lambdas,) if lambdas[0] == lambdas[1] else (lambdas, lambdas[::-1])
    short = _accumulated_cdfs(
        scheme, [c + lam + (rate,) for rate in rates for lam in orders for c in counts], power)
    pairs = {}
    for rate in rates:
        qs = []
        for lam in orders:
            # each (own, donated) copy count's CDF at the rate
            cdf = {c: short[c + lam + (rate,)] for c in counts}
            refusals = [v for v in cdf.values() if isinstance(v, ClosedFormRangeError)]
            if refusals:
                qs.append(refusals[0])
                continue
            # g[c][j]: still short after round c; outage is short after the
            # last round, resolving at round i is short after round i-1 but
            # not after i
            g = [[cdf[own, d] for d in row] for own, row in enumerate(donated)]
            resolved = [[a - b for a, b in zip(before, after)] for before, after in zip(g, g[1:])]
            q = np.array([g[-1]] + resolved)
            q.flags.writeable = False
            qs.append(q)
        pairs[rate] = qs[0], qs[-1]
    return pairs


def event_table(scheme: Scheme, max_rounds: int, lambdas, power: float,
                rate_a, rate_b, *, coordinated: bool = True) -> np.ndarray:
    """Per-packet terminal-event distribution for K = 2 users.

    Cell [i, j] is the probability that user A resolves at round i and user
    B at round j, with index 0 meaning outage: shape (M+1, M+1), indexed
    like the count table `montecarlo.simulate_batch` returns at K = 2 and
    reduced by `reduce_table`. The
    A-side stopping condition involves only band-1 gains up to A's stop
    round, and the B-side condition only band-2 gains plus band-1 gains from
    later slots (the donated copies), so the two conditions are independent
    and cell [i, j] is Q_A[i, j] Q_B[j, i]. Each user's Q depends on its own
    rate only; both users' Qs at a rate are built together, once, and kept
    in _Q_CACHE. `coordinated=False` gives independent single-user HARQ on
    each band.

    A rate grid passes equal-shaped arrays of rates, and gets one table per
    rate pair, stacked on the arrays' axes: the Qs of every distinct rate
    not cached are built in one _resolve_pair call, so one pass per INR
    base grid serves them all, and every table equals the one-pair call's.
    """
    lambdas = tuple(map(float, lambdas))
    power = float(power)
    rate_a, rate_b = np.asarray(rate_a, dtype=float), np.asarray(rate_b, dtype=float)
    if rate_a.shape != rate_b.shape:
        raise ValueError(f"rate arrays of shapes {rate_a.shape} and {rate_b.shape}")
    wanted_a, wanted_b = rate_a.ravel().tolist(), rate_b.ravel().tolist()
    held = set(wanted_a), set(wanted_b)
    tag = scheme.value, max_rounds, coordinated, lambdas, power
    rates = dict.fromkeys(wanted_a + wanted_b)
    q, lacking = {}, []
    for rate in rates:
        if (pair := _Q_CACHE.get(tag + (rate,))) is None:
            lacking.append(rate)
        else:
            _Q_CACHE.move_to_end(tag + (rate,))
            q[rate] = pair
    if lacking:
        q.update(_resolve_pair(scheme, max_rounds, coordinated, lambdas, power, lacking))
        _keep(_Q_CACHE, {tag + (rate,): q[rate] for rate in lacking})
    for rate in rates:
        for user, table in enumerate(q[rate]):
            if rate in held[user] and isinstance(table, ClosedFormRangeError):
                raise table.with_traceback(None)
    if not rate_a.ndim:  # one pair
        return q[wanted_a[0]][0] * q[wanted_b[0]][1].T
    shape = rate_a.shape + (max_rounds + 1,) * 2
    stack_a = np.array([q[r][0] for r in wanted_a]).reshape(shape)
    stack_b = np.array([q[r][1] for r in wanted_b]).reshape(shape)
    return stack_a * stack_b.swapaxes(-1, -2)


def event_label(i: int, j: int) -> str:
    """Name of event-table cell [i, j], such as "A1B2" or "AoutB1"."""
    return f"A{i or 'out'}B{j or 'out'}"


@lru_cache(maxsize=64)
def event_keys(max_rounds: int) -> tuple:
    """`event_<label>` of each cell of a two-user (M+1)^2 table, row by row:
    the keys of reduce_table and of the Monte Carlo estimates."""
    cells = range(max_rounds + 1)
    return tuple(f"event_{event_label(i, j)}" for i in cells for j in cells)


@lru_cache(maxsize=64)
def table_cells(max_rounds: int, n_users: int) -> tuple:
    """(flat indices, (K, cells) decoded flags, slots held) of the cells of
    an (M+1)^K table, each axis running rounds 1..M, then outage (index 0),
    the order the event labels sort in. A packet holds the channel until
    its last user resolves, so for M slots if some user ends in outage.
    """
    shape = (max_rounds + 1,) * n_users
    rounds = (np.indices(shape).reshape(n_users, -1) + 1) % (max_rounds + 1)
    slots = np.where(rounds == 0, max_rounds, rounds).max(axis=0)
    parts = np.ravel_multi_index(rounds, shape), rounds > 0, slots
    for a in parts:
        a.flags.writeable = False  # cached: shared by every caller
    return parts


def table_sums(table: np.ndarray, n_users: int | None = None) -> tuple:
    """(outage, decoded, slots) from one read of the table's cells: for
    each user, the mass in its outage slice (index 0 on its axis) and in
    the rest, and the slots its packets held; exact for a count table.

    The table's last `n_users` axes are its users (all of them by default),
    and any leading axes stack tables, which give arrays of sums. Each
    table's per-user masses are one matrix-vector product, in the order the
    BLAS takes; its slots are summed one cell at a time, in `table_cells`
    order. A stack takes the same products and sums table by table, so each
    of its sums equals that table's own, bit for bit.
    """
    n_users = table.ndim if n_users is None else n_users
    flat, decodes, slots = table_cells(table.shape[-1] - 1, n_users)
    if table.ndim == n_users:  # one table: the lean form of the stack's arithmetic
        cells = table.ravel()[flat]
        return ~decodes @ cells, decodes @ cells, sum((slots * cells).tolist())
    stack = table.shape[:table.ndim - n_users]
    cells = table.reshape(-1, flat.size)[:, flat, None]  # a column per table
    held = [sum(row) for row in (slots * cells[..., 0]).tolist()]
    return (np.matmul(~decodes, cells).reshape(stack + (n_users,)),
            np.matmul(decodes, cells).reshape(stack + (n_users,)), np.reshape(held, stack))


def packets_per_slot(table: np.ndarray, packets=1.0) -> float:
    """Long-run packet-start rate gamma = packets / slots held, for an
    (M+1)^K table of probabilities (packets = 1) or of packet counts
    (packets = their total). Per-slot frequencies are the per-packet
    values times gamma.
    """
    return packets / table_sums(table)[2]


def throughput_closed(table: np.ndarray, *rates, packets=1.0, sums=None):
    """Long-run throughput in npcu: delivered nats per slot held, one rate
    per user; `sums` as in reduce_table. The users are the table's last
    len(rates) axes: a stack of tables (table_sums) gives an array, and a
    user's rate may be an array over the stack. Every table's
    probabilities (counts over `packets`) must sum to 1."""
    n_users = len(rates)
    if table.ndim == n_users:  # one table
        total = table.sum() / packets
        if abs(total - 1.0) > 1e-6:
            raise ConsistencyError(f"event probabilities sum to {total}, not 1")
        _, decoded, slots = table_sums(table) if sums is None else sums
        return float(np.asarray(rates) @ decoded) / slots
    total = table.sum(axis=tuple(range(-n_users, 0))) / packets
    off = abs(total - 1.0) > 1e-6
    if off.any():
        raise ConsistencyError(f"event probabilities sum to {total[off][0]}, not 1")
    _, decoded, slots = table_sums(table, n_users) if sums is None else sums
    rates = np.array(rates, dtype=float)
    rates = rates.transpose(tuple(range(1, rates.ndim)) + (0,)).copy()  # a row per table
    # one dot product per table, as rates @ decoded takes it for one table
    return np.vecdot(rates, decoded) / slots


def reduce_table(table: np.ndarray, rates, packets=1.0, sums=None) -> dict:
    """Every per-packet and per-slot measure of an (M+1)^K terminal-event
    table, of probabilities (packets = 1) or of packet counts (packets =
    their total): gamma, per-user outage per packet (`outage_packet_user<u>`)
    and per slot (`outage_user<u>`), throughput, and for K = 2 the fairness
    ratio of A's to B's throughput (NaN when B delivers nothing) and every
    cell as `event_<label>`. `sums` is the table's table_sums, read here
    when not given.
    """
    sums = table_sums(table) if sums is None else sums
    outage, decoded, slots = sums
    gamma = packets / slots
    vals = {"gamma": gamma}
    for u, mass in enumerate(outage.tolist()):
        p = mass / packets
        vals[f"outage_packet_user{u}"] = p
        vals[f"outage_user{u}"] = gamma * p
    vals["throughput"] = throughput_closed(table, *rates, packets=packets, sums=sums)
    if table.ndim == 2:
        eta_a, eta_b = (rate * mass for rate, mass in zip(rates, decoded.tolist()))
        vals["fairness"] = eta_a / eta_b if eta_b > 0 else math.nan
        for key, x in zip(event_keys(table.shape[0] - 1), table.ravel().tolist()):
            vals[key] = x / packets
    return vals


def diversity_gain(helpers: int, max_rounds: int) -> int:
    """High-SNR outage-curve slope d = (J+1)(M-1)+1, the paper's diversity
    gain of a user with M rounds and J = `helpers` helping users.

    A helping user is another user whose band the coordination rule can
    hand to this one once it decodes, so each of its copies is one more
    copy that must fade for this user to end in outage. J = 0 is
    non-coordinated HARQ (d = M); at K = 2 with coordination J = 1. At
    K >= 3 a policy's slopes need not equal the formula at J = K - 1.
    """
    if helpers < 0 or max_rounds < 1:
        raise ValueError("need helpers >= 0 and max_rounds >= 1")
    return (helpers + 1) * (max_rounds - 1) + 1
