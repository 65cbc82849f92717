"""Regularized lower incomplete gamma function.

Self-contained series / continued-fraction implementation so the closed-form
CDF machinery does not depend on the same library routines used as test
oracles. Target relative accuracy 1e-12 for a >= 1 and moderate x.
"""

import math

_EPS = 1e-15
# Iteration cap: a base plus a multiple of sqrt(a), since near x = a both
# expansions need O(sqrt(a)) terms.
_MAX_ITER = 500


def gammainc_lower(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a)."""
    if a <= 0:
        raise ValueError(f"shape parameter must be positive, got {a}")
    if not x >= 0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _lower_series(a, x)
    return 1.0 - _upper_contfrac(a, x)


def _max_iter(a: float) -> int:
    return _MAX_ITER + int(10.0 * math.sqrt(a))


def _log_prefactor(a: float, x: float) -> float:
    # log of x^a e^-x / Gamma(a)
    return a * math.log(x) - x - math.lgamma(a)


def _lower_series(a: float, x: float) -> float:
    # P(a,x) = x^a e^-x / Gamma(a) * sum_{n>=0} x^n / (a (a+1) ... (a+n))
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_max_iter(a)):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    else:
        raise RuntimeError(f"lower incomplete gamma series stalled at a={a}, x={x}")
    log_val = _log_prefactor(a, x) + math.log(total)
    return math.exp(log_val) if log_val > -745.0 else 0.0


def _upper_contfrac(a: float, x: float) -> float:
    # Lentz's method for the continued fraction of Q(a,x).
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _max_iter(a) + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    else:
        raise RuntimeError(f"incomplete gamma continued fraction stalled at a={a}, x={x}")
    log_val = _log_prefactor(a, x) + math.log(abs(h))
    return math.exp(log_val) if log_val > -745.0 else 0.0
