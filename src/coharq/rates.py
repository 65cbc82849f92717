"""Accumulated decodable-rate expressions for RTD and INR, SISO and MIMO.

All rates are in nats per channel use (natural logs). RTD maximum-ratio-
combines repeated copies, so received SNRs add inside a single log; INR
sends fresh parity, so per-copy mutual informations add across logs.
MIMO rates read the channel through its packed Gram (fading.matrix_block)
and go through one batched log-det in real arithmetic (`log_det_eye_plus`),
which the scalar reference and the vectorized engine both call.
"""

from enum import Enum

import numpy as np


class Scheme(Enum):
    RTD = "rtd"
    INR = "inr"


def rtd_nats(snr_terms) -> float:
    """Decodable nats after m maximum-ratio-combined copies: log(1 + sum SNR_i).

    The SNRs are added one at a time in copy order, the order in which the
    vectorized engine adds them, so both decide on the same double.
    """
    total = 0.0
    for snr in _copies(snr_terms):
        total += snr
    return float(np.log1p(total))


def inr_nats(snr_terms) -> float:
    """Decodable nats after m incremental-redundancy copies: sum log(1 + SNR_i),
    added one at a time in copy order, as the engine adds them."""
    total = 0.0
    for nats in np.log1p(_copies(snr_terms)).tolist():
        total += nats
    return total


def u_rtd(snr_terms) -> float:
    """Per-use decodable rate after m maximum-ratio-combined copies:
    (1/m) log(1 + sum SNR_i)."""
    terms = _copies(snr_terms)
    return rtd_nats(terms) / len(terms)


def u_inr(snr_terms) -> float:
    """Per-use decodable rate after m incremental-redundancy copies:
    (1/m) sum log(1 + SNR_i)."""
    terms = _copies(snr_terms)
    return inr_nats(terms) / len(terms)


def _copies(snr_terms) -> list:
    terms = list(snr_terms)
    if not terms:
        raise ValueError("need at least one received copy")
    return terms


def log_det_eye_plus(q: float, gram) -> np.ndarray:
    """log det(I_u + q G) for a batch of Hermitian PSD Grams G, in nats.

    `gram` holds the Grams in the packed form of fading.matrix_block, shape
    (u, u, ...). An unrolled LDL* factorization of I + qG: each step takes
    pivot 1 + d_k and forms the Schur complement of the rest, one numpy
    pass over the batch per entry. The product of the pivots is carried as
    p = prod(1 + d_k) - 1, a sum of nonnegative terms, and the result is
    log1p(p), so small q G loses no digits to the leading 1.
    """
    u = len(gram)
    a = [[q * gram[i][j] for j in range(u)] for i in range(u)]
    p = 0.0
    for k in range(u):
        d = a[k][k]
        p = p + d + p * d
        pivot = 1.0 + d
        for i in range(k + 1, u):
            # entry (k, i) of the current Schur complement, over the pivot
            x, y = a[k][i] / pivot, a[i][k] / pivot
            for j in range(i, u):
                w, z = a[k][j], a[j][k]
                a[i][j] = a[i][j] - (x * w + y * z)
                if j > i:
                    a[j][i] = a[j][i] - (x * z - y * w)
    return np.log1p(p)


def mimo_nats_rtd(grams, q: float) -> float:
    """log det(I + q H_stack H_stack*) for m vertically stacked copies, with
    q = P/u, from the copies' packed Grams H_i* H_i (fading.matrix_block).

    Computed through the u x u Gram form det(I_u + q sum_i H_i* H_i),
    which equals the stacked (mv x mv) determinant by Sylvester's identity.
    The Grams are summed in copy order, as the engine sums them.
    """
    gram = 0.0
    for g in grams:
        gram = gram + g
    return float(log_det_eye_plus(q, gram))


def mimo_nats_inr(grams, q: float) -> float:
    """sum_i log det(I_v + q H_i H_i*) with q = P/u, added in copy order.

    Each copy's determinant is taken from its packed Gram (fading.matrix_block)
    in the u x u form det(I_u + q H_i* H_i), equal by Sylvester's identity.
    """
    total = 0.0
    for g in grams:
        total += float(log_det_eye_plus(q, g))
    return total


def mimo_rate_rtd(grams, q: float) -> float:
    """Per-use rate (1/m) log det(I + q H_stack H_stack*), from packed Grams."""
    return mimo_nats_rtd(grams, q) / len(grams)


def mimo_rate_inr(grams, q: float) -> float:
    """Per-use rate (1/m) sum_i log det(I_v + q H_i H_i*), from packed Grams."""
    return mimo_nats_inr(grams, q) / len(grams)
