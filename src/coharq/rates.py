"""Accumulated decodable-rate expressions for RTD and INR, SISO and MIMO.

All rates are in nats per channel use (natural logs). RTD maximum-ratio-
combines repeated copies, so received SNRs add inside a single log; INR
sends fresh parity, so per-copy mutual informations add across logs.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np


class Scheme(Enum):
    RTD = "rtd"
    INR = "inr"


def u_rtd(snr_terms) -> float:
    """Per-use decodable rate after m maximum-ratio-combined copies:
    (1/m) log(1 + sum SNR_i)."""
    terms = list(snr_terms)
    if not terms:
        raise ValueError("need at least one received copy")
    return float(np.log1p(sum(terms))) / len(terms)


def u_inr(snr_terms) -> float:
    """Per-use decodable rate after m incremental-redundancy copies:
    (1/m) sum log(1 + SNR_i)."""
    terms = list(snr_terms)
    if not terms:
        raise ValueError("need at least one received copy")
    return float(np.sum(np.log1p(terms))) / len(terms)


@dataclass
class MimoRateInputs:
    matrices: list          # each rx x tx complex ndarray, shared dimensions
    power: float            # linear transmit power per band
    tx_antennas: int

    def __post_init__(self):
        if not self.matrices:
            raise ValueError("need at least one channel matrix")
        shape = np.asarray(self.matrices[0]).shape
        for h in self.matrices:
            if np.asarray(h).shape != shape:
                raise ValueError("all stacked matrices must share dimensions")
        if shape[1] != self.tx_antennas:
            raise ValueError(
                f"matrix has {shape[1]} columns but tx_antennas={self.tx_antennas}")
        if self.power <= 0:
            raise ValueError("power must be positive")


def mimo_rate_rtd(inputs: MimoRateInputs) -> float:
    """(1/m) log det(I + (P/u) H_stack H_stack*) for m vertically stacked copies.

    Computed through the u x u Gram form det(I_u + (P/u) sum_i H_i* H_i),
    which equals the stacked (mv x mv) determinant by Sylvester's identity.
    """
    u = inputs.tx_antennas
    gram = np.zeros((u, u), dtype=complex)
    for h in inputs.matrices:
        h = np.asarray(h, dtype=complex)
        gram += h.conj().T @ h
    sign, logdet = np.linalg.slogdet(np.eye(u) + (inputs.power / u) * gram)
    return float(logdet) / len(inputs.matrices)


def mimo_rate_inr(inputs: MimoRateInputs) -> float:
    """(1/m) sum_i log det(I_v + (P/u) H_i H_i*)."""
    u = inputs.tx_antennas
    total = 0.0
    for h in inputs.matrices:
        h = np.asarray(h, dtype=complex)
        v = h.shape[0]
        sign, logdet = np.linalg.slogdet(np.eye(v) + (inputs.power / u) * (h @ h.conj().T))
        total += float(logdet)
    return total / len(inputs.matrices)
