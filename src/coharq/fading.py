"""Rayleigh block-fading samplers with counter-based, partition-independent RNG.

Every random draw is a pure function of (master_seed, trial, slot, band):
each (master_seed, slot, band) triple keys its own Philox4x64-10 stream, and
a draw of w words per trial gives trial t the words [t*w, (t+1)*w) of that
stream, packed with no padding, so draws do not depend on how trials are
split across workers. A draw is a block of consecutive trials; a caller that
needs some trials takes them from the block, and the scalar oracle reads
one-trial blocks. SISO copies are exponential gains, MIMO copies complex
Wishart Grams H*H.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

# Philox advances its counter in blocks of four 64-bit outputs; a draw that
# starts inside a block skips that block's leading words.
_WORDS_PER_BLOCK = 4

# Band index reserved for policy (non-fading) randomness.
POLICY_BAND = 0xFFFF


@dataclass(frozen=True)
class FadingProfile:
    """Statistical environment: per-band Rayleigh parameters and antenna counts.

    Channel gain on band i is Exponential(lambdas[i]) (mean 1/lambda); MIMO
    channel entries are i.i.d. circularly-symmetric complex Gaussian with
    per-entry variance 1/lambda, so the SISO marginal matches the gain law.
    """

    lambdas: tuple
    tx_antennas: int = 1
    rx_antennas: int = 1

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(float(l) for l in self.lambdas))
        if not self.lambdas or not all(math.isfinite(l) and l > 0 for l in self.lambdas):
            raise ConfigurationError(
                f"every fading parameter must be finite and > 0, got {self.lambdas}")
        if self.tx_antennas < 1 or self.rx_antennas < 1:
            raise ConfigurationError("need at least one antenna on each side")

    @property
    def n_bands(self) -> int:
        return len(self.lambdas)

    @property
    def is_siso(self) -> bool:
        return self.tx_antennas == 1 and self.rx_antennas == 1

    def check_band(self, band: int) -> None:
        if not 0 <= band < self.n_bands:
            raise ConfigurationError(f"band {band} out of range for {self.n_bands} bands")


class ConfigurationError(ValueError):
    """Invalid profile or protocol configuration."""


def check_seed(master_seed: int) -> None:
    """Refuse a master seed that is not one 64-bit word: the Philox key holds
    it as one, so any other seed would draw what some seed in range draws."""
    if not 0 <= master_seed < 1 << 64:
        raise ConfigurationError(f"master seed must be in [0, 2^64), got {master_seed}")


def _philox_key(master_seed: int, slot: int, band: int) -> int:
    # 128-bit key: seed in the high word, (slot, band) in the low word.
    check_seed(master_seed)
    return (master_seed << 64) | ((slot & 0xFFFFFFFFFFFF) << 16) | (band & 0xFFFF)


def uniform_block(master_seed: int, slot: int, band: int, start_trial: int,
                  n_trials: int, words: int = 1, out=None) -> np.ndarray:
    """Uniform(0,1) draws for trials [start_trial, start_trial + n_trials),
    shape (n_trials, words): row t - start_trial holds words [t*words,
    (t+1)*words) of the (master_seed, slot, band) Philox stream, whatever
    the chunking. A range that starts inside a Philox block consumes that
    block's leading words raw; then exactly n_trials * words doubles are
    drawn, into `out` when given (a C-contiguous float64 array of that many
    values, returned reshaped).
    """
    size = n_trials * words
    if out is not None and not (out.dtype == np.float64 and out.size == size
                                and out.flags.c_contiguous):
        raise ValueError(f"out must be a C-contiguous float64 array of {size} values, "
                         f"got {out.size} {out.dtype}")
    blocks, skip = divmod(start_trial * words, _WORDS_PER_BLOCK)
    bg = Philox(key=_philox_key(master_seed, slot, band))
    if blocks:
        bg.advance(blocks)
    if skip:
        bg.random_raw(skip)
    if out is None:
        return Generator(bg).random(size).reshape(n_trials, words)
    Generator(bg).random(out=out)
    return out.reshape(n_trials, words)


def gain_block(profile: FadingProfile, band: int, slot: int, master_seed: int,
               start_trial: int, n_trials: int, out=None) -> np.ndarray:
    """Channel gains (|h|^2) for a range of trials on one (slot, band):
    -log1p(-u) / lambda of the draw's uniforms, worked out in place on the
    n_trials doubles drawn, into `out` when given (as uniform_block), as
    log1p(-u) / -lambda: negate, log1p, divide. IEEE division rounds the
    same whatever the signs, so these are the roundings of negating the log
    and then dividing by lambda. The result holds those doubles and no more.
    """
    profile.check_band(band)
    u = uniform_block(master_seed, slot, band, start_trial, n_trials, out=out).reshape(n_trials)
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.divide(u, -profile.lambdas[band], out=u)
    return u


def matrix_block(profile: FadingProfile, band: int, slot: int, master_seed: int,
                 start_trial: int, n_trials: int, out=None) -> np.ndarray:
    """Packed channel Grams G = H*H for a range of trials on one (slot, band),
    shape (tx, tx, n_trials), into `out` when given: out[i, j] is Re G[i, j]
    for i <= j and out[j, i] is Im G[i, j] for i < j. H (rx x tx, entries
    CN(0, 1/lambda)) is not drawn: G = R*R for H = QR, R's min(tx, rx) rows
    of independent entries (Bartlett; Edelman & Rao 2005). A trial's words
    are gains -log1p(-u) / lambda, rx - k summed into each |R_kk|^2, then one
    |R_kj|^2 for each k < j row by row, then the phases 2 pi u of those
    R_kj = sqrt(|R_kj|^2) e^{i phase}. G[i, j] sums conj(R_ki) R_kj over k
    in order (|R_kj|^2 as drawn): no Gram depends on its block.

        tx x rx          1x1  2x1  1x2  2x2  3x2  2x3  3x3
        words per trial    1    3    2    5    9    7   12
    """
    profile.check_band(band)
    v, u = profile.rx_antennas, profile.tx_antennas
    shape = (u, u, n_trials)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"out must be float64 of shape {shape}, got {out.shape} {out.dtype}")
    rows = min(u, v)
    upper = [(k, j) for k in range(rows) for j in range(k + 1, u)]
    n_diag = sum(v - k for k in range(rows))
    w = np.negative(uniform_block(master_seed, slot, band, start_trial, n_trials,
                                  words=n_diag + 2 * len(upper)).T, order="C")
    gains, phases = np.split(w, [n_diag + len(upper)])
    np.log1p(gains, out=gains)
    np.divide(gains, -profile.lambdas[band], out=gains)
    phases *= -2 * math.pi
    r = {}      # (k, j): |R_kj|^2, Re R_kj, Im R_kj (None on the real diagonal)
    for k, end in enumerate(itertools.accumulate(range(v, v - rows, -1))):
        gain = functools.reduce(np.add, gains[end - v + k:end])
        r[k, k] = (gain, np.sqrt(gain), None)
    for (k, j), gain, phase in zip(upper, gains[n_diag:], phases):
        m = np.sqrt(gain)
        r[k, j] = (gain, m * np.cos(phase), np.multiply(m, np.sin(phase, out=phase)))
    for j in range(u):
        out[j, j] = functools.reduce(np.add, [r[k, j][0] for k in range(min(j + 1, rows))])
    for i, j in itertools.combinations(range(u), 2):
        terms = [r[k, i][1:] + r[k, j][1:] for k in range(min(i + 1, rows))]
        out[i, j] = functools.reduce(np.add, [xr * yr if xi is None else xr * yr + xi * yi
                                              for xr, xi, yr, yi in terms])
        out[j, i] = functools.reduce(np.add, [xr * yi if xi is None else xr * yi - xi * yr
                                              for xr, xi, yr, yi in terms])
    return out


@dataclass(frozen=True)
class Substream:
    """One trial of one master seed: the scalar oracle's handle on the
    draws of a packet, which it reads as one-trial blocks, slot by slot."""

    master_seed: int
    trial: int
