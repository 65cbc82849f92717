"""Rayleigh block-fading samplers with counter-based, partition-independent RNG.

Every random draw is a pure function of (master_seed, trial, slot, band):
each (master_seed, slot, band) triple keys its own Philox stream, and a
draw of w words per trial gives trial t the words [t*w, (t+1)*w) of that
stream, packed with no padding. Two runs with the same master seed
therefore produce bit-identical draws no matter how trials are partitioned
across workers, and paired-seed experiments see literally the same channel
realizations.

A draw is always a block of consecutive trials of one (seed, slot, band),
drawn with numpy's native Philox4x64-10; a caller that needs some trials
of a range takes them from the block, and the scalar oracle reads
one-trial blocks.
"""

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
    """Uniform(0,1) draws for trials [start_trial, start_trial + n_trials).

    Returns shape (n_trials, words): row t - start_trial holds words
    [t*words, (t+1)*words) of the (master_seed, slot, band) Philox stream,
    so the result depends only on (master_seed, slot, band, trial), never
    on how calls are chunked. A range that starts inside a Philox block
    consumes that block's leading words raw; then exactly n_trials * words
    doubles are drawn, into `out` when given (a C-contiguous float64 array
    of that many values, returned reshaped).
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
    """Channel gains (|h|^2) for a range of trials on one (slot, band).

    -log1p(-u) / lambda of the draw's uniforms, worked out in place on the
    n_trials doubles drawn, into `out` when given (as uniform_block), as
    log1p(-u) / -lambda: negate, log1p, divide. IEEE division rounds the
    same whatever the signs, so these are the roundings of negating the
    log and then dividing by lambda. The result holds those doubles and no
    more.
    """
    profile.check_band(band)
    u = uniform_block(master_seed, slot, band, start_trial, n_trials, out=out).reshape(n_trials)
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.divide(u, -profile.lambdas[band], out=u)
    return u


def matrix_block(profile: FadingProfile, band: int, slot: int, master_seed: int,
                 start_trial: int, n_trials: int, out=None) -> np.ndarray:
    """Packed channel Grams H*H (_packed_gram) for a range of trials on one
    (slot, band), shape (tx, tx, n_trials), built in `out` when given.

    H is rx x tx with CN(0, 1/lambda) entries: a trial's 2 rx tx uniforms,
    as normal quantiles times sqrt(1 / (2 lambda)) worked out in place on
    the draw's buffer, are Re H row by row, then Im H.
    """
    # imported here so that SISO and closed-form runs load numpy alone
    from scipy.special import ndtri

    profile.check_band(band)
    v, u_tx = profile.rx_antennas, profile.tx_antennas
    shape = (u_tx, u_tx, n_trials)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"out must be float64 of shape {shape}, got {out.shape} {out.dtype}")
    z = uniform_block(master_seed, slot, band, start_trial, n_trials, words=2 * v * u_tx)
    ndtri(z, out=z)
    z *= np.sqrt(0.5 / profile.lambdas[band])
    return _packed_gram(*z.T.reshape(2, v, u_tx, n_trials), out)


def _packed_gram(re, im, out) -> np.ndarray:
    """The Grams G = H*H of v x u matrices H = re + i im, packed real into
    `out`: re and im have shape (v, u, ...), out (u, u, ...), the batch last.
    out[i, j] is Re G[i, j] for i <= j and out[j, i] is Im G[i, j] for i < j.
    Entries are summed over the v rows in order, so a batch and a single
    matrix give bit-identical Grams.
    """
    v, u = re.shape[:2]
    out[...] = 0.0
    for i in range(u):
        for j in range(i, u):
            for k in range(v):
                out[i, j] += re[k, i] * re[k, j] + im[k, i] * im[k, j]
                if j > i:
                    out[j, i] += re[k, i] * im[k, j] - im[k, i] * re[k, j]
    return out


@dataclass(frozen=True)
class Substream:
    """One trial of one master seed: the scalar oracle's handle on the
    draws of a packet, which it reads as one-trial blocks, slot by slot."""

    master_seed: int
    trial: int
