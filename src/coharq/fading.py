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
                  n_trials: int, words: int = 1) -> np.ndarray:
    """Uniform(0,1) draws for trials [start_trial, start_trial + n_trials).

    Returns shape (n_trials, words): row t - start_trial holds words
    [t*words, (t+1)*words) of the (master_seed, slot, band) Philox stream,
    so the result depends only on (master_seed, slot, band, trial), never
    on how calls are chunked.
    """
    blocks, skip = divmod(start_trial * words, _WORDS_PER_BLOCK)
    bg = Philox(key=_philox_key(master_seed, slot, band))
    if blocks:
        bg.advance(blocks)
    return Generator(bg).random(skip + n_trials * words)[skip:].reshape(n_trials, words)


def gain_block(profile: FadingProfile, band: int, slot: int, master_seed: int,
               start_trial: int, n_trials: int) -> np.ndarray:
    """Channel gains (|h|^2) for a range of trials on one (slot, band)."""
    profile.check_band(band)
    u = uniform_block(master_seed, slot, band, start_trial, n_trials)[:, 0]
    return -np.log1p(-u) / profile.lambdas[band]


def matrix_block(profile: FadingProfile, band: int, slot: int, master_seed: int,
                 start_trial: int, n_trials: int) -> np.ndarray:
    """Channel matrices, shape (n_trials, rx, tx), entries CN(0, 1/lambda)."""
    # imported here so that SISO and closed-form runs load numpy alone
    from scipy.special import ndtri

    profile.check_band(band)
    v, u_tx = profile.rx_antennas, profile.tx_antennas
    words = 2 * v * u_tx
    u = uniform_block(master_seed, slot, band, start_trial, n_trials, words=words)
    z = ndtri(u) * np.sqrt(0.5 / profile.lambdas[band])
    re = z[:, : v * u_tx].reshape(-1, v, u_tx)
    im = z[:, v * u_tx:].reshape(-1, v, u_tx)
    return re + 1j * im


@dataclass(frozen=True)
class Substream:
    """One trial of one master seed: the scalar oracle's handle on the
    draws of a packet, which it reads as one-trial blocks, slot by slot."""

    master_seed: int
    trial: int
