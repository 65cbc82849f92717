"""Rayleigh block-fading samplers with counter-based, partition-independent RNG.

Every random draw is a pure function of (master_seed, trial, slot, band):
each (master_seed, slot, band) triple keys its own Philox stream, and a
draw of w words per trial gives trial t the words [t*w, (t+1)*w) of that
stream, packed with no padding. Two runs with the same master seed
therefore produce bit-identical draws no matter how trials are partitioned
across workers, and paired-seed experiments see literally the same channel
realizations.
"""

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class GainDraw:
    band: int
    slot: int
    value: float


@dataclass(frozen=True)
class ChannelMatrixDraw:
    band: int
    slot: int
    matrix: np.ndarray  # rx_antennas x tx_antennas, complex


def _philox_key(master_seed: int, slot: int, band: int) -> int:
    # 128-bit key: seed in the high word, (slot, band) in the low word.
    return ((master_seed & 0xFFFFFFFFFFFFFFFF) << 64) | ((slot & 0xFFFFFFFFFFFF) << 16) | (band & 0xFFFF)


def uniform_block(master_seed: int, slot: int, band: int, start_trial: int,
                  n_trials: int, words: int = 1) -> np.ndarray:
    """Uniform(0,1) draws for trials [start_trial, start_trial + n_trials).

    Returns shape (n_trials, words): row t - start_trial holds words
    [t*words, (t+1)*words) of the (master_seed, slot, band) Philox stream,
    so the result depends only on (master_seed, slot, band, trial), never
    on how calls are chunked.
    """
    first = start_trial * words
    blocks, skip = divmod(first, _WORDS_PER_BLOCK)
    bg = Philox(key=_philox_key(master_seed, slot, band))
    if blocks:
        bg.advance(blocks)
    u = Generator(bg).random(skip + n_trials * words)
    return u[skip:].reshape(n_trials, words)


def gain_block(profile: FadingProfile, band: int, slot: int, master_seed: int,
               start_trial: int, n_trials: int, rows=None) -> np.ndarray:
    """Channel gains (|h|^2) for a range of trials on one (slot, band).

    `rows`, if given, selects trial offsets in [0, n_trials): the result
    equals the full block indexed by `rows`, but only those rows are
    transformed.
    """
    profile.check_band(band)
    u = uniform_block(master_seed, slot, band, start_trial, n_trials)[:, 0]
    if rows is not None:
        u = u[rows]
    return -np.log1p(-u) / profile.lambdas[band]


def matrix_block(profile: FadingProfile, band: int, slot: int, master_seed: int,
                 start_trial: int, n_trials: int, rows=None) -> np.ndarray:
    """Channel matrices, shape (n_trials, rx, tx), entries CN(0, 1/lambda).

    `rows` selects trial offsets as in gain_block; the result then has
    len(rows) matrices.
    """
    # imported here so that SISO and closed-form runs load numpy alone
    from scipy.special import ndtri

    profile.check_band(band)
    v, u_tx = profile.rx_antennas, profile.tx_antennas
    words = 2 * v * u_tx
    u = uniform_block(master_seed, slot, band, start_trial, n_trials, words=words)
    if rows is not None:
        u = u[rows]
    z = ndtri(u) * np.sqrt(0.5 / profile.lambdas[band])
    re = z[:, : v * u_tx].reshape(-1, v, u_tx)
    im = z[:, v * u_tx:].reshape(-1, v, u_tx)
    return re + 1j * im


@dataclass
class Substream:
    """Per-trial handle for scalar (one draw at a time) sampling.

    Carries a slot cursor advanced by the protocol loop, so consecutive
    retransmission rounds see independent block-fading draws.
    """

    master_seed: int
    trial: int
    slot: int = 0

    def policy_uniform(self) -> float:
        """Uniform(0,1) for randomized allocation policies at the current slot."""
        return float(uniform_block(self.master_seed, self.slot, POLICY_BAND,
                                   self.trial, 1, words=1)[0, 0])


def sample_gain(profile: FadingProfile, band: int, substream: Substream) -> GainDraw:
    """One Exponential(lambda_band) channel gain at the substream's slot."""
    g = gain_block(profile, band, substream.slot, substream.master_seed,
                   substream.trial, 1)[0]
    return GainDraw(band=band, slot=substream.slot, value=float(g))


def sample_matrix(profile: FadingProfile, band: int, substream: Substream) -> ChannelMatrixDraw:
    """One complex channel matrix at the substream's slot."""
    h = matrix_block(profile, band, substream.slot, substream.master_seed,
                     substream.trial, 1)[0]
    return ChannelMatrixDraw(band=band, slot=substream.slot, matrix=h)
