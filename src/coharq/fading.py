"""Rayleigh block-fading samplers with counter-based, partition-independent RNG.

Every random draw is a pure function of (master_seed, trial, slot, band):
each (master_seed, slot, band) triple keys its own Philox stream, and a
draw of w words per trial gives trial t the words [t*w, (t+1)*w) of that
stream, packed with no padding. Two runs with the same master seed
therefore produce bit-identical draws no matter how trials are partitioned
across workers, and paired-seed experiments see literally the same channel
realizations.

Philox4x64-10 is counter-based (Salmon et al., SC 2011): numpy's stream
gives word i as lane i % 4 of the block at counter i // 4 + 1, and a
uniform as (word >> 11) * 2^-53. So a draw for selected trials (`rows`)
can compute just their words, bit for bit as numpy would. uniform_block
does that, in numpy, when row_draw_pays: when that costs less than
numpy's native generator over the whole range, whose rows it otherwise
keeps. The costs are measured ones (2-vCPU Xeon): the row draw about
0.5 ms a call plus 0.05 us for each word of the Philox blocks its rows
span (0.2 us a one-word row), the native draw about 11 ns a word. So a
row draw never pays below about 45k words, and at 200k one-word trials
it pays up to a 4% share.
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

# Seconds a row draw (_row_uniforms) takes per call and per word of the
# Philox blocks it computes, and the native generator per word it draws.
_ROW_CALL_S = 5e-4
_ROW_WORD_S = 5e-8
_NATIVE_WORD_S = 1.1e-8

# Philox4x64-10 multipliers and key increments (Random123, as in numpy).
_PHILOX_MUL = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


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


def _mulhilo(m, x):
    """Low and high 64-bit words of m * x for a uint64 constant m and array x,
    the high word from 32-bit halves."""
    m_lo, m_hi = m & _LOW32, m >> _SHIFT32
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    lo_hi, hi_lo = m_lo * x_hi, m_hi * x_lo
    mid = (m_lo * x_lo >> _SHIFT32) + (lo_hi & _LOW32) + (hi_lo & _LOW32)
    hi = m_hi * x_hi + (lo_hi >> _SHIFT32) + (hi_lo >> _SHIFT32) + (mid >> _SHIFT32)
    return m * x, hi


def _philox_blocks(key: int, counters: np.ndarray) -> np.ndarray:
    """Philox4x64-10 blocks, shape (len(counters), 4), of a 128-bit key at
    256-bit counters whose upper three words are zero (uint64 `counters`)."""
    k0, k1 = key & 0xFFFFFFFFFFFFFFFF, key >> 64
    c0 = counters
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 = (k0 + _PHILOX_BUMP[0]) & 0xFFFFFFFFFFFFFFFF
            k1 = (k1 + _PHILOX_BUMP[1]) & 0xFFFFFFFFFFFFFFFF
        lo0, hi0 = _mulhilo(_PHILOX_MUL[0], c0)
        lo1, hi1 = _mulhilo(_PHILOX_MUL[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
    return np.stack([c0, c1, c2, c3], axis=1)


def _row_span(words: int) -> int:
    """The most Philox blocks the `words` words of one row span: a row's
    words start at lane first % 4."""
    return -(-(_WORDS_PER_BLOCK - math.gcd(words, _WORDS_PER_BLOCK) + words)
             // _WORDS_PER_BLOCK)


def row_draw_pays(rows: int, n_trials: int, words: int) -> bool:
    """Whether computing the words of `rows` trials alone (_row_uniforms)
    costs less than the native draw of all `n_trials` trials, `words` words
    each, by the measured costs of the module docstring."""
    computed = rows * _row_span(words) * _WORDS_PER_BLOCK
    return _ROW_CALL_S + computed * _ROW_WORD_S < n_trials * words * _NATIVE_WORD_S


def _row_uniforms(key: int, first: np.ndarray, words: int) -> np.ndarray:
    """Words [first[j], first[j] + words) of the Philox stream of `key` as
    uniforms, shape (len(first), words), computed for those words only."""
    span = _row_span(words)
    block, lane = np.divmod(first, _WORDS_PER_BLOCK)
    counters = (block[:, None] + np.arange(1, span + 1, dtype=np.uint64)).ravel()
    stream = _philox_blocks(key, counters).reshape(len(first), span * _WORDS_PER_BLOCK)
    w = np.take_along_axis(stream, lane.astype(np.intp)[:, None] + np.arange(words), axis=1)
    return (w >> np.uint64(11)) * 2.0 ** -53


def uniform_block(master_seed: int, slot: int, band: int, start_trial: int,
                  n_trials: int, words: int = 1, rows=None) -> np.ndarray:
    """Uniform(0,1) draws for trials [start_trial, start_trial + n_trials).

    Returns shape (n_trials, words): row t - start_trial holds words
    [t*words, (t+1)*words) of the (master_seed, slot, band) Philox stream,
    so the result depends only on (master_seed, slot, band, trial), never
    on how calls are chunked. `rows`, if given, selects trial offsets in
    [0, n_trials): the result equals the full block indexed by `rows`, and
    where that is cheaper (row_draw_pays) only their words are computed.
    """
    key = _philox_key(master_seed, slot, band)
    first = start_trial * words
    if (rows is not None and row_draw_pays(len(rows), n_trials, words)
            and first + n_trials * words <= 1 << 64):
        return _row_uniforms(key, first + np.asarray(rows, dtype=np.uint64) * words, words)
    blocks, skip = divmod(first, _WORDS_PER_BLOCK)
    bg = Philox(key=key)
    if blocks:
        bg.advance(blocks)
    u = Generator(bg).random(skip + n_trials * words)[skip:].reshape(n_trials, words)
    return u if rows is None else np.take(u, rows, axis=0)


def gain_block(profile: FadingProfile, band: int, slot: int, master_seed: int,
               start_trial: int, n_trials: int, rows=None) -> np.ndarray:
    """Channel gains (|h|^2) for a range of trials on one (slot, band).

    `rows`, if given, selects trial offsets in [0, n_trials) as in
    uniform_block: the result equals the full block indexed by `rows`, and
    only those rows are transformed.
    """
    profile.check_band(band)
    u = uniform_block(master_seed, slot, band, start_trial, n_trials, rows=rows)[:, 0]
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
    u = uniform_block(master_seed, slot, band, start_trial, n_trials, words=words, rows=rows)
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


def sample_gain(profile: FadingProfile, band: int, substream: Substream) -> float:
    """One Exponential(lambda_band) channel gain at the substream's slot."""
    return float(gain_block(profile, band, substream.slot, substream.master_seed,
                            substream.trial, 1)[0])


def sample_matrix(profile: FadingProfile, band: int, substream: Substream) -> np.ndarray:
    """One rx x tx complex channel matrix at the substream's slot."""
    return matrix_block(profile, band, substream.slot, substream.master_seed,
                        substream.trial, 1)[0]
