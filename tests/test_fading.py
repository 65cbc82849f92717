import itertools
import math

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy import stats
from scipy.special import ndtri

from coharq.fading import (POLICY_BAND, ConfigurationError, FadingProfile, _packed_gram,
                           _philox_key, gain_block, matrix_block, uniform_block)

SEED = 20260826


def test_profile_validation():
    with pytest.raises(ConfigurationError):
        FadingProfile(lambdas=(1.0, -1.0))
    with pytest.raises(ConfigurationError):
        FadingProfile(lambdas=(1.0,), tx_antennas=0)
    with pytest.raises(ConfigurationError):
        FadingProfile(lambdas=(1.0,)).check_band(1)


def test_exponential_mean_lambda_one():
    prof = FadingProfile(lambdas=(1.0,))
    g = gain_block(prof, 0, 0, SEED, 0, 1_000_000)
    assert g.mean() == pytest.approx(1.0, abs=0.01)
    assert (g >= 0).all()


def test_exponential_cdf_point():
    prof = FadingProfile(lambdas=(2.0,))
    g = gain_block(prof, 0, 0, SEED, 0, 1_000_000)
    assert (g < 0.5).mean() == pytest.approx(1 - math.exp(-1), abs=0.005)


def test_kolmogorov_smirnov():
    prof = FadingProfile(lambdas=(1.7,))
    g = gain_block(prof, 0, 3, SEED, 0, 100_000)
    _, pvalue = stats.kstest(g, "expon", args=(0, 1 / 1.7))
    assert pvalue > 0.01


def test_partition_independence():
    """Chunked generation must reproduce the monolithic draw sequence exactly."""
    prof = FadingProfile(lambdas=(1.0, 2.0))
    whole = gain_block(prof, 1, 5, SEED, 0, 1000)
    parts = np.concatenate([gain_block(prof, 1, 5, SEED, 0, 137),
                            gain_block(prof, 1, 5, SEED, 137, 600),
                            gain_block(prof, 1, 5, SEED, 737, 263)])
    assert (whole == parts).all()


def test_distinct_slots_and_bands_differ():
    prof = FadingProfile(lambdas=(1.0, 1.0))
    a = gain_block(prof, 0, 0, SEED, 0, 100)
    assert not np.array_equal(a, gain_block(prof, 0, 1, SEED, 0, 100))
    assert not np.array_equal(a, gain_block(prof, 1, 0, SEED, 0, 100))
    assert np.array_equal(a, gain_block(prof, 0, 0, SEED, 0, 100))


def test_lag_one_autocorrelation():
    prof = FadingProfile(lambdas=(1.0,))
    n_slots, n = 200, 500
    g = np.stack([gain_block(prof, 0, s, SEED, 0, n) for s in range(n_slots)])
    series = g[:, 0]
    for trial in range(3):
        series = g[:, trial]
        x, y = series[:-1] - series.mean(), series[1:] - series.mean()
        rho = (x * y).mean() / series.var()
        assert abs(rho) < 3 / math.sqrt(n_slots)


def test_scalar_matches_block():
    """A one-trial block, the scalar oracle's read, equals that trial's row
    of the full block."""
    prof = FadingProfile(lambdas=(1.0, 0.5))
    block = gain_block(prof, 1, 2, SEED, 0, 48)
    for trial in (*range(1, 16, 2), 41):
        one = gain_block(prof, 1, 2, SEED, trial, 1)
        assert one.shape == (1,) and one[0] == block[trial]


def test_scalar_matches_block_at_odd_trials():
    prof = FadingProfile(lambdas=(1.0, 0.5))
    block = gain_block(prof, 0, 1, SEED, 0, 16)
    for trial in range(1, 16, 2):
        one = gain_block(prof, 0, 1, SEED, trial, 1)
        assert one.shape == (1,) and one[0] == block[trial]


def test_gain_block_in_place_equals_the_expression():
    """The in-place transform of the draw's buffer equals -log1p(-u) / lambda
    of the same uniforms bit for bit, at two fading parameters and from a
    trial inside a Philox block."""
    prof = FadingProfile(lambdas=(1.0, 0.37))
    for band, lam in enumerate(prof.lambdas):
        for start in (0, 3):
            got = gain_block(prof, band, 2, SEED, start, 1001)
            u = uniform_block(SEED, 2, band, start, 1001)[:, 0]
            expect = -np.log1p(-u) / lam
            assert got.dtype == expect.dtype and np.array_equal(got, expect), (band, start)


def test_mimo_siso_reduction():
    """With u = v = 1 the Gram |h|^2 follows the gain law."""
    prof = FadingProfile(lambdas=(1.0,), tx_antennas=1, rx_antennas=1)
    g = matrix_block(prof, 0, 0, SEED, 0, 500_000)[0, 0]
    _, pvalue = stats.kstest(g, "expon")
    assert pvalue > 0.01


def test_mimo_entry_second_moments():
    """The Gram's trace is the squared Frobenius norm of H: 4 entries of
    mean 1/lambda; with one receive antenna its diagonal is |h_j|^2."""
    prof = FadingProfile(lambdas=(1.0,), tx_antennas=2, rx_antennas=2)
    g = matrix_block(prof, 0, 0, SEED, 0, 200_000)
    fro = g[0, 0] + g[1, 1]
    assert fro.mean() == pytest.approx(4.0, abs=0.05)

    prof2 = FadingProfile(lambdas=(2.0,), tx_antennas=2, rx_antennas=1)
    g2 = matrix_block(prof2, 0, 0, SEED, 0, 200_000)
    assert g2[0, 0].mean() == pytest.approx(0.5, abs=0.01)


def test_sample_matrix_shape():
    """A one-trial block is the trial's (tx, tx) Gram in a batch of one,
    bit for bit the trial's slice of a longer block."""
    prof = FadingProfile(lambdas=(1.0, 1.0), tx_antennas=3, rx_antennas=2)
    block = matrix_block(prof, 0, 1, SEED, 7, 1)
    assert block.shape == (3, 3, 1) and block.dtype == np.float64
    assert np.array_equal(block[..., 0], matrix_block(prof, 0, 1, SEED, 0, 8)[..., 7])


def packed_gram(h) -> np.ndarray:
    """H*H of complex (..., v, u) matrices by numpy's complex matmul,
    packed with the batch last: Re G[i, j] at [i, j] for i <= j and
    Im G[i, j] at [j, i] for i < j."""
    full = np.swapaxes(h.conj(), -1, -2) @ h
    u = full.shape[-1]
    out = np.empty((u, u) + full.shape[:-2])
    for i, j in itertools.combinations_with_replacement(range(u), 2):
        out[i, j] = full[..., i, j].real
        if j > i:
            out[j, i] = full[..., i, j].imag
    return out


@pytest.mark.parametrize("tx, rx", [(1, 1), (2, 2), (3, 2), (2, 3)])
def test_matrix_block_is_the_packed_gram_of_the_documented_draw(tx, rx):
    """Built here from the uniforms alone: a trial's 2 rx tx words, as
    normal quantiles scaled by sqrt(1 / (2 lambda)), are Re H row by row,
    then Im H. matrix_block holds H*H packed, at two fading parameters and
    from trial 0 and trial 5 (whose first word, for 1x1, sits inside a
    Philox block). Entry (i, j) is held to 1e-14 of sqrt(G_ii G_jj), which
    bounds the sum of its terms' magnitudes: an entry the terms nearly
    cancel in has no relative precision in either sum."""
    n = 257
    prof = FadingProfile(lambdas=(1.0, 0.37), tx_antennas=tx, rx_antennas=rx)
    for band, lam in enumerate(prof.lambdas):
        for start in (0, 5):
            z = ndtri(uniform_block(SEED, 3, band, start, n, words=2 * rx * tx))
            z *= math.sqrt(0.5 / lam)
            h = (z[:, :rx * tx] + 1j * z[:, rx * tx:]).reshape(n, rx, tx)
            got, want = matrix_block(prof, band, 3, SEED, start, n), packed_gram(h)
            d = np.sqrt(np.diagonal(want)).T
            scale = d[:, None] * d[None, :]
            assert got.shape == want.shape and np.all(np.abs(got - want) <= 1e-14 * scale), \
                (band, start)


def test_gram_packing_matches_complex_matmul():
    """On seeded 3x2 matrices the packing holds each entry of H*H, real part
    on and above the diagonal and imaginary part below it, at rtol 1e-14."""
    rng = np.random.default_rng(5)
    h = rng.normal(size=(50, 3, 2)) + 1j * rng.normal(size=(50, 3, 2))
    gram = _packed_gram(np.moveaxis(h.real, 0, -1), np.moveaxis(h.imag, 0, -1), np.empty((2, 2, 50)))
    full = np.swapaxes(h.conj(), -1, -2) @ h
    np.testing.assert_allclose(gram[0, 0], full[:, 0, 0].real, rtol=1e-14)
    np.testing.assert_allclose(gram[1, 1], full[:, 1, 1].real, rtol=1e-14)
    np.testing.assert_allclose(gram[0, 1] + 1j * gram[1, 0], full[:, 0, 1], rtol=1e-14)


def test_uniform_block_is_pure_function_of_key():
    u1 = uniform_block(SEED, 2, 0, 10, 5, words=3)
    u2 = uniform_block(SEED, 2, 0, 10, 5, words=3)
    assert (u1 == u2).all()
    assert u1.shape == (5, 3)
    assert ((u1 >= 0) & (u1 < 1)).all()


@pytest.mark.parametrize("words", [1, 3, 8])
def test_packed_layout_matches_monolithic_draw(words):
    whole = uniform_block(SEED, 4, 1, 0, 40, words=words)
    # for odd `words` these starts put the first word 0, 1, 2 and 3 words
    # into a Philox block; 8-word draws stay block-aligned
    for t in range(1, 12):
        assert np.array_equal(uniform_block(SEED, 4, 1, t, 9, words=words), whole[t:t + 9])


def test_packed_layout_is_the_philox_stream():
    slot, band = 3, 2
    key = (SEED << 64) | (slot << 16) | band
    expect = Generator(Philox(key=key)).random(8)
    assert np.array_equal(uniform_block(SEED, slot, band, 0, 8)[:, 0], expect)
    assert np.array_equal(uniform_block(SEED, slot, band, 0, 1, words=8)[0], expect)


def test_block_at_any_start_is_a_slice_of_a_longer_block():
    """Blocks whose first word sits at every lane of a Philox block, with
    counters past 2^32, equal the matching slice of a longer block: one,
    three and eight words, a fading band and the policy band."""
    base, n = 2**32, 64
    for words, band in itertools.product((1, 3, 8), (1, POLICY_BAND)):
        whole = uniform_block(SEED, 2, band, base, n, words=words)
        for start in (base + 1, base + 2, base + 3):
            for count in (1, 5, n - 3):
                got = uniform_block(SEED, 2, band, start, count, words=words)
                assert got.shape == (count, words)
                assert np.array_equal(got, whole[start - base:start - base + count]), \
                    (words, band, start, count)
    prof = FadingProfile(lambdas=(1.0, 0.5), tx_antennas=2, rx_antennas=2)
    for start in (13, base + 3):
        assert np.array_equal(gain_block(prof, 0, 3, SEED, start, 50),
                              gain_block(prof, 0, 3, SEED, start - 3, 60)[3:53])
        assert np.array_equal(matrix_block(prof, 1, 3, SEED, start, 50),
                              matrix_block(prof, 1, 3, SEED, start - 3, 60)[..., 3:53])


def test_draws_into_a_given_buffer_equal_the_allocating_draws():
    """From every lane of a Philox block (start trials 0-12) and for one,
    two, three and eight words a trial, uniform_block equals a draw of the
    stream from its first word sliced at the range, and uniform_block,
    gain_block and matrix_block give the same bits into `out` as into
    arrays of their own; `out` may be the tail of a larger buffer."""
    n = 37
    prof = FadingProfile(lambdas=(1.0, 2.5))
    mimo = FadingProfile(lambdas=(1.0, 2.5), tx_antennas=2, rx_antennas=3)
    for words, start in itertools.product((1, 2, 3, 8), range(13)):
        stream = Generator(Philox(key=_philox_key(SEED, 2, 1))).random((start + n) * words)
        got = uniform_block(SEED, 2, 1, start, n, words=words)
        assert np.array_equal(got, stream[start * words:].reshape(n, words))
        out = np.full(n * words, np.nan)
        into = uniform_block(SEED, 2, 1, start, n, words=words, out=out)
        assert into.shape == (n, words) and np.shares_memory(into, out)
        assert np.array_equal(into, got)
    for start in range(13):
        buf = np.full(n + 5, np.nan)
        into = gain_block(prof, 1, 2, SEED, start, n, out=buf[5:])
        assert np.shares_memory(into, buf) and np.isnan(buf[:5]).all()
        assert np.array_equal(into, gain_block(prof, 1, 2, SEED, start, n))
        big = np.full((3, 3, n + 5), np.nan)[:2, :2]
        into = matrix_block(mimo, 0, 1, SEED, start, n, out=big[..., 5:])
        assert np.shares_memory(into, big) and np.isnan(big[..., :5]).all()
        assert np.array_equal(into, matrix_block(mimo, 0, 1, SEED, start, n))


def test_a_buffer_of_the_wrong_length_or_type_is_refused():
    prof = FadingProfile(lambdas=(1.0,))
    for out in (np.empty(11), np.empty(13), np.empty(12, dtype=np.float32),
                np.empty(24)[::2]):
        with pytest.raises(ValueError, match="out"):
            uniform_block(SEED, 0, 0, 0, 4, words=3, out=out)
    with pytest.raises(ValueError, match="out"):
        gain_block(prof, 0, 0, SEED, 0, 12, out=np.empty(13))
    mimo = FadingProfile(lambdas=(1.0,), tx_antennas=2, rx_antennas=2)
    for out in (np.empty((2, 2, 5)), np.empty((2, 2, 6), dtype=complex)):
        with pytest.raises(ValueError, match="out"):
            matrix_block(mimo, 0, 0, SEED, 0, 6, out=out)


@pytest.mark.parametrize("seed", [-1, 1 << 64, -(1 << 64)])
def test_seed_outside_64_bits_is_refused(seed):
    with pytest.raises(ConfigurationError, match="master seed"):
        uniform_block(seed, 0, 0, 0, 4)
    with pytest.raises(ConfigurationError, match="master seed"):
        gain_block(FadingProfile(lambdas=(1.0,)), 0, 0, seed, 0, 1)


def test_seeds_at_the_ends_of_the_range_draw_their_own_streams():
    top = uniform_block((1 << 64) - 1, 0, 0, 0, 8)
    assert not np.array_equal(top, uniform_block(0, 0, 0, 0, 8))
    bg = Philox(key=(((1 << 64) - 1) << 64) | 0)
    assert np.array_equal(top[:, 0], Generator(bg).random(8))

