import itertools
import math

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy import stats

from coharq.fading import (POLICY_BAND, ConfigurationError, FadingProfile, gain_block,
                           matrix_block, uniform_block)

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


def test_mimo_siso_reduction():
    """With u = v = 1 the matrix magnitude-squared follows the gain law."""
    prof = FadingProfile(lambdas=(1.0,), tx_antennas=1, rx_antennas=1)
    h = matrix_block(prof, 0, 0, SEED, 0, 500_000)
    g = np.abs(h[:, 0, 0]) ** 2
    _, pvalue = stats.kstest(g, "expon")
    assert pvalue > 0.01


def test_mimo_entry_second_moments():
    prof = FadingProfile(lambdas=(1.0,), tx_antennas=2, rx_antennas=2)
    h = matrix_block(prof, 0, 0, SEED, 0, 200_000)
    fro = (np.abs(h) ** 2).sum(axis=(1, 2))
    assert fro.mean() == pytest.approx(4.0, abs=0.05)

    prof2 = FadingProfile(lambdas=(2.0,), tx_antennas=2, rx_antennas=1)
    h2 = matrix_block(prof2, 0, 0, SEED, 0, 200_000)
    assert (np.abs(h2[:, 0, 0]) ** 2).mean() == pytest.approx(0.5, abs=0.01)


def test_sample_matrix_shape():
    prof = FadingProfile(lambdas=(1.0, 1.0), tx_antennas=3, rx_antennas=2)
    draw = matrix_block(prof, 0, 1, SEED, 7, 1)[0]
    assert draw.shape == (2, 3) and draw.dtype == complex
    assert np.array_equal(draw, matrix_block(prof, 0, 1, SEED, 0, 8)[7])


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
                              matrix_block(prof, 1, 3, SEED, start - 3, 60)[3:53])


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

