import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coharq.fading import FadingProfile, matrix_block
from coharq.rates import (inr_nats, log_det_eye_plus, mimo_nats_inr, mimo_nats_rtd,
                          mimo_rate_inr, mimo_rate_rtd, rtd_nats, u_inr, u_rtd)
# H*H by numpy's complex matmul, packed as the MIMO rates read it
from test_fading import packed_gram

snr_lists = st.lists(st.floats(0.0, 1e4, allow_nan=False), min_size=1, max_size=8)


def test_u_rtd_examples():
    assert u_rtd([1.0]) == pytest.approx(math.log(2), rel=1e-12)
    assert u_rtd([1.0, 3.0]) == pytest.approx(0.5 * math.log(5), rel=1e-12)
    assert u_rtd([0.0, 0.0, 0.0]) == 0.0


def test_u_inr_examples():
    assert u_inr([1.0, 3.0]) == pytest.approx((math.log(2) + math.log(4)) / 2, rel=1e-12)
    assert u_inr([2.5]) == u_rtd([2.5])
    # MRC beats per-copy averaging pointwise only through the log's concavity
    assert u_inr([1.0, 1.0]) == pytest.approx(math.log(2), rel=1e-12)
    assert u_rtd([1.0, 1.0]) == pytest.approx(0.5 * math.log(3), rel=1e-12)


def test_nats_add_copies_one_at_a_time_in_order():
    # twelve copies: numpy's pairwise sum and Python's compensated float sum
    # (3.12+) may round differently from the engine's running sum
    snrs = [0.1 * 1.7 ** k for k in range(12)]
    total = 0.0
    for snr in snrs:
        total += snr
    assert rtd_nats(snrs) == float(np.log1p(total))
    assert u_rtd(snrs) == rtd_nats(snrs) / 12
    total = 0.0
    for nats in np.log1p(snrs):
        total += float(nats)
    assert inr_nats(snrs) == total
    assert u_inr(snrs) == inr_nats(snrs) / 12
    grams = [packed_gram(np.array([[1.0 + 0.5j, 0.2], [0.3j, 2.0]]) * k) for k in (1, 2, 3)]
    assert mimo_rate_rtd(grams, 1.0) == mimo_nats_rtd(grams, 1.0) / 3
    assert mimo_rate_inr(grams, 1.0) == mimo_nats_inr(grams, 1.0) / 3


def test_empty_copy_list_rejected():
    with pytest.raises(ValueError):
        u_rtd([])
    with pytest.raises(ValueError):
        u_inr([])


@given(snr_lists)
def test_inr_dominates_rtd_per_copy_average(snrs):
    assert u_inr(snrs) >= u_rtd(snrs) - 1e-12


@given(snr_lists, st.floats(1e-6, 100.0))
def test_accumulation_monotone(snrs, extra):
    for fn in (u_rtd, u_inr):
        before = fn(snrs) * len(snrs)
        after = fn(snrs + [extra]) * (len(snrs) + 1)
        assert after > before


def test_decode_success_examples():
    # a user decodes once its m copies carry m * U_(m) >= R nats
    assert 1 * u_rtd([math.e - 1]) >= 1.0  # boundary counts as success

    assert not 2 * u_inr([0.5, 0.5]) >= 1.0
    assert 2 * math.log(1.5) < 1.0

    for fn in (u_rtd, u_inr):
        assert 2 * fn([0.0, 0.0]) >= 0.0  # R = 0 always succeeds


def test_mimo_rtd_siso_reduction():
    # h = 1: its Gram is [[1]]
    assert mimo_rate_rtd([np.array([[1.0]])], 1.0) == pytest.approx(math.log(2), rel=1e-12)


def test_mimo_rtd_identity():
    # q = P/u = 2/2; H = I has Gram I
    assert mimo_rate_rtd([np.eye(2)], 1.0) == pytest.approx(2 * math.log(2), rel=1e-12)


def test_mimo_rtd_against_eigenvalue_oracle():
    rng = np.random.default_rng(7)
    mats = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2)]
    # independent route: stack vertically, eigendecompose H_stack H_stack*
    h_stack = np.vstack(mats)
    eigs = np.linalg.eigvalsh(h_stack @ h_stack.conj().T)
    oracle = np.sum(np.log(1 + (3.0 / 2) * eigs)) / 2
    grams = [packed_gram(m) for m in mats]
    assert mimo_rate_rtd(grams, 3.0 / 2) == pytest.approx(oracle, abs=1e-10)


def test_mimo_rtd_diagonal_reduces_to_per_eigenchannel_siso():
    d = np.diag([2.0, 0.5])
    per_channel = sum(math.log(1 + (4.0 / 2) * v ** 2) for v in (2.0, 0.5))
    assert mimo_rate_rtd([packed_gram(d)], 4.0 / 2) == pytest.approx(per_channel, rel=1e-12)


def test_mimo_inr_examples():
    assert mimo_rate_inr([np.array([[1.0]])], 1.0) == pytest.approx(math.log(2), rel=1e-12)

    rng = np.random.default_rng(3)
    single = [packed_gram(rng.normal(size=(2, 2)))]
    assert mimo_rate_inr(single, 0.75) == pytest.approx(mimo_rate_rtd(single, 0.75), rel=1e-12)

    two = [np.eye(2), np.eye(2)]
    assert mimo_rate_inr(two, 1.0) == pytest.approx(2 * math.log(2), rel=1e-12)


@pytest.mark.parametrize("q", [0.5, 5.0, 1e6])
@pytest.mark.parametrize("u", [1, 2, 3, 4])
def test_log_det_against_eigenvalue_oracle(u, q):
    rng = np.random.default_rng(u)
    for v in sorted({1, u - 1, u, u + 2} - {0}):
        # CN(0, 1) entries; v < u gives a rank-deficient Gram
        h = (rng.normal(size=(200, v, u)) + 1j * rng.normal(size=(200, v, u))) / math.sqrt(2)
        got = log_det_eye_plus(q, packed_gram(h))
        lam = np.linalg.eigvalsh(np.swapaxes(h.conj(), -1, -2) @ h)
        oracle = np.log1p(q * np.clip(lam, 0.0, None)).sum(axis=-1)
        if v >= u and q <= 1e3:
            np.testing.assert_allclose(got, oracle, rtol=1e-12, atol=0)
        else:
            np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-8)


def test_gram_packing_and_batch_equals_single():
    """A block of Grams and its one-trial blocks give bit-identical
    log-dets, so the engine and the scalar reference see the same rates
    (the packing itself is checked against numpy's complex matmul in
    test_fading)."""
    prof = FadingProfile(lambdas=(1.0,), tx_antennas=2, rx_antennas=3)
    gram = matrix_block(prof, 0, 1, 5, 0, 50)
    batch = log_det_eye_plus(2.5, gram)
    single = [log_det_eye_plus(2.5, matrix_block(prof, 0, 1, 5, t, 1)[..., 0]) for t in range(50)]
    assert np.array_equal(batch, single)
    assert np.array_equal(batch, [mimo_nats_inr([gram[..., t]], 2.5) for t in range(50)])
