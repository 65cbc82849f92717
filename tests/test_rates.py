import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coharq.rates import (MimoRateInputs, hermitian_gram, inr_nats, log_det_eye_plus,
                          mimo_nats_inr, mimo_nats_rtd, mimo_rate_inr, mimo_rate_rtd,
                          rtd_nats, u_inr, u_rtd)

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
    mats = [np.array([[1.0 + 0.5j, 0.2], [0.3j, 2.0]]) * k for k in (1, 2, 3)]
    inp = MimoRateInputs(matrices=mats, power=2.0, tx_antennas=2)
    assert mimo_rate_rtd(inp) == mimo_nats_rtd(inp) / 3
    assert mimo_rate_inr(inp) == mimo_nats_inr(inp) / 3


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
    inp = MimoRateInputs(matrices=[np.array([[1.0]])], power=1.0, tx_antennas=1)
    assert mimo_rate_rtd(inp) == pytest.approx(math.log(2), rel=1e-12)


def test_mimo_rtd_identity():
    inp = MimoRateInputs(matrices=[np.eye(2)], power=2.0, tx_antennas=2)
    assert mimo_rate_rtd(inp) == pytest.approx(2 * math.log(2), rel=1e-12)


def test_mimo_rtd_against_eigenvalue_oracle():
    rng = np.random.default_rng(7)
    mats = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2)]
    inp = MimoRateInputs(matrices=mats, power=3.0, tx_antennas=2)
    # independent route: stack vertically, eigendecompose H_stack H_stack*
    h_stack = np.vstack(mats)
    eigs = np.linalg.eigvalsh(h_stack @ h_stack.conj().T)
    oracle = np.sum(np.log(1 + (3.0 / 2) * eigs)) / 2
    assert mimo_rate_rtd(inp) == pytest.approx(oracle, abs=1e-10)


def test_mimo_rtd_diagonal_reduces_to_per_eigenchannel_siso():
    d = np.diag([2.0, 0.5])
    inp = MimoRateInputs(matrices=[d], power=4.0, tx_antennas=2)
    per_channel = sum(math.log(1 + (4.0 / 2) * v ** 2) for v in (2.0, 0.5))
    assert mimo_rate_rtd(inp) == pytest.approx(per_channel, rel=1e-12)


def test_mimo_inr_examples():
    inp = MimoRateInputs(matrices=[np.array([[1.0]])], power=1.0, tx_antennas=1)
    assert mimo_rate_inr(inp) == pytest.approx(math.log(2), rel=1e-12)

    rng = np.random.default_rng(3)
    h = rng.normal(size=(2, 2))
    single = MimoRateInputs(matrices=[h], power=1.5, tx_antennas=2)
    assert mimo_rate_inr(single) == pytest.approx(mimo_rate_rtd(single), rel=1e-12)

    two = MimoRateInputs(matrices=[np.eye(2), np.eye(2)], power=2.0, tx_antennas=2)
    assert mimo_rate_inr(two) == pytest.approx(2 * math.log(2), rel=1e-12)


@pytest.mark.parametrize("q", [0.5, 5.0, 1e6])
@pytest.mark.parametrize("u", [1, 2, 3, 4])
def test_log_det_against_eigenvalue_oracle(u, q):
    rng = np.random.default_rng(u)
    for v in sorted({1, u - 1, u, u + 2} - {0}):
        # CN(0, 1) entries; v < u gives a rank-deficient Gram
        h = (rng.normal(size=(200, v, u)) + 1j * rng.normal(size=(200, v, u))) / math.sqrt(2)
        got = log_det_eye_plus(q, hermitian_gram(h))
        lam = np.linalg.eigvalsh(np.swapaxes(h.conj(), -1, -2) @ h)
        oracle = np.log1p(q * np.clip(lam, 0.0, None)).sum(axis=-1)
        if v >= u and q <= 1e3:
            np.testing.assert_allclose(got, oracle, rtol=1e-12, atol=0)
        else:
            np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-8)


def test_gram_packing_and_batch_equals_single():
    rng = np.random.default_rng(5)
    h = rng.normal(size=(50, 3, 2)) + 1j * rng.normal(size=(50, 3, 2))
    gram = hermitian_gram(h)
    full = np.swapaxes(h.conj(), -1, -2) @ h
    # real part on and above the diagonal, imaginary part below it
    np.testing.assert_allclose(gram[0, 0], full[:, 0, 0].real, rtol=1e-14)
    np.testing.assert_allclose(gram[1, 1], full[:, 1, 1].real, rtol=1e-14)
    np.testing.assert_allclose(gram[0, 1] + 1j * gram[1, 0], full[:, 0, 1], rtol=1e-14)
    # the engine and the scalar reference see bit-identical rates
    batch = log_det_eye_plus(2.5, gram)
    single = [log_det_eye_plus(2.5, hermitian_gram(m)) for m in h]
    assert np.array_equal(batch, single)


def test_mimo_dimension_mismatch():
    with pytest.raises(ValueError):
        MimoRateInputs(matrices=[np.eye(2), np.eye(3)], power=1.0, tx_antennas=2)
    with pytest.raises(ValueError):
        MimoRateInputs(matrices=[], power=1.0, tx_antennas=1)
