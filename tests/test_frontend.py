"""Transceiver front-end construction and true calibration coefficients."""

import numpy as np
import pytest

from recical.frontend import (
    FrontEnd,
    _raw_gains,
    deterministic_frontend,
    random_frontend,
    true_coefficients,
)


class TestDeterministicFrontend:
    @pytest.mark.parametrize("n,ref", [(100, 37), (7, 6), (5, 0), (2, 1)])
    def test_reference_coefficient_is_exactly_one(self, n, ref):
        fe = deterministic_frontend(n, ref)
        c = true_coefficients(fe)
        assert c[ref] == 1.0 + 0.0j
        assert fe.tx[ref] == 1.0 + 0.0j
        assert fe.rx[ref] == 1.0 + 0.0j

    def test_magnitude_envelope(self):
        # raw gains are 0.9 plus a perturbation of magnitude at most 0.2,
        # so every normalized magnitude lies within [0.7/1.1, 1.1/0.7]
        fe = deterministic_frontend(100, 37)
        for gains in (fe.tx, fe.rx):
            mags = np.abs(gains)
            assert mags.min() >= 0.7 / 1.1 - 1e-12
            assert mags.max() <= 1.1 / 0.7 + 1e-12

    def test_single_antenna_normalizes_to_itself(self):
        fe = deterministic_frontend(1, 0)
        assert fe.tx == pytest.approx([1.0])
        assert fe.rx == pytest.approx([1.0])
        assert true_coefficients(fe) == pytest.approx([1.0])

    def test_out_of_range_ref_rejected(self):
        with pytest.raises(IndexError):
            deterministic_frontend(10, 10)


class TestRandomFrontend:
    def test_zero_spread_gives_unit_magnitudes(self, rng):
        fe = random_frontend(50, 3, 0.0, rng)
        assert np.abs(fe.tx) == pytest.approx(np.ones(50))
        assert np.abs(fe.rx) == pytest.approx(np.ones(50))

    def test_same_seed_is_deterministic(self):
        fe1 = random_frontend(20, 5, 0.1, np.random.default_rng(42))
        fe2 = random_frontend(20, 5, 0.1, np.random.default_rng(42))
        assert np.array_equal(fe1.tx, fe2.tx)
        assert np.array_equal(fe1.rx, fe2.rx)

    def test_raw_magnitude_range(self, rng):
        # sample-range oracle on the generative rule, > 1e5 draws
        mags = np.abs(_raw_gains(120_000, 0.1, rng))
        assert mags.min() >= 0.9
        assert mags.max() <= 1.1
        assert mags.min() < 0.91 and mags.max() > 1.09

    def test_excessive_spread_rejected(self, rng):
        with pytest.raises(ValueError):
            random_frontend(10, 0, 1.0, rng)

    def test_reference_pinned_after_normalization(self, rng):
        fe = random_frontend(30, 7, 0.3, rng)
        assert fe.tx[7] == pytest.approx(1.0)
        assert fe.rx[7] == pytest.approx(1.0)


class TestTrueCoefficients:
    def test_equal_chains_give_ones(self):
        t = np.array([1.0 + 0.5j, 2.0, 0.3j])
        fe = FrontEnd(t / t[0], t / t[0], 0)
        assert true_coefficients(fe) == pytest.approx(np.ones(3))

    def test_complex_division(self):
        fe = FrontEnd(np.full(4, 2.0 + 0.0j), np.full(4, 1.0 + 1.0j), 0)
        assert true_coefficients(fe) == pytest.approx(np.full(4, 1.0 - 1.0j))

    def test_homogeneity_in_transmit_gains(self, rng):
        tx = _raw_gains(12, 0.2, rng)
        rx = _raw_gains(12, 0.2, rng)
        alpha = 0.7 - 1.3j
        fe = FrontEnd(tx, rx, 0)
        scaled = FrontEnd(alpha * tx, rx, 0)
        assert true_coefficients(scaled) == pytest.approx(alpha * true_coefficients(fe))

    def test_zero_receive_gain_rejected(self):
        with pytest.raises(ValueError):
            FrontEnd(np.ones(3, complex), np.array([1.0, 0.0, 1.0], dtype=complex), 0)


class TestFrontEndChecks:
    @pytest.mark.parametrize(
        "tx,rx",
        [
            ([1.0, np.nan], [1.0, np.nan]),
            ([1.0, np.inf], [1.0, 1.0]),
            ([1.0, 1.0], [1.0, -np.inf]),
            ([1.0, complex(1.0, np.nan)], [1.0, 1.0]),
            ([np.nan, 1.0], [1.0, 1.0]),
        ],
    )
    def test_non_finite_gains_rejected(self, tx, rx):
        # a NaN compares false with zero, so the nonzero checks alone let it through
        with pytest.raises(ValueError, match="must be finite"):
            FrontEnd(np.array(tx, dtype=complex), np.array(rx, dtype=complex), 0)

    @pytest.mark.parametrize("tx, rx", [([1.0, 1.0], [1.0, 1.0, 1.0]), ([[1.0, 1.0]], [[1.0, 1.0]])])
    def test_mismatched_or_non_vector_gains_rejected(self, tx, rx):
        with pytest.raises(ValueError, match="1-D vectors of equal length"):
            FrontEnd(np.array(tx, dtype=complex), np.array(rx, dtype=complex), 0)

    @pytest.mark.parametrize("ref", [-1, 2])
    def test_reference_out_of_range_rejected(self, ref):
        with pytest.raises(IndexError, match=rf"reference index {ref} out of range for M=2"):
            FrontEnd(np.ones(2, complex), np.ones(2, complex), ref)

    def test_zero_reference_transmit_gain_rejected(self):
        # the reference's transmit gain fixes the scale; a zero elsewhere is a gain like any other
        tx = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValueError, match="transmit gain at the reference must be nonzero"):
            FrontEnd(tx, np.ones(2, complex), 1)
        assert FrontEnd(tx, np.ones(2, complex), 0).n_antennas == 2
