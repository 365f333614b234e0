"""Wideband coefficient process: synthesis, fitting, PCA, residual tests."""

import numpy as np
import pytest

from recical.config import ConfigError, config_from_dict
from recical.crlb import CrlbInputs, crlb_coefficients
from recical.errors import AliasingError
from recical.frontend import FrontEnd
from recical.geometry import build_geometry, coupling_magnitudes, full_mask
from recical.wideband import (
    ks_critical,
    ks_gaussianity,
    pca,
    per_subcarrier_estimate,
    synth_wideband,
    wideband_fit,
    wideband_record,
)


# the kernel ranges of the wideband config's defaults
KERNEL_RANGES = {"offset_range": (0.9, 1.1), "mag_slope_max": 5e-5, "phase_slope_max": 1e-4}


def kernel_row(offset, mag_slope, phase_slope, n):
    k = np.arange(n)
    return offset * np.exp((mag_slope + 2j * np.pi * phase_slope) * k)


class TestSynthWideband:
    def test_flat_parameters_give_constant_unit_rows(self, rng):
        truth = synth_wideband(5, 32, 1, rng, offset_range=(1.0, 1.0), mag_slope_max=0.0, phase_slope_max=0.0)[0]
        assert np.abs(truth) == pytest.approx(np.ones((5, 32)))
        assert truth == pytest.approx(truth[:, :1] * np.ones((1, 32)))

    def test_parameters_held_phases_redrawn(self, rng):
        # offset magnitudes and both slopes are shared: each realization is
        # the first turned by one phase per antenna, constant along k
        truths = synth_wideband(4, 16, 3, rng, **KERNEL_RANGES)
        assert truths.shape == (3, 4, 16)
        assert np.abs(truths) == pytest.approx(np.broadcast_to(np.abs(truths[0]), truths.shape), rel=1e-12)
        turns = truths / truths[0]
        assert turns == pytest.approx(np.broadcast_to(turns[:, :, :1], truths.shape), rel=1e-12)
        assert not np.allclose(turns[1, :, 0], 1.0)

    def test_oscillator_phase_zero_mean(self, rng):
        # one antenna's unit phasors turn only by its oscillator phase, so
        # their mean has the modulus of that phase's mean
        truths = synth_wideband(4, 4, 25_000, rng, **KERNEL_RANGES)
        phasors = truths[:, :, 0] / np.abs(truths[:, :, 0])
        assert phasors.size == 100_000
        assert np.abs(phasors.mean(axis=0)).max() < 0.02

    def test_cross_antenna_phases_uncorrelated(self, rng):
        truths = synth_wideband(2, 4, 100_000, rng, **KERNEL_RANGES)
        phasors = truths[:, :, 0] / np.abs(truths[:, :, 0])
        prods = phasors[:, 0] * np.conj(phasors[:, 1])
        assert abs(prods.mean()) < 0.02

    def test_realization_count_validated(self, rng):
        with pytest.raises(ValueError):
            synth_wideband(2, 1200, 0, rng, **KERNEL_RANGES)

    def test_grid_validation(self):
        # the subcarrier count is the whole grid; an FFT size is no config key
        with pytest.raises(ConfigError, match=r"^wideband\.n_fft: not a key of the schema$"):
            config_from_dict({"experiment": "wideband", "wideband": {"n_subcarriers": 64, "n_fft": 128}})


class TestPerSubcarrierEstimate:
    def test_noiseless_recovers_normalized_truth(self, coupling, rng):
        geom = build_geometry(2, 3)
        truth = synth_wideband(6, 16, 1, rng, **KERNEL_RANGES)[0]
        c_hat = per_subcarrier_estimate(truth, geom, coupling, 0.0, 5, rng)
        assert c_hat == pytest.approx(truth / truth[5], abs=1e-9)

    def test_antenna_count_checked(self, coupling, rng):
        truth = synth_wideband(6, 16, 1, rng, **KERNEL_RANGES)[0]
        with pytest.raises(ValueError, match="truth and geometry disagree on the antenna count"):
            per_subcarrier_estimate(truth, build_geometry(2, 2), coupling, 0.0, 0, rng)

    def test_errors_uncorrelated_across_subcarriers(self, coupling):
        # lag-1 autocorrelation oracle; per-antenna estimates carry only the
        # statistical noise of 1/sqrt(N) so the mean over antennas is tested
        geom = build_geometry(3, 4)
        rng = np.random.default_rng(2)
        truth = synth_wideband(12, 1200, 1, rng, **KERNEL_RANGES)[0]
        c_hat = per_subcarrier_estimate(truth, geom, coupling, 1e-8, 5, rng)
        err = c_hat - truth / truth[5]
        rho = []
        for m in range(12):
            if m == 5:
                continue
            e = err[m] - err[m].mean()
            rho.append(abs(np.sum(e[1:] * np.conj(e[:-1])) / np.sum(np.abs(e) ** 2)))
        assert np.mean(rho) < 0.05

    def test_error_variance_tracks_bound_at_high_snr(self, coupling):
        geom = build_geometry(3, 4)
        ref = 5
        n0 = 1e-8
        rng = np.random.default_rng(9)
        truth = synth_wideband(12, 400, 1, rng, **KERNEL_RANGES)[0]
        c_hat = per_subcarrier_estimate(truth, geom, coupling, n0, ref, rng)
        err = c_hat - truth / truth[ref]
        # the bound depends on subcarrier k only through the mild drift of
        # the realized gains; average it over a thin subsample
        mags = coupling_magnitudes(geom, coupling)
        bounds = []
        for k in range(0, 400, 80):
            t = truth[:, k] / truth[ref, k]
            fe = FrontEnd(t, np.ones(12, complex), ref)
            bounds.append(crlb_coefficients(CrlbInputs(fe, mags, coupling.sigma2, n0, full_mask(12))).bound)
        bound = np.mean(bounds, axis=0)
        for m in range(12):
            if m == ref:
                continue
            gap_db = 10 * np.log10(np.mean(np.abs(err[m]) ** 2) / bound[m])
            assert abs(gap_db) < 1.0


class TestPca:
    def test_noiseless_process_is_rank_one(self, rng):
        truths = synth_wideband(6, 100, 100, rng, **KERNEL_RANGES)
        for res in pca(truths):
            assert res.eigenvalues[0] / res.eigenvalues[1] > 1e3

    def test_leading_component_aligned_with_kernel(self, rng):
        truths = synth_wideband(4, 100, 50, rng, **KERNEL_RANGES)
        results = pca(truths)
        for m, res in enumerate(results):
            # the kernel with unit offset: the row divided by its first entry
            kern = truths[0, m] / truths[0, m, 0]
            overlap = abs(np.vdot(res.components[:, 0], kern)) / np.linalg.norm(kern)
            assert overlap > 0.999

    def test_matches_dense_eigendecomposition(self, rng):
        # brute-force oracle: form the covariance explicitly and decompose it
        n_sub, n_real = 32, 12
        stack = (rng.standard_normal((n_real, 3, n_sub)) + 1j * rng.standard_normal((n_real, 3, n_sub)))
        results = pca(stack)
        for m in range(3):
            x = stack[:, m, :]
            k_dense = sum(np.outer(row, row.conj()) for row in x) / n_real
            dense = np.linalg.eigvalsh(k_dense)[::-1]
            assert results[m].eigenvalues == pytest.approx(dense[:n_real], abs=1e-8 * dense[0])

    def test_stable_under_realization_permutation(self, rng):
        stack = rng.standard_normal((8, 2, 20)) + 1j * rng.standard_normal((8, 2, 20))
        before = pca(stack)
        after = pca(stack[::-1])
        for b, a in zip(before, after):
            assert a.eigenvalues == pytest.approx(b.eigenvalues, rel=1e-10)
            assert np.all(np.diff(b.eigenvalues) <= 1e-12)

    def test_requires_two_realizations(self, rng):
        with pytest.raises(ValueError):
            pca(rng.standard_normal((1, 2, 8)) + 0j)

    @pytest.mark.parametrize("shape", [(2, 8), (2, 2, 2, 8)])
    def test_requires_three_axis_stack(self, rng, shape):
        with pytest.raises(ValueError, match=r"stacked as \(realizations, antennas, subcarriers\)"):
            pca(rng.standard_normal(shape) + 0j)

    def test_estimated_process_still_near_rank_one_at_high_snr(self, coupling):
        # estimation noise only dents the spectrum far below the leading mode
        geom = build_geometry(2, 4)
        rng = np.random.default_rng(8)
        truths = synth_wideband(8, 200, 10, rng, **KERNEL_RANGES)
        stack = np.stack(
            [per_subcarrier_estimate(t, geom, coupling, 1e-8, 4, rng) for t in truths]
        )
        for res in pca(stack):
            assert res.eigenvalues[0] / res.eigenvalues[1] > 100


class TestWidebandFit:
    def test_noiseless_kernel_recovered_exactly(self):
        row = kernel_row(0.93 * np.exp(0.4j), 3e-5, -7e-5, 600)
        fit = wideband_fit(row)
        assert fit.offset == pytest.approx(0.93 * np.exp(0.4j), rel=1e-8)
        assert fit.mag_slope == pytest.approx(3e-5, rel=1e-8)
        assert fit.phase_slope == pytest.approx(-7e-5, rel=1e-8)
        assert fit.fitted == pytest.approx(row, rel=1e-8)

    def test_constant_row(self):
        row = np.full(64, 0.8 - 0.3j)
        fit = wideband_fit(row)
        assert fit.mag_slope == pytest.approx(0.0, abs=1e-12)
        assert fit.phase_slope == pytest.approx(0.0, abs=1e-12)
        assert fit.offset == pytest.approx(0.8 - 0.3j)

    def test_equivariant_under_complex_scaling(self, rng):
        row = kernel_row(1.05, -2e-5, 4e-5, 300)
        row = row + 0.01 * (rng.standard_normal(300) + 1j * rng.standard_normal(300))
        beta = 0.4 + 1.9j
        base = wideband_fit(row)
        scaled = wideband_fit(beta * row)
        assert scaled.offset == pytest.approx(beta * base.offset, rel=1e-9)
        assert scaled.mag_slope == pytest.approx(base.mag_slope, abs=1e-12)
        assert scaled.phase_slope == pytest.approx(base.phase_slope, abs=1e-12)

    def test_out_of_band_slope_folds_onto_canonical_branch(self):
        # one cycle per subcarrier is unobservable: a slope of 0.7 aliases
        # exactly onto -0.3 and the fit reproduces the data perfectly
        row = kernel_row(1.0, 0.0, 0.7, 200)
        fit = wideband_fit(row)
        assert fit.phase_slope == pytest.approx(-0.3, abs=1e-9)
        assert fit.fitted == pytest.approx(row, rel=1e-8)

    def test_refined_slope_at_the_branch_edge_raises(self):
        # the regression slope lies inside (-1/2, 1/2); on this short noisy
        # row the Gauss-Newton step carries it to -0.538
        row = np.array([-0.096 + 1.538j, -0.301 - 2.123j, -0.958 + 1.082j, 1.644 - 0.019j, -0.174 - 0.132j])
        with pytest.raises(AliasingError, match="refined phase slope -0.538"):
            wideband_fit(row)

    def test_averaging_gain_across_the_band(self, rng):
        # noise at -30 dB of signal power; the mean per-trial improvement of
        # the fitted curve over the raw samples approaches 10*log10(N_SUB)
        n = 1200
        ratios = []
        for _ in range(200):
            offset = (0.9 + 0.2 * rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            gamma = rng.uniform(-5e-5, 5e-5)
            xi = rng.uniform(-1e-4, 1e-4)
            truth = kernel_row(offset, gamma, xi, n)
            v = 1e-3 * np.mean(np.abs(truth) ** 2)
            noise = np.sqrt(v / 2) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            fit = wideband_fit(truth + noise)
            ratios.append(np.mean(np.abs(noise) ** 2) / np.mean(np.abs(fit.fitted - truth) ** 2))
        gain_db = 10 * np.log10(np.mean(ratios))
        assert gain_db == pytest.approx(10 * np.log10(n), abs=1.5)

    def test_residual_rows_have_zero_mean(self, rng):
        rows = []
        for m in range(6):
            truth = kernel_row(1.0 + 0.1 * m, 1e-5, 2e-5 * (m - 3), 500)
            rows.append(truth + 0.01 * (rng.standard_normal(500) + 1j * rng.standard_normal(500)))
        record = wideband_record(np.stack(rows))
        for resid in record.residuals:
            sigma = np.std(resid)
            assert abs(resid.mean()) < 3 * sigma / np.sqrt(resid.size)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            wideband_fit(np.ones(2, complex))

    def test_zero_sample_rejected(self):
        row = kernel_row(1.0, 0.0, 0.0, 16)
        row[3] = 0.0
        with pytest.raises(ValueError):
            wideband_fit(row)


class TestKsGaussianity:
    def test_critical_value_matches_convention(self):
        result = ks_gaussianity(np.random.default_rng(0).standard_normal(1200))
        assert result.critical == pytest.approx(1.3581015157406195 / np.sqrt(1200))

    def test_size_near_nominal_level(self):
        # Monte-Carlo size check with the model variance estimated from the
        # zero-mean sample; mildly conservative but close to 5 percent
        rng = np.random.default_rng(42)
        passes = sum(ks_gaussianity(rng.standard_normal(1200)).passed for _ in range(1000))
        assert 0.93 <= passes / 1000 <= 0.97

    def test_uniform_samples_rejected(self):
        rng = np.random.default_rng(7)
        fails = sum(not ks_gaussianity(rng.uniform(-1, 1, 1200)).passed for _ in range(200))
        assert fails / 200 > 0.99

    def test_critical_value_of_huge_counts(self):
        # 10**20 is past int64, so numpy alone would not take it as a number
        assert ks_critical(10**20, 0.05) == pytest.approx(1.3581015157406195e-10)
        assert ks_critical(np.int64(1200), 0.05) == ks_critical(1200, 0.05)
        with pytest.raises(ValueError, match="within the float range"):
            ks_critical(10**400, 0.05)

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError):
            ks_gaussianity(np.zeros(49))

    def test_degenerate_sample_rejected(self):
        with pytest.raises(ValueError):
            ks_gaussianity(np.zeros(100))

    def test_alpha_validated(self, rng):
        with pytest.raises(ValueError):
            ks_gaussianity(rng.standard_normal(100), alpha=1.5)
