"""Calibrated precoding, sum rates, and the capacity experiment."""

import numpy as np
import pytest

from recical.config import config_from_dict
from recical.downlink import (
    DownlinkScenario,
    calibrated_downlink,
    draw_scenario,
    mrt_precoder,
    sum_rate,
    variant_sum_rates,
    zf_precoder,
)
from recical.experiments import run_capacity
from recical.frontend import deterministic_frontend, random_frontend, true_coefficients


def complex_gaussian(rng, shape):
    return np.sqrt(0.5) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


class TestPrecoders:
    def test_calibrated_downlink_shape_and_value(self, rng):
        h_up = complex_gaussian(rng, (5, 2))
        c = complex_gaussian(rng, 5)
        g = calibrated_downlink(h_up, c)
        assert g.shape == (2, 5)
        assert g[1, 3] == pytest.approx(c[3] * h_up[3, 1])

    def test_perfect_calibration_diagonalizes_downlink(self, rng):
        fe = random_frontend(8, 0, 0.2, rng)
        scenario = draw_scenario(fe, 3, rng)
        g = calibrated_downlink(scenario.h_up, true_coefficients(fe))
        p = zf_precoder(g, scenario.power)
        s = np.abs(scenario.h_dl @ p) ** 2
        diag = np.diag(s).copy()
        np.fill_diagonal(s, 0.0)
        assert s.max() < 1e-20 * diag.min()

    def test_uncalibrated_leaves_interference(self, rng):
        # direct-multiplication oracle on a 2-user, 4-antenna instance
        fe = random_frontend(4, 0, 0.3, rng)
        scenario = draw_scenario(fe, 2, rng)
        p = zf_precoder(calibrated_downlink(scenario.h_up, np.ones(4, complex)), scenario.power)
        s = np.abs(scenario.h_dl @ p) ** 2
        diag = np.diag(s).copy()
        np.fill_diagonal(s, 0.0)
        assert s.max() > 1e-6 * diag.min()

    def test_scalar_ambiguity_gives_identical_precoder(self, rng):
        fe = random_frontend(6, 1, 0.2, rng)
        scenario = draw_scenario(fe, 2, rng)
        c = true_coefficients(fe)
        p1 = zf_precoder(calibrated_downlink(scenario.h_up, c), scenario.power)
        p2 = zf_precoder(calibrated_downlink(scenario.h_up, (0.3 - 1.7j) * c), scenario.power)
        # a common complex scalar rotates every column by one phase
        phase = p2[0, 0] / p1[0, 0]
        assert abs(abs(phase) - 1.0) < 1e-10
        assert p2 == pytest.approx(p1 * phase, rel=1e-9)

    def test_orthonormal_rows_make_zf_and_mrt_agree(self):
        g = np.zeros((2, 4), dtype=complex)
        g[0, 0] = 1.0
        g[1, 1] = 1.0
        p_zf = zf_precoder(g, 2.0)
        p_mrt = mrt_precoder(g, 2.0)
        assert p_zf == pytest.approx(p_mrt)

    def test_power_constraint_exact(self, rng):
        g = complex_gaussian(rng, (3, 7))
        for p in (zf_precoder(g, 3.0), mrt_precoder(g, 3.0)):
            assert np.linalg.norm(p) ** 2 == pytest.approx(3.0, rel=1e-12)

    def test_rank_deficient_rejected(self):
        g = np.ones((2, 4), dtype=complex)
        with pytest.raises(np.linalg.LinAlgError):
            zf_precoder(g, 2.0)

    def test_all_zero_channel_rejected_by_mrt(self):
        with pytest.raises(ValueError, match="cannot normalize an all-zero channel matrix"):
            mrt_precoder(np.zeros((2, 4), dtype=complex), 1.0)


class TestSumRate:
    def test_diagonal_gain_closed_form(self):
        k, rho, nw = 4, 9.0, 0.5
        h_dl = np.eye(k, dtype=complex) * np.sqrt(rho)
        p = np.eye(k, dtype=complex)
        assert sum_rate(h_dl, p, nw) == pytest.approx(k * np.log2(1 + rho / nw))

    def test_zero_precoder_gives_zero(self, rng):
        h_dl = complex_gaussian(rng, (3, 6))
        assert sum_rate(h_dl, np.zeros((6, 3)), 1.0) == 0.0

    def test_invariant_to_column_phases(self, rng):
        h_dl = complex_gaussian(rng, (3, 6))
        p = complex_gaussian(rng, (6, 3))
        rotated = p * np.exp(1j * rng.uniform(0, 2 * np.pi, size=3))[None, :]
        assert sum_rate(h_dl, rotated, 1.0) == pytest.approx(sum_rate(h_dl, p, 1.0), rel=1e-12)

    def test_perfect_beats_uncalibrated_almost_always(self, rng):
        # Monte-Carlo ordering oracle, no estimators involved
        fe = deterministic_frontend(100, 37)
        c = true_coefficients(fe)
        wins = 0
        trials = 1000
        for _ in range(trials):
            scenario = draw_scenario(fe, 10, rng)
            p_perf = zf_precoder(calibrated_downlink(scenario.h_up, c), scenario.power)
            p_unc = zf_precoder(calibrated_downlink(scenario.h_up, np.ones(100, complex)), scenario.power)
            wins += sum_rate(scenario.h_dl, p_perf, 1.0) >= sum_rate(scenario.h_dl, p_unc, 1.0)
        assert wins / trials >= 0.95


class TestScenario:
    def test_downlink_consistent_with_uplink_draw(self, rng):
        fe = random_frontend(6, 0, 0.2, rng)
        scenario = draw_scenario(fe, 2, rng, reciprocal_users=True)
        # same propagation draw on both sides: h_up = r_B h_P t_U, h_dl = r_U h_P^T t_B
        h_p = scenario.h_up / fe.rx[:, None] / scenario.user_tx[None, :]
        expected_dl = scenario.user_rx[:, None] * h_p.T * fe.tx[None, :]
        assert scenario.h_dl == pytest.approx(expected_dl)

    def test_reciprocal_users_equalize_tx_rx(self, rng):
        fe = random_frontend(6, 0, 0.2, rng)
        rec = draw_scenario(fe, 3, rng, reciprocal_users=True)
        assert np.array_equal(rec.user_tx, rec.user_rx)
        non = draw_scenario(fe, 3, rng, reciprocal_users=False)
        assert not np.allclose(non.user_tx, non.user_rx)

    def test_too_many_users_rejected(self, rng):
        fe = random_frontend(4, 0, 0.2, rng)
        with pytest.raises(ValueError, match="more users than base-station antennas"):
            draw_scenario(fe, 5, rng)
        # with no user the ZF precoder would fail on an empty channel matrix
        for n_users in (0, -1):
            with pytest.raises(ValueError, match=f"need at least one user, got {n_users}"):
                draw_scenario(fe, n_users, rng)

    def test_power_defaults_to_user_count(self, rng):
        fe = random_frontend(5, 0, 0.1, rng)
        scenario = draw_scenario(fe, 4, rng)
        assert scenario.power == 4.0


class TestCapacityExperiment:
    def test_perfect_equals_true_csi_with_reciprocal_users(self, rng):
        fe = deterministic_frontend(20, 9)
        scenario = draw_scenario(fe, 4, rng, reciprocal_users=True)
        c = true_coefficients(fe)
        rates = variant_sum_rates(scenario, {"perfect": c, "true-downlink-csi": c})
        assert rates["perfect"]["zf"] == pytest.approx(rates["true-downlink-csi"]["zf"], abs=1e-8)
        assert rates["perfect"]["mrt"] == pytest.approx(rates["true-downlink-csi"]["mrt"], abs=1e-8)

    def test_estimated_variants_approach_perfect_at_vanishing_noise(self):
        # limit-behavior oracle: at N0 = -120 dB the estimator CDFs collapse
        # onto the perfect-calibration CDF (Kolmogorov distance below 0.05);
        # the default 4x25 array, reference 38 and coupling, 10 users
        config = config_from_dict({
            "experiment": "capacity", "seed": 3, "trials": 500,
            "capacity": {"n_users": 10, "cal_n0_db": -120.0, "variants": ["gmm", "em", "perfect"]},
        })
        (_, rows), = run_capacity(config, *config.validate()).values()

        def zf_rates(variant):
            return np.sort([rate for v, precoder, _, rate in rows if (v, precoder) == (variant, "zf")])

        perfect = zf_rates("perfect")
        grid = np.linspace(perfect[0], perfect[-1], 400)
        for variant in ("gmm", "em"):
            other = zf_rates(variant)
            f1 = np.searchsorted(perfect, grid, side="right") / perfect.size
            f2 = np.searchsorted(other, grid, side="right") / other.size
            assert np.abs(f1 - f2).max() < 0.05

    def test_skipping_calibration_hurts_zf_more_than_mrt(self, rng):
        fe = deterministic_frontend(100, 37)
        c = true_coefficients(fe)
        losses = {"zf": [], "mrt": []}
        for _ in range(200):
            scenario = draw_scenario(fe, 10, rng)
            for kind, precoder in (("zf", zf_precoder), ("mrt", mrt_precoder)):
                perfect = sum_rate(
                    scenario.h_dl, precoder(calibrated_downlink(scenario.h_up, c), scenario.power), 1.0
                )
                uncal = sum_rate(
                    scenario.h_dl,
                    precoder(calibrated_downlink(scenario.h_up, np.ones(100, complex)), scenario.power),
                    1.0,
                )
                losses[kind].append((perfect, uncal))
        rel_loss = {
            k: (np.median([p for p, _ in v]) - np.median([u for _, u in v])) / np.median([p for p, _ in v])
            for k, v in losses.items()
        }
        assert rel_loss["mrt"] < rel_loss["zf"]

    def test_scenario_validation(self, rng):
        h_up = complex_gaussian(rng, (4, 2))
        with pytest.raises(ValueError):
            DownlinkScenario(h_up, h_up.T.copy(), np.ones(2), np.ones(2), noise_var=0.0)
