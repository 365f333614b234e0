"""GMM, EM, and linear-array estimators."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import unit_norm_gmm_full_eigh

import recical.sounding
from recical.errors import DegeneracyError, IdentifiabilityError
from recical.estimators import (
    EmSettings,
    em_calibrate,
    em_coefficient_gradient,
    em_fixed_point_residuals,
    gmm_estimate,
    linear_array_ml,
    score_mse,
)
from recical.frontend import FrontEnd, random_frontend, true_coefficients
from recical.geometry import build_geometry, check_connected, draw_channel, full_mask, reduced_mask
from recical.sounding import SoundingData, sound


def make_data(rows, cols, coupling, noise_var, seed, spread=0.2, ref=0, mask=None):
    rng = np.random.default_rng(seed)
    geom = build_geometry(rows, cols)
    h = draw_channel(geom, coupling, rng)
    fe = random_frontend(geom.n_antennas, ref, spread, rng)
    data = sound(h, fe, noise_var, rng, mask=mask)
    return data, true_coefficients(fe)


def chain_mask(n):
    mask = np.zeros((n, n), dtype=bool)
    idx = np.arange(n - 1)
    mask[idx, idx + 1] = True
    mask[idx + 1, idx] = True
    return mask


def make_chain_data(n, coupling, noise_var, seed):
    rng = np.random.default_rng(seed)
    geom = build_geometry(1, n)
    h = draw_channel(geom, coupling, rng)
    fe = random_frontend(n, 0, 0.2, rng)
    data = sound(h, fe, noise_var, rng, mask=chain_mask(n))
    return data, true_coefficients(fe)


def normalize(c, ref=0):
    return c / c[ref]


@st.composite
def sounding_cases(draw):
    """Random array, mask radius (None: full), reference (or none), and noise level (0 included)."""
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(2, 7))
    radius = draw(st.sampled_from([None, 0.5, 0.75, 1.5]))
    ref = draw(st.none() | st.integers(0, rows * cols - 1))
    noise_var = draw(st.sampled_from([0.0, 1e-9, 1e-6, 1e-4, 1e-3]))
    seed = draw(st.integers(0, 2**32 - 1))
    return rows, cols, radius, ref, noise_var, seed


@st.composite
def fixed_point_cases(draw):
    """Random array, mask radius (None: full), reference, and noise from -100 to -40 dB."""
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(2, 7))
    radius = draw(st.sampled_from([None, 0.5, 0.75, 1.5]))
    ref = draw(st.integers(0, rows * cols - 1))
    noise_var = 10.0 ** (draw(st.integers(-100, -40)) / 10.0)
    seed = draw(st.integers(0, 2**32 - 1))
    return rows, cols, radius, ref, noise_var, seed


def sounded(coupling, case):
    """Sounding data of one ``sounding_cases`` draw, with its reference."""
    rows, cols, radius, ref, noise_var, seed = case
    mask = None if radius is None else reduced_mask(build_geometry(rows, cols), radius)
    data, _ = make_data(rows, cols, coupling, noise_var, seed, ref=ref or 0, mask=mask)
    return data, ref


class TestGmm:
    def test_noiseless_ref_one_is_exact(self, coupling):
        data, c = make_data(3, 4, coupling, 0.0, seed=0, ref=5)
        est = gmm_estimate(data, ref=5)
        assert est.c_hat == pytest.approx(c, abs=1e-10)
        q = data.moments
        assert (est.c_hat.conj() @ q @ est.c_hat).real < 1e-18

    def test_two_antenna_closed_form(self, coupling):
        data, _ = make_chain_data(2, coupling, 1e-4, seed=3)
        est = gmm_estimate(data, ref=0)
        y = data.matrix
        expected = np.conj(y[1, 0]) * y[0, 1] / np.abs(y[1, 0]) ** 2
        assert est.c_hat[1] == pytest.approx(expected, rel=1e-12)

    def test_unit_norm_parallel_to_truth_noiseless(self, coupling):
        data, c = make_data(1, 4, coupling, 0.0, seed=1)
        est = gmm_estimate(data, constraint="unit-norm")
        assert np.linalg.norm(est.c_hat) == pytest.approx(1.0, abs=1e-12)
        inner = abs(np.vdot(est.c_hat, c))
        assert inner == pytest.approx(np.linalg.norm(c), abs=1e-10)

    def test_unit_norm_phase_anchor(self, coupling):
        data, _ = make_data(2, 3, coupling, 1e-5, seed=2)
        est = gmm_estimate(data, constraint="unit-norm", ref=4)
        assert est.c_hat[4].imag == pytest.approx(0.0, abs=1e-14)
        assert est.c_hat[4].real > 0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_moment_matrix_hermitian_psd(self, coupling, seed):
        data, _ = make_data(2, 4, coupling, 1e-3, seed=seed)
        q = data.moments
        assert q == pytest.approx(q.conj().T)
        eigs = np.linalg.eigvalsh(q)
        assert eigs.min() >= -1e-10 * np.linalg.norm(q)

    def test_cost_invariant_to_global_phase(self, coupling, rng):
        data, _ = make_data(2, 3, coupling, 1e-4, seed=5)
        q = data.moments
        c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        cost = (c.conj() @ q @ c).real
        rotated = np.exp(1j * 0.83) * c
        assert (rotated.conj() @ q @ rotated).real == pytest.approx(cost, rel=1e-12)

    def test_scaling_measurements_leaves_ref_one_unchanged(self, coupling):
        data, _ = make_data(2, 4, coupling, 1e-4, seed=6, ref=3)
        est = gmm_estimate(data, ref=3)
        scaled = SoundingData(2.5 * data.matrix, data.mask, data.noise_var)
        est2 = gmm_estimate(scaled, ref=3)
        assert est2.c_hat == pytest.approx(est.c_hat, rel=1e-10)

    def test_disconnected_graph_rejected(self, coupling):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 1] = mask[1, 0] = True
        mask[2, 3] = mask[3, 2] = True
        data, _ = make_data(1, 4, coupling, 1e-6, seed=7, mask=mask)
        with pytest.raises(IdentifiabilityError):
            gmm_estimate(data, ref=0)

    def test_ref_required_for_ref_one(self, coupling):
        # ref-one needs a reference; both constraints reject one outside 0..M-1
        data, _ = make_data(1, 3, coupling, 1e-6, seed=8)
        cases = [("ref-one", None), ("ref-one", -1), ("ref-one", 3), ("unit-norm", -1), ("unit-norm", 3)]
        for constraint, ref in cases:
            with pytest.raises(ValueError, match="reference index"):
                gmm_estimate(data, constraint=constraint, ref=ref)
        # em_calibrate checks settings.ref whatever its initialisation
        for init in ("gmm", np.ones(3, complex), "random"):
            for ref in (-1, 3):
                with pytest.raises(ValueError, match="reference index"):
                    em_calibrate(data, EmSettings(init=init, ref=ref), rng=np.random.default_rng(0))

    def test_unknown_constraint_rejected(self, coupling):
        data, _ = make_data(1, 3, coupling, 1e-6, seed=8)
        with pytest.raises(ValueError):
            gmm_estimate(data, constraint="lasso", ref=0)

    @given(sounding_cases())
    def test_unit_norm_matches_full_spectrum(self, coupling, case):
        data, ref = sounded(coupling, case)
        est = gmm_estimate(data, constraint="unit-norm", ref=ref)
        expected = unit_norm_gmm_full_eigh(data, ref)
        assert np.max(np.abs(est.c_hat - expected)) < 1e-10


class TestEm:
    def test_truth_init_noiseless_converges_in_one_iteration(self, coupling):
        data, c = make_data(3, 4, coupling, 0.0, seed=10)
        est = em_calibrate(data, EmSettings(init=c.copy(), epsilon=0.0))
        assert est.converged
        assert est.iterations == 1
        assert normalize(est.c_hat) == pytest.approx(normalize(c), abs=1e-12)

    def test_converged_run_is_stationary(self, coupling):
        data, _ = make_data(2, 5, coupling, 1e-6, seed=11, ref=2)
        est = em_calibrate(data, EmSettings(ref=2, delta_ml=1e-22))
        assert est.converged
        y_norm = np.linalg.norm(np.where(data.pairs, data.matrix, 0))
        grad = em_coefficient_gradient(data, est)
        assert np.linalg.norm(grad) < 1e-6 * y_norm

    def test_fixed_point_residuals_vanish(self, coupling):
        data, _ = make_data(2, 4, coupling, 1e-5, seed=12, ref=0)
        est = em_calibrate(data, EmSettings(ref=0, delta_ml=1e-24))
        psi_res, c_res = em_fixed_point_residuals(data, est)
        y_norm = np.linalg.norm(np.where(data.pairs, data.matrix, 0))
        assert psi_res < 1e-6 * y_norm
        assert c_res < 1e-6 * y_norm

    @given(fixed_point_cases())
    def test_converged_run_is_a_fixed_point(self, coupling, case):
        # the ACCEPTANCE 08 bound, over random geometries, masks and references
        data, ref = sounded(coupling, case)
        est = em_calibrate(data, EmSettings(ref=ref, delta_ml=1e-22))
        if est.converged:
            y_norm = np.linalg.norm(data.measured)
            psi_res, c_res = em_fixed_point_residuals(data, est)
            assert psi_res < 1e-6 * y_norm
            assert c_res < 1e-6 * y_norm

    def test_objective_monotone_noninincreasing(self, coupling):
        data, _ = make_data(3, 4, coupling, 1e-4, seed=13, ref=1)
        est = em_calibrate(data, EmSettings(ref=1, epsilon=0.05, keep_history=True))
        objectives = np.array(est.history.objectives)
        assert np.all(np.diff(objectives) <= 1e-12 * objectives[0])

    def test_masked_run_recovers_truth_at_high_snr(self, coupling):
        geom = build_geometry(4, 6)
        mask = reduced_mask(geom, 1.2)
        data, c = make_data(4, 6, coupling, 1e-9, seed=14, ref=9, mask=mask)
        est = em_calibrate(data, EmSettings(ref=9))
        assert normalize(est.c_hat, 9) == pytest.approx(c, abs=1e-3)

    def test_scaling_measurements_preserves_fixed_point(self, coupling):
        data, _ = make_data(2, 4, coupling, 1e-5, seed=15, ref=0)
        est = em_calibrate(data, EmSettings(ref=0, delta_ml=1e-20))
        scaled = SoundingData(3.0 * data.matrix, data.mask, data.noise_var)
        est2 = em_calibrate(scaled, EmSettings(ref=0, delta_ml=1e-20))
        assert normalize(est2.c_hat) == pytest.approx(normalize(est.c_hat), rel=1e-8)

    def test_max_iter_flagged_as_not_converged(self, coupling):
        data, _ = make_data(2, 5, coupling, 1e-3, seed=16, ref=0)
        est = em_calibrate(data, EmSettings(ref=0, max_iter=1, delta_ml=1e-30))
        assert not est.converged
        assert est.iterations == 1

    def test_all_zero_measurements_degenerate(self, coupling):
        data, _ = make_data(1, 3, coupling, 0.0, seed=17)
        data.matrix[:] = 0.0
        with pytest.raises(DegeneracyError):
            em_calibrate(data, EmSettings(init=np.ones(3, complex), epsilon=0.0))

    @given(sounding_cases())
    def test_default_init_is_unit_norm_gmm(self, coupling, case):
        data, ref = sounded(coupling, case)
        default = em_calibrate(data, EmSettings(ref=ref))
        explicit = em_calibrate(
            data, EmSettings(ref=ref, init=gmm_estimate(data, "unit-norm", ref=ref).c_hat)
        )
        assert np.array_equal(default.c_hat, explicit.c_hat)
        assert default.iterations == explicit.iterations

    def test_random_init_requires_rng(self, coupling):
        data, _ = make_data(1, 3, coupling, 1e-6, seed=18)
        with pytest.raises(ValueError):
            em_calibrate(data, EmSettings(init="random"))

    def test_random_init_converges(self, coupling):
        # unpenalized run: the global-scale direction is exactly invariant,
        # so the iteration settles instead of drifting along it
        data, c = make_data(2, 3, coupling, 1e-8, seed=19, ref=0)
        est = em_calibrate(data, EmSettings(init="random", epsilon=0.0), rng=np.random.default_rng(4))
        assert est.converged
        assert normalize(est.c_hat) == pytest.approx(c, abs=0.05)

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            EmSettings(epsilon=-0.1)
        with pytest.raises(ValueError):
            EmSettings(delta_ml=0.0)
        with pytest.raises(ValueError):
            EmSettings(max_iter=0)

    def test_unpenalized_runs_converge_reliably_at_moderate_snr(self, coupling):
        # robustness sweep: epsilon = 0 with the default init must converge
        # within the iteration budget in at least 99 of 100 trials
        from recical.frontend import deterministic_frontend
        from recical.geometry import draw_coupling

        geom = build_geometry(4, 25)
        fe = deterministic_frontend(100, 37)
        hbar = draw_coupling(geom, coupling, np.random.default_rng(31))
        converged = 0
        for t in range(100):
            rng = np.random.default_rng((55, t))
            h = draw_channel(geom, coupling, rng, coupling=hbar)
            data = sound(h, fe, 1e-4, rng)
            converged += em_calibrate(data, EmSettings(ref=37, epsilon=0.0)).converged
        assert converged >= 99


class TestAntennaRelabelling:
    @given(sounding_cases(), st.data())
    def test_estimates_follow_the_permutation(self, coupling, case, draws):
        # antenna perm[i] of the sounding is antenna i of the relabelled one
        data, ref = sounded(coupling, case)
        perm = np.array(draws.draw(st.permutations(range(data.n_antennas))))
        relabelled = SoundingData(data.matrix[np.ix_(perm, perm)], data.mask[np.ix_(perm, perm)], data.noise_var)
        new_index = np.argsort(perm)

        def moved(r):
            return None if r is None else int(new_index[r])

        pinned = 0 if ref is None else ref
        runs = [
            (lambda d, r: gmm_estimate(d, "ref-one", ref=r), pinned),
            (lambda d, r: gmm_estimate(d, "unit-norm", ref=r), ref),
            # a fixed number of EM steps: the threshold is out of reach
            (lambda d, r: em_calibrate(d, EmSettings(ref=r, max_iter=25, delta_ml=1e-300)), ref),
        ]
        for estimate, r in runs:
            expected = estimate(data, r).c_hat[perm]
            assert estimate(relabelled, moved(r)).c_hat == pytest.approx(expected, rel=1e-9)


class TestDerivedInputs:
    def test_one_connectivity_check_per_sounding(self, coupling, monkeypatch):
        calls = []

        def counting(pairs):
            calls.append(pairs)
            check_connected(pairs)

        monkeypatch.setattr(recical.sounding, "check_connected", counting)
        data, _ = make_data(2, 4, coupling, 1e-5, seed=25, ref=3)
        gmm_estimate(data, ref=3)
        em_calibrate(data, EmSettings(ref=3))
        assert len(calls) == 1

    def test_sounding_is_frozen(self, coupling):
        data, _ = make_data(1, 3, coupling, 1e-6, seed=26)
        with pytest.raises(dataclasses.FrozenInstanceError):
            data.matrix = np.zeros((3, 3), complex)


class TestLinearArrayMl:
    def test_noiseless_chain_recovers_truth(self, coupling):
        data, c = make_chain_data(6, coupling, 0.0, seed=20)
        est = linear_array_ml(data)
        assert est.c_hat == pytest.approx(normalize(c), abs=1e-12)

    def test_moment_conditions_hold_exactly(self, coupling):
        data, _ = make_chain_data(8, coupling, 1e-3, seed=21)
        est = linear_array_ml(data)
        y = data.matrix
        for l in range(7):
            g = y[l + 1, l] * est.c_hat[l + 1] - y[l, l + 1] * est.c_hat[l]
            scale = abs(y[l + 1, l] * est.c_hat[l + 1]) + abs(y[l, l + 1] * est.c_hat[l])
            assert abs(g) < 1e-12 * scale

    def test_agrees_with_unit_norm_gmm_up_to_scalar(self, coupling):
        data, _ = make_chain_data(10, coupling, 1e-3, seed=22)
        ml = linear_array_ml(data).c_hat
        gmm = gmm_estimate(data, constraint="unit-norm").c_hat
        assert normalize(gmm) == pytest.approx(ml, rel=1e-8)

    def test_full_mask_rejected(self, coupling):
        data, _ = make_data(1, 5, coupling, 1e-6, seed=23)
        with pytest.raises(ValueError):
            linear_array_ml(data)

    def test_zero_measurement_rejected(self, coupling):
        data, _ = make_chain_data(4, coupling, 0.0, seed=24)
        data.matrix[1, 0] = 0.0
        with pytest.raises(DegeneracyError):
            linear_array_ml(data)


class TestScoreMse:
    def test_exact_estimate_scores_zero(self):
        c = np.array([1.0, 2.0 + 1.0j, 0.5j])
        score = score_mse([c.copy()], c, 0)
        assert score.mse == pytest.approx(np.zeros(3), abs=1e-30)
        assert score.trials_used == 1

    def test_scalar_ambiguity_removed(self):
        c = np.array([1.0, 2.0 + 1.0j, 0.5j, -0.3 + 0.1j])
        score = score_mse([(0.8 - 2.2j) * c], c, 0)
        assert score.mse == pytest.approx(np.zeros(4), abs=1e-28)

    def test_single_perturbation(self):
        c = np.array([1.0 + 0.0j, 0.7 - 0.2j, 1.1 + 0.4j])
        perturbed = c.copy()
        delta = 0.05 - 0.02j
        perturbed[2] += delta
        score = score_mse([perturbed], c, 0)
        assert score.mse[2] == pytest.approx(abs(delta) ** 2)
        assert score.mse[0] == 0.0 and score.mse[1] == 0.0

    def test_zero_reference_excluded_and_counted(self):
        c = np.array([1.0 + 0.0j, 2.0 + 0.0j])
        good = c.copy()
        bad = np.array([0.0 + 0.0j, 1.0 + 0.0j])
        score = score_mse([good, bad], c, 0)
        assert score.trials_used == 1
        assert score.trials_excluded == 1
        with pytest.raises(DegeneracyError):
            score_mse([bad], c, 0)

    def test_empty_estimates_rejected(self):
        with pytest.raises(ValueError):
            score_mse([], np.ones(2, complex), 0)
