"""Fisher information and the calibration-coefficient variance bound."""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import (
    coefficient_jacobian_loop,
    crlb_bound_complex_solve,
    finite_difference_worst_error,
    measured_pairs,
    pair_global_slots,
    pair_information_blocks_einsum,
    random_crlb_instance,
    scatter_add_at,
)

from recical import crlb
from recical.crlb import (
    CrlbInputs,
    coefficient_jacobian,
    crlb_coefficients,
    fisher_information,
    pair_information_blocks,
    pair_statistics,
)
from recical.errors import IdentifiabilityError
from recical.estimators import REF_ONE, UNIT_NORM, EmSettings, em_calibrate, gmm_estimate, score_mse
from recical.frontend import FrontEnd, deterministic_frontend, random_frontend, true_coefficients
from recical.geometry import build_geometry, draw_channel, draw_coupling, full_mask, reduced_mask
from recical.sounding import sound


def unit_ref_frontend(tx, rx, ref):
    tx = np.asarray(tx, dtype=complex)
    rx = np.asarray(rx, dtype=complex)
    return FrontEnd(tx / tx[ref], rx / rx[ref], ref)


def crlb_instance(coupling, rows, cols, radius, ref, multipath, noise_var, seed):
    """Random front-end and coupling draw; ``radius`` None means the full mask."""
    geom = build_geometry(rows, cols)
    rng = np.random.default_rng(seed)
    fe = random_frontend(geom.n_antennas, ref, 0.3, rng)
    hbar = draw_coupling(geom, coupling, rng)
    mask = full_mask(geom.n_antennas) if radius is None else reduced_mask(geom, radius)
    return CrlbInputs(fe, hbar, coupling.sigma2 if multipath else 0.0, noise_var, mask)


def add_at_in_chunks(inputs):
    """The oracle FIM from the blocks of the chunks ``fisher_information`` takes.

    Blocks come from :func:`recical.crlb.pair_information_blocks`, called on
    the measured pairs :data:`recical.crlb.FIM_CHUNK_PAIRS` at a time, and
    are scattered by ``np.add.at`` to slots computed here.
    """
    n_idx, m_idx = measured_pairs(inputs)
    size = crlb.FIM_CHUNK_PAIRS
    blocks = np.concatenate(
        [
            pair_information_blocks(inputs, n_idx[start : start + size], m_idx[start : start + size])
            for start in range(0, n_idx.size, size)
        ]
    )
    return scatter_add_at(blocks, pair_global_slots(inputs), 4 * (inputs.frontend.n_antennas - 1))


@st.composite
def crlb_cases(draw):
    """Arguments of ``crlb_instance`` after the coupling model.

    The multipath variance is the coupling model's (-60 dB) or zero, and the
    noise level is on the -100 to -30 dB grid.
    """
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(2, 7))
    radius = draw(st.sampled_from([None, 0.5, 0.75, 1.5]))
    ref = draw(st.integers(0, rows * cols - 1))
    multipath = draw(st.booleans())
    noise_var = draw(st.sampled_from([1e-10, 1e-8, 1e-6, 1e-4, 1e-3]))
    seed = draw(st.integers(0, 2**32 - 1))
    return rows, cols, radius, ref, multipath, noise_var, seed


@st.composite
def block_cases(draw):
    """A random front-end and coupling draw for the closed-form block check.

    Full or radius masks, the reference at the first, middle or last antenna,
    a multipath variance of zero, -60 or -40 dB, and noise from -100 to -30 dB.
    """
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(2, 7))
    m = rows * cols
    radius = draw(st.sampled_from([None, 0.5, 0.75, 1.5]))
    ref = draw(st.sampled_from([0, m // 2, m - 1]))
    sigma2 = draw(st.sampled_from([0.0, 1e-6, 1e-4]))
    noise_var = 10.0 ** (draw(st.integers(-100, -30)) / 10.0)
    seed = draw(st.integers(0, 2**32 - 1))
    return rows, cols, radius, ref, sigma2, noise_var, seed


@st.composite
def disconnected_cases(draw):
    """A 1x2 to 3x7 array whose bidirectional pairs form two components.

    The antennas are split at random into two non-empty groups, each fully
    measured inside and never across; a random front-end, a multipath
    variance of zero, -60 or -40 dB, and noise from -100 to -30 dB.
    """
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(2, 7))
    m = rows * cols
    order = draw(st.permutations(range(m)))
    first = np.isin(np.arange(m), order[: draw(st.integers(1, m - 1))])
    mask = first[:, None] == first[None, :]
    np.fill_diagonal(mask, False)
    ref = draw(st.integers(0, m - 1))
    sigma2 = draw(st.sampled_from([0.0, 1e-6, 1e-4]))
    noise_var = 10.0 ** (draw(st.integers(-100, -30)) / 10.0)
    seed = draw(st.integers(0, 2**32 - 1))
    return rows, cols, mask, ref, sigma2, noise_var, seed


class TestPairStatistics:
    def setup_method(self):
        self.hbar = np.array([[np.nan, 0.07 + 0.02j], [0.07 + 0.02j, np.nan]])
        self.mask = full_mask(2)

    def test_zero_multipath_gives_white_covariance(self):
        fe = unit_ref_frontend([1.0, 0.8 + 0.1j], [1.0, 1.2 - 0.3j], 0)
        inputs = CrlbInputs(fe, self.hbar, 0.0, 1e-3, self.mask)
        _, cov = pair_statistics(inputs, 0, 1)
        assert cov == pytest.approx(1e-3 * np.eye(2))

    def test_unit_gains_structure(self):
        fe = unit_ref_frontend([1.0, 1.0], [1.0, 1.0], 0)
        inputs = CrlbInputs(fe, self.hbar, 2e-4, 1e-3, self.mask)
        mu, cov = pair_statistics(inputs, 0, 1)
        assert mu == pytest.approx(self.hbar[0, 1] * np.ones(2))
        assert cov == pytest.approx(2e-4 * np.ones((2, 2)) + 1e-3 * np.eye(2))

    def test_covariance_positive_definite_with_noise(self):
        fe = unit_ref_frontend([1.0, 0.5 + 0.9j], [1.0, 1.4 + 0.2j], 0)
        inputs = CrlbInputs(fe, self.hbar, 5e-3, 1e-4, self.mask)
        _, cov = pair_statistics(inputs, 0, 1)
        eigs = np.linalg.eigvalsh(cov)
        assert eigs.min() >= 1e-4 - 1e-15

    def test_same_antenna_rejected(self):
        fe = unit_ref_frontend([1.0, 1.0], [1.0, 1.0], 0)
        inputs = CrlbInputs(fe, self.hbar, 0.0, 1e-3, self.mask)
        with pytest.raises(ValueError):
            pair_statistics(inputs, 1, 1)


class TestFisherInformation:
    @pytest.mark.parametrize("seed", range(6))
    def test_derivatives_match_finite_differences(self, seed):
        inputs = random_crlb_instance(4, seed)
        M = 4
        worst = 0.0
        for n in range(M):
            for m in range(n + 1, M):
                worst = max(worst, finite_difference_worst_error(inputs, n, m))
        assert worst < 1e-5

    def test_symmetric_positive_semidefinite(self):
        inputs = random_crlb_instance(5, seed=11)
        fim = fisher_information(inputs)
        assert fim == pytest.approx(fim.T)
        eigs = np.linalg.eigvalsh(fim)
        assert eigs.min() >= -1e-8 * np.linalg.norm(fim)

    def test_doubling_noise_halves_information_without_multipath(self):
        base = random_crlb_instance(4, seed=3, sigma2=0.0, noise_var=1e-3)
        doubled = CrlbInputs(base.frontend, base.coupling_mean, 0.0, 2e-3, base.mask)
        assert fisher_information(doubled) == pytest.approx(0.5 * fisher_information(base))

    @given(block_cases())
    def test_closed_form_blocks_match_einsum(self, coupling, case):
        rows, cols, radius, ref, sigma2, noise_var, seed = case
        base = crlb_instance(coupling, rows, cols, radius, ref, False, noise_var, seed)
        inputs = CrlbInputs(base.frontend, base.coupling_mean, sigma2, noise_var, base.mask)
        blocks = pair_information_blocks(inputs, *measured_pairs(inputs))
        expected = pair_information_blocks_einsum(inputs)
        scale = np.abs(expected).max(axis=(1, 2))
        assert np.all(np.abs(blocks - expected).max(axis=(1, 2)) <= 1e-12 * scale)

    @given(crlb_cases(), st.sampled_from([1, 7, 64, crlb.FIM_CHUNK_PAIRS]))
    def test_bincount_scatter_matches_add_at(self, coupling, case, chunk):
        inputs = crlb_instance(coupling, *case)
        with mock.patch.object(crlb, "FIM_CHUNK_PAIRS", chunk):
            assert np.array_equal(fisher_information(inputs), add_at_in_chunks(inputs))

    @pytest.mark.parametrize("radius", [None, 1.5])
    @pytest.mark.parametrize("rows, cols", [(3, 7), (4, 25), (8, 25)])
    def test_bincount_scatter_matches_add_at_full_size(self, coupling, rows, cols, radius):
        m = rows * cols
        for ref, noise_var in ((0, 1e-10), (m // 2, 1e-6), (m - 1, 1e-3)):
            inputs = crlb_instance(coupling, rows, cols, radius, ref, True, noise_var, seed=ref)
            assert np.array_equal(fisher_information(inputs), add_at_in_chunks(inputs))

    @pytest.mark.parametrize("ref, chunk", [(0, 10), (10, 160), (18, 208), (20, 19)])
    def test_chunk_boundary_next_to_reference(self, coupling, ref, chunk):
        # on a full 3x7 array a boundary of chunks of this size splits a row
        # of pairs between two pairs, one of which has the reference antenna;
        # the sum may then move only by rounding
        inputs = crlb_instance(coupling, 3, 7, None, ref, True, 1e-8, seed=ref)
        n_idx, m_idx = measured_pairs(inputs)
        assert n_idx[chunk - 1] == n_idx[chunk]
        assert ref in (m_idx[chunk - 1], n_idx[chunk], m_idx[chunk])
        whole = fisher_information(inputs)
        with mock.patch.object(crlb, "FIM_CHUNK_PAIRS", chunk):
            chunked = fisher_information(inputs)
            assert np.array_equal(chunked, add_at_in_chunks(inputs))
        assert np.abs(chunked - whole).max() <= 1e-12 * np.abs(whole).max()

    def test_working_memory_is_the_matrix_and_one_chunk(self, coupling):
        # 8x25, full mask: 19,900 pairs into a 796 x 796 matrix of 5.1 MB
        inputs = crlb_instance(coupling, 8, 25, None, 88, True, 1e-8, seed=0)
        tracemalloc.start()
        try:
            fim = fisher_information(inputs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fim.flags.f_contiguous
        assert peak <= 3 * fim.nbytes

    def test_zero_noise_rejected(self):
        inputs = random_crlb_instance(3, seed=4, sigma2=1e-4, noise_var=0.0)
        with pytest.raises(ValueError):
            fisher_information(inputs)

    def test_unrepresentable_noise_rejected(self, coupling):
        # at 3000 dB det S = n0 (n0 + sigma2 |v|^2) overflows; the error must
        # name the noise, not the mask, which is full and connected here
        geom = build_geometry(4, 25)
        hbar = draw_coupling(geom, coupling, np.random.default_rng(0))
        inputs = CrlbInputs(deterministic_frontend(100, 37), hbar, coupling.sigma2, 1e300, full_mask(100))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="too large for the Fisher information to be represented") as info:
                crlb_coefficients(inputs)
        assert not isinstance(info.value, IdentifiabilityError)

    def test_unnormalized_reference_rejected(self):
        fe = FrontEnd(np.array([2.0 + 0j, 1.0]), np.array([1.0 + 0j, 1.0]), 0)
        with pytest.raises(ValueError):
            CrlbInputs(fe, np.ones((2, 2), complex), 0.0, 1e-3, full_mask(2))


class TestCrlbCoefficients:
    @pytest.mark.parametrize("rows, cols, ref", [(2, 5, 3), (8, 25, 0), (8, 25, 88), (8, 25, 199)])
    def test_jacobian_matches_per_antenna_loop(self, rows, cols, ref):
        fe = random_frontend(rows * cols, ref, 0.3, np.random.default_rng(ref))
        assert np.array_equal(coefficient_jacobian(fe), coefficient_jacobian_loop(fe))

    def test_bound_positive_and_ref_undefined(self):
        inputs = random_crlb_instance(5, seed=7)
        report = crlb_coefficients(inputs)
        ref = inputs.frontend.ref
        others = np.arange(5) != ref
        assert np.all(report.bound[others] > 0)
        assert np.isnan(report.bound[ref])
        assert report.fim_condition >= 1.0

    @given(crlb_cases())
    def test_real_solve_matches_complex_solve(self, coupling, case):
        inputs = crlb_instance(coupling, *case)
        bound = crlb_coefficients(inputs).bound
        expected = crlb_bound_complex_solve(inputs)
        ref = inputs.frontend.ref
        assert np.isnan(bound[ref])
        others = np.arange(inputs.frontend.n_antennas) != ref
        assert bound[others] == pytest.approx(expected[others], rel=1e-10)

    @given(crlb_cases())
    def test_condition_is_two_norm_condition(self, coupling, case):
        inputs = crlb_instance(coupling, *case)
        report = crlb_coefficients(inputs)
        expected = np.linalg.cond(fisher_information(inputs))
        assert report.fim_condition == pytest.approx(expected, rel=1e-9)

    def test_invariant_to_coupling_phases(self, coupling):
        geom = build_geometry(2, 4)
        fe = deterministic_frontend(8, 3)
        mask = full_mask(8)
        h1 = draw_coupling(geom, coupling, np.random.default_rng(0))
        h2 = draw_coupling(geom, coupling, np.random.default_rng(99))
        r1 = crlb_coefficients(CrlbInputs(fe, h1, coupling.sigma2, 1e-6, mask))
        r2 = crlb_coefficients(CrlbInputs(fe, h2, coupling.sigma2, 1e-6, mask))
        others = np.arange(8) != 3
        assert r1.bound[others] == pytest.approx(r2.bound[others], rel=1e-10)

    def test_more_measurements_never_hurt(self, coupling):
        geom = build_geometry(3, 5)
        fe = deterministic_frontend(15, 7)
        hbar = draw_coupling(geom, coupling, np.random.default_rng(1))
        full = crlb_coefficients(CrlbInputs(fe, hbar, coupling.sigma2, 1e-7, full_mask(15))).bound
        reduced = crlb_coefficients(
            CrlbInputs(fe, hbar, coupling.sigma2, 1e-7, reduced_mask(geom, 1 / np.sqrt(2)))
        ).bound
        others = np.arange(15) != 7
        assert np.all(full[others] <= reduced[others] + 1e-10)

    def test_disconnected_measurements_not_identifiable(self):
        # two isolated pairs with no multipath: the per-pair means cannot pin
        # eight real parameters, so the information matrix is singular
        fe = unit_ref_frontend(np.ones(4), np.ones(4), 0)
        hbar = np.zeros((4, 4), complex)
        hbar[0, 1] = hbar[1, 0] = 0.1
        hbar[2, 3] = hbar[3, 2] = 0.1
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 1] = mask[1, 0] = True
        mask[2, 3] = mask[3, 2] = True
        inputs = CrlbInputs(fe, hbar, 0.0, 1e-4, mask)
        with pytest.raises(IdentifiabilityError):
            crlb_coefficients(inputs)

    def test_em_variance_reaches_bound_at_high_snr(self, coupling):
        # estimator-vs-bound oracle on the full-size array at low noise
        geom = build_geometry(4, 25)
        fe = deterministic_frontend(100, 37)
        c = true_coefficients(fe)
        hbar = draw_coupling(geom, coupling, np.random.default_rng(8))
        n0 = 1e-8
        estimates = []
        for t in range(200):
            rng = np.random.default_rng((15, t))
            h = draw_channel(geom, coupling, rng, coupling=hbar)
            data = sound(h, fe, n0, rng)
            estimates.append(em_calibrate(data, EmSettings(ref=37)).c_hat)
        score = score_mse(estimates, c, 37)
        bound = crlb_coefficients(CrlbInputs(fe, hbar, coupling.sigma2, n0, full_mask(100))).bound
        for antenna in (0, 38):
            gap_db = 10 * np.log10(score.mse[antenna] / bound[antenna])
            assert abs(gap_db) < 1.0


class TestDisconnectedMask:
    @given(disconnected_cases())
    def test_estimators_and_bound_all_reject_it(self, coupling, case):
        # no estimator can relate the two components, and the bound must not
        # return numbers for the component without the reference either
        rows, cols, mask, ref, sigma2, noise_var, seed = case
        geom = build_geometry(rows, cols)
        rng = np.random.default_rng(seed)
        fe = random_frontend(geom.n_antennas, ref, 0.3, rng)
        hbar = draw_coupling(geom, coupling, rng)
        data = sound(draw_channel(geom, coupling, rng, coupling=hbar), fe, noise_var, rng, mask=mask)
        for constraint in (REF_ONE, UNIT_NORM):
            with pytest.raises(IdentifiabilityError):
                gmm_estimate(data, constraint, ref=ref)
        with pytest.raises(IdentifiabilityError):
            em_calibrate(data, EmSettings(ref=ref))
        with pytest.raises(IdentifiabilityError):
            crlb_coefficients(CrlbInputs(fe, hbar, sigma2, noise_var, mask))
