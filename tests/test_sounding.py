"""Pairwise sounding measurements and the equivalent channel."""

import numpy as np
import pytest

from recical.frontend import FrontEnd, random_frontend, true_coefficients
from recical.geometry import build_geometry, draw_channel, full_mask, reduced_mask
from recical.sounding import equivalent_channel, sound


def identity_frontend(n):
    return FrontEnd(np.ones(n, complex), np.ones(n, complex), 0)


class TestSound:
    def test_identity_frontend_noiseless_reproduces_channel(self, coupling, rng):
        geom = build_geometry(2, 4)
        h = draw_channel(geom, coupling, rng)
        data = sound(h, identity_frontend(8), 0.0, rng)
        off = data.mask
        assert np.array_equal(data.matrix[off], h[off])
        # symmetric because the channel is and the front-end is reciprocal
        assert data.matrix[off] == pytest.approx(data.matrix.T[off])

    def test_noiseless_moment_identity(self, coupling, rng):
        geom = build_geometry(3, 4)
        h = draw_channel(geom, coupling, rng)
        fe = random_frontend(12, 0, 0.2, rng)
        c = true_coefficients(fe)
        data = sound(h, fe, 0.0, rng)
        y = data.matrix
        n_idx, m_idx = np.nonzero(data.mask & data.mask.T)
        lhs = y[n_idx, m_idx] * c[n_idx]
        rhs = y[m_idx, n_idx] * c[m_idx]
        assert lhs == pytest.approx(rhs)

    def test_noiseless_factorization_through_equivalent_channel(self, coupling, rng):
        geom = build_geometry(2, 5)
        h = draw_channel(geom, coupling, rng)
        fe = random_frontend(10, 2, 0.3, rng)
        c = true_coefficients(fe)
        data = sound(h, fe, 0.0, rng)
        psi = equivalent_channel(h, fe)
        off = data.mask
        assert data.matrix[off] == pytest.approx((psi * c[None, :])[off])

    def test_noise_variance_oracle(self, coupling):
        geom = build_geometry(5, 10)
        rng = np.random.default_rng(5)
        h = draw_channel(geom, coupling, rng)
        fe = random_frontend(50, 0, 0.1, rng)
        clean = fe.rx[:, None] * h * fe.tx[None, :]
        n0 = 1e-4
        samples = []
        for seed in range(50):
            data = sound(h, fe, n0, np.random.default_rng((3, seed)))
            off = data.mask
            samples.append((data.matrix - clean)[off])
        samples = np.concatenate(samples)
        assert samples.size > 1e5
        assert np.mean(np.abs(samples) ** 2) == pytest.approx(n0, rel=0.05)

    def test_noise_independent_across_ordered_pairs(self, coupling):
        geom = build_geometry(1, 2)
        h = draw_channel(geom, coupling, np.random.default_rng(0))
        fe = identity_frontend(2)
        a, b = [], []
        for seed in range(4000):
            data = sound(h, fe, 1e-2, np.random.default_rng((9, seed)))
            a.append(data.matrix[0, 1] - h[0, 1])
            b.append(data.matrix[1, 0] - h[1, 0])
        a, b = np.asarray(a), np.asarray(b)
        corr = np.abs(np.mean(a * np.conj(b))) / np.sqrt(np.mean(np.abs(a) ** 2) * np.mean(np.abs(b) ** 2))
        assert corr < 0.05

    def test_unmeasured_entries_are_nan(self, coupling, rng):
        geom = build_geometry(4, 5)
        h = draw_channel(geom, coupling, rng)
        mask = reduced_mask(geom, 0.5)
        data = sound(h, identity_frontend(20), 1e-6, rng, mask=mask)
        assert np.all(np.isnan(data.matrix[~mask].real))
        assert np.all(np.isfinite(data.matrix[mask]))

    def test_negative_noise_rejected(self, coupling, rng):
        geom = build_geometry(1, 2)
        h = draw_channel(geom, coupling, rng)
        with pytest.raises(ValueError):
            sound(h, identity_frontend(2), -1e-9, rng)

    def test_mask_with_diagonal_rejected(self, coupling, rng):
        geom = build_geometry(1, 3)
        h = draw_channel(geom, coupling, rng)
        bad = np.ones((3, 3), dtype=bool)
        with pytest.raises(ValueError):
            sound(h, identity_frontend(3), 0.0, rng, mask=bad)


class TestEquivalentChannel:
    def test_identity_receive_gains_give_channel(self, coupling, rng):
        geom = build_geometry(2, 3)
        h = draw_channel(geom, coupling, rng)
        fe = FrontEnd(np.full(6, 2.0 + 1.0j), np.ones(6, complex), 0)
        psi = equivalent_channel(h, fe)
        off = ~np.eye(6, dtype=bool)
        assert psi[off] == pytest.approx(h[off])

    def test_symmetry(self, coupling, rng):
        geom = build_geometry(3, 3)
        h = draw_channel(geom, coupling, rng)
        fe = random_frontend(9, 4, 0.2, rng)
        psi = equivalent_channel(h, fe)
        off = ~np.eye(9, dtype=bool)
        assert psi[off] == pytest.approx(psi.T[off])
