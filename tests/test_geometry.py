"""Array geometry, coupling model, and channel synthesis."""

import numpy as np
import pytest

from recical.geometry import (
    CouplingModel,
    _pair_geometry,
    build_geometry,
    coupling_gain_db,
    coupling_magnitudes,
    draw_channel,
    draw_coupling,
    full_mask,
    reduced_mask,
)


class TestBuildGeometry:
    def test_row_major_index_map(self):
        geom = build_geometry(4, 25, 0.5)
        assert geom.n_antennas == 100
        # antenna cols * r + c sits at spacing * (c, r); antenna 37 is in the
        # second row, thirteenth column (zero-based 1, 12)
        for m, (r, c) in ((37, (1, 12)), (0, (0, 0)), (99, (3, 24))):
            assert tuple(geom.positions[m]) == (0.5 * c, 0.5 * r)

    def test_index_map_is_bijective(self):
        geom = build_geometry(4, 25, 0.5)
        expected = [(0.5 * c, 0.5 * r) for r in range(4) for c in range(25)]
        assert [tuple(p) for p in geom.positions] == expected

    def test_adjacent_pair(self):
        dist, co = _pair_geometry(build_geometry(1, 2, 0.5))
        assert dist[0, 1] == pytest.approx(0.5)
        assert not co[0, 1]

    def test_diagonal_pair_same_polarization(self):
        dist, co = _pair_geometry(build_geometry(2, 2, 0.5))
        assert dist[0, 3] == pytest.approx(0.5 * np.sqrt(2))
        assert co[0, 3]

    def test_positions_distinct(self):
        geom = build_geometry(3, 7)
        assert len({tuple(p) for p in geom.positions}) == 21

    @pytest.mark.parametrize("rows,cols,spacing", [(0, 5, 0.5), (5, 0, 0.5), (2, 2, 0.0), (2, 2, -1.0)])
    def test_bad_dimensions_rejected(self, rows, cols, spacing):
        with pytest.raises(ValueError):
            build_geometry(rows, cols, spacing)


class TestPairDistancePolarization:
    def setup_method(self):
        self.dist, self.co = _pair_geometry(build_geometry(4, 25, 0.5))

    def test_neighbors_along_row(self):
        assert (self.dist[0, 1], self.co[0, 1]) == (pytest.approx(0.5), False)
        assert (self.dist[0, 2], self.co[0, 2]) == (pytest.approx(1.0), True)

    def test_diagonal_neighbor(self):
        assert self.dist[0, 26] == pytest.approx(np.hypot(0.5, 0.5))
        assert self.co[0, 26]


class TestCouplingGain:
    def test_linear_evaluation(self):
        model = CouplingModel(-10.0, -20.0, -10.0, -25.0, 0.0)
        assert coupling_gain_db(model, 1.0, "co") == pytest.approx(-30.0)
        assert coupling_gain_db(model, 0.5, "co") == pytest.approx(-25.0)

    def test_cross_weaker_when_intercept_lower(self):
        model = CouplingModel(-10.0, -20.0, -10.0, -25.0, 0.0)
        assert coupling_gain_db(model, 0.8, "cross") < coupling_gain_db(model, 0.8, "co")

    def test_nonpositive_distance_rejected(self):
        model = CouplingModel(-10.0, -20.0, -10.0, -25.0, 0.0)
        with pytest.raises(ValueError):
            coupling_gain_db(model, 0.0, "co")

    def test_unknown_polarization_rejected(self):
        model = CouplingModel(-10.0, -20.0, -10.0, -25.0, 0.0)
        with pytest.raises(ValueError):
            coupling_gain_db(model, 1.0, "circular")

    def test_negative_sigma2_rejected(self):
        with pytest.raises(ValueError):
            CouplingModel(-10.0, -20.0, -10.0, -25.0, -1e-9)

    @pytest.mark.parametrize("rows, cols, spacing", [(2, 3, 0.5), (3, 4, 0.25)])
    def test_magnitudes_match_pairwise_gain(self, rows, cols, spacing):
        model = CouplingModel(-10.0, -12.0, -11.0, -15.0, 0.0)
        geom = build_geometry(rows, cols, spacing)
        M = geom.n_antennas
        gain_db = np.full((M, M), np.nan)
        pols = set()
        for m in range(M):
            for n in range(M):
                if m != n:
                    dist = float(np.linalg.norm(geom.positions[m] - geom.positions[n]))
                    pol = "co" if geom.polarization[m] == geom.polarization[n] else "cross"
                    gain_db[m, n] = coupling_gain_db(model, dist, pol)
                    pols.add(pol)
        assert pols == {"co", "cross"}
        # raised to linear scale as one array, like coupling_magnitudes: numpy's
        # vectorised power can differ from the scalar one in the last ulp
        assert np.array_equal(coupling_magnitudes(geom, model), 10 ** (gain_db / 20), equal_nan=True)


class TestDrawChannel:
    @pytest.mark.parametrize("seed", [0, 1, 2, 99, 2**31])
    def test_exact_symmetry_every_seed(self, coupling, seed):
        geom = build_geometry(3, 5)
        h = draw_channel(geom, coupling, np.random.default_rng(seed))
        off = ~np.eye(15, dtype=bool)
        assert np.array_equal(h[off], h.T[off])

    def test_diagonal_is_nan_sentinel(self, coupling, rng):
        h = draw_channel(build_geometry(2, 3), coupling, rng)
        assert np.all(np.isnan(np.diag(h).real))

    def test_zero_sigma2_magnitude_deterministic(self):
        model = CouplingModel(-10.0, -12.0, -10.0, -15.0, 0.0)
        geom = build_geometry(2, 4)
        h1 = draw_channel(geom, model, np.random.default_rng(0))
        h2 = draw_channel(geom, model, np.random.default_rng(1))
        expected = coupling_magnitudes(geom, model)
        off = ~np.eye(8, dtype=bool)
        assert np.abs(h1)[off] == pytest.approx(expected[off], rel=1e-12)
        # different seeds change only the phases
        assert np.abs(h1)[off] == pytest.approx(np.abs(h2)[off], rel=1e-12)
        assert not np.allclose(np.angle(h1)[off], np.angle(h2)[off])

    def test_diffuse_variance_matches_sigma2(self, coupling):
        # sample-variance oracle over > 1e5 independent pair draws
        geom = build_geometry(5, 10)
        base = draw_coupling(geom, coupling, np.random.default_rng(7))
        off = ~np.eye(50, dtype=bool)
        samples = []
        for seed in range(90):
            h = draw_channel(geom, coupling, np.random.default_rng((11, seed)), coupling=base)
            diff = (h - base)[np.triu_indices(50, k=1)]
            samples.append(diff)
        samples = np.concatenate(samples)
        assert samples.size > 1e5
        var = np.mean(np.abs(samples) ** 2)
        assert var == pytest.approx(coupling.sigma2, rel=0.05)

    def test_fixed_coupling_reused(self, coupling, rng):
        geom = build_geometry(2, 3)
        base = draw_coupling(geom, coupling, rng)
        model0 = CouplingModel(-10.0, -12.0, -10.0, -15.0, 0.0)
        h = draw_channel(geom, model0, rng, coupling=base)
        off = ~np.eye(6, dtype=bool)
        assert h[off] == pytest.approx(base[off])


class TestReducedMask:
    def setup_method(self):
        self.geom = build_geometry(4, 25, 0.5)

    def test_interior_antennas_have_eight_partners(self):
        mask = reduced_mask(self.geom, 1 / np.sqrt(2))
        counts = mask.sum(axis=1)
        interior = [25 * r + c for r in (1, 2) for c in range(1, 24)]
        assert np.all(counts[interior] == 8)
        assert mask.sum() < 8 * 100

    def test_small_radius_keeps_grid_neighbors_only(self):
        mask = reduced_mask(self.geom, 0.5)
        # antenna 25 * r + c sits at row r, column c of the 4x25 grid
        partners = set(np.nonzero(mask[25 * 2 + 10])[0])
        assert partners == {25 * 1 + 10, 25 * 3 + 10, 25 * 2 + 9, 25 * 2 + 11}

    def test_infinite_radius_is_full_mask(self):
        mask = reduced_mask(self.geom, np.inf)
        assert mask.sum() == 100 * 99
        assert np.array_equal(mask, full_mask(100))

    def test_monotone_in_radius(self):
        small = reduced_mask(self.geom, 0.5)
        large = reduced_mask(self.geom, 1.1)
        assert np.all(large[small])

    def test_symmetric_relation(self):
        mask = reduced_mask(self.geom, 0.9)
        assert np.array_equal(mask, mask.T)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            reduced_mask(self.geom, 0.0)
