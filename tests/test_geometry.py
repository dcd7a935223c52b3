"""Tests for srptrack.geometry."""

import math

import numpy as np
import pytest

from srptrack.errors import DegenerateDirection
from srptrack.geometry import (
    SPEED_OF_SOUND,
    Doa,
    MicArray,
    SphericalGrid,
    angular_error,
    default_array,
    delay_table,
    doa_to_unit,
    grid_argmax,
    sphere_to_unit,
    unit_to_doa,
)

from oracles import (
    angular_errors_per_frame,
    delay_table_from_units,
    doa_to_unit_from_pair,
    grid_unit_vectors_broadcast,
)


class TestDoaToUnit:
    def test_pole(self):
        for phi in (-math.pi, 0.0, 1.3):
            np.testing.assert_allclose(doa_to_unit(Doa(0.0, phi)), [0, 0, 1], atol=1e-12)

    def test_equator_x(self):
        np.testing.assert_allclose(doa_to_unit(Doa(math.pi / 2, 0.0)), [1, 0, 0], atol=1e-12)

    def test_equator_y(self):
        np.testing.assert_allclose(doa_to_unit(Doa(math.pi / 2, math.pi / 2)), [0, 1, 0], atol=1e-12)

    def test_unit_norm_everywhere(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = Doa(rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi))
            assert np.linalg.norm(doa_to_unit(d)) == pytest.approx(1.0, abs=1e-12)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            Doa(-0.1, 0.0)
        with pytest.raises(ValueError):
            Doa(0.1, 4.0)


class TestSphereToUnit:
    def test_broadcasts_angle_arrays(self):
        thetas = np.linspace(0.0, math.pi, 5)
        phis = np.linspace(-math.pi, 3.0, 7)
        u = sphere_to_unit(thetas[:, None], phis[None, :])
        assert u.shape == (5, 7, 3)
        np.testing.assert_allclose(np.linalg.norm(u, axis=-1), 1.0, atol=1e-12)
        np.testing.assert_allclose(u[2, 3], doa_to_unit(Doa(thetas[2], phis[3])), atol=1e-15)

    def test_rows_match_scalar_formula(self):
        rng = np.random.default_rng(3)
        angles = np.stack([rng.uniform(0, math.pi, 500), rng.uniform(-math.pi, math.pi, 500)], axis=1)
        expected = np.array([doa_to_unit_from_pair(t, p) for t, p in angles])
        np.testing.assert_allclose(sphere_to_unit(angles[:, 0], angles[:, 1]), expected, rtol=0, atol=1e-15)


class TestUnitToDoa:
    def test_z_axis(self):
        d = unit_to_doa([0.0, 0.0, 2.0])
        assert d.theta == pytest.approx(0.0)
        assert d.phi == pytest.approx(0.0)

    def test_x_axis(self):
        d = unit_to_doa([1.0, 0.0, 0.0])
        assert d.theta == pytest.approx(math.pi / 2)
        assert d.phi == pytest.approx(0.0)

    def test_minus_y(self):
        d = unit_to_doa([0.0, -1.0, 0.0])
        assert d.theta == pytest.approx(math.pi / 2)
        assert d.phi == pytest.approx(-math.pi / 2)

    def test_round_trip_off_poles(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            d = Doa(rng.uniform(1e-3, math.pi - 1e-3), rng.uniform(-math.pi, math.pi))
            v = doa_to_unit(d)
            back = doa_to_unit(unit_to_doa(v * rng.uniform(0.5, 3.0)))
            np.testing.assert_allclose(back, v, atol=1e-9)

    def test_near_zero_rejected(self):
        with pytest.raises(DegenerateDirection):
            unit_to_doa([1e-10, 0.0, 0.0])


class TestAngularError:
    def test_identical(self):
        assert angular_error([1, 0, 0], [1, 0, 0]) == pytest.approx(0.0)

    def test_orthogonal(self):
        assert angular_error([1, 0, 0], [0, 1, 0]) == pytest.approx(math.pi / 2)

    def test_antipodal(self):
        assert angular_error([1, 0, 0], [-1, 0, 0]) == pytest.approx(math.pi)

    def test_symmetric_and_scale_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a = rng.normal(size=3)
            b = rng.normal(size=3)
            e = angular_error(a, b)
            assert e == pytest.approx(angular_error(b, a))
            assert e == pytest.approx(angular_error(3.7 * a, 0.01 * b), abs=1e-9)
            assert 0.0 <= e <= math.pi

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateDirection):
            angular_error([0, 0, 0], [1, 0, 0])

    def test_stacked_rows_match_per_frame_loop(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(300, 3)) * rng.uniform(0.01, 10.0, size=(300, 1))
        b = rng.normal(size=(300, 3))
        np.testing.assert_allclose(angular_error(a, b), angular_errors_per_frame(a, b), rtol=0, atol=1e-12)
        np.testing.assert_allclose(angular_error(a, b[0]), angular_errors_per_frame(a, np.tile(b[0], (300, 1))),
                                   rtol=0, atol=1e-12)

    def test_parallel_and_antipodal_rows_exact(self):
        b = np.random.default_rng(5).normal(size=(50, 3))
        np.testing.assert_allclose(angular_error(3.0 * b, b), 0.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(angular_error(-0.5 * b, b), math.pi, rtol=0, atol=1e-12)

    def test_stacked_zero_row_rejected(self):
        a = np.ones((4, 3))
        a[2] = 0.0
        with pytest.raises(DegenerateDirection):
            angular_error(a, np.ones((4, 3)))

    @pytest.mark.parametrize("bad", [[np.nan, 0.0, 1.0], [1.0, np.inf, 0.0]])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            angular_error(bad, [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            angular_error(np.array([[1.0, 0.0, 0.0], bad]), np.ones((2, 3)))

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            angular_error(np.ones((4, 2)), np.ones((4, 2)))


class TestSphericalGrid:
    def test_4x8_spacings(self):
        g = SphericalGrid(4, 8)
        np.testing.assert_allclose(np.diff(g.thetas), math.radians(60.0))
        np.testing.assert_allclose(np.diff(g.phis), math.radians(45.0))
        assert g.thetas[0] == 0.0
        assert g.thetas[-1] == pytest.approx(math.pi)
        assert g.phis[0] == pytest.approx(-math.pi)
        # periodic azimuth: +pi is not duplicated
        assert g.phis[-1] == pytest.approx(math.pi - math.pi / 4)

    def test_4x8_distinct_directions(self):
        assert SphericalGrid(4, 8).n_distinct_directions == 18

    def test_distinct_directions_match_unit_vectors(self):
        g = SphericalGrid(4, 8)
        u = g.unit_vectors().reshape(-1, 3)
        uniq = np.unique(np.round(u, 9), axis=0)
        assert len(uniq) == g.n_distinct_directions

    def test_unit_vectors_are_unit(self):
        g = SphericalGrid(16, 32)
        norms = np.linalg.norm(g.unit_vectors(), axis=-1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    @pytest.mark.parametrize("resolution", [(4, 8), (8, 16), (16, 32), (32, 64), (64, 128)])
    def test_unit_vectors_and_delay_table_match_broadcast_formula_bitwise(self, resolution):
        g = SphericalGrid(*resolution)
        u = grid_unit_vectors_broadcast(g.thetas, g.phis)
        np.testing.assert_array_equal(g.unit_vectors(), u)
        arr = default_array()
        np.testing.assert_array_equal(delay_table(arr, g).delays, delay_table_from_units(arr.positions, u))


class TestMicArray:
    def test_bundled_geometry(self):
        arr = default_array()
        assert arr.n_mics == 12
        assert arr.min_spacing * 100 == pytest.approx(1.3, abs=0.05)
        assert arr.aperture * 100 == pytest.approx(12.1, abs=0.05)

    def test_rejects_single_mic(self):
        with pytest.raises(ValueError):
            MicArray(positions=np.array([[0.0, 0.0, 0.0]]))

    def test_rejects_coincident(self):
        with pytest.raises(ValueError):
            MicArray(positions=np.zeros((2, 3)))

    def test_json_round_trip(self, tmp_path):
        arr = default_array()
        path = tmp_path / "arr.json"
        arr.to_json(path)
        back = MicArray.from_json(path)
        np.testing.assert_array_equal(back.positions, arr.positions)
        assert back.name == arr.name

    def test_pair_count(self):
        assert len(default_array().pairs()) == 66


class TestDelayTable:
    def test_two_mic_endfire(self):
        d = 0.1
        arr = MicArray(positions=np.array([[d / 2, 0, 0], [-d / 2, 0, 0]]), name="pair")
        g = SphericalGrid(3, 4)
        table = delay_table(arr, g)
        # source at theta=pi/2, phi=0 is grid point (1, 2)
        assert g.doa_at(1, 2).phi == pytest.approx(0.0)
        assert table.delays[0, 1, 1, 2] == pytest.approx(-d / SPEED_OF_SOUND)

    def test_broadside_zero(self):
        arr = MicArray(positions=np.array([[0.05, 0, 0], [-0.05, 0, 0]]), name="pair")
        g = SphericalGrid(3, 4)
        table = delay_table(arr, g)
        # phi = +pi/2 (grid j=3) is broadside to the x-axis baseline
        assert table.delays[0, 1, 1, 3] == pytest.approx(0.0, abs=1e-15)

    def test_antisymmetry(self):
        table = delay_table(default_array(), SphericalGrid(4, 8))
        np.testing.assert_array_equal(table.delays, -np.transpose(table.delays, (1, 0, 2, 3)))

    def test_diagonal_zero(self):
        table = delay_table(default_array(), SphericalGrid(4, 8))
        for n in range(12):
            np.testing.assert_array_equal(table.delays[n, n], 0.0)

    def test_bounded_by_aperture(self):
        arr = default_array()
        table = delay_table(arr, SphericalGrid(16, 32))
        assert np.max(np.abs(table.delays)) <= arr.aperture / SPEED_OF_SOUND + 1e-12


class TestGridArgmax:
    def test_single_peak(self):
        g = SphericalGrid(4, 8)
        m = np.zeros(g.shape)
        m[2, 5] = 1.0
        doa, idx = grid_argmax(m, g)
        assert idx == (2, 5)
        assert doa.theta == pytest.approx(g.thetas[2])
        assert doa.phi == pytest.approx(g.phis[5])

    def test_all_zero_tie_break(self):
        g = SphericalGrid(4, 8)
        doa, idx = grid_argmax(np.zeros(g.shape), g)
        assert idx == (0, 0)
        assert doa.theta == 0.0
        assert doa.phi == pytest.approx(-math.pi)

    def test_tie_breaks_row_major(self):
        g = SphericalGrid(4, 8)
        m = np.zeros(g.shape)
        m[1, 3] = 2.0
        m[2, 1] = 2.0
        _, idx = grid_argmax(m, g)
        assert idx == (1, 3)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            grid_argmax(np.zeros((3, 3)), SphericalGrid(4, 8))
