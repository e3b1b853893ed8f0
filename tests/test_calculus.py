"""Spectral and finite-difference complex Hessians on broadcast grids."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qposlab import (
    HermitianFormField,
    ModelError,
    NumericsError,
    PotentialField,
    TorusModel,
    complex_hessian,
    fd_complex_hessian,
    intersection_number,
)
from qposlab.calculus import hermitian_det, poisson_solve

PI2 = np.pi**2


def cosine_field(torus, axis=0, amplitude=1.0):
    x = torus.real_coordinates()[axis]
    return PotentialField(torus, amplitude * np.cos(2 * np.pi * x))


class TestPotentialField:
    def test_mean_and_normalize(self):
        t = TorusModel(1, 16)
        phi = cosine_field(t) + 3.0
        assert phi.mean() == pytest.approx(3.0, abs=1e-14)
        assert PotentialField(t, phi.values - phi.mean(), mean_zero=True).mean_zero

    def test_mean_zero_flag_enforced(self):
        t = TorusModel(1, 16)
        with pytest.raises(ModelError):
            PotentialField(t, np.full((1, 1), 2.0), mean_zero=True)

    def test_broadcast_shape_validation(self):
        t = TorusModel(1, 16)
        with pytest.raises(ModelError):
            PotentialField(t, np.zeros((3, 16)))
        with pytest.raises(ModelError):
            PotentialField(t, np.zeros(16))

    def test_torus_mismatch_in_algebra(self):
        a = cosine_field(TorusModel(1, 16))
        b = cosine_field(TorusModel(1, 32))
        with pytest.raises(ModelError):
            a + b


class TestHermitianFormField:
    def test_rejects_non_hermitian_field(self):
        t = TorusModel(2, 16)
        vals = np.zeros((1, 1, 1, 1, 2, 2), dtype=complex)
        vals[..., 0, 1] = 1.0
        with pytest.raises(ModelError):
            HermitianFormField(t, vals)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_entries(self, bad):
        vals = np.broadcast_to(np.eye(2, dtype=complex), (1, 1, 1, 16, 2, 2)).copy()
        vals[..., 3, 0, 0] = bad
        with pytest.raises(ModelError, match="finite"):
            HermitianFormField(TorusModel(2, 16), vals)

    def test_planes_and_values(self):
        t = TorusModel(2, 16)
        m = np.array([[2.0, 1.0 - 0.5j], [1.0 + 0.5j, 3.0]])
        f = HermitianFormField.from_constant(t, m)
        assert f.diag.shape == (2, 1, 1, 1, 1) and f.upper.shape == (1, 1, 1, 1, 1)
        assert f.diag.flags.c_contiguous and f.upper.flags.c_contiguous
        assert np.array_equal(f.diag[:, 0, 0, 0, 0], [2.0, 3.0]) and f.upper[0, 0, 0, 0, 0] == 1.0 - 0.5j
        assert np.array_equal(f.values[0, 0, 0, 0], m)

    def test_det_matches_numpy(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            shape = (32,) + (1,) * (2 * n - 1) + (n, n)
            z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            m = z + z.conj().swapaxes(-1, -2)
            form = HermitianFormField(TorusModel(n, 32), m)
            got = hermitian_det(form.diag, form.upper)
            expect = np.linalg.det(m).real
            assert np.max(np.abs(got - expect)) < 1e-10 * max(1.0, np.max(np.abs(expect)))

    def test_top_density_matches_intersection_number(self):
        t = TorusModel(2, 16)
        f = HermitianFormField.from_constant(t, np.eye(2))
        # the top wedge's density n! 2^n det against Lebesgue measure on [0,1)^4
        assert float(8.0 * hermitian_det(f.diag, f.upper)[0, 0, 0, 0]) == intersection_number([np.eye(2)] * 2)


class TestSpectralHessian:
    def test_cosine_diagonal_entry(self):
        t = TorusModel(1, 32)
        x = t.real_coordinates()[0]
        hess = complex_hessian(cosine_field(t))
        expect = -PI2 * np.cos(2 * np.pi * x)
        assert np.max(np.abs(hess.values[..., 0, 0] - expect)) < 1e-12 * PI2

    def test_constant_axes_differentiate_to_exact_zero(self):
        t = TorusModel(2, 16)
        hess = complex_hessian(cosine_field(t, axis=0))  # stored (16,1,1,1)
        assert np.all(hess.values[..., 1, 1] == 0.0)
        assert np.all(hess.values[..., 0, 1] == 0.0)

    def test_mixed_entry_analytic(self):
        # phi = cos(2 pi (x1 - y2)): H11 = H22 = -pi^2 cos, H12 = i pi^2 cos
        t = TorusModel(2, 16)
        xs = t.real_coordinates()
        u = xs[0] - xs[3]
        phi = PotentialField(t, np.cos(2 * np.pi * u))
        hess = complex_hessian(phi)
        c = np.cos(2 * np.pi * u)
        assert np.max(np.abs(hess.values[..., 0, 0] + PI2 * c)) < 1e-10
        assert np.max(np.abs(hess.values[..., 1, 1] + PI2 * c)) < 1e-10
        assert np.max(np.abs(hess.values[..., 0, 1] - 1j * PI2 * c)) < 1e-10
        assert np.max(np.abs(hess.values[..., 1, 0] + 1j * PI2 * c)) < 1e-10

    def test_reduced_storage_agrees_with_full_grid(self):
        t = TorusModel(2, 16)
        x = t.real_coordinates()[0]
        reduced = complex_hessian(PotentialField(t, np.sin(2 * np.pi * x)))
        full = complex_hessian(
            PotentialField(t, np.broadcast_to(np.sin(2 * np.pi * x), t.shape).copy())
        )
        diff = np.abs(np.broadcast_to(reduced.values, full.values.shape) - full.values)
        assert np.max(diff) < 1e-12

    def test_rejects_nonfinite(self):
        t = TorusModel(1, 16)
        bad = np.zeros((16, 16))
        bad[0, 0] = np.inf
        with pytest.raises(NumericsError):
            complex_hessian(PotentialField(t, bad))

    def test_bytes_per_point(self):
        # A full-grid n = 2 Hessian at grid 16 (65,536 points): the planes
        # hold 32 B per point (two real diagonal planes, one complex upper
        # plane) and the transforms' temporaries peak at 61.1 B per point
        # above them, measured with numpy 2.4 (a (..., 2, 2) complex field
        # alone is 64 B per point).
        t = TorusModel(2, 16)
        phi = PotentialField(t, np.random.default_rng(16).normal(size=t.shape))
        points = phi.values.size
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            form = complex_hessian(phi)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (held - base) / points < 33
        assert (peak - base) / points < 64
        assert form.diag.nbytes + form.upper.nbytes == 32 * points


class TestFiniteDifferenceHessian:
    def test_order_validation(self):
        t = TorusModel(1, 16)
        with pytest.raises(ModelError):
            fd_complex_hessian(cosine_field(t), order=3)

    def test_convergence_order(self):
        errs = {}
        for order in (2, 4):
            t = TorusModel(1, 64)
            phi = cosine_field(t)
            fd = fd_complex_hessian(phi, order=order)
            sp = complex_hessian(phi)
            errs[order] = float(np.max(np.abs(fd.values - sp.values)))
        assert errs[4] < 1e-3 < errs[2] < 1e-1
        assert errs[4] < errs[2] / 100

    def test_mixed_entries_match_spectral(self):
        t = TorusModel(2, 32)
        xs = t.real_coordinates()
        phi = PotentialField(t, np.cos(2 * np.pi * (xs[0] - xs[3])))
        fd = fd_complex_hessian(phi, order=4)
        sp = complex_hessian(phi)
        assert np.max(np.abs(fd.values - sp.values)) < 2e-3

    def test_halving_the_mesh_divides_the_error(self):
        def err(grid):
            t = TorusModel(1, grid)
            phi = cosine_field(t)
            return float(
                np.max(np.abs(fd_complex_hessian(phi, order=2).values - complex_hessian(phi).values))
            )

        assert err(128) < 0.3 * err(64)  # second order: factor ~4 per halving

    def test_constant_axes_zero(self):
        t = TorusModel(2, 16)
        fd = fd_complex_hessian(cosine_field(t, axis=0), order=2)
        assert np.all(fd.values[..., 1, 1] == 0.0)

    def test_spike_hessian_value(self):
        # positive spike of height 1/64 at the origin: its fourth-order
        # Hessian at the origin is exactly -5 (all-dyadic stencil arithmetic)
        t = TorusModel(1, 16)
        vals = np.zeros((16, 16))
        vals[0, 0] = 1.0 / 64.0
        h = fd_complex_hessian(PotentialField(t, vals), order=4).values[0, 0, 0, 0]
        assert h.real == -5.0


class TestPoisson:
    def test_recovers_cosine(self):
        t = TorusModel(1, 32)
        x = t.real_coordinates()[0]
        rhs = -PI2 * np.cos(2 * np.pi * x)
        phi = poisson_solve(t, np.broadcast_to(rhs, (32, 32)))
        assert np.max(np.abs(phi - np.cos(2 * np.pi * x))) < 1e-12

    def test_mean_zero_output(self):
        t = TorusModel(1, 16)
        rng = np.random.default_rng(0)
        rhs = rng.normal(size=(16, 16))
        phi = poisson_solve(t, rhs)
        assert abs(float(np.mean(phi))) < 1e-13

    def test_roundtrip_through_hessian(self):
        t = TorusModel(1, 32)
        x, y = t.real_coordinates()
        rhs = np.cos(2 * np.pi * x) * np.sin(4 * np.pi * y)
        phi = poisson_solve(t, rhs)
        lap = complex_hessian(PotentialField(t, phi)).values[..., 0, 0].real
        target = rhs - np.mean(rhs)
        assert np.max(np.abs(lap - target)) < 1e-11

    def test_rejects_higher_dimension(self):
        with pytest.raises(ModelError):
            poisson_solve(TorusModel(2, 16), np.zeros((1, 1, 1, 1)))


class TestHessianLinearity:
    @settings(max_examples=25, deadline=None)
    @given(st.floats(-2, 2), st.floats(-2, 2))
    def test_linearity(self, a, b):
        t = TorusModel(1, 16)
        x, y = t.real_coordinates()
        f = PotentialField(t, np.cos(2 * np.pi * x))
        g = PotentialField(t, np.sin(2 * np.pi * y))
        lhs = complex_hessian(PotentialField(t, a * f.values + b * g.values)).values
        rhs = a * complex_hessian(f).values + b * complex_hessian(g).values
        assert np.max(np.abs(lhs - rhs)) < 1e-11 * (1 + abs(a) + abs(b))
