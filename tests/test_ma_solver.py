"""Damped-Newton Monge-Ampere solver: exact n=1 path, manufactured n=2 problems."""

import numpy as np
import pytest

from qposlab import (
    ConstantHermitianClass,
    MAProblem,
    ModelError,
    NonConvergence,
    PotentialField,
    TorusModel,
    compatibility_check,
    complex_hessian,
    form_top_density,
    HermitianFormField,
    ma_for_dk,
    solve_ma,
)
from qposlab.calculus import poisson_solve
from qposlab.ma_solver import _NewtonOperator, _pcg

H_EXAMPLE = np.diag([2.0, -1.0])


def manufactured_problem(torus, amplitude, tol=1e-11):
    """Exact discrete solution by construction: target density of I + Hess(phi*)."""
    xs = torus.real_coordinates()
    phi_star = amplitude * (np.cos(2 * np.pi * xs[0]) + 0.7 * np.sin(2 * np.pi * xs[3]))
    evolved = HermitianFormField.from_constant(torus, np.eye(2)) + complex_hessian(
        PotentialField(torus, phi_star)
    )
    density = form_top_density(evolved)
    assert np.min(density) > 0
    problem = MAProblem(
        torus=torus,
        background=ConstantHermitianClass(np.eye(2)),
        target_density=density,
        tol=tol,
    )
    return compatibility_check(problem), phi_star


class TestProblemValidation:
    def test_density_axis_count(self):
        with pytest.raises(ModelError):
            MAProblem(TorusModel(2, 16), ConstantHermitianClass(np.eye(2)), np.ones((16, 16)))

    def test_dimension_mismatch(self):
        with pytest.raises(ModelError):
            MAProblem(TorusModel(1, 16), ConstantHermitianClass(np.eye(2)), np.array(8.0))

    def test_tolerance_positive(self):
        with pytest.raises(ModelError):
            MAProblem(TorusModel(1, 16), ConstantHermitianClass(np.eye(1)), np.array(2.0), tol=0.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
    def test_tolerance_finite(self, tol):
        with pytest.raises(ModelError, match="tol must be finite and positive"):
            MAProblem(TorusModel(1, 16), ConstantHermitianClass(np.eye(1)), np.array(2.0), tol=tol)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_density_finite(self, value):
        with pytest.raises(ModelError, match="target density must be finite"):
            MAProblem(TorusModel(1, 16), ConstantHermitianClass(np.eye(1)), np.array(value))

    def test_compat_required_before_solve(self):
        p = MAProblem(TorusModel(1, 16), ConstantHermitianClass(np.eye(1)), np.array(2.0))
        with pytest.raises(ModelError):
            solve_ma(p)

    def test_compat_rejects_nonpositive_density(self):
        t = TorusModel(1, 16)
        x = t.real_coordinates()[0]
        p = MAProblem(t, ConstantHermitianClass(np.eye(1)), 1.0 + np.cos(2 * np.pi * x))
        with pytest.raises(ModelError):
            compatibility_check(p)

    def test_indefinite_background_rejected_at_compat(self):
        p = MAProblem(TorusModel(2, 16), ConstantHermitianClass(H_EXAMPLE), np.full((1,) * 4, 8.0))
        with pytest.raises(ModelError):
            compatibility_check(p)  # top wedge of diag(2,-1) has negative mass

    def test_background_must_stay_positive_in_solve(self):
        p = MAProblem(
            TorusModel(2, 16),
            ConstantHermitianClass(H_EXAMPLE),
            np.full((1,) * 4, 8.0),
            compat_factor=1.0,
        )
        with pytest.raises(ModelError):
            solve_ma(p)


class TestCompatibility:
    def test_factor_rescales_to_background_mass(self):
        t = TorusModel(2, 16)
        p = MAProblem(t, ConstantHermitianClass(np.eye(2)), np.full((1,) * 4, 16.0))
        q = compatibility_check(p)
        assert q.compat_factor == pytest.approx(0.5)
        assert float(np.mean(q.target_density)) == pytest.approx(8.0)  # 2! * 2^2 * det I

    def test_matched_density_factor_one(self):
        t = TorusModel(1, 16)
        p = MAProblem(t, ConstantHermitianClass(np.eye(1)), np.array(2.0))
        assert compatibility_check(p).compat_factor == pytest.approx(1.0)


class TestLinearPath:
    def test_constant_density_is_exact_zero(self):
        t = TorusModel(1, 32)
        p = compatibility_check(MAProblem(t, ConstantHermitianClass(np.eye(1)), np.array(2.0)))
        res = solve_ma(p)
        assert res.iterations == 1
        assert res.residual == 0.0
        assert res.phi.sup_norm() < 1e-14

    def test_matches_poisson_oracle(self):
        t = TorusModel(1, 32)
        x = t.real_coordinates()[0]
        density = 2.0 * (1.0 + 0.3 * np.cos(2 * np.pi * x)) * np.ones((1, 32))
        p = compatibility_check(MAProblem(t, ConstantHermitianClass(np.eye(1)), density, tol=1e-10))
        res = solve_ma(p)
        # oracle: the n=1 equation is linear, w + dd phi = e^c f with matched mass
        f = p.target_density / 2.0
        c = np.log(1.0 / float(np.mean(f)))
        oracle = poisson_solve(t, np.exp(c) * f - 1.0)
        assert np.max(np.abs(res.phi.values - oracle)) < 1e-13
        assert res.iterations == 1
        assert res.residual < 1e-10

    def test_pde_residual_pointwise(self):
        t = TorusModel(1, 32)
        x = t.real_coordinates()[0]
        density = 2.0 + 0.8 * np.sin(2 * np.pi * x) ** 2
        p = compatibility_check(MAProblem(t, ConstantHermitianClass(np.eye(1)), density, tol=1e-10))
        res = solve_ma(p)
        lhs = 1.0 + complex_hessian(res.phi).values[..., 0, 0].real
        rhs = np.exp(res.log_constant) * p.target_density / 2.0
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(rhs)


class TestNewtonPath:
    def test_constant_density_converges_immediately(self):
        t = TorusModel(2, 16)
        p = compatibility_check(MAProblem(t, ConstantHermitianClass(np.eye(2)), np.full((1,) * 4, 8.0)))
        res = solve_ma(p)
        assert res.iterations == 0
        assert res.residual == 0.0

    def test_manufactured_recovery(self):
        t = TorusModel(2, 32)
        p, phi_star = manufactured_problem(t, amplitude=0.02)
        res = solve_ma(p)
        err = float(np.max(np.abs(res.phi.values - (phi_star - np.mean(phi_star)))))
        assert err < 1e-9
        assert res.residual < p.tol
        assert res.positivity_margin > 0.5
        assert res.iterations <= 15

    def test_residual_history_non_increasing(self):
        t = TorusModel(2, 32)
        p, _ = manufactured_problem(t, amplitude=0.05)
        res = solve_ma(p)
        hist = res.residual_history
        assert len(hist) >= 2
        for a, b in zip(hist, hist[1:]):
            assert b <= a * (1 + 1e-12) + 1e-15

    def test_per_step_record(self):
        t = TorusModel(2, 16)
        p, _ = manufactured_problem(t, amplitude=0.05)
        res = solve_ma(p)
        assert res.iterations >= 2
        assert len(res.residual_history) == res.iterations + 1
        assert len(res.cg_iterations) == len(res.line_search_halvings) == res.iterations
        assert all(cg >= 1 for cg in res.cg_iterations)
        assert all(h >= 0 for h in res.line_search_halvings)

    def test_pcg_counts_operator_applications(self, monkeypatch):
        t = TorusModel(2, 8)
        shape = (8,) * 4
        form = np.broadcast_to(np.diag([2.0, 1.0]).astype(complex), shape + (2, 2)).copy()
        op = _NewtonOperator(t, form, shape)
        applied = []
        apply = op.apply
        monkeypatch.setattr(op, "apply", lambda u: applied.append(1) or apply(u))
        xs = t.real_coordinates()
        b = np.broadcast_to(np.cos(2 * np.pi * xs[0]) + np.sin(2 * np.pi * (xs[1] + xs[2])), shape)
        x, count = _pcg(op, b, rtol=1e-12)
        assert count == len(applied) >= 1
        assert np.max(np.abs(op.apply(x) - op.project(b))) < 1e-10
        assert _pcg(op, np.zeros(shape), rtol=1e-12)[1] == 0

    def test_mean_zero_gauge(self):
        t = TorusModel(2, 32)
        p, _ = manufactured_problem(t, amplitude=0.03)
        res = solve_ma(p)
        assert abs(res.phi.mean()) < 1e-13
        assert res.phi.mean_zero

    def test_reduced_storage_matches_full_grid(self):
        t = TorusModel(2, 16)
        x = t.real_coordinates()[0]
        density = 8.0 * (1.0 + 0.2 * np.cos(2 * np.pi * x))
        solved = []
        for dens in (density, np.broadcast_to(density, t.shape).copy()):
            p = compatibility_check(
                MAProblem(t, ConstantHermitianClass(np.eye(2)), dens, tol=1e-10)
            )
            solved.append(solve_ma(p))
        diff = np.abs(
            np.broadcast_to(solved[0].phi.values, t.shape) - solved[1].phi.values
        )
        assert np.max(diff) < 1e-11

    def test_nonconvergence_reports_residual(self):
        t = TorusModel(2, 32)
        p, _ = manufactured_problem(t, amplitude=0.08, tol=1e-13)
        with pytest.raises(NonConvergence) as exc:
            solve_ma(MAProblem(t, p.background, p.target_density, tol=1e-13, max_iter=1,
                               compat_factor=p.compat_factor))
        assert exc.value.residual is not None and exc.value.residual > 1e-13

    def test_initial_guess_speeds_convergence(self):
        t = TorusModel(2, 32)
        p, phi_star = manufactured_problem(t, amplitude=0.05)
        warm = solve_ma(p, initial_guess=PotentialField(t, phi_star))
        assert warm.iterations <= 1
        assert warm.residual < p.tol


class TestShiftedSolve:
    def test_frozen_example_is_flat(self):
        t = TorusModel(2, 64)
        res = ma_for_dk(H_EXAMPLE, np.eye(2), k=3, torus=t)
        assert res.iterations == 0
        assert res.residual == 0.0
        assert res.phi.sup_norm() == 0.0

    def test_rigidity_with_background_potential(self):
        # constant target density forces psi0 + phi to be constant
        t = TorusModel(2, 64)
        x = t.real_coordinates()[0]
        psi0 = PotentialField(t, 0.1 * np.cos(2 * np.pi * x), mean_zero=True)
        res = ma_for_dk(H_EXAMPLE, np.eye(2), k=3, psi0=psi0, tol=1e-10)
        total = psi0.values + res.phi.values
        assert float(np.max(np.abs(total - np.mean(total)))) < 1e-6
        assert res.residual < 1e-10

    def test_torus_required(self):
        with pytest.raises(ModelError):
            ma_for_dk(H_EXAMPLE, np.eye(2), k=3)
