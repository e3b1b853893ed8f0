"""Damped-Newton Monge-Ampere solver: exact n=1 path, manufactured n=2 problems."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from qposlab import (
    ConstantHermitianClass,
    MAProblem,
    ModelError,
    NonConvergence,
    PotentialField,
    TorusModel,
    complex_hessian,
    HermitianFormField,
    MASolveResult,
    one_positive_pipeline,
    solve_ma,
)
from qposlab import calculus, ma_solver, smallmat
from qposlab.calculus import _irfftn, _rfftn, poisson_solve
from qposlab.ma_solver import _NewtonOperator, _pcg

H_EXAMPLE = np.diag([2.0, -1.0])


def manufactured_problem(torus, amplitude, tol=1e-11):
    """Exact discrete solution by construction: target density of I + Hess(phi*)."""
    xs = torus.real_coordinates()
    phi_star = amplitude * (np.cos(2 * np.pi * xs[0]) + 0.7 * np.sin(2 * np.pi * xs[3]))
    evolved = HermitianFormField.from_constant(torus, np.eye(2)) + complex_hessian(
        PotentialField(torus, phi_star)
    )
    density = 8.0 * smallmat.hermitian_det(evolved.diag, evolved.upper)  # n! 2^n det, n = 2
    assert np.min(density) > 0
    problem = MAProblem(
        torus=torus,
        background=ConstantHermitianClass(np.eye(2)),
        target_density=density,
        tol=tol,
    )
    return problem, phi_star


def solve_one_grid(problem, coarse_phi=None):
    """The one-grid Newton solve of ``problem``, without a grid ladder: from zero, or from ``coarse_phi``
    (a potential on the half grid) prolonged."""
    level = ma_solver._setup(problem)
    phi, record, planes, c = ma_solver._newton(level, coarse_phi, coarse=False)
    torus = problem.torus
    form = HermitianFormField._trusted(torus, *planes)
    return MASolveResult(PotentialField(torus, phi, mean_zero=True), c, level.compat_factor, form, (record,))


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

    def test_compat_rejects_nonpositive_density(self):
        t = TorusModel(1, 16)
        x = t.real_coordinates()[0]
        p = MAProblem(t, ConstantHermitianClass(np.eye(1)), 1.0 + np.cos(2 * np.pi * x))
        with pytest.raises(ModelError, match="target density must be strictly positive"):
            solve_ma(p)

    def test_indefinite_background_rejected_at_compat(self):
        p = MAProblem(TorusModel(2, 16), ConstantHermitianClass(H_EXAMPLE), np.full((1,) * 4, 8.0))
        with pytest.raises(ModelError, match="non-positive total volume"):
            solve_ma(p)  # top wedge of diag(2,-1) has negative mass

    def test_background_must_stay_positive_in_solve(self):
        # det(-I) = 1: the mass is positive, so only the pointwise positivity check can refuse -I.
        p = MAProblem(TorusModel(2, 16), ConstantHermitianClass(-np.eye(2)), np.full((1,) * 4, 8.0))
        with pytest.raises(ModelError, match="not positive definite at every grid point"):
            solve_ma(p)


class TestCompatibility:
    def test_factor_rescales_to_background_mass(self):
        t = TorusModel(2, 16)
        res = solve_ma(MAProblem(t, ConstantHermitianClass(np.eye(2)), np.full((1,) * 4, 16.0)))
        assert res.compat_factor == pytest.approx(0.5)  # 16 * 0.5 = 2! * 2^2 * det I
        assert res.iterations == 0 and res.residual == 0.0

    def test_matched_density_factor_one(self):
        t = TorusModel(1, 16)
        p = MAProblem(t, ConstantHermitianClass(np.eye(1)), np.array(2.0))
        assert solve_ma(p).compat_factor == pytest.approx(1.0)

    def test_problem_is_not_rescaled(self):
        t = TorusModel(2, 16)
        p = MAProblem(t, ConstantHermitianClass(np.eye(2)), np.full((1,) * 4, 16.0))
        solve_ma(p)
        assert float(p.target_density.ravel()[0]) == 16.0


class TestLinearPath:
    def test_constant_density_is_exact_zero(self):
        t = TorusModel(1, 32)
        res = solve_ma(MAProblem(t, ConstantHermitianClass(np.eye(1)), np.array(2.0)))
        assert res.iterations == 1
        assert res.residual == 0.0
        assert np.max(np.abs(res.phi.values)) < 1e-14

    def test_matches_poisson_oracle(self):
        t = TorusModel(1, 32)
        x = t.real_coordinates()[0]
        density = 2.0 * (1.0 + 0.3 * np.cos(2 * np.pi * x)) * np.ones((1, 32))
        p = MAProblem(t, ConstantHermitianClass(np.eye(1)), density, tol=1e-10)
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
        p = MAProblem(t, ConstantHermitianClass(np.eye(1)), density, tol=1e-10)
        res = solve_ma(p)
        lhs = 1.0 + complex_hessian(res.phi).values[..., 0, 0].real
        rhs = np.exp(res.log_constant) * res.compat_factor * p.target_density / 2.0
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(rhs)


class TestNewtonPath:
    def test_constant_density_converges_immediately(self):
        t = TorusModel(2, 16)
        res = solve_ma(MAProblem(t, ConstantHermitianClass(np.eye(2)), np.full((1,) * 4, 8.0)))
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

    def test_result_form_is_the_solved_form(self):
        t = TorusModel(2, 16)
        p, _ = manufactured_problem(t, amplitude=0.05)
        res = solve_ma(p)
        solved = HermitianFormField.from_constant(t, np.eye(2)) + complex_hessian(res.phi)
        assert res.form.torus == t and res.form.diag.shape == (2,) + p.target_density.shape
        assert np.max(np.abs(res.form.values - solved.values)) < 1e-12
        lam_min = float(np.min(np.linalg.eigvalsh(solved.values)[..., 0]))
        assert res.positivity_margin == pytest.approx(lam_min, abs=1e-12)
        density = 8.0 * smallmat.hermitian_det(res.form.diag, res.form.upper)
        assert np.max(np.abs(density - res.compat_factor * p.target_density)) < 1e-8

    def test_residual_history_non_increasing(self):
        # The one-grid solve from zero: every step on the full grid.
        t = TorusModel(2, 32)
        p, _ = manufactured_problem(t, amplitude=0.05)
        res = solve_one_grid(p)
        hist = res.residual_history
        assert len(hist) >= 2
        for a, b in zip(hist, hist[1:]):
            assert b <= a * (1 + 1e-12) + 1e-15

    def test_per_step_record(self):
        t = TorusModel(2, 16)
        p, _ = manufactured_problem(t, amplitude=0.05)
        res = solve_one_grid(p)
        assert res.iterations >= 2
        assert len(res.residual_history) == res.iterations + 1
        assert len(res.cg_iterations) == len(res.line_search_halvings) == res.iterations
        assert all(cg >= 1 for cg in res.cg_iterations)
        assert all(h >= 0 for h in res.line_search_halvings)

    def test_pcg_counts_operator_applications(self, monkeypatch):
        t = TorusModel(2, 8)
        shape = (8,) * 4
        diag = np.stack([np.full(shape, 2.0), np.full(shape, 1.0)])
        op = _NewtonOperator(t, diag, np.zeros((1,) + shape, dtype=complex), shape)
        applied = []
        apply = op.apply
        monkeypatch.setattr(op, "apply", lambda *args, **kwargs: applied.append(1) or apply(*args, **kwargs))
        xs = t.real_coordinates()
        b = np.broadcast_to(np.cos(2 * np.pi * xs[0]) + np.sin(2 * np.pi * (xs[1] + xs[2])), shape)
        x, count = _pcg(op, _rfftn(b), rtol=1e-12)
        assert count == len(applied) >= 1
        xhat = _rfftn(x)
        residual = _irfftn(op.apply(xhat, np.empty_like(xhat)) - op.project(_rfftn(b)), shape)
        assert np.max(np.abs(residual)) < 1e-10
        assert _pcg(op, _rfftn(np.zeros(shape)), rtol=1e-12)[1] == 0

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
            solved.append(solve_ma(MAProblem(t, ConstantHermitianClass(np.eye(2)), dens, tol=1e-10)))
        diff = np.abs(
            np.broadcast_to(solved[0].phi.values, t.shape) - solved[1].phi.values
        )
        assert np.max(diff) < 1e-11

    def test_nonconvergence_reports_residual(self):
        t = TorusModel(2, 32)
        p, _ = manufactured_problem(t, amplitude=0.08, tol=1e-13)
        with pytest.raises(NonConvergence) as exc:
            solve_ma(MAProblem(t, p.background, p.target_density, tol=1e-13, max_iter=1))
        assert exc.value.residual is not None and exc.value.residual > 1e-13


def smooth_operator(n, shape):
    """The Newton operator at the smooth form 2I + dd_bar(psi), broadcast to ``shape``."""
    t = TorusModel(n, 8)
    xs = t.real_coordinates()
    psi = 0.02 * sum(np.cos(2 * np.pi * x) for x, size in zip(xs, shape) if size > 1)
    psi = psi + 0.01 * np.sin(2 * np.pi * (xs[0] + xs[-1]))  # shape keeps the first and last axes whole
    form = HermitianFormField.from_constant(t, 2.0 * np.eye(n)) + complex_hessian(PotentialField(t, psi))
    planes = (np.ascontiguousarray(np.broadcast_to(p, p.shape[:1] + shape)) for p in (form.diag, form.upper))
    return t, _NewtonOperator(t, *planes, shape)


def real_space_pcg(op, b, rtol, max_cg=400):
    """The real-space PCG the spectral ``_pcg`` replaced, kept as its oracle.

    Every operator, preconditioner and projection call transforms its real
    field in and out, and the inner products are plain sums over the grid.
    """
    shape = op.shape

    def apply(u):
        uhat = _rfftn(u)
        return _irfftn(op.apply(uhat, np.empty_like(uhat)), shape)

    def precondition(r):
        rhat = _rfftn(r)
        return _irfftn(op.precondition(rhat, np.empty_like(rhat)), shape)

    b = _irfftn(op.project(_rfftn(b)), shape)
    bnorm = float(np.sqrt(np.sum(b * b)))
    x = np.zeros_like(b)
    if bnorm == 0:
        return x, 0
    r = b.copy()
    z = precondition(r)
    p = z.copy()
    rz = float(np.sum(r * z))
    iterations = 0
    for iterations in range(1, max_cg + 1):
        ap = apply(p)
        pap = float(np.sum(p * ap))
        if pap <= 0:
            break
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        if float(np.sqrt(np.sum(r * r))) <= rtol * bnorm:
            break
        z = precondition(r)
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, iterations


class TestSpectralPCG:
    @pytest.mark.parametrize("n,shape", [(2, (8,) * 4), (3, (8, 8, 1, 8, 8, 8))], ids=["n2", "n3"])
    @pytest.mark.parametrize("rtol", [1e-2, 1e-10])
    def test_matches_real_space_pcg(self, n, shape, rtol):
        t, op = smooth_operator(n, shape)
        xs = t.real_coordinates()
        b = np.broadcast_to(np.cos(2 * np.pi * (xs[0] + xs[-1])) + 0.5 * np.sin(2 * np.pi * xs[1]), shape)
        x, count = _pcg(op, _rfftn(b), rtol=rtol)
        ref, ref_count = real_space_pcg(op, b, rtol=rtol)
        assert count == ref_count >= 1
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_cg_iteration_takes_4n_transforms(self, monkeypatch):
        # A transform of the operator is one call of a complex-pass helper (its
        # last-axis real pass runs in the slabs); x's inverse is one _irfftn.
        t, op = smooth_operator(2, (8,) * 4)
        transforms = []
        for name in ("_fft_passes", "_ifft_passes", "_irfftn"):
            monkeypatch.setattr(
                ma_solver, name, lambda *args, _f=getattr(ma_solver, name), **kw: transforms.append(1) or _f(*args, **kw)
            )
        b = np.broadcast_to(np.cos(2 * np.pi * t.real_coordinates()[0]), op.shape)
        for max_cg in (1, 2, 3):
            transforms.clear()
            _, iterations = _pcg(op, _rfftn(b), rtol=1e-15, max_cg=max_cg)
            assert iterations == max_cg
            assert len(transforms) == 1 + 8 * iterations  # x out, and 4n per iteration


def unfused_apply(op, uhat):
    """The operator as whole-grid planes: 2n gradients by ``_irfftn``, then each
    flux plane, built with a product plane, by ``_rfftn``.  The order of
    operations the slab application keeps, and its bitwise reference."""
    n, shape = op.n, op.shape
    grad = np.empty((2 * n,) + shape)
    flux, product = np.empty(shape), np.empty(shape)
    spec = np.empty(op.half, dtype=np.complex128)
    for a, d in enumerate(op.deriv):
        _irfftn(np.multiply(uhat, d, out=spec), shape, out=grad[a])
    gx, gy = grad[0::2], grad[1::2]
    out = np.zeros(op.half, dtype=np.complex128)
    for j in range(n):
        for axis, g, h, sign in ((2 * j, gx, gy, 1), (2 * j + 1, gy, gx, -1)):
            np.multiply(op.adj_diag[j], g[j], out=flux)
            for k in range(n):
                if k == j:
                    continue
                e = smallmat.upper_pairs(n).index((min(j, k), max(j, k)))
                flux += np.multiply(op.adj_re[e], g[k], out=product)
                np.multiply(op.adj_im[e], h[k], out=product)
                if sign * (k - j) > 0:
                    flux += product
                else:
                    flux -= product
            out += np.multiply(_rfftn(flux, out=spec), op.deriv[axis], out=spec)
    out *= -0.25
    return out


def full_operator(n, grid, shape):
    """The Newton operator at 2I + dd_bar(psi) for a psi that varies along every axis ``shape`` keeps."""
    t = TorusModel(n, grid)
    xs = t.real_coordinates()
    kept = [x for x, size in zip(xs, shape) if size > 1]
    psi = 0.02 * sum(np.cos(2 * np.pi * x) for x in kept) + 0.01 * np.sin(2 * np.pi * (kept[0] + kept[-1]))
    psi = np.broadcast_to(psi, shape)
    form = HermitianFormField.from_constant(t, 2.0 * np.eye(n)) + complex_hessian(PotentialField(t, psi))
    planes = (np.ascontiguousarray(np.broadcast_to(p, p.shape[:1] + shape)) for p in (form.diag, form.upper))
    return t, _NewtonOperator(t, *planes, shape)


class TestSlabApply:
    # n = 2 full grid 16, n = 3 full grid 8, the stored shape of a psi_0 on x_1
    # with a density on y_2, and a shape constant along axis 0.
    CASES = [(2, 16, (16,) * 4), (3, 8, (8,) * 6), (2, 16, (16, 1, 1, 16)), (2, 16, (1, 16, 16, 16))]

    @pytest.mark.parametrize("slab_rows", [None, 1, 3], ids=["default", "one-row", "three-rows"])
    @pytest.mark.parametrize("n,grid,shape", CASES, ids=["n2-g16", "n3-g8", "axes-0-3", "axis0-constant"])
    def test_bitwise_the_whole_grid_planes(self, monkeypatch, n, grid, shape, slab_rows):
        if slab_rows is not None:
            monkeypatch.setattr(calculus, "_STENCIL_SLAB_POINTS", slab_rows * math.prod(shape[1:]))
        t, op = full_operator(n, grid, shape)
        rng = np.random.default_rng(len(shape) + shape[0])
        uhat = _rfftn(rng.normal(size=shape))
        for _ in range(2):  # the buffers are rewritten by a second application
            got = op.apply(uhat, np.empty_like(uhat))
            assert np.array_equal(got, unfused_apply(op, uhat))

    def test_tasks_share_fewer_buffer_sets_than_workers(self, monkeypatch):
        # One buffer set for every pool thread: each one-row slab task waits for
        # the set, with frequent thread switches, and the result stays bitwise.
        shape = (16,) * 4
        monkeypatch.setattr(calculus, "_STENCIL_SLAB_POINTS", math.prod(shape[1:]))
        monkeypatch.setattr(ma_solver, "fft_workers", lambda: 1)
        _, op = full_operator(2, 16, shape)
        uhat = _rfftn(np.random.default_rng(5).normal(size=shape))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [op.apply(uhat, np.empty_like(uhat)) for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        ref = unfused_apply(op, uhat)
        assert all(np.array_equal(g, ref) for g in got)

    @pytest.mark.parametrize("workers", [1, 2, 3, 64])
    def test_no_whole_grid_plane_after_the_first_call(self, monkeypatch, workers):
        # One-row slabs (a 16th of the grid each): beyond its spectra an
        # application holds a slab's gradients, flux and product per buffer
        # set, and the sets fit in one whole-grid plane at any worker count.
        shape = (16,) * 4
        monkeypatch.setattr(calculus, "_STENCIL_SLAB_POINTS", math.prod(shape[1:]))
        monkeypatch.setattr(ma_solver, "fft_workers", lambda: workers)
        _, op = full_operator(2, 16, shape)
        uhat = _rfftn(np.cos(2 * np.pi * np.arange(16) / 16).reshape(16, 1, 1, 1) * np.ones(shape))
        out = np.empty_like(uhat)
        op.apply(uhat, out)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            op.apply(uhat, out)
            growth = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert growth < math.prod(shape) * 8

    def test_solve_passes_cg_a_half_spectrum(self, monkeypatch):
        t = TorusModel(2, 16)
        p, _ = manufactured_problem(t, amplitude=0.05)
        seen = []
        pcg = ma_solver._pcg
        monkeypatch.setattr(ma_solver, "_pcg", lambda op, bhat, **kw: seen.append(bhat.dtype) or pcg(op, bhat, **kw))
        assert solve_one_grid(p).iterations >= 2
        assert seen and all(dtype == np.complex128 for dtype in seen)


def w_planes_state(problem, phi, log_f):
    """The state as ``W + dd_bar(phi)`` with the whole form ``W = H_0 + dd_bar(psi_0)``: the solver's former formulation."""
    w = problem.form()
    hess = complex_hessian(PotentialField(problem.torus, phi))
    np.add(hess.diag, w.diag, out=hess.diag)
    np.add(hess.upper, w.upper, out=hess.upper)
    return ma_solver._evaluate((hess.diag, hess.upper), log_f)


def bits(form):
    return form.diag.shape, form.diag.tobytes(), form.upper.shape, form.upper.tobytes()


class TestProblemForm:
    @pytest.mark.parametrize("with_psi0", [False, True], ids=["no_psi0", "psi0"])
    @pytest.mark.parametrize("with_phi", [False, True], ids=["no_phi", "phi"])
    def test_is_constant_plus_one_hessian_bitwise(self, with_psi0, with_phi):
        # H_0 has a complex off-diagonal entry; psi_0 and phi vary on every real axis.
        t = TorusModel(2, 8)
        xs = t.real_coordinates()
        h0 = np.array([[3.0, 0.5 - 0.25j], [0.5 + 0.25j, 2.0]])
        psi0 = PotentialField(t, 0.05 * sum(np.cos(2 * np.pi * x) for x in xs)) if with_psi0 else None
        phi = 0.02 * np.sin(2 * np.pi * (xs[0] + xs[3])) * np.cos(2 * np.pi * xs[1]) if with_phi else None
        problem = MAProblem(t, ConstantHermitianClass(h0), np.full((1,) * 4, 8.0), background_potential=psi0)
        expected = HermitianFormField.from_constant(t, h0)
        if with_psi0 and with_phi:
            expected = expected + complex_hessian(PotentialField(t, psi0.values + phi))
        elif with_psi0 or with_phi:
            expected = expected + complex_hessian(psi0 if with_psi0 else PotentialField(t, phi))
        assert bits(problem.form(phi)) == bits(expected)


class TestBackgroundPotential:
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_matches_the_background_form_planes(self, monkeypatch, warm):
        # psi_0 varies along x_1 only and the density along y_2 only: the solve runs on (16, 1, 1, 16).
        t = TorusModel(2, 16)
        xs = t.real_coordinates()
        psi0 = PotentialField(t, 0.05 * np.cos(2 * np.pi * xs[0]))
        density = 8.0 * (1.0 + 0.2 * np.cos(2 * np.pi * xs[3]))
        problem = MAProblem(t, ConstantHermitianClass(np.eye(2)), density, background_potential=psi0, tol=1e-10)
        guess = -0.002 * np.cos(2 * np.pi * TorusModel(2, 8).real_coordinates()[3]) if warm else None
        got = solve_one_grid(problem, guess)
        monkeypatch.setattr(ma_solver, "_state", w_planes_state)
        ref = solve_one_grid(problem, guess)
        assert got.phi.values.shape == (16, 1, 1, 16)
        assert got.iterations == ref.iterations >= 1
        assert got.cg_iterations == ref.cg_iterations
        assert got.line_search_halvings == ref.line_search_halvings
        assert np.max(np.abs(got.phi.values - ref.phi.values)) <= 1e-12 * np.max(np.abs(ref.phi.values))
        for a, b in ((got.form.diag, ref.form.diag), (got.form.upper, ref.form.upper)):
            assert np.max(np.abs(a - b)) <= 1e-12
        assert got.residual < problem.tol and ref.residual < problem.tol
        assert got.log_constant == pytest.approx(ref.log_constant, rel=1e-12, abs=1e-15)
        assert got.compat_factor == ref.compat_factor


class TestShiftedSolve:
    """The solve of ``one_positive_pipeline``: background H + k omega, constant target D_k (k omega)^n."""

    def test_frozen_example_is_flat(self):
        t = TorusModel(2, 64)
        run = one_positive_pipeline(H_EXAMPLE, np.eye(2), torus=t)
        res = run.ma_result
        assert run.k == 3
        assert res.iterations == 0
        assert res.residual == 0.0
        assert np.max(np.abs(res.phi.values)) == 0.0

    def test_rigidity_with_background_potential(self):
        # constant target density forces psi0 + phi to be constant
        t = TorusModel(2, 64)
        x = t.real_coordinates()[0]
        psi0 = PotentialField(t, 0.1 * np.cos(2 * np.pi * x), mean_zero=True)
        run = one_positive_pipeline(H_EXAMPLE, np.eye(2), psi0=psi0, tol=1e-10)
        res = run.ma_result
        assert run.k == 3
        total = psi0.values + res.phi.values
        assert float(np.max(np.abs(total - np.mean(total)))) < 1e-6
        assert res.residual < 1e-10

    def test_torus_required(self):
        with pytest.raises(ModelError):
            one_positive_pipeline(H_EXAMPLE, np.eye(2))


class TestGridLadder:
    """A solve without a guess starts from its half-grid solution, prolonged by zero padding."""

    def test_resample_round_trips_a_band_limited_field_and_drops_nyquist(self):
        t, coarse = TorusModel(2, 32), TorusModel(2, 16)
        fine_xs, coarse_xs = t.real_coordinates(), coarse.real_coordinates()

        def band_limited(xs):  # every mode below 8, the Nyquist mode of grid 16
            return 0.7 + np.cos(2 * np.pi * (xs[1] - 5 * xs[2])) + 0.3 * np.cos(2 * np.pi * 7 * xs[0]) * np.sin(
                2 * np.pi * 3 * xs[3]
            )

        fine = np.broadcast_to(band_limited(fine_xs), t.shape)
        restricted = calculus._resample(fine, coarse.shape)
        assert np.max(np.abs(restricted - np.broadcast_to(band_limited(coarse_xs), coarse.shape))) <= 1e-14
        assert np.max(np.abs(calculus._resample(restricted, t.shape) - fine)) <= 1e-14
        # Mode 8 is grid 16's Nyquist mode: dropped on the way down and on the way up.
        assert np.max(np.abs(calculus._resample(np.cos(2 * np.pi * 8 * fine_xs[0]) + 1.0, (16, 1, 1, 1)) - 1.0)) <= 1e-14
        assert np.max(np.abs(calculus._resample(np.cos(2 * np.pi * 8 * coarse_xs[0]), (32, 1, 1, 1)))) == 0.0
        assert calculus._resample(np.cos(2 * np.pi * fine_xs[3]), (1, 1, 1, 16)).shape == (1, 1, 1, 16)

    def test_full_grid_manufactured_takes_no_fine_step(self):
        t = TorusModel(2, 32)
        xs = t.real_coordinates()
        phi_star = 0.005 * (sum(np.cos(2 * np.pi * x) for x in xs) + 0.5 * np.sin(2 * np.pi * (xs[0] + xs[3])))
        evolved = HermitianFormField.from_constant(t, np.eye(2)) + complex_hessian(PotentialField(t, phi_star))
        density = 8.0 * smallmat.hermitian_det(evolved.diag, evolved.upper)
        p = MAProblem(t, ConstantHermitianClass(np.eye(2)), density, tol=1e-10)
        res = solve_ma(p)
        cold = solve_one_grid(p)
        assert [level.grid for level in res.levels] == [8, 16, 32]
        assert res.iterations == 0 and cold.iterations >= 1
        assert res.residual <= p.tol
        assert np.max(np.abs(res.phi.values - cold.phi.values)) <= 1e-12

    def test_stalled_coarse_level_hands_on_its_iterate(self):
        # Background diag(4, 1) and the full-grid density 1 + 0.3 cos 2 pi y_1 cos 2 pi x_2:
        # grid 8 stalls at its Nyquist floor, and grid 32 then needs at most one step.
        t = TorusModel(2, 32)
        xs = t.real_coordinates()
        density = np.broadcast_to(1 + 0.3 * np.cos(2 * np.pi * xs[1]) * np.cos(2 * np.pi * xs[2]), t.shape)
        p = MAProblem(t, ConstantHermitianClass(np.diag([4.0, 1.0])), density, tol=1e-9)
        res = solve_ma(p)
        assert [(level.grid, level.ended) for level in res.levels[:1]] == [(8, "stalled")]
        assert res.levels[0].residual_history[-1] > p.tol
        assert [level.grid for level in res.levels] == [8, 16, 32] and res.levels[-1].ended == "converged"
        assert res.iterations <= 1 and res.residual <= p.tol

    def test_coarse_background_not_positive_falls_back_to_zero(self):
        # The first diagonal entry of W is 0.02 plus a narrow bump along x_1: positive on
        # grid 32, but its restriction to grid 16 rings below zero.
        t = TorusModel(2, 32)
        xs = t.real_coordinates()
        distance = np.minimum(np.abs(xs[0] - 0.5), 1 - np.abs(xs[0] - 0.5))
        bump = np.exp(-((distance / 0.04) ** 2))
        k = np.fft.fftfreq(32, 1 / 32)
        psihat = np.fft.fft((bump - bump.mean()).ravel()) / np.where(k == 0, 1, -((np.pi * k) ** 2))
        psihat[0] = 0  # (1/4) d^2 psi_0 / dx_1^2 = bump - mean(bump)
        psi0 = PotentialField(t, np.fft.ifft(psihat).real.reshape(32, 1, 1, 1))
        h0 = ConstantHermitianClass(np.diag([0.02 + bump.mean(), 1.0]))
        density = 8.0 * (1.0 + 0.1 * np.cos(2 * np.pi * xs[3]))
        p = MAProblem(t, h0, density, background_potential=psi0, tol=1e-10)
        restricted = MAProblem(
            TorusModel(2, 16), h0, np.full((1,) * 4, 8.0),
            background_potential=PotentialField(TorusModel(2, 16), calculus._resample(psi0.values, (16, 1, 1, 1))),
        )
        assert np.min(restricted.form().diag[0]) < 0 < np.min(p.form().diag[0])
        res = solve_ma(p)
        cold = solve_one_grid(p)
        assert [(level.grid, level.ended) for level in res.levels] == [(16, "failed"), (32, "converged")]
        assert res.levels[0].residual_history == ()
        assert res.iterations == cold.iterations >= 1 and res.residual <= p.tol
        assert np.max(np.abs(res.phi.values - cold.phi.values)) <= 1e-12

    def test_prolonged_guess_not_positive_starts_from_zero(self):
        # I + dd_bar(cos 2 pi x_1) has first diagonal entry 1 - pi^2 cos 2 pi x_1, negative at x_1 = 0.
        p, _ = manufactured_problem(TorusModel(2, 16), amplitude=0.05)
        bad = np.cos(2 * np.pi * TorusModel(2, 8).real_coordinates()[0])
        res = solve_one_grid(p, bad)
        cold = solve_one_grid(p)
        assert res.residual_history == cold.residual_history
        assert np.array_equal(res.phi.values, cold.phi.values)

    def test_coarse_levels_keep_length_one_axes(self, monkeypatch):
        # As in TestBackgroundPotential: psi_0 varies along x_1 only and the density along y_2 only.
        t = TorusModel(2, 16)
        xs = t.real_coordinates()
        psi0 = PotentialField(t, 0.05 * np.cos(2 * np.pi * xs[0]))
        density = 8.0 * (1.0 + 0.2 * np.cos(2 * np.pi * xs[3]))
        problem = MAProblem(t, ConstantHermitianClass(np.eye(2)), density, background_potential=psi0, tol=1e-10)
        solved = []
        setup = ma_solver._setup
        monkeypatch.setattr(ma_solver, "_setup", lambda p: solved.append(p) or setup(p))
        res = solve_ma(problem)
        assert [(p.torus.grid_size, p.background_potential.values.shape, p.target_density.shape) for p in solved] == [
            (16, (16, 1, 1, 1), (1, 1, 1, 16)),
            (8, (8, 1, 1, 1), (1, 1, 1, 8)),
        ]
        assert [level.grid for level in res.levels] == [8, 16]
        assert res.phi.values.shape == (16, 1, 1, 16)
        assert res.residual <= problem.tol

    def test_no_ladder_at_grid_8_or_n_1(self, monkeypatch):
        monkeypatch.setattr(ma_solver, "_half_grid", lambda problem: pytest.fail("no grid ladder expected"))
        p, _ = manufactured_problem(TorusModel(2, 8), amplitude=0.05)
        assert len(solve_ma(p).levels) == 1
        t = TorusModel(1, 16)
        density = 2.0 * (1.0 + 0.2 * np.cos(2 * np.pi * t.real_coordinates()[0]))
        assert len(solve_ma(MAProblem(t, ConstantHermitianClass(np.eye(1)), density)).levels) == 1

    def test_coarse_step_failure_keeps_the_levels_below(self, monkeypatch):
        # The input of test_stalled_coarse_level_hands_on_its_iterate, with every Newton trial
        # on grid 16 rejected: grid 16 raises StepFailure after grid 8 has solved.
        t = TorusModel(2, 32)
        xs = t.real_coordinates()
        density = np.broadcast_to(1 + 0.3 * np.cos(2 * np.pi * xs[1]) * np.cos(2 * np.pi * xs[2]), t.shape)
        p = MAProblem(t, ConstantHermitianClass(np.diag([4.0, 1.0])), density, tol=1e-9)
        state, calls = ma_solver._state, []

        def rejecting(problem, phi, fvals):
            # On grid 16 the first call builds the starting state, and every later one is a rejected trial.
            if problem.torus.grid_size == 16:
                calls.append(problem)
                if len(calls) > 1:
                    return None
            return state(problem, phi, fvals)

        monkeypatch.setattr(ma_solver, "_state", rejecting)
        res = solve_ma(p)
        ended = [(level.grid, level.ended) for level in res.levels]
        assert ended == [(8, "stalled"), (16, "failed"), (32, "converged")]
        assert len(res.levels[0].residual_history) >= 2 and res.levels[1].residual_history == ()
        assert len(calls) == 32  # the starting state and 31 trials, down to 2^-30 damping
        monkeypatch.undo()
        cold = solve_one_grid(p)
        assert res.residual <= p.tol and res.iterations == cold.iterations
        assert np.max(np.abs(res.phi.values - cold.phi.values)) <= 1e-12

    def test_fine_background_not_positive_raises_before_coarse_work(self, monkeypatch):
        # psi_0 = 0.2 cos 2 pi x_1 on every point of grid 16: W's first diagonal entry
        # 1 - 0.2 pi^2 cos 2 pi x_1 is negative at x_1 = 0, while W's mass is positive.
        t = TorusModel(2, 16)
        xs = t.real_coordinates()
        psi0 = PotentialField(t, np.broadcast_to(0.2 * np.cos(2 * np.pi * xs[0]), t.shape))
        p = MAProblem(t, ConstantHermitianClass(np.eye(2)), np.full((1,) * 4, 8.0), background_potential=psi0)
        assert ma_solver._coarsens(p) and np.min(p.form().diag[0]) < 0
        monkeypatch.setattr(ma_solver, "_half_grid", lambda problem: pytest.fail("no coarse set-up expected"))
        monkeypatch.setattr(ma_solver, "_newton", lambda *args, **kwargs: pytest.fail("no Newton solve expected"))
        with pytest.raises(ModelError, match="not positive definite at every grid point"):
            solve_ma(p)
