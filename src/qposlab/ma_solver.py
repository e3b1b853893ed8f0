"""Complex Monge-Ampere solver on the flat torus.

Solves, in the mean-zero gauge for the unknown potential ``phi``,

    det( W + dd_bar(phi) ) = e^c * f         pointwise on the grid,

where ``W = H_0 + dd_bar(psi_0)`` is the (pointwise positive) background form
and ``f`` the prescribed density.  The additive constant ``c`` is the
det-weighted mean of the log residual; it absorbs the one-dimensional
cokernel of the linearised operator and converges to zero with resolution
for compatible data.

Newton direction: the linearisation of ``log det`` is the form-weighted trace
``tr(M^{-1} dd_bar(delta))``.  Multiplying by ``det M`` and using the Kahler
divergence identity turns it into

    A(delta) = sum_{j,k} d/dz_bar_j ( adj(M)_{jk}  d delta / dz_k ),

which is exactly self-adjoint and negative semidefinite for the spectral
derivatives used here, so conjugate gradients applies verbatim.  On real
fields its real part is the divergence form

    Re A(delta) = 1/4 sum_j ( d_xj P_j + d_yj Q_j ),
    P_j = sum_k ( Re adj_jk d_xk delta + Im adj_jk d_yk delta ),
    Q_j = sum_k ( Re adj_jk d_yk delta - Im adj_jk d_xk delta ),

so every transform is a real FFT.  A constant-coefficient version of ``A``
built from the grid-mean of ``adj(M)`` preconditions the solve diagonally in
Fourier space.  Steps are halved until pointwise positivity of
``W + dd_bar(phi)`` is preserved and the sup residual does not increase.
Determinants, the adjugate's coefficient planes and the positivity test
(Sylvester minors, which reuse the residual's determinant, with an
eigenvalue fallback near zero) come from :mod:`qposlab.smallmat`; the
smallest eigenvalue is computed once, on the returned form.

One Newton step costs one Hessian per line-search trial and nothing more:
``W`` can be built once and handed to both :func:`compatibility_check` and
:func:`solve_ma` (as :func:`ma_for_dk` does), and a zero initial guess starts
from ``M = W``.

In one complex dimension the equation is linear in ``phi`` and is solved in a
single exact spectral step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import smallmat
from .calculus import (
    HermitianFormField,
    PotentialField,
    _half_spectrum_wavenumbers,
    _irfftn,
    _rfftn,
    complex_hessian,
    form_top_density,
    hermitian_det,
    poisson_solve,
)
from .errors import ModelError, NonConvergence, NumericsError, StepFailure
from .geometry import ConstantHermitianClass, KahlerClass, TorusModel, dk_constant

__all__ = ["MAProblem", "MASolveResult", "compatibility_check", "solve_ma", "ma_for_dk"]


@dataclass(frozen=True)
class MAProblem:
    """A discrete Monge-Ampere problem.

    ``target_density`` is the density of the prescribed positive (n,n)-form
    against the flat Lebesgue volume of [0,1)^{2n}; for a constant class ``A``
    the corresponding density is ``n! * 2^n * det(A)``.
    """

    torus: TorusModel
    background: ConstantHermitianClass
    target_density: np.ndarray
    background_potential: PotentialField | None = None
    tol: float = 1e-9
    max_iter: int = 50
    compat_factor: float | None = None

    def __post_init__(self):
        if self.background.n != self.torus.n:
            raise ModelError("background class size does not match torus dimension")
        f = np.asarray(self.target_density, dtype=np.float64)
        if f.ndim == 0:
            f = f.reshape((1,) * self.torus.ndim_real)
        if f.ndim != self.torus.ndim_real:
            raise ModelError("target density must have one axis per real coordinate")
        if not np.all(np.isfinite(f)):
            raise ModelError("target density must be finite")
        object.__setattr__(self, "target_density", f)
        if self.background_potential is not None and self.background_potential.torus != self.torus:
            raise ModelError("background potential lives on a different torus")
        if not 0 < self.tol < math.inf or self.max_iter < 1:
            raise ModelError("tol must be finite and positive and max_iter >= 1")

    def background_form(self) -> HermitianFormField:
        base = HermitianFormField.from_constant(self.torus, self.background.matrix)
        if self.background_potential is None:
            return base
        return base + complex_hessian(self.background_potential)


@dataclass(frozen=True)
class MASolveResult:
    """Solution and per-step record.

    ``residual_history`` holds the residual of the initial guess and then the
    residual after each Newton step; ``cg_iterations`` (operator
    applications) and ``line_search_halvings`` hold one entry per step.  The
    n = 1 solve is one exact spectral step, recorded with zero CG iterations
    and halvings.
    """

    phi: PotentialField
    residual: float
    iterations: int
    positivity_margin: float
    log_constant: float
    residual_history: tuple[float, ...] = field(default_factory=tuple)
    cg_iterations: tuple[int, ...] = field(default_factory=tuple)
    line_search_halvings: tuple[int, ...] = field(default_factory=tuple)


def compatibility_check(
    problem: MAProblem, background_form: HermitianFormField | None = None
) -> MAProblem:
    """Rescale the target density so its total mass matches the background form.

    The equation only constrains the density up to the free constant, and a
    solution requires equal masses; the applied factor is recorded on the
    returned problem (``compat_factor``).  ``background_form`` is
    ``problem.background_form()`` when the caller has built it already.
    """
    f = problem.target_density
    if np.min(f) <= 0:
        raise ModelError("target density must be strictly positive")
    wform = problem.background_form() if background_form is None else background_form
    background_mass = float(np.mean(form_top_density(wform)))
    if background_mass <= 0:
        raise ModelError("background form has non-positive total volume")
    factor = background_mass / float(np.mean(f))
    return replace(problem, target_density=f * factor, compat_factor=factor)


class _NewtonOperator:
    """The SPD operator  u -> -Re sum_j d/dz_bar_j(adj_jk d u/dz_k)  and its preconditioner.

    Built from the form ``M`` (full stored ``shape``, contiguous); acts on
    real fields through real FFTs.  The real and imaginary parts of
    ``adj(M)`` are stored once, as contiguous planes.
    """

    def __init__(self, torus: TorusModel, form: np.ndarray, shape: tuple[int, ...]):
        n = torus.n
        self.n = n
        self.shape = shape
        self.adj_re, self.adj_im, mean_adj = smallmat.adjugate_planes(form)
        kappa = _half_spectrum_wavenumbers(torus, shape)
        self.deriv = [2j * np.pi * k for k in kappa]  # symbols of d/dx_1, d/dy_1, ...
        dz = [np.pi * (kappa[2 * j + 1] + 1j * kappa[2 * j]) for j in range(n)]
        symbol = 0.0
        for j in range(n):
            for k in range(n):
                symbol = symbol + mean_adj[j, k] * np.conj(dz[j]) * dz[k]
        half = shape[:-1] + (shape[-1] // 2 + 1,)
        self.symbol = np.ascontiguousarray(np.broadcast_to(np.real(symbol), half))
        self.active = self.symbol > 0  # modes the operator can reach

    def apply(self, u: np.ndarray) -> np.ndarray:
        uhat = _rfftn(u)
        grad = [_irfftn(uhat * d, self.shape) for d in self.deriv]
        gx, gy = grad[0::2], grad[1::2]
        acc = 0.0
        for j in range(self.n):
            p = np.zeros(self.shape)
            q = np.zeros(self.shape)
            for k in range(self.n):
                re, im = self.adj_re[j, k], self.adj_im[j, k]
                p += re * gx[k] + im * gy[k]
                q += re * gy[k] - im * gx[k]
            acc = acc + _rfftn(p) * self.deriv[2 * j] + _rfftn(q) * self.deriv[2 * j + 1]
        return -0.25 * _irfftn(acc, self.shape)

    def precondition(self, r: np.ndarray) -> np.ndarray:
        rhat = _rfftn(r)
        out = np.divide(rhat, self.symbol, out=np.zeros_like(rhat), where=self.active)
        return _irfftn(out, self.shape)

    def project(self, r: np.ndarray) -> np.ndarray:
        """Restrict to the modes the operator can reach (drops the mean and Nyquist-only modes)."""
        return _irfftn(_rfftn(r) * self.active, self.shape)


def _pcg(op: _NewtonOperator, b: np.ndarray, rtol: float, max_cg: int = 400) -> tuple[np.ndarray, int]:
    """Preconditioned CG for ``op(x) = b``; returns ``x`` and the number of operator applications."""
    b = op.project(b)
    bnorm = float(np.sqrt(np.sum(b * b)))
    x = np.zeros_like(b)
    if bnorm == 0:
        return x, 0
    r = b.copy()
    z = op.precondition(r)
    p = z.copy()
    rz = float(np.sum(r * z))
    iterations = 0
    for iterations in range(1, max_cg + 1):
        ap = op.apply(p)
        pap = float(np.sum(p * ap))
        if pap <= 0:
            break  # numerically lost positivity; return best-so-far direction
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        if float(np.sqrt(np.sum(r * r))) <= rtol * bnorm:
            break
        z = op.precondition(r)
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, iterations


def _evaluate(m: np.ndarray, fvals: np.ndarray):
    """Form, determinant, compensated log residual, sup residual and constant ``c`` of a form ``m``.

    ``None`` when ``m`` is not positive definite at every grid point.
    """
    det = hermitian_det(m)
    if not np.all(smallmat.positive_definite(m, det)):
        return None
    rho = np.log(det) - np.log(fvals)
    c = float(np.sum(det * rho) / np.sum(det))
    rinf = float(np.max(np.abs(np.exp(rho - c) - 1.0)))
    return m, det, rho - c, rinf, c


def _state(wvals: np.ndarray, phi: np.ndarray, torus: TorusModel, fvals: np.ndarray):
    """:func:`_evaluate` at the form ``W + dd_bar(phi)``."""
    m = complex_hessian(PotentialField(torus, phi)).values
    m += wvals
    return _evaluate(m, fvals)


def _min_eigenvalue(m: np.ndarray) -> float:
    return float(np.min(smallmat.eigvalsh(m)[..., 0]))


def solve_ma(
    problem: MAProblem,
    initial_guess: PotentialField | None = None,
    background_form: HermitianFormField | None = None,
) -> MASolveResult:
    """Damped-Newton solve in the mean-zero gauge.

    Requires :func:`compatibility_check` to have been applied;
    ``background_form`` is ``problem.background_form()`` when the caller has
    built it already, for instance for that check.  The residual
    reported is ``sup | det(W + dd_bar phi) / (e^c F) - 1 |`` with the
    compensating constant ``c``; for compatible data ``|c|`` is at the
    spectral-truncation level and the plain ratio against ``F`` satisfies the
    same bound up to that term.
    """
    if problem.compat_factor is None:
        raise ModelError("run compatibility_check before solve_ma")
    torus = problem.torus
    n = torus.n
    fscale = math.factorial(n) * 2.0**n
    f = problem.target_density / fscale
    if np.min(f) <= 0:
        raise ModelError("target density must be strictly positive")

    if background_form is None:
        background_form = problem.background_form()
    wvals = background_form.values
    shape = np.broadcast_shapes(wvals.shape[:-2], f.shape)
    if initial_guess is not None:
        if initial_guess.torus != torus:
            raise ModelError("initial guess lives on a different torus")
        shape = np.broadcast_shapes(shape, initial_guess.values.shape)
    f = np.broadcast_to(f, shape)
    # dd_bar(0) = 0: W's own evaluation checks its positivity and is the state at a zero guess.
    state = _evaluate(np.ascontiguousarray(np.broadcast_to(wvals, shape + (n, n))), f)
    if state is None:
        raise ModelError("background form is not positive definite at every grid point")

    if n == 1:
        # det is linear in the Hessian: one exact spectral Poisson step.
        w = np.broadcast_to(wvals[..., 0, 0].real, shape)
        c = math.log(float(np.mean(w)) / float(np.mean(f)))
        phi = poisson_solve(torus, np.exp(c) * f - w)
        initial_residual = state[3]
        state = _state(wvals, phi, torus, f)
        rinf = None if state is None else state[3]
        if rinf is None or rinf > problem.tol:
            raise NonConvergence(
                f"linear n=1 solve left residual {rinf}, above tol {problem.tol}", residual=rinf
            )
        return MASolveResult(
            phi=PotentialField(torus, phi, mean_zero=True),
            residual=rinf,
            iterations=1,
            positivity_margin=_min_eigenvalue(state[0]),
            log_constant=c,
            residual_history=(initial_residual, rinf),
            cg_iterations=(0,),
            line_search_halvings=(0,),
        )

    if initial_guess is None:
        phi = np.zeros(shape)
    else:
        phi = np.broadcast_to(initial_guess.values - initial_guess.mean(), shape).copy()
        state = _state(wvals, phi, torus, f)
        if state is None:
            raise ModelError("initial guess destroys pointwise positivity of the background form")
    m, det, rho_c, rinf, c = state
    state = None
    history, cg_counts, halvings = [rinf], [], []

    while rinf > problem.tol:
        if len(history) > problem.max_iter:
            raise NonConvergence(
                f"no convergence in {problem.max_iter} Newton iterations (residual {rinf:.3e})",
                residual=rinf,
            )
        op = _NewtonOperator(torus, m, shape)
        # A(delta) = -b with A negative semidefinite, i.e. op(delta) = b for op = -A.
        b = det * rho_c
        del m, det, rho_c  # the last references: freed before the CG solve and line search
        delta, cg = _pcg(op, b, rtol=float(np.clip(1e-2 * rinf, 1e-14, 0.45)))
        del op, b

        alpha, halved = 1.0, 0
        while True:
            trial = phi + alpha * delta
            state = _state(wvals, trial, torus, f)
            if state is not None and state[3] <= rinf * (1 + 1e-12) + 1e-15:
                break
            state = None  # a rejected trial is freed before the next one
            alpha *= 0.5
            halved += 1
            if alpha < 2.0**-30:
                raise StepFailure(
                    f"Newton step rejected down to 2^-30 damping at residual {rinf:.3e}"
                )
        phi = trial
        m, det, rho_c, rinf, c = state
        state = None
        history.append(rinf)
        cg_counts.append(cg)
        halvings.append(halved)

    return MASolveResult(
        phi=PotentialField(torus, phi - np.mean(phi), mean_zero=True),
        residual=rinf,
        iterations=len(history) - 1,
        positivity_margin=_min_eigenvalue(m),
        log_constant=c,
        residual_history=tuple(history),
        cg_iterations=tuple(cg_counts),
        line_search_halvings=tuple(halvings),
    )


def ma_for_dk(
    line_class,
    kahler,
    k: int,
    psi0: PotentialField | None = None,
    torus: TorusModel | None = None,
    tol: float = 1e-9,
    max_iter: int = 50,
) -> MASolveResult:
    """Monge-Ampere solve with shifted background ``H + kG`` and constant target
    density ``D_k * (k omega)^n``.

    At the solution the pointwise determinant ratio realises the volume ratio
    D_k, so the relative eigenvalues of the evolved form against ``k omega``
    multiply to D_k at every grid point.
    """
    if torus is None:
        if psi0 is None:
            raise ModelError("ma_for_dk needs a torus (directly or via psi0)")
        torus = psi0.torus
    H = ConstantHermitianClass(np.asarray(line_class.matrix if hasattr(line_class, "matrix") else line_class))
    G = np.asarray(kahler.matrix if hasattr(kahler, "matrix") else kahler)
    n = torus.n
    dk = dk_constant(H.matrix, G, k)
    shifted = ConstantHermitianClass(H.matrix + k * G)
    density = dk * math.factorial(n) * 2.0**n * hermitian_det((k * G)[None, ...])[0]
    target = np.full((1,) * torus.ndim_real, density)
    problem = MAProblem(
        torus=torus,
        background=shifted,
        target_density=target,
        background_potential=psi0,
        tol=tol,
        max_iter=max_iter,
    )
    wform = problem.background_form()
    return solve_ma(compatibility_check(problem, wform), background_form=wform)
