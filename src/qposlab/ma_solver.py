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

so every transform is a real FFT.  Conjugate gradients runs in Fourier
space: its vectors are ``rfftn`` half spectra, the operator maps ``rfftn(u)``
to ``rfftn(op(u))`` with 2n inverse transforms for the gradients and 2n
forward ones for the fluxes, and its inner product is the real-space one by
Parseval (weight 2 on interior last-axis modes, 1 on the zero and Nyquist
planes).  So a CG iteration costs 4n transforms, and a solve two more: the
right-hand side in, the direction out.  An application holds no whole-grid
gradient, flux or product plane: after the inverse complex passes of the 2n
gradient spectra, each axis-0 slab of about 65,536 points takes the last-axis
real transforms of its rows of the gradients, forms its rows of the 2n
fluxes and transforms them back into the same rows of the same spectra,
with every line transform and product bitwise the whole-grid one.  The slab
tasks share min(slabs, CPUs) sets of slab rows, capped at what one
whole-grid real plane holds (or two sets, on a grid too small for that), so
the scratch does not grow with the CPU count.  The operator's 2n half
spectra are its only lasting buffers, and CG keeps its preconditioned
residual in one of them.  A constant-coefficient version of ``A`` built from
the grid-mean of ``adj(M)`` preconditions the solve: a division by its
symbol on the modes the operator reaches.  Steps are halved until pointwise
positivity of ``W + dd_bar(phi)`` is preserved and the sup residual does not
increase.  :meth:`MAProblem.form` builds ``W`` and every state, ``H_0 +
dd_bar(psi_0 + phi)`` (which is ``W + dd_bar(phi)``), as the entry planes
:func:`complex_hessian` writes, with the constant entries of ``H_0`` added
and no lower planes; determinants, the adjugate and the positivity test
(Sylvester minors, which reuse the residual's determinant, with an
eigenvalue fallback near zero) read them in :mod:`qposlab.smallmat`.  The
result keeps the solved form's planes, which the certificate reads; their
smallest eigenvalue is computed only when read.

One Newton step costs one Hessian per line-search trial and nothing more.
Each grid takes ``W``'s Hessian and determinant once, for the density rescale
to its total mass and the check of its positivity, and only the coarsest
keeps them, as its starting state: a finer grid drops them before it builds
its guess's state, and takes ``W``'s Hessian again only if it must start from
zero after all.  The background is carried by its potential ``psi_0``.  Each
step frees a plane with its last reference: the determinant and log residual
once the right-hand side's half spectrum is taken, the state planes once the
operator is built.

A solve with n >= 2 on a grid above 8 where ``psi_0`` or ``f`` has a whole
stored axis starts from the solution of the same problem on the half grid:
the nested iteration of full multigrid (A. Brandt, Math. Comp. 31, 1977).
:func:`solve_ma` walks its grid ladder down, restricting ``psi_0`` and ``f``
grid by grid by truncating their half spectra, to grid 8 or to the first
coarse grid whose set-up raises; then up, prolonging each grid's potential
into the next by zero padding (J. P. Boyd, *Chebyshev and Fourier Spectral
Methods*, 2001).  Length-one axes stay length one, and the smaller grid's
Nyquist mode is dropped both ways (:func:`qposlab.calculus._resample`).  A
coarse grid has no tol of its own: it steps until its residual is at rounding
level or a step fails to halve it, which may stall at the grid's Nyquist
floor, and hands on its iterate; one that raises hands on nothing, and the
next grid starts from zero.  The solve's own grid then steps while its
residual is above tol, as without a ladder, so the certified state is the
fine one and only its starting guess changes.  :attr:`MASolveResult.levels`
records each grid.

In one complex dimension the equation is linear in ``phi`` and is solved in a
single exact spectral step.
"""

from __future__ import annotations

import math
import queue
import time
from dataclasses import dataclass, replace

import numpy as np

from . import smallmat
from .calculus import (
    HermitianFormField,
    PotentialField,
    _fft_passes,
    _half_spectrum_wavenumbers,
    _ifft_passes,
    _irfftn,
    _resample,
    _rfftn,
    _run_slabs,
    _slab_bounds,
    complex_hessian,
    fft_workers,
    hermitian_det,
    poisson_solve,
)
from .errors import ModelError, NonConvergence, NumericsError, StepFailure
from .geometry import ConstantHermitianClass, TorusModel

__all__ = ["MAProblem", "MALevel", "MASolveResult", "solve_ma"]


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

    def form(self, phi: np.ndarray | None = None) -> HermitianFormField:
        """``H_0 + dd_bar(psi_0 + phi)`` for potential values ``phi`` on the grid; ``W`` without ``phi``.

        One Hessian of ``psi_0 + phi`` (or of the one given), with the constant entries of
        ``H_0`` added into its planes; with neither potential, the constant planes of ``H_0``.
        """
        h0, potential = self.background.matrix, self.background_potential
        if phi is not None:
            potential = PotentialField(self.torus, phi if potential is None else potential.values + phi)
        if potential is None:
            return HermitianFormField.from_constant(self.torus, h0)
        hess = complex_hessian(potential)
        for j in range(self.torus.n):
            hess.diag[j] += h0[j, j].real
        for p, (j, k) in enumerate(smallmat.upper_pairs(self.torus.n)):
            hess.upper[p] += h0[j, k]
        return hess


@dataclass(frozen=True)
class MALevel:
    """One grid of a solve's ladder: its Newton record, how it ended and its wall time.

    ``residual_history`` holds the residual of the level's starting guess and
    then the residual after each Newton step; ``cg_iterations`` (operator
    applications) and ``line_search_halvings`` hold one entry per step.
    ``ended`` is ``"converged"`` (residual at most tol), ``"stalled"`` (a
    coarse level that stopped above tol) or ``"failed"`` (a coarse level that
    raised in its set-up or its Newton steps, and the next level started from
    zero); a failed level records no steps.  ``wall_s`` is the level's own
    wall time, its set-up and its Newton steps.
    """

    grid: int
    ended: str
    wall_s: float
    residual_history: tuple[float, ...] = ()
    cg_iterations: tuple[int, ...] = ()
    line_search_halvings: tuple[int, ...] = ()


@dataclass(frozen=True)
class MASolveResult:
    """Solution and per-level record.

    ``form`` is the solved form ``W + dd_bar(phi)``: the planes of the last
    accepted state, positive definite at every grid point.  ``compat_factor``
    is the factor the target density was multiplied by to match the total
    mass of ``W``.  ``levels`` holds every grid the solve ran on, coarsest
    first; the last is the solve's own grid, whose record the residual,
    iteration count and per-step properties read.  The n = 1 solve is one
    exact spectral step, recorded with zero CG iterations and halvings.
    """

    phi: PotentialField
    log_constant: float
    compat_factor: float
    form: HermitianFormField
    levels: tuple[MALevel, ...]

    @property
    def residual_history(self) -> tuple[float, ...]:
        return self.levels[-1].residual_history

    @property
    def cg_iterations(self) -> tuple[int, ...]:
        return self.levels[-1].cg_iterations

    @property
    def line_search_halvings(self) -> tuple[int, ...]:
        return self.levels[-1].line_search_halvings

    @property
    def residual(self) -> float:
        return self.residual_history[-1]

    @property
    def iterations(self) -> int:
        """Newton steps on the solve's own grid; the coarse levels' steps are in :attr:`levels`."""
        return len(self.cg_iterations)

    @property
    def positivity_margin(self) -> float:
        """Smallest eigenvalue of ``form`` over the grid, from one eigen pass per read."""
        return float(np.min(smallmat.eigvalsh(self.form.diag, self.form.upper)[0]))


class _NewtonOperator:
    """The SPD operator  u -> -Re sum_j d/dz_bar_j(adj_jk d u/dz_k)  on half spectra, and its preconditioner.

    Built from the planes of the form ``M`` (full stored ``shape``).  It maps
    ``rfftn(u)`` to ``rfftn(op(u))`` for real fields ``u``, 4n transforms per
    application and so per CG iteration, while the preconditioner is a
    division by ``symbol`` on the ``active`` modes and the projection a mask.
    ``adj(M)`` is stored once, as contiguous planes: its real diagonal and the
    real and imaginary upper entries.

    An application keeps no whole-grid gradient, flux or product plane.  The
    2n gradient spectra get their inverse complex passes in the 2n half
    spectra of :attr:`spectra`; then each axis-0 slab of
    :func:`qposlab.calculus._slab_bounds` (:meth:`_fluxes`) takes the
    last-axis inverse real FFT of its rows of the gradients, forms the 2n
    fluxes and writes their last-axis real FFTs back into the same rows; the
    forward complex passes, the derivative symbols and the sum follow.  The
    slab tasks borrow their gradient, flux and product rows from
    min(slabs, CPUs) buffer sets, fewer when the sets would take more than
    one whole-grid real plane (but two, if the slabs and CPUs allow, on a
    grid too small for that).  Every line transform and every product is the
    one the whole-grid order takes, so the result is bitwise the same.  :meth:`dot` is the real-space inner
    product of two fields read off their half spectra.
    """

    def __init__(self, torus: TorusModel, diag: np.ndarray, upper: np.ndarray, shape: tuple[int, ...]):
        n = torus.n
        self.n = n
        self.shape = shape
        self.adj_diag, self.adj_re, self.adj_im, mean_adj = smallmat.adjugate_planes(diag, upper)
        kappa = _half_spectrum_wavenumbers(torus, shape)
        self.deriv = [2j * np.pi * k for k in kappa]  # symbols of d/dx_1, d/dy_1, ...
        dz = [np.pi * (kappa[2 * j + 1] + 1j * kappa[2 * j]) for j in range(n)]
        symbol = 0.0
        for j in range(n):
            for k in range(n):
                symbol = symbol + mean_adj[j, k] * np.conj(dz[j]) * dz[k]
        self.half = shape[:-1] + (shape[-1] // 2 + 1,)
        self.symbol = np.ascontiguousarray(np.broadcast_to(np.real(symbol), self.half))
        self.active = self.symbol > 0  # modes the operator can reach
        # rfftn keeps one of each conjugate pair of last-axis modes, except the
        # zero mode and (at even length) the Nyquist mode, which pair with themselves.
        self._once = [0] + ([shape[-1] // 2] if shape[-1] % 2 == 0 else [])
        self._points = math.prod(shape)
        self._spectra = None

    @property
    def spectra(self) -> np.ndarray:
        """The 2n half-spectrum buffers every application rewrites, allocated on first use.

        Between applications the caller may use them as scratch: :meth:`dot`
        writes into the last one.
        """
        if self._spectra is None:
            self._spectra = np.empty((2 * self.n,) + self.half, dtype=np.complex128)
        return self._spectra

    def dot(self, a: np.ndarray, b: np.ndarray) -> float:
        """``np.sum(u * v)`` for the real fields ``u``, ``v`` of the half spectra ``a``, ``b`` (Parseval).

        Interior last-axis modes weigh 2, for the conjugate partners rfftn
        leaves out; the zero and Nyquist planes weigh 1.  The products of the
        real and imaginary parts go into the last of :attr:`spectra` and are
        summed by numpy, not BLAS, whose threaded dot rounds differently on
        another CPU count.
        """
        prod = np.multiply(a.view(np.float64), b.view(np.float64), out=self.spectra[-1].view(np.float64))
        s = 2.0 * float(np.sum(prod))
        for m in self._once:
            s -= float(np.sum(prod[..., 2 * m : 2 * m + 2]))
        return s / self._points

    def apply(self, uhat: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``rfftn(op(u))`` from ``uhat = rfftn(u)``, written into ``out``."""
        spec = self.spectra
        for a, d in enumerate(self.deriv):
            _ifft_passes(np.multiply(uhat, d, out=spec[a]))
        bounds = _slab_bounds(self.shape[0], math.prod(self.shape[1:]))
        # Each slab task borrows one set of row buffers.  They are allocated on
        # this thread: slab temporaries freed on the pool's threads would stay in
        # those threads' allocator arenas and raise the process's resident size.
        # There are at most as many sets as workers, and no more than fit in one
        # whole-grid real plane, or two on a grid too small for that: the
        # scratch does not grow with the CPU count.
        rows = (2 * self.n + 2, max(hi - lo for lo, hi in bounds)) + self.shape[1:]
        scratch = queue.SimpleQueue()
        for _ in range(min(len(bounds), fft_workers(), max(2, self._points // math.prod(rows)))):
            scratch.put(np.empty(rows))
        _run_slabs(lambda b: self._fluxes(b, scratch), bounds)
        del scratch  # freed before the forward complex passes
        out.fill(0)
        for a, d in enumerate(self.deriv):
            out += np.multiply(_fft_passes(spec[a]), d, out=spec[a])
        out *= -0.25
        return out

    def _fluxes(self, bounds: tuple[int, int], scratch: queue.SimpleQueue) -> None:
        """On axis-0 rows ``lo:hi``: gradients in from :attr:`spectra`, and the flux along each axis out into it.

        The gradient spectra have had their complex passes; the last-axis
        inverse real FFT of these rows gives the rows of the 2n gradients, and
        the last-axis real FFT of each flux overwrites the rows of the spectrum
        of the axis it is differentiated along.  The gradient, flux and product
        rows live in a buffer set taken from ``scratch`` and put back.
        """
        lo, hi = bounds
        n, spec = self.n, self.spectra
        buffers = scratch.get()
        try:
            grad, flux, product = buffers[: 2 * n, : hi - lo], buffers[2 * n, : hi - lo], buffers[2 * n + 1, : hi - lo]
            for a in range(2 * n):
                np.fft.irfft(spec[a, lo:hi], n=self.shape[-1], axis=-1, out=grad[a])
            gx, gy = grad[0::2], grad[1::2]
            adj_diag, adj_re, adj_im = (p[:, lo:hi] for p in (self.adj_diag, self.adj_re, self.adj_im))
            for j in range(n):
                # P_j, then Q_j: the flux differentiated along x_j, then along y_j
                for axis, g, h, sign in ((2 * j, gx, gy, 1), (2 * j + 1, gy, gx, -1)):
                    np.multiply(adj_diag[j], g[j], out=flux)
                    for k in range(n):
                        if k == j:
                            continue
                        # adj_jk is stored above the diagonal; below it, it is the conjugate of adj_kj
                        e = smallmat.upper_pairs(n).index((min(j, k), max(j, k)))
                        flux += np.multiply(adj_re[e], g[k], out=product)
                        np.multiply(adj_im[e], h[k], out=product)
                        if sign * (k - j) > 0:
                            flux += product
                        else:
                            flux -= product
                    np.fft.rfft(flux, axis=-1, out=spec[axis, lo:hi])
        finally:
            scratch.put(buffers)

    def precondition(self, rhat: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``rhat / symbol`` on the active modes and zero on the others, written into ``out``."""
        out.fill(0)
        return np.divide(rhat, self.symbol, out=out, where=self.active)

    def project(self, rhat: np.ndarray) -> np.ndarray:
        """Restrict a spectrum, in place, to the modes the operator can reach (drops the mean and Nyquist-only modes)."""
        return np.multiply(rhat, self.active, out=rhat)


def _pcg(op: _NewtonOperator, bhat: np.ndarray, rtol: float, max_cg: int = 400) -> tuple[np.ndarray, int]:
    """Preconditioned CG for ``op(x) = b``; returns ``x`` and the number of operator applications.

    ``bhat`` is the half spectrum ``rfftn(b)``, which the iteration consumes as
    its residual; ``x`` is returned as a real field.  The iteration runs on
    half spectra, with :meth:`_NewtonOperator.dot` as the inner product, so the
    only transform outside the operator is ``x``'s inverse.  The
    preconditioned residual lives in the first of the operator's
    :attr:`~_NewtonOperator.spectra`: it is dead while the operator applies.
    """
    r = op.project(bhat)
    bnorm = math.sqrt(op.dot(r, r))
    if bnorm == 0:
        return np.zeros(op.shape), 0
    x = np.zeros_like(r)
    z = op.precondition(r, op.spectra[0])
    p = z.copy()
    ap = np.empty_like(p)
    rz = op.dot(r, z)
    iterations = 0
    for iterations in range(1, max_cg + 1):
        op.apply(p, ap)
        pap = op.dot(p, ap)
        if pap <= 0:
            break  # numerically lost positivity; return best-so-far direction
        alpha = rz / pap
        x += np.multiply(p, alpha, out=z)  # z is free until the next preconditioning
        r -= np.multiply(ap, alpha, out=ap)
        if math.sqrt(op.dot(r, r)) <= rtol * bnorm:
            break
        op.precondition(r, z)
        rz_new = op.dot(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    return _irfftn(x, op.shape), iterations


def _evaluate(planes: tuple[np.ndarray, np.ndarray], log_f: np.ndarray):
    """``planes``, determinant, compensated log residual, sup residual and constant ``c`` of a form.

    ``None`` when the form ``planes = (diag, upper)`` is not positive definite at every grid point.
    ``log_f`` is the level's :attr:`_Level.log_f`, which broadcasts to the planes.
    """
    det = hermitian_det(*planes)
    if not np.all(smallmat.positive_definite(*planes, det)):
        return None
    return _log_residual(planes, det, log_f)


def _log_residual(planes: tuple[np.ndarray, np.ndarray], det: np.ndarray, log_f: np.ndarray):
    """:func:`_evaluate` of a form known to be positive definite, whose determinant ``det`` is taken."""
    rho = np.log(det) - log_f
    c = float(np.sum(det * rho) / np.sum(det))
    rinf = float(np.max(np.abs(np.exp(rho - c) - 1.0)))
    return planes, det, rho - c, rinf, c


def _state(problem: MAProblem, phi: np.ndarray, log_f: np.ndarray):
    """:func:`_evaluate` at the form ``H_0 + dd_bar(psi_0 + phi)`` of :meth:`MAProblem.form`."""
    form = problem.form(phi)
    return _evaluate((form.diag, form.upper), log_f)


@dataclass
class _Level:
    """A set-up grid of the ladder: its rescaled density ``f`` on its solve shape, ``log f`` on the
    density's stored shape (taken once per grid; the residual's subtraction broadcasts it), and
    ``W``'s form and determinant ``w``."""

    problem: MAProblem
    compat_factor: float
    f: np.ndarray
    log_f: np.ndarray
    setup_s: float
    w: tuple[HermitianFormField, np.ndarray] | None


def _setup(problem: MAProblem) -> _Level:
    """Rescale the density by ``compat_factor`` to the mass of ``W``, the mean of its top density ``n! 2^n det W``.

    The equation only constrains the density up to the free constant, and a solution requires equal masses.
    Raises :class:`ModelError` when the density, the mass or ``W`` (checked on its stored planes) is not positive.
    """
    start = time.perf_counter()
    n = problem.torus.n
    wform = problem.form()
    wdet = hermitian_det(wform.diag, wform.upper)  # W's determinant, on its stored shape, taken once
    if np.min(problem.target_density) <= 0:
        raise ModelError("target density must be strictly positive")
    background_mass = float(np.mean(math.factorial(n) * (2.0**n) * wdet))
    if background_mass <= 0:
        raise ModelError("background form has non-positive total volume")
    compat_factor = background_mass / float(np.mean(problem.target_density))
    f = problem.target_density * compat_factor / (math.factorial(n) * 2.0**n)
    if np.min(f) <= 0:
        raise ModelError("target density must be strictly positive")
    if not np.all(smallmat.positive_definite(wform.diag, wform.upper, wdet)):
        raise ModelError("background form is not positive definite at every grid point")
    shape = np.broadcast_shapes(wform.diag.shape[1:], f.shape)
    return _Level(problem, compat_factor, np.broadcast_to(f, shape), np.log(f), time.perf_counter() - start, (wform, wdet))


def _background_state(w: tuple[HermitianFormField, np.ndarray], level: _Level):
    """The state at ``phi = 0``, where ``dd_bar(0) = 0``: ``W``'s kept form and determinant ``w`` on ``level``'s solve shape."""
    (wform, wdet), shape = w, level.f.shape
    planes = tuple(np.ascontiguousarray(np.broadcast_to(p, p.shape[:1] + shape)) for p in (wform.diag, wform.upper))
    return _log_residual(planes, np.ascontiguousarray(np.broadcast_to(wdet, shape)), level.log_f)


def _coarsens(problem: MAProblem) -> bool:
    """Whether a solve starts from its half-grid solution: n >= 2, a grid above 8 and a whole stored axis of ``psi_0`` or ``f``."""
    grid, psi0 = problem.torus.grid_size, problem.background_potential
    stored = [problem.target_density.shape] + ([] if psi0 is None else [psi0.values.shape])
    return problem.torus.n > 1 and grid > 8 and any(grid in shape for shape in stored)


def _half_grid(problem: MAProblem) -> MAProblem:
    """``problem`` on the half grid: ``psi_0`` and ``f`` restricted by :func:`qposlab.calculus._resample`."""
    psi0 = problem.background_potential
    coarse = TorusModel(problem.torus.n, problem.torus.grid_size // 2)

    def restrict(values):
        return _resample(values, tuple(min(size, coarse.grid_size) for size in values.shape))

    return replace(
        problem,
        torus=coarse,
        target_density=restrict(problem.target_density),
        background_potential=None if psi0 is None else PotentialField(coarse, restrict(psi0.values)),
    )


# A coarse level stops at this residual, 64 ulps of 1: a step below it only moves
# rounding error, and may still halve the residual by chance.
_COARSE_FLOOR = 64.0 * np.finfo(np.float64).eps


def _continues(history: list[float], problem: MAProblem, coarse: bool) -> bool:
    """Whether the Newton loop takes another step after the residuals ``history``.

    A solve steps while its residual is above tol.  A coarse level of the grid ladder has no tol of its own:
    it steps until its residual is at most ``_COARSE_FLOOR``, a step fails to halve it, or it has taken
    ``max_iter`` steps, and then hands on its iterate, which may sit at the level's Nyquist floor.
    """
    if not coarse:
        return history[-1] > problem.tol
    stalled = len(history) > 1 and history[-1] > 0.5 * history[-2]
    return not (stalled or history[-1] <= _COARSE_FLOOR or len(history) > problem.max_iter)


def _newton(level: _Level, coarse_phi: np.ndarray | None, coarse: bool):
    """Damped Newton steps on one grid from ``coarse_phi``, the next coarser grid's potential, prolonged.

    Without it, or where its form is not positive definite, the start is zero.  Returns the grid's
    mean-zero potential, its :class:`MALevel`, and the planes and constant ``c`` of its last state.
    """
    start = time.perf_counter()
    problem, log_f = level.problem, level.log_f
    torus, shape = problem.torus, level.f.shape
    w, level.w = level.w, None  # W's form goes once the starting state is built
    state = None
    if coarse_phi is not None:
        phi = _resample(coarse_phi, shape)
        state = _state(problem, phi, log_f)
    if state is None:
        phi = np.zeros(shape)
        state = _state(problem, phi, log_f) if w is None else _background_state(w, level)
    del w
    planes, det, rho_c, rinf, c = state
    state = None
    history, cg_counts, halvings = [rinf], [], []

    while _continues(history, problem, coarse):
        if len(history) > problem.max_iter:
            raise NonConvergence(
                f"no convergence in {problem.max_iter} Newton iterations (residual {rinf:.3e})",
                residual=rinf,
            )
        # A(delta) = -b with A negative semidefinite, i.e. op(delta) = b for op = -A;
        # CG takes b's half spectrum.  Each plane goes with its last reference.
        bhat = _rfftn(det * rho_c)
        del det, rho_c
        op = _NewtonOperator(torus, *planes, shape)
        del planes
        delta, cg = _pcg(op, bhat, rtol=float(np.clip(1e-2 * rinf, 1e-14, 0.45)))
        del op, bhat

        alpha, halved = 1.0, 0
        while True:
            trial = phi + alpha * delta
            state = _state(problem, trial, log_f)
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
        del delta
        planes, det, rho_c, rinf, c = state
        state = None
        history.append(rinf)
        cg_counts.append(cg)
        halvings.append(halved)

    wall_s = level.setup_s + time.perf_counter() - start
    ended = "converged" if rinf <= problem.tol else "stalled"
    record = MALevel(torus.grid_size, ended, wall_s, tuple(history), tuple(cg_counts), tuple(halvings))
    return phi - np.mean(phi), record, planes, c


def _poisson_step(level: _Level):
    """The n = 1 solve, returned as :func:`_newton` returns: det is linear in the Hessian, one exact spectral step."""
    start = time.perf_counter()
    problem, f = level.problem, level.f
    w = np.broadcast_to(level.w[0].diag[0], f.shape)
    c = math.log(float(np.mean(w)) / float(np.mean(f)))
    phi = poisson_solve(problem.torus, np.exp(c) * f - w)
    initial_residual = _background_state(level.w, level)[3]
    state = _state(problem, phi, level.log_f)
    rinf = None if state is None else state[3]
    if rinf is None or rinf > problem.tol:
        raise NonConvergence(
            f"linear n=1 solve left residual {rinf}, above tol {problem.tol}", residual=rinf
        )
    wall_s = level.setup_s + time.perf_counter() - start
    return phi, MALevel(problem.torus.grid_size, "converged", wall_s, (initial_residual, rinf), (0,), (0,)), state[0], c


def solve_ma(problem: MAProblem) -> MASolveResult:
    """Damped-Newton solve in the mean-zero gauge, up the grid ladder of the module docstring.

    The target density is first rescaled to the total mass of the background
    form ``W`` (the factor is ``compat_factor``).  The residual reported is
    ``sup | det(W + dd_bar phi) / (e^c F) - 1 |`` with the compensating
    constant ``c``; for compatible data ``|c|`` is at the spectral-truncation
    level and the plain ratio against ``F`` satisfies the same bound up to
    that term.  An input error on the solve's own grid raises before any
    coarse work.
    """
    fine = _setup(problem)
    ladder, levels = [fine], []
    while _coarsens(ladder[-1].problem):
        start = time.perf_counter()
        try:
            level = _setup(_half_grid(ladder[-1].problem))
        except (NumericsError, ModelError):
            levels.append(MALevel(ladder[-1].problem.torus.grid_size // 2, "failed", time.perf_counter() - start))
            break
        ladder[-1].w = None  # the finer grid starts from this one's potential, not from zero
        ladder.append(level)
    phi = None
    while len(ladder) > 1:
        level = ladder.pop()
        start = time.perf_counter()
        try:
            phi, record, _, _ = _newton(level, phi, coarse=True)
        except (NumericsError, ModelError):
            wall_s = level.setup_s + time.perf_counter() - start
            phi, record = None, MALevel(level.problem.torus.grid_size, "failed", wall_s)
        levels.append(record)
        del level  # its restricted psi_0 goes before the finer grid solves
    phi, record, planes, c = _newton(fine, phi, coarse=False) if problem.torus.n > 1 else _poisson_step(fine)
    return MASolveResult(
        phi=PotentialField(problem.torus, phi, mean_zero=True),
        log_constant=c,
        compat_factor=fine.compat_factor,
        form=HermitianFormField._trusted(problem.torus, *planes),
        levels=tuple(levels) + (record,),
    )
