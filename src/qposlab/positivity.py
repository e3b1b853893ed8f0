"""Relative eigenvalue fields and the grid certificate.

A Hermitian form field ``A`` is measured against a pointwise positive
reference ``B`` through the generalized eigenvalues of ``A v = lambda B v``.
``B = L L^H`` is factored on its stored shape only (one n x n Cholesky when
the reference is constant, as in every pipeline), and ``L^{-1} A L^{-H}`` is
formed plane by plane.  :func:`eigenvalues_relative` takes its eigenvalues
by the kernels of :mod:`qposlab.smallmat` one axis-0 slab of about 65,536
points at a time (a reference that varies along axis 0 is sliced with it),
each slab writing its rows of one preallocated array, which comes back as
the ``(..., n)`` field of eigenvalues sorted descending.  Every entry and
eigenvalue is bitwise the whole-grid one, and no whole-grid entry plane is
held.  A class is *q-positive* at a point when at least ``n - q`` of them are
positive, so a certificate tracks the (n-q)-th largest eigenvalue as its
margin.  The grid certificate (:func:`_certify_regions`, which ``glue``
shares) holds no field: it reduces each region's margin slab by slab.

Pipeline for a single positive pairing (the (n-1)-positivity statement on the
torus): pick the smallest admissible shift k with volume ratio D_k > 1, solve
the Monge-Ampere equation with background ``H + k omega`` and constant target
``D_k (k omega)^n`` by :func:`solve_ma`, and reduce the relative eigenvalues
of the evolved form against ``k omega`` over the grid, one eigen pass in
all: the curvature ``evolved - k omega`` has relative eigenvalues
``lambda - 1``.  The evolved form is the solver's own: the planes of
``H + k omega + dd_bar(psi0 + phi)`` of its last accepted state, which its
residual was measured on.  The same pass checks two redundant identities
(the pointwise eigenvalue product equals D_k; the smallest eigenvalue stays
positive), and a violation raises, because it can only come from a solver
defect.  They are not an independent recompute: ``qposlab certify --out``
writes ``phi``, from which the form can be rebuilt and checked apart from
the program.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import smallmat
from .calculus import HermitianFormField, PotentialField, _as_form, _slab_bounds
from .errors import ConsistencyFailure, HypothesisViolation, ModelError
from .geometry import (
    ConstantHermitianClass,
    KahlerClass,
    TorusModel,
    choose_k,
    dk_constant,
    intersection_number,
)
from .ma_solver import MAProblem, MASolveResult, solve_ma

__all__ = [
    "RegionCertificate",
    "eigenvalues_relative",
    "OnePositiveRun",
    "one_positive_pipeline",
]


def _inverse_cholesky(reference: HermitianFormField) -> np.ndarray:
    """``L^{-1}`` for a positive definite reference ``B = L L^H``, on its stored shape."""
    eigb = smallmat.eigvalsh(reference.diag, reference.upper)[0]
    if float(np.min(eigb)) <= 0:
        worst = np.unravel_index(int(np.argmin(eigb)), eigb.shape)
        raise ModelError(f"reference form is not positive definite at grid point {worst}")
    # LAPACK factors the reference's matrices, on its stored shape only: one when it is constant.
    return np.linalg.inv(np.linalg.cholesky(reference.values))


def eigenvalues_relative(curvature, reference, torus: TorusModel) -> np.ndarray:
    """Generalized Hermitian eigenvalues of ``curvature`` against ``reference``, slab by slab along axis 0."""
    a = _as_form(curvature, torus)
    b = _as_form(reference, torus)
    n = torus.n
    inv_chol = _inverse_cholesky(b)
    shape = np.broadcast_shapes(a.diag.shape[1:], b.diag.shape[1:])
    values = np.empty(shape + (n,))  # (*grid_broadcast, n), real, descending
    # A serial loop: slab temporaries allocated on pool threads stay in those
    # threads' allocator arenas and raise the process's resident size.
    for lo, hi in _slab_bounds(shape[0], math.prod(shape[1:])):
        factor = inv_chol if inv_chol.shape[0] == 1 else inv_chol[lo:hi]
        lam = smallmat.eigvalsh(*_whitened(*a.rows(lo, hi), factor))
        for i, plane in enumerate(lam):
            values[lo:hi, ..., n - 1 - i] = plane  # descending
    return values


def _whitened(diag, upper, inv_chol):
    """``(diag, upper)`` planes of ``L^{-1} A L^{-H}`` for the planes of ``A`` and ``inv_chol = L^{-1}``."""
    n = len(diag)
    conj_inv = inv_chol.conj()
    entry = smallmat.hermitian_entries(diag, upper)
    out_diag, out_upper = [None] * n, [None] * (n * (n - 1) // 2)
    for j in range(n):
        for k in range(j + 1):
            # (L^{-1} A L^{-H})_jk, with L^{-1} lower triangular
            acc = 0.0
            for p in range(j + 1):
                for r in range(k + 1):
                    acc = acc + (inv_chol[..., j, p] * conj_inv[..., k, r]) * entry[p][r]
            if k == j:
                out_diag[j] = acc.real.copy()
            else:
                out_upper[smallmat.upper_pairs(n).index((k, j))] = np.conj(acc, out=acc)
    return out_diag, out_upper


@dataclass(frozen=True)
class RegionCertificate:
    """Margin of one region of grid points: its point count, minimum and first argmin.

    A region with no grid points has ``min_margin = inf`` and does not pass.
    """

    name: str
    n_points: int
    min_margin: float
    passed: bool
    worst_point: tuple | None


def _in_order(task, parts: list) -> list:
    """``[task(p) for p in parts]`` on the calling thread: certify's slab runner,
    serial for the reason the slab loop of :func:`eigenvalues_relative` gives."""
    return [task(p) for p in parts]


def _certify_regions(planes_rows, shape, regions, run) -> tuple[RegionCertificate, ...]:
    """Certificates of margins read off a form field's eigenvalues, region by region.

    ``planes_rows(lo, hi)`` gives the form's ``(diag, upper)`` planes on rows
    ``lo:hi`` along axis 0 of ``shape``, or whole when they are constant
    along it.  ``regions`` holds ``(name, mask, margin_of, margin)``:
    ``margin_of`` maps a slab's ascending eigenvalue planes
    (:func:`smallmat.eigvalsh`) to its margin plane, and a region passes when
    it holds grid points and its smallest margin exceeds ``margin``.  The grid
    is cut into slabs of rows along axis 0 (one slab when every array is
    constant along it), and each slab reduces each region to its point count,
    minimum and first argmin.  Slabs are contiguous in C order, so combining
    them in order with the first slab winning ties gives ``np.argmin``'s first
    flat index over the whole grid, and every margin, count and worst point is
    bitwise the whole-grid one.  ``run(task, parts)`` runs the slabs:
    :func:`calculus._run_slabs` on the slab pool, or :func:`_in_order`.
    """
    shape = np.broadcast_shapes(shape, *(mask.shape for _, mask, _, _ in regions))

    def slab(bounds):
        lo, hi = bounds
        lam = smallmat.eigvalsh(*planes_rows(lo, hi))
        reductions = []
        for _, mask, margin_of, _ in regions:
            vals, msk = np.broadcast_arrays(margin_of(lam), mask if mask.shape[0] == 1 else mask[lo:hi])
            count = int(np.count_nonzero(msk))
            flat, low = 0, math.inf
            if count:
                masked = np.where(msk, vals, np.inf)
                flat = int(np.argmin(masked))
                low = float(masked.reshape(-1)[flat])
            first, *rest = np.unravel_index(flat, msk.shape)
            reductions.append((count, low, (int(first) + lo, *(int(i) for i in rest))))
        return reductions

    per_slab = run(slab, _slab_bounds(shape[0], math.prod(shape[1:])))
    certs = []
    for r, (name, _, _, margin) in enumerate(regions):
        n_points, low, worst = 0, None, None
        for reductions in per_slab:
            count, slab_low, slab_worst = reductions[r]
            n_points += count
            # np.argmin's rule: the first minimum wins, and a nan is smaller than every number
            if low is None or slab_low < low or (math.isnan(slab_low) and not math.isnan(low)):
                low, worst = slab_low, slab_worst
        if n_points == 0:
            worst = None
        passed = n_points > 0 and bool(low > margin)
        certs.append(RegionCertificate(name=name, n_points=n_points, min_margin=low, passed=passed, worst_point=worst))
    return tuple(certs)


@dataclass(frozen=True)
class OnePositiveRun:
    """Full record of the pairing-to-certificate pipeline.

    ``certificate`` reduces, over every grid point, the margin
    ``lambda_{n-q} - 1``: the (n-q)-th largest eigenvalue of the solved form
    ``ma_result.form`` relative to ``k_omega``, less one.  It passes when the
    smallest margin exceeds ``margin``.
    """

    certificate: RegionCertificate
    q: int
    margin: float
    k: int
    dk: float
    k_omega: np.ndarray
    ma_result: MASolveResult
    product_error: float
    pairing: float

    @property
    def margin_field(self) -> np.ndarray:
        """The certificate's margin at every grid point, from one eigen pass per read."""
        form = self.ma_result.form
        lam = eigenvalues_relative(form, self.k_omega, form.torus)
        return lam[..., lam.shape[-1] - self.q - 1] - 1.0


def one_positive_pipeline(
    line_class,
    kahler,
    psi0: PotentialField | None = None,
    torus: TorusModel | None = None,
    k_max: int = 64,
    tol: float = 1e-9,
    max_iter: int = 50,
    margin: float = 1e-8,
    q: int | None = None,
) -> OnePositiveRun:
    """Certify (n-1)-positivity of a class with a single positive pairing.

    Hypothesis: ``(L . omega^{n-1}) > 0``.  The evolved metric's relative
    eigenvalues against ``k omega`` multiply to D_k > 1 pointwise while the
    smallest stays positive, so the largest exceeds one and the curvature form
    ``H + dd_bar(psi0 + phi)`` keeps at least one positive eigenvalue
    everywhere: the q = n-1 certificate.  Requesting a smaller ``q`` checks
    the stronger count against the same eigenvalues.
    """
    if torus is None:
        if psi0 is None:
            raise ModelError("one_positive_pipeline needs a torus (directly or via psi0)")
        torus = psi0.torus
    H = line_class if isinstance(line_class, ConstantHermitianClass) else ConstantHermitianClass(line_class)
    G = kahler if isinstance(kahler, KahlerClass) else KahlerClass(np.asarray(kahler))
    n = torus.n
    pairing = intersection_number([H.matrix] + [G.matrix] * (n - 1))
    if pairing <= 0:
        raise HypothesisViolation(f"(L . omega^(n-1)) = {pairing} must be positive")
    if q is None:
        q = n - 1
    if not 0 <= q <= n - 1:
        raise ModelError(f"q must lie in 0..{n - 1}, got {q}")
    if margin < 0:
        raise ModelError("margin must be non-negative")

    k = choose_k(H.matrix, G.matrix, k_max)
    dk = dk_constant(H.matrix, G.matrix, k)
    k_omega = k * G.matrix
    # Monge-Ampere with background H + k omega and constant target D_k (k omega)^n: at the
    # solution the relative eigenvalues against k omega multiply to D_k at every grid point.
    density = dk * math.factorial(n) * 2.0**n * smallmat.det(k_omega[None, ...])[0].real
    ma = solve_ma(MAProblem(
        torus=torus,
        background=ConstantHermitianClass(H.matrix + k_omega),
        target_density=np.full((1,) * torus.ndim_real, density),
        background_potential=psi0,
        tol=tol,
        max_iter=max_iter,
    ))

    # The evolved form is the solver's last accepted state, the planes its residual was measured on.
    form = ma.form
    inv_chol = _inverse_cholesky(_as_form(k_omega, torus))
    every_point = np.ones((1,) * torus.ndim_real, dtype=bool)
    bound = 10 * tol * max(1.0, dk)

    def product_gap(lam):
        # largest first, the order np.prod multiplies a descending field in
        return -np.abs(functools.reduce(np.multiply, lam[::-1]) - dk)

    # The curvature evolved - k omega has relative eigenvalues lam - 1.
    cert, evolved, product = _certify_regions(
        lambda lo, hi: _whitened(*form.rows(lo, hi), inv_chol),
        form.diag.shape[1:],
        [
            ("certificate", every_point, lambda lam: lam[q] - 1.0, margin),
            ("evolved form", every_point, lambda lam: lam[0], 0.0),
            ("eigenvalue product", every_point, product_gap, -bound),
        ],
        _in_order,
    )
    product_error = -product.min_margin
    if product_error > bound:
        raise ConsistencyFailure(
            f"pointwise eigenvalue product misses D_k={dk} by {product_error:.3e}; solver defect"
        )
    if not evolved.passed:
        raise ConsistencyFailure("evolved form lost pointwise positivity; solver defect")
    return OnePositiveRun(
        certificate=cert,
        q=q,
        margin=margin,
        k=k,
        dk=dk,
        k_omega=k_omega,
        ma_result=ma,
        product_error=product_error,
        pairing=pairing,
    )
