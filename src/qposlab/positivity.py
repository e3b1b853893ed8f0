"""Relative eigenvalue fields and q-positivity certificates.

A Hermitian form field ``A`` is measured against a pointwise positive
reference ``B`` through the generalized eigenvalues of ``A v = lambda B v``.
``B = L L^H`` is factored on its stored shape only (one n x n Cholesky when
the reference is constant, as in every pipeline).  ``L^{-1} A L^{-H}`` is
formed plane by plane and its eigenvalues taken by the kernels of
:mod:`qposlab.smallmat` one axis-0 slab of about 65,536 points at a time (a
reference that varies along axis 0 is sliced with it), each slab writing its
rows of one preallocated array, which comes back as the ``(..., n)`` field of
eigenvalues sorted descending.  Every entry and eigenvalue is bitwise the
whole-grid one, and no whole-grid entry plane is held.  A class is
*q-positive* at a point when at least ``n - q`` of them are positive, so the
certificate tracks the (n-q)-th largest eigenvalue as its margin.

Pipeline for a single positive pairing (the (n-1)-positivity statement on the
torus): pick the smallest admissible shift k with volume ratio D_k > 1, solve
the Monge-Ampere equation with background ``H + k omega`` and constant target
``D_k (k omega)^n`` by :func:`solve_ma`, and read the certificate off the
relative eigenvalue field of the evolved form against ``k omega``, one eigen
pass in all: the curvature ``evolved - k omega`` has relative eigenvalues
``lambda - 1``.  The evolved form is the solver's own: the planes of
``H + k omega + dd_bar(psi0 + phi)`` of its last accepted state, which its
residual was measured on.  Two redundant identities are checked on those
planes (the pointwise eigenvalue product equals D_k; the smallest eigenvalue
stays positive) and a violation raises, because it can only come from a
solver defect.  They are not an independent recompute: ``qposlab certify
--out`` writes ``phi``, from which the form can be rebuilt and checked apart
from the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import smallmat
from .calculus import PotentialField, _as_form, _slab_bounds
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
    "PositivityCertificate",
    "eigenvalues_relative",
    "certify_q_positive",
    "OnePositiveRun",
    "one_positive_pipeline",
    "pseff_pipeline",
]


def eigenvalues_relative(curvature, reference, torus: TorusModel) -> np.ndarray:
    """Generalized Hermitian eigenvalues of ``curvature`` against ``reference``, slab by slab along axis 0."""
    a = _as_form(curvature, torus)
    b = _as_form(reference, torus)
    n = torus.n
    eigb = smallmat.eigvalsh(b.diag, b.upper)[0]
    if float(np.min(eigb)) <= 0:
        worst = np.unravel_index(int(np.argmin(eigb)), eigb.shape)
        raise ModelError(f"reference form is not positive definite at grid point {worst}")
    # LAPACK factors the reference's matrices, on its stored shape only: one when it is constant.
    inv_chol = np.linalg.inv(np.linalg.cholesky(b.values))
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


def _neighbor_jump(values: np.ndarray) -> float:
    """Largest eigenvalue change between grid neighbours (reported, not asserted).

    Eigenvalues of a continuous matrix field are continuous, so this gives
    a resolution-dependent Lipschitz diagnostic; crossings only soften it.
    """
    jump = 0.0
    for a in range(values.ndim - 1):
        if values.shape[a] > 1:
            jump = max(jump, float(np.max(np.abs(values - np.roll(values, 1, axis=a)))))
    return jump


@dataclass(frozen=True)
class PositivityCertificate:
    """Grid certificate that a form field has >= n - q positive eigenvalues.

    ``margin_field`` is the (n-q)-th largest relative eigenvalue per point;
    the certificate passes when its minimum exceeds ``margin``.
    """

    q: int
    margin: float
    margin_field: np.ndarray
    min_margin: float
    passed: bool
    worst_point: tuple[int, ...]
    eigen_jump: float


def _check_certificate_args(n: int, q: int, margin: float) -> None:
    if not 0 <= q <= n - 1:
        raise ModelError(f"q must lie in 0..{n - 1}, got {q}")
    if margin < 0:
        raise ModelError("margin must be non-negative")


def _certificate(lam: np.ndarray, q: int, margin: float, shift: float = 0.0) -> PositivityCertificate:
    """Certificate read off relative eigenvalues ``lam - shift`` (descending along the last axis).

    Shifting every eigenvalue by one constant leaves their neighbour jumps
    unchanged, so the jump is read off ``lam`` itself.
    """
    n = lam.shape[-1]
    margin_field = lam[..., n - q - 1] - shift
    min_margin = float(np.min(margin_field))
    worst = tuple(int(i) for i in np.unravel_index(int(np.argmin(margin_field)), margin_field.shape))
    return PositivityCertificate(
        q=q,
        margin=margin,
        margin_field=margin_field,
        min_margin=min_margin,
        passed=bool(min_margin > margin),
        worst_point=worst,
        eigen_jump=_neighbor_jump(lam),
    )


def certify_q_positive(curvature, reference, torus: TorusModel, q: int, margin: float = 1e-8) -> PositivityCertificate:
    """Certify that ``curvature`` is q-positive relative to ``reference``.

    The count of positive eigenvalues does not depend on the (positive)
    reference; the margin values do, and are reported relative to it.
    """
    _check_certificate_args(torus.n, q, margin)
    return _certificate(eigenvalues_relative(curvature, reference, torus), q, margin)


@dataclass(frozen=True)
class OnePositiveRun:
    """Full record of the pairing-to-certificate pipeline."""

    certificate: PositivityCertificate
    k: int
    dk: float
    ma_result: MASolveResult
    lambda_field: np.ndarray  # relative eigenvalues of the evolved form against k omega, descending
    product_error: float
    pairing: float


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
    the stronger count against the same eigenvalue field.
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
    _check_certificate_args(n, q, margin)

    k = choose_k(H.matrix, G.matrix, k_max)
    dk = dk_constant(H.matrix, G.matrix, k)
    # Monge-Ampere with background H + k omega and constant target D_k (k omega)^n: at the
    # solution the relative eigenvalues against k omega multiply to D_k at every grid point.
    density = dk * math.factorial(n) * 2.0**n * smallmat.det((k * G.matrix)[None, ...])[0].real
    ma = solve_ma(MAProblem(
        torus=torus,
        background=ConstantHermitianClass(H.matrix + k * G.matrix),
        target_density=np.full((1,) * torus.ndim_real, density),
        background_potential=psi0,
        tol=tol,
        max_iter=max_iter,
    ))

    # The evolved form is the solver's last accepted state, the planes its residual was measured on.
    lam = eigenvalues_relative(ma.form, k * G.matrix, torus)

    product_error = float(np.max(np.abs(np.prod(lam, axis=-1) - dk)))
    if product_error > 10 * tol * max(1.0, dk):
        raise ConsistencyFailure(
            f"pointwise eigenvalue product misses D_k={dk} by {product_error:.3e}; solver defect"
        )
    if float(np.min(lam[..., n - 1])) <= 0:
        raise ConsistencyFailure("evolved form lost pointwise positivity; solver defect")

    # The curvature evolved - k omega has relative eigenvalues lam - 1.
    cert = _certificate(lam, q, margin, shift=1.0)
    return OnePositiveRun(
        certificate=cert,
        k=k,
        dk=dk,
        ma_result=ma,
        lambda_field=lam,
        product_error=product_error,
        pairing=pairing,
    )


def pseff_pipeline(
    line_class,
    kahler,
    torus: TorusModel,
    k_max: int = 64,
    tol: float = 1e-9,
    max_iter: int = 50,
    margin: float = 1e-8,
) -> OnePositiveRun:
    """(n-1)-positivity for a non-trivial pseudoeffective constant class.

    Desk-scale reading of pseudoeffectivity for constant classes: the matrix
    is positive semidefinite and non-zero.  Such a class pairs positively
    with any Kahler class (trace-type positivity of the mixed pairing), which
    is exactly the hypothesis of :func:`one_positive_pipeline`; the rest of
    the run is delegated with a trivial background potential.
    """
    H = line_class if isinstance(line_class, ConstantHermitianClass) else ConstantHermitianClass(line_class)
    scale = float(np.max(np.abs(H.matrix)))
    if scale == 0.0:
        raise ModelError("the zero class is trivially semipositive; nothing to certify")
    eigs = np.linalg.eigvalsh(H.matrix)
    if eigs[0] < -1e-12 * scale:
        raise ModelError(
            f"class is indefinite (smallest eigenvalue {eigs[0]:.3e}); pseudoeffective model requires PSD"
        )
    G = kahler if isinstance(kahler, KahlerClass) else KahlerClass(np.asarray(kahler))
    pairing = intersection_number([H.matrix] + [G.matrix] * (torus.n - 1))
    if pairing <= 0:
        raise ConsistencyFailure(
            "PSD non-zero class paired non-positively with a Kahler class; pairing code defect"
        )
    return one_positive_pipeline(
        H, G, psi0=None, torus=torus, k_max=k_max, tol=tol, max_iter=max_iter, margin=margin
    )
