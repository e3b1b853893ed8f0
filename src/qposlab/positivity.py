"""Relative eigenvalue fields and q-positivity certificates.

A Hermitian form field ``A`` is measured against a pointwise positive
reference ``B`` through the generalized eigenvalues of ``A v = lambda B v``.
``B = L L^H`` is factored on its stored shape only (one n x n Cholesky when
the reference is constant, as in every pipeline), ``L^{-1} A L^{-H}`` is
formed entry by entry, and its eigenvalues come from the closed-form kernels
of :mod:`qposlab.smallmat`; they are returned sorted descending.  A class is
*q-positive* at a point when at least ``n - q`` of them are positive, so the
certificate tracks the (n-q)-th largest eigenvalue as its margin.

Pipeline for a single positive pairing (the (n-1)-positivity statement on the
torus): pick the smallest admissible shift k with volume ratio D_k > 1, solve
the Monge-Ampere equation with constant target ``D_k (k omega)^n``, and read
the certificate off the relative eigenvalue field of the evolved form against
``k omega``, one eigen pass in all: the curvature ``evolved - k omega`` has
relative eigenvalues ``lambda - 1``.  Two redundant identities are checked on
the way (the pointwise eigenvalue product equals D_k; the smallest eigenvalue
stays positive) and a violation raises, because it can only come from a
solver defect.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import smallmat
from .calculus import HermitianFormField, PotentialField, complex_hessian
from .errors import ConsistencyFailure, HypothesisViolation, ModelError
from .geometry import (
    ConstantHermitianClass,
    KahlerClass,
    TorusModel,
    choose_k,
    dk_constant,
    intersection_number,
)
from .ma_solver import MASolveResult, ma_for_dk

__all__ = [
    "EigenvalueField",
    "PositivityCertificate",
    "eigenvalues_relative",
    "certify_q_positive",
    "OnePositiveRun",
    "one_positive_pipeline",
    "pseff_pipeline",
]


def _form_values(obj, torus: TorusModel) -> np.ndarray:
    if isinstance(obj, HermitianFormField):
        if obj.torus != torus:
            raise ModelError("form fields live on different torus models")
        return obj.values
    if isinstance(obj, ConstantHermitianClass):
        return HermitianFormField.from_constant(torus, obj.matrix).values
    return HermitianFormField.from_constant(torus, np.asarray(obj)).values


@dataclass(frozen=True)
class EigenvalueField:
    """Pointwise sorted (descending) relative eigenvalues on the grid."""

    torus: TorusModel
    values: np.ndarray  # shape (*grid_broadcast, n), real, descending

    def min_over_grid(self, which: int) -> float:
        """Minimum over the grid of the ``which``-th largest eigenvalue (1-based)."""
        return float(np.min(self.values[..., which - 1]))

    def product(self) -> np.ndarray:
        return np.prod(self.values, axis=-1)

    def max_neighbor_jump(self) -> float:
        """Largest eigenvalue change between grid neighbours (reported, not asserted).

        Eigenvalues of a continuous matrix field are continuous, so this gives
        a resolution-dependent Lipschitz diagnostic; crossings only soften it.
        """
        jump = 0.0
        for a in range(self.values.ndim - 1):
            if self.values.shape[a] > 1:
                jump = max(jump, float(np.max(np.abs(self.values - np.roll(self.values, 1, axis=a)))))
        return jump


def eigenvalues_relative(curvature, reference, torus: TorusModel) -> EigenvalueField:
    """Generalized Hermitian eigenvalues of ``curvature`` against ``reference``."""
    a = _form_values(curvature, torus)
    b = _form_values(reference, torus)
    n = torus.n
    eigb = smallmat.eigvalsh(b)[..., 0]
    if float(np.min(eigb)) <= 0:
        worst = np.unravel_index(int(np.argmin(eigb)), eigb.shape)
        raise ModelError(f"reference form is not positive definite at grid point {worst}")
    # Factor on the reference's stored shape only: one matrix when it is constant.
    inv_chol = np.linalg.inv(np.linalg.cholesky(b))
    conj_inv = inv_chol.conj()
    shape = np.broadcast_shapes(a.shape, b.shape)
    reduced = np.empty(shape, dtype=np.complex128)
    for j in range(n):
        for k in range(j + 1):
            # (L^{-1} A L^{-H})_jk, with L^{-1} lower triangular
            acc = 0.0
            for p in range(j + 1):
                for r in range(k + 1):
                    acc = acc + (inv_chol[..., j, p] * conj_inv[..., k, r]) * a[..., p, r]
            if k == j:
                reduced[..., j, j] = np.real(acc)
            else:
                reduced[..., j, k] = acc
                reduced[..., k, j] = np.conj(acc)
    lam = smallmat.eigvalsh(reduced)[..., ::-1]
    return EigenvalueField(torus, np.ascontiguousarray(lam))


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
    metadata: dict = field(default_factory=dict)


def _check_certificate_args(n: int, q: int, margin: float) -> None:
    if not 0 <= q <= n - 1:
        raise ModelError(f"q must lie in 0..{n - 1}, got {q}")
    if margin < 0:
        raise ModelError("margin must be non-negative")


def _certificate(lam: EigenvalueField, q: int, margin: float, shift: float = 0.0,
                 metadata: dict | None = None) -> PositivityCertificate:
    """Certificate read off relative eigenvalues ``lam - shift``.

    Shifting every eigenvalue by one constant leaves their neighbour jumps
    unchanged, so the jump is read off ``lam`` itself.
    """
    n = lam.values.shape[-1]
    margin_field = lam.values[..., n - q - 1] - shift
    min_margin = float(np.min(margin_field))
    worst = tuple(int(i) for i in np.unravel_index(int(np.argmin(margin_field)), margin_field.shape))
    return PositivityCertificate(
        q=q,
        margin=margin,
        margin_field=margin_field,
        min_margin=min_margin,
        passed=bool(min_margin > margin),
        worst_point=worst,
        eigen_jump=lam.max_neighbor_jump(),
        metadata=dict(metadata or {}),
    )


def certify_q_positive(curvature, reference, torus: TorusModel, q: int, margin: float = 1e-8,
                       metadata: dict | None = None) -> PositivityCertificate:
    """Certify that ``curvature`` is q-positive relative to ``reference``.

    The count of positive eigenvalues does not depend on the (positive)
    reference; the margin values do, and are reported relative to it.
    """
    _check_certificate_args(torus.n, q, margin)
    return _certificate(eigenvalues_relative(curvature, reference, torus), q, margin, metadata=metadata)


@dataclass(frozen=True)
class OnePositiveRun:
    """Full record of the pairing-to-certificate pipeline."""

    certificate: PositivityCertificate
    k: int
    dk: float
    ma_result: MASolveResult
    lambda_field: EigenvalueField
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
    ma = ma_for_dk(H, G, k, psi0=psi0, torus=torus, tol=tol, max_iter=max_iter)

    total = ma.phi if psi0 is None else PotentialField(torus, psi0.values + ma.phi.values)
    evolved = HermitianFormField.from_constant(torus, H.matrix + k * G.matrix) + complex_hessian(total)
    reference = HermitianFormField.from_constant(torus, k * G.matrix)
    lam = eigenvalues_relative(evolved, reference, torus)

    product_error = float(np.max(np.abs(lam.product() - dk)))
    if product_error > 10 * tol * max(1.0, dk):
        raise ConsistencyFailure(
            f"pointwise eigenvalue product misses D_k={dk} by {product_error:.3e}; solver defect"
        )
    if lam.min_over_grid(n) <= 0:
        raise ConsistencyFailure("evolved form lost pointwise positivity; solver defect")

    # The curvature evolved - k omega has relative eigenvalues lam - 1.
    cert = _certificate(
        lam,
        q,
        margin,
        shift=1.0,
        metadata={
            "k": k,
            "dk": dk,
            "ma_residual": ma.residual,
            "ma_iterations": ma.iterations,
            "product_error": product_error,
            "pairing": pairing,
        },
    )
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
