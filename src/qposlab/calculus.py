"""Spectral periodic calculus for scalar potentials and Hermitian form fields.

Derivatives use the trigonometric-interpolant (FFT) convention with

    d/dz_j = (d/dx_j - i d/dy_j) / 2,      d/dz_bar_j = (d/dx_j + i d/dy_j) / 2,

so on the unit torus ``d^2/dz dz_bar cos(2 pi x) = -pi^2 cos(2 pi x)``.
Potentials are real, so every transform is a real FFT (``rfftn``/``irfftn``
over all real axes): the complex Hessian entry ``(j, k)`` is assembled from
the real second derivatives

    4 d^2/dz_j dz_bar_k = (d_xj d_xk + d_yj d_yk) + i (d_xj d_yk - d_yj d_xk),

which makes the result Hermitian by construction.  Wavenumbers have the
Nyquist mode zeroed, so every symbol is real and even and the real
transforms are exact.  An nd transform runs one pass per axis, as numpy's
does and with bitwise the same result, but every pass works in one array:
the forward passes all write into the output, and the inverse complex
passes run in place in the caller's temporary spectrum before the real pass
on the last axis writes the result, for a Hessian straight into its entry of
the form field.

Fields store numpy arrays broadcastable to the full grid shape; an axis of
length one means "constant along that coordinate" and spectral derivatives
along such axes vanish identically, which both is exact and keeps storage
proportional to the coordinates a problem actually activates.  Small-matrix
kernels (determinants, eigenvalues) live in :mod:`qposlab.smallmat`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NumericsError
from .geometry import TorusModel
from .smallmat import hermitian_det

__all__ = [
    "PotentialField",
    "HermitianFormField",
    "complex_hessian",
    "fd_complex_hessian",
    "hermitian_det",
    "form_top_density",
]

_MEAN_ZERO_TOL = 1e-12


def _check_grid_values(torus: TorusModel, values: np.ndarray, what: str) -> np.ndarray:
    v = np.asarray(values)
    if v.ndim != torus.ndim_real:
        raise ModelError(
            f"{what} must have one axis per real coordinate ({torus.ndim_real}), got shape {v.shape}"
        )
    for a, size in enumerate(v.shape):
        if size not in (1, torus.grid_size):
            raise ModelError(
                f"{what} axis {a} has length {size}; must be 1 (constant) or grid_size={torus.grid_size}"
            )
    return v


@dataclass(frozen=True)
class PotentialField:
    """Real scalar function sampled on the torus grid.

    ``values`` broadcasts to ``torus.shape``; ``mean_zero`` flags the gauge
    used by the Monge-Ampere solver.
    """

    torus: TorusModel
    values: np.ndarray
    mean_zero: bool = False

    def __post_init__(self):
        v = _check_grid_values(self.torus, np.asarray(self.values, dtype=np.float64), "potential values")
        object.__setattr__(self, "values", v)
        if self.mean_zero and abs(float(np.mean(v))) > _MEAN_ZERO_TOL:
            raise ModelError("field flagged mean_zero has |mean| > 1e-12")

    @classmethod
    def constant(cls, torus: TorusModel, value: float = 0.0) -> "PotentialField":
        return cls(torus, np.full((1,) * torus.ndim_real, float(value)))

    @classmethod
    def zero(cls, torus: TorusModel) -> "PotentialField":
        return cls(torus, np.zeros((1,) * torus.ndim_real), mean_zero=True)

    def mean(self) -> float:
        # Constant (length-one) axes carry uniform weight, so the plain mean
        # of the stored values equals the mean over the full grid.
        return float(np.mean(self.values))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __add__(self, other):
        if isinstance(other, PotentialField):
            _require_same_torus(self, other)
            return PotentialField(self.torus, self.values + other.values)
        return PotentialField(self.torus, self.values + float(other))

    def __sub__(self, other):
        if isinstance(other, PotentialField):
            _require_same_torus(self, other)
            return PotentialField(self.torus, self.values - other.values)
        return PotentialField(self.torus, self.values - float(other))

    def __rmul__(self, scalar):
        return PotentialField(self.torus, float(scalar) * self.values)


def _require_same_torus(a, b):
    if a.torus != b.torus:
        raise ModelError("fields live on different torus models")


@dataclass(frozen=True)
class HermitianFormField:
    """Pointwise Hermitian n x n matrix field on the torus grid.

    ``values`` has shape ``(*grid_broadcast, n, n)`` complex.  Fields built
    by the constructor are checked to be Hermitian; the package's own results
    (Hessians, sums of fields) are Hermitian by construction and skip the
    check through :meth:`_trusted`.
    """

    torus: TorusModel
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        n = self.torus.n
        if v.ndim != self.torus.ndim_real + 2 or v.shape[-2:] != (n, n):
            raise ModelError(f"form field must end in ({n},{n}) matrix axes, got shape {v.shape}")
        _check_grid_values(self.torus, v[..., 0, 0], "form field grid part")
        scale = max(1.0, float(np.max(np.abs(v))))
        if np.max(np.abs(v - v.conj().swapaxes(-1, -2))) > 1e-12 * scale:
            raise ModelError("form field is not pointwise Hermitian within 1e-12")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_constant(cls, torus: TorusModel, matrix) -> "HermitianFormField":
        m = np.asarray(matrix, dtype=np.complex128)
        if m.shape != (torus.n, torus.n):
            raise ModelError(f"constant form matrix must be {torus.n} x {torus.n}, got {m.shape}")
        return cls(torus, m.reshape((1,) * torus.ndim_real + m.shape))

    @classmethod
    def _trusted(cls, torus: TorusModel, values: np.ndarray) -> "HermitianFormField":
        """Wrap complex values that are Hermitian and grid-shaped by construction."""
        field = object.__new__(cls)
        object.__setattr__(field, "torus", torus)
        object.__setattr__(field, "values", values)
        return field

    def __add__(self, other):
        if isinstance(other, HermitianFormField):
            _require_same_torus(self, other)
            return HermitianFormField._trusted(self.torus, self.values + other.values)
        raise TypeError("can only add HermitianFormField to HermitianFormField")

    def det(self) -> np.ndarray:
        return hermitian_det(self.values)


def form_top_density(form: HermitianFormField) -> np.ndarray:
    """Density of the form's top wedge against Lebesgue measure on [0,1)^{2n}.

    For a constant class this integrates to the same number as the repeated
    intersection pairing: n! * 2^n * det(A).
    """
    n = form.torus.n
    return math.factorial(n) * (2.0**n) * hermitian_det(form.values)


def _half_spectrum_wavenumbers(torus: TorusModel, shape: tuple[int, ...]) -> list[np.ndarray]:
    """Integer wavenumbers per real axis on the ``rfftn`` half spectrum of a stored shape.

    The last axis keeps its non-negative half.  Along axes where the field is
    constant (stored length one) only the zero mode exists, so the wavenumber
    array collapses to [0] and the derivative along that axis is identically
    zero, exactly.
    """
    kappa = list(torus.wavenumbers())
    last = len(shape) - 1
    for a, size in enumerate(shape):
        if size == 1:
            kappa[a] = np.zeros((1,) * len(shape))
    if shape[last] > 1:
        # fftfreq's first half plus the (zeroed) Nyquist entry is rfftfreq's.
        kappa[last] = kappa[last][..., : shape[last] // 2 + 1]
    return kappa


def _rfftn(v: np.ndarray) -> np.ndarray:
    """``np.fft.rfftn`` over every axis, each axis pass writing into one buffer."""
    half = v.shape[:-1] + (v.shape[-1] // 2 + 1,)
    return np.fft.rfftn(v, axes=tuple(range(v.ndim)), out=np.empty(half, dtype=np.complex128))


def _irfftn(vhat: np.ndarray, shape: tuple[int, ...], out: np.ndarray | None = None) -> np.ndarray:
    """``np.fft.irfftn`` over every axis, bitwise equal to it; consumes ``vhat``.

    The complex passes run in place in ``vhat`` (a complex128 temporary the
    caller gives up), in numpy's axis order, before the real pass on the last
    axis, which writes into ``out`` when given (any strides).
    """
    for axis in range(len(shape) - 1):
        np.fft.ifft(vhat, axis=axis, out=vhat)
    return np.fft.irfft(vhat, n=shape[-1], axis=-1, out=out)


def complex_hessian(phi: PotentialField) -> HermitianFormField:
    """Pointwise complex Hessian d^2 phi / dz_j dz_bar_k from real second derivatives."""
    v = phi.values
    if not np.all(np.isfinite(v)):
        raise NumericsError("potential has non-finite values; cannot differentiate")
    torus = phi.torus
    n = torus.n
    vhat = _rfftn(v)
    kappa = _half_spectrum_wavenumbers(torus, v.shape)
    out = np.zeros(v.shape + (n, n), dtype=np.complex128)
    re, im = out.real, out.imag

    def entry(symbol, dest):
        # d^2/dx_a dx_b has symbol -(2 pi)^2 kappa_a kappa_b; with the 1/4 above, -pi^2.
        _irfftn(vhat * (-np.pi**2 * symbol), v.shape, out=dest)

    for j in range(n):
        xj, yj = kappa[2 * j], kappa[2 * j + 1]
        entry(xj * xj + yj * yj, re[..., j, j])
        for k in range(j + 1, n):
            xk, yk = kappa[2 * k], kappa[2 * k + 1]
            entry(xj * xk + yj * yk, re[..., j, k])
            entry(xj * yk - yj * xk, im[..., j, k])
            re[..., k, j] = re[..., j, k]
            np.negative(im[..., j, k], out=im[..., k, j])
    return HermitianFormField._trusted(torus, out)


def _fd_first(v: np.ndarray, axis: int, h: float, order: int) -> np.ndarray:
    if v.shape[axis] == 1:
        return np.zeros_like(v)
    up1, dn1 = np.roll(v, -1, axis), np.roll(v, 1, axis)
    if order == 2:
        return (up1 - dn1) / (2.0 * h)
    up2, dn2 = np.roll(v, -2, axis), np.roll(v, 2, axis)
    return (-up2 + 8.0 * up1 - 8.0 * dn1 + dn2) / (12.0 * h)


def _fd_second(v: np.ndarray, axis: int, h: float, order: int) -> np.ndarray:
    if v.shape[axis] == 1:
        return np.zeros_like(v)
    up1, dn1 = np.roll(v, -1, axis), np.roll(v, 1, axis)
    if order == 2:
        return (up1 - 2.0 * v + dn1) / h**2
    up2, dn2 = np.roll(v, -2, axis), np.roll(v, 2, axis)
    return (-up2 + 16.0 * up1 - 30.0 * v + 16.0 * dn1 - dn2) / (12.0 * h**2)


def fd_complex_hessian(phi: PotentialField, order: int = 2) -> HermitianFormField:
    """Periodic central-difference complex Hessian (order 2 or 4).

    Independent of the spectral path: mixed entries compose one-dimensional
    first-derivative stencils (which commute exactly, so Hermitian symmetry is
    structural), diagonal entries use the dedicated second-derivative stencil.
    A stencil touches at most two cells per axis, which callers use to keep
    evaluations away from masked regions.
    """
    if order not in (2, 4):
        raise ModelError(f"finite-difference order must be 2 or 4, got {order}")
    v = phi.values
    if not np.all(np.isfinite(v)):
        raise NumericsError("potential has non-finite values; cannot differentiate")
    torus = phi.torus
    n = torus.n
    h = 1.0 / torus.grid_size
    out = np.zeros(v.shape + (n, n), dtype=np.complex128)
    for j in range(n):
        xj, yj = 2 * j, 2 * j + 1
        out[..., j, j] = 0.25 * (_fd_second(v, xj, h, order) + _fd_second(v, yj, h, order))
        for k in range(j + 1, n):
            xk, yk = 2 * k, 2 * k + 1
            dxx = _fd_first(_fd_first(v, xj, h, order), xk, h, order)
            dyy = _fd_first(_fd_first(v, yj, h, order), yk, h, order)
            dxy = _fd_first(_fd_first(v, xj, h, order), yk, h, order)
            dyx = _fd_first(_fd_first(v, yj, h, order), xk, h, order)
            entry = 0.25 * ((dxx + dyy) + 1j * (dxy - dyx))
            out[..., j, k] = entry
            out[..., k, j] = np.conj(entry)
    return HermitianFormField._trusted(torus, out)


def poisson_solve(torus: TorusModel, rhs: np.ndarray) -> np.ndarray:
    """Mean-zero spectral solution of  d^2 phi / dz dz_bar = rhs  (n = 1).

    Used as the exact linear path of the Monge-Ampere solver in one complex
    dimension and as an independent oracle in tests.
    """
    if torus.n != 1:
        raise ModelError("poisson_solve is the n=1 path")
    rhs = np.asarray(rhs, dtype=np.float64)
    kx, ky = _half_spectrum_wavenumbers(torus, rhs.shape)
    rhat = _rfftn(rhs - np.mean(rhs))
    symbol = np.broadcast_to(-np.pi**2 * (kx * kx + ky * ky), rhat.shape)
    phihat = np.divide(rhat, symbol, out=np.zeros_like(rhat), where=symbol != 0)
    phi = _irfftn(phihat, rhs.shape)
    return phi - np.mean(phi)
