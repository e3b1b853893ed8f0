"""Flat-torus models, constant (1,1)-classes and their intersection numbers.

The ambient space is the complex torus ``C^n / (Z^n + i Z^n)`` with the unit
lattice.  A constant (1,1)-class is represented by its Hermitian coefficient
matrix ``A`` in the frame ``i dz_j /\\ dz_bar_k``; with ``i dz /\\ dz_bar =
2 dx /\\ dy`` the top wedge of ``n`` such classes integrates to

    (A_1 . ... . A_n) = 2^n * [t_1...t_n] det(t_1 A_1 + ... + t_n A_n),

where ``[t_1...t_n]`` extracts the multilinear coefficient.  The coefficient
is computed exactly by subset inclusion-exclusion, never by quadrature, so
rational inputs give exact (up to float rounding of the input) pairings.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import smallmat
from .errors import HypothesisViolation, ModelError, SearchExhausted

__all__ = [
    "TorusModel",
    "ConstantHermitianClass",
    "KahlerClass",
    "intersection_number",
    "dk_constant",
    "dk_expansion",
    "choose_k",
]

_HERMITIAN_TOL = 1e-12


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class TorusModel:
    """Discretisation of ``C^n / (Z^n + i Z^n)``.

    ``grid_size`` is the number of samples per real coordinate, so the full
    grid has ``grid_size ** (2n)`` points.  Fields store their values in
    numpy arrays *broadcastable* to that full shape: an axis of length one
    means the field is constant along that coordinate.  All operations in
    this package preserve and exploit that convention.

    Axis convention: axis ``2j`` is ``x_{j+1}`` (real part of ``z_{j+1}``)
    and axis ``2j+1`` is ``y_{j+1}`` (imaginary part).
    """

    n: int
    grid_size: int = 64

    def __post_init__(self):
        if not isinstance(self.n, int) or not 1 <= self.n <= 3:
            raise ModelError(f"complex dimension n must be an integer in 1..3, got {self.n!r}")
        if not isinstance(self.grid_size, int) or self.grid_size < 8 or not _is_power_of_two(self.grid_size):
            raise ModelError(f"grid_size must be a power of two >= 8, got {self.grid_size!r}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.grid_size,) * (2 * self.n)

    @property
    def ndim_real(self) -> int:
        return 2 * self.n

    def real_coordinates(self) -> tuple[np.ndarray, ...]:
        """Open-grid coordinate arrays in [0, 1), one per real axis.

        Each array has length ``grid_size`` along its own axis and length one
        along every other axis, so expressions built from them broadcast to
        minimal storage.
        """
        out = []
        for a in range(self.ndim_real):
            x = np.arange(self.grid_size, dtype=np.float64) / self.grid_size
            shape = [1] * self.ndim_real
            shape[a] = self.grid_size
            out.append(x.reshape(shape))
        return tuple(out)

    def wavenumbers(self) -> tuple[np.ndarray, ...]:
        """Integer wavenumbers per real axis (open-grid shaped), Nyquist zeroed.

        Zeroing the Nyquist mode keeps odd-order spectral derivatives real and
        exactly skew-adjoint on the grid.
        """
        out = []
        for a in range(self.ndim_real):
            k = np.fft.fftfreq(self.grid_size, d=1.0 / self.grid_size)
            k[np.abs(k) == self.grid_size / 2] = 0.0
            shape = [1] * self.ndim_real
            shape[a] = self.grid_size
            out.append(k.reshape(shape))
        return tuple(out)


def _as_matrix(obj) -> np.ndarray:
    if isinstance(obj, ConstantHermitianClass):
        return obj.matrix
    return np.asarray(obj, dtype=np.complex128)


@dataclass(frozen=True)
class ConstantHermitianClass:
    """Constant (1,1)-class given by its Hermitian coefficient matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ModelError(f"class matrix must be square, got shape {m.shape}")
        if not 1 <= m.shape[0] <= 3:
            raise ModelError(f"class matrix size must be 1..3, got {m.shape[0]}")
        if not np.all(np.isfinite(m)):
            raise ModelError("class matrix entries must be finite")
        scale = max(1.0, float(np.max(np.abs(m))))
        if np.max(np.abs(m - m.conj().T)) > _HERMITIAN_TOL * scale:
            raise ModelError("class matrix is not Hermitian within 1e-12")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def __add__(self, other):
        return ConstantHermitianClass(self.matrix + _as_matrix(other))


@dataclass(frozen=True)
class KahlerClass(ConstantHermitianClass):
    """Constant class whose matrix is positive definite."""

    def __post_init__(self):
        super().__post_init__()
        if np.linalg.eigvalsh(self.matrix)[0] <= 0:
            raise ModelError("Kahler class matrix must be positive definite")


def _mixed_coefficient(mats: list[np.ndarray]) -> float:
    """Coefficient of t_1...t_n in det(sum t_i A_i) via inclusion-exclusion."""
    n = len(mats)
    total = 0.0 + 0.0j
    scale = 1.0
    for r in range(1, n + 1):
        sign = (-1) ** (n - r)
        for subset in itertools.combinations(range(n), r):
            s = mats[subset[0]].copy()
            for i in subset[1:]:
                s = s + mats[i]
            d = smallmat.det(s)
            scale = max(scale, abs(d))
            total += sign * d
    if abs(total.imag) > 1e-9 * scale:
        raise ModelError("mixed pairing of Hermitian classes came out non-real; inputs corrupt")
    return float(total.real)


def intersection_number(classes) -> float:
    """Top intersection pairing of ``n`` constant classes.

    ``classes`` must contain exactly ``n`` entries of matching size ``n``
    (repeat an entry for powers).
    """
    mats = [_as_matrix(c) for c in classes]
    if not mats:
        raise ModelError("intersection_number needs at least one class")
    n = mats[0].shape[0]
    for m in mats:
        if m.shape != (n, n):
            raise ModelError(f"class matrices disagree in size: {m.shape} vs {(n, n)}")
    if len(mats) != n:
        raise ModelError(f"intersection_number takes exactly n={n} classes, got {len(mats)}")
    return (2.0**n) * _mixed_coefficient(mats)


def dk_constant(line_class, kahler, k: float) -> float:
    """Volume ratio ((L + k*omega)^n) / ((k*omega)^n) for constant classes.

    For constant classes this equals the pointwise determinant ratio
    ``det(H + kG) / (k^n det G)``, which is what the Monge-Ampere pipeline
    targets; here it is computed through intersection numbers.
    """
    if k <= 0:
        raise ModelError(f"k must be positive, got {k}")
    H = _as_matrix(line_class)
    G = _as_matrix(kahler)
    n = H.shape[0]
    num = intersection_number([H + k * G] * n)
    den = intersection_number([k * G] * n)
    if den <= 0:
        raise ModelError("reference class must have positive volume")
    return num / den


def dk_expansion(line_class, kahler, k: float) -> float:
    """Binomial expansion of the same ratio:

        1 + [ (L^n) + k*C(n,1)*(L^{n-1}.w) + ... + k^{n-1}*C(n,n-1)*(L.w^{n-1}) ] / (k^n (w^n)).
    """
    if k <= 0:
        raise ModelError(f"k must be positive, got {k}")
    H = _as_matrix(line_class)
    G = _as_matrix(kahler)
    n = H.shape[0]
    wn = intersection_number([G] * n)
    if wn <= 0:
        raise ModelError("reference class must have positive volume")
    acc = 0.0
    for j in range(n):  # j copies of omega, n-j copies of L
        pairing = intersection_number([H] * (n - j) + [G] * j)
        acc += (k**j) * math.comb(n, j) * pairing
    return 1.0 + acc / (k**n * wn)


def choose_k(line_class, kahler, k_max: int = 64) -> int:
    """Smallest integer k <= k_max with H + kG positive definite and D_k > 1.

    Requires the hypothesis (L . omega^{n-1}) > 0; integer-only scan by design
    (the certified statement only needs some admissible k, and integer k keeps
    reports exactly reproducible).
    """
    H = _as_matrix(line_class)
    G = _as_matrix(kahler)
    n = H.shape[0]
    if intersection_number([H] + [G] * (n - 1)) <= 0:
        raise HypothesisViolation("(L . omega^{n-1}) > 0 is required before scanning for k")
    if k_max < 1:
        raise ModelError(f"k_max must be >= 1, got {k_max}")
    for k in range(1, int(k_max) + 1):
        shifted = H + k * G
        if np.linalg.eigvalsh(shifted)[0] <= 0:
            continue
        if dk_constant(H, G, k) > 1.0:
            return k
    raise SearchExhausted(f"no k <= {k_max} gives a positive-definite shift with D_k > 1")
