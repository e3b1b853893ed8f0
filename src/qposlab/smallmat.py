"""Batched kernels for the small matrices carried by grid fields.

Every pointwise matrix in the package is n x n with n <= 3 (the torus
dimension), or up to 4 x 4 for the Jacobian minors of the degeneracy scan.
At a million grid points a batched LAPACK call spends its time on per-matrix
overhead, so determinants and adjugates are written out by cofactors, and
Hermitian eigenvalues of sizes 1 and 2 come from the closed form

    lambda = h -+ r,   h = (a + d) / 2,   r = hypot((a - d) / 2, |b|)

for ``[[a, conj(b)], [b, d]]`` (lower triangle read, as ``np.linalg.eigvalsh``
does).  Its absolute error is a few ulps of ``|h| + r``, the same order as a
backward-stable solver's; only relative accuracy near zero is lost.  Every
eigenvalue with ``|lambda| <= 64 eps (|h| + r)`` is therefore recomputed by
``np.linalg.eigvalsh``, so each sign decision near zero is the reference
kernel's (J. Kopp, arXiv:physics/0610206, analyses this hybrid for 3 x 3).
Size 3 goes to ``np.linalg.eigvalsh`` directly.
"""

from __future__ import annotations

import numpy as np

from .errors import ModelError

__all__ = ["det", "hermitian_det", "adjugate", "eigvalsh"]

# Closed-form eigenvalues within this many ulps of |h| + r of zero are recomputed.
_GUARD = 64.0 * np.finfo(np.float64).eps


def det(m: np.ndarray) -> np.ndarray:
    """Batched determinant by cofactor expansion, sizes 1..4 (no pivoting noise).

    A single matrix is expanded in numpy scalar arithmetic and a batch with
    numpy's array kernels, which can round a complex product differently in
    the last bit; exact-arithmetic ties such as ``D_k = 1`` in
    :func:`qposlab.geometry.choose_k` are decided by that bit.
    """
    m = np.asarray(m)
    k = m.shape[-1]
    # [()] turns the entries of a single matrix into numpy scalars
    e = [[m[..., i, j][()] for j in range(k)] for i in range(k)]
    if k == 1:
        return np.copy(e[0][0])[()]
    if k == 2:
        return e[0][0] * e[1][1] - e[0][1] * e[1][0]
    if k == 3:
        return (
            e[0][0] * (e[1][1] * e[2][2] - e[1][2] * e[2][1])
            - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
            + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0])
        )
    if k == 4:
        acc = np.zeros(m.shape[:-2], dtype=np.complex128)
        for c in range(4):
            cols = [x for x in range(4) if x != c]
            acc = acc + ((-1) ** c) * e[0][c] * det(m[..., 1:, cols])
        return acc
    raise ModelError(f"closed-form determinants cover sizes 1..4, got {k}")


def hermitian_det(m: np.ndarray) -> np.ndarray:
    """Batched determinant of Hermitian matrices (sizes 1..4), as its real part."""
    return np.real(det(m))


def adjugate(m: np.ndarray) -> np.ndarray:
    """Batched adjugate, sizes 1..3: ``adj(M) M = det(M) I``.

    The adjugate of a Hermitian matrix is Hermitian, and positive definite
    when the matrix is.
    """
    m = np.asarray(m)
    k = m.shape[-1]
    if k == 1:
        return np.ones_like(m)
    out = np.empty_like(m)
    if k == 2:
        out[..., 0, 0] = m[..., 1, 1]
        out[..., 1, 1] = m[..., 0, 0]
        out[..., 0, 1] = -m[..., 0, 1]
        out[..., 1, 0] = -m[..., 1, 0]
        return out
    if k == 3:
        for i in range(3):
            for j in range(3):
                r = [a for a in range(3) if a != j]
                c = [b for b in range(3) if b != i]
                minor = m[..., r[0], c[0]] * m[..., r[1], c[1]] - m[..., r[0], c[1]] * m[..., r[1], c[0]]
                out[..., i, j] = (-1) ** (i + j) * minor
        return out
    raise ModelError(f"adjugates cover sizes 1..3, got {k}")


def eigvalsh(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of batched Hermitian matrices, ascending along the last axis.

    Sizes 1 and 2 are closed form with the near-zero guard described above;
    size 3 is ``np.linalg.eigvalsh``.
    """
    m = np.asarray(m)
    k = m.shape[-1]
    if k == 1:
        return m[..., 0, :].real.copy()
    if k != 2:
        return np.linalg.eigvalsh(m)
    if m.ndim == 2:
        return eigvalsh(m[None])[0]
    a = m[..., 0, 0].real
    d = m[..., 1, 1].real
    h = 0.5 * (a + d)
    r = np.hypot(0.5 * (a - d), np.abs(m[..., 1, 0]))
    lam = np.stack((h - r, h + r), axis=-1)
    near_zero = np.abs(lam) <= (_GUARD * (np.abs(h) + r))[..., None]
    idx = np.nonzero(np.any(near_zero, axis=-1))
    if idx[0].size:
        lam[idx] = np.linalg.eigvalsh(m[idx])
    return lam
