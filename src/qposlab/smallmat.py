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
The closed form reads its matrices as planes (:func:`eigvalsh_planes`), so a
caller that holds the entries as separate arrays builds no ``(..., 2, 2)``
field.  Size 3 goes to ``np.linalg.eigvalsh`` directly.

Positive definiteness is decided by Sylvester's criterion on the leading
principal minors, with the same kind of guard: with ``s`` the sum of the
entries' absolute real and imaginary parts (a bound on every eigenvalue),
the minors decide where each minor of order i lies outside ``64 eps s^i`` of
zero, and :func:`eigvalsh` decides elsewhere.  Where the minors decide, the
smallest eigenvalue is at least about ``64 eps s`` away from zero, so the test
agrees pointwise with ``eigvalsh(m)[..., 0] > 0``.
"""

from __future__ import annotations

import numpy as np

from .errors import ModelError

__all__ = [
    "det",
    "hermitian_det",
    "adjugate",
    "adjugate_planes",
    "eigvalsh",
    "eigvalsh_planes",
    "positive_definite",
]

# Closed-form eigenvalues within this many ulps of |h| + r of zero are recomputed;
# Sylvester minors within it (times s^i) of zero defer to the eigenvalues.
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


def _adjugate_entries(m: np.ndarray):
    """Yield ``(i, j, adj(m)[..., i, j])`` for sizes 1..3: the cofactor rule, stated once."""
    k = m.shape[-1]
    if k == 1:
        yield 0, 0, np.ones(m.shape[:-2], dtype=m.dtype)
    elif k == 2:
        yield 0, 0, m[..., 1, 1]
        yield 1, 1, m[..., 0, 0]
        yield 0, 1, -m[..., 0, 1]
        yield 1, 0, -m[..., 1, 0]
    elif k == 3:
        for i in range(3):
            for j in range(3):
                r = [a for a in range(3) if a != j]
                c = [b for b in range(3) if b != i]
                minor = m[..., r[0], c[0]] * m[..., r[1], c[1]] - m[..., r[0], c[1]] * m[..., r[1], c[0]]
                yield i, j, (-1) ** (i + j) * minor
    else:
        raise ModelError(f"adjugates cover sizes 1..3, got {k}")


def adjugate(m: np.ndarray) -> np.ndarray:
    """Batched adjugate, sizes 1..3: ``adj(M) M = det(M) I``.

    The adjugate of a Hermitian matrix is Hermitian, and positive definite
    when the matrix is.
    """
    m = np.asarray(m)
    out = np.empty_like(m)
    for i, j, entry in _adjugate_entries(m):
        out[..., i, j] = entry
    return out


def adjugate_planes(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re and Im of the batched adjugate as contiguous ``(k, k, *batch)`` planes, and its batch mean.

    Sizes 1..3.  The entries go straight into the planes, with no complex
    adjugate field.  The mean is summed in batch order, the order in which
    ``np.mean`` sums the outer axis of the ``(batch, k, k)`` field, so it is
    bitwise ``np.mean(adjugate(m).reshape(-1, k, k), axis=0)``.
    """
    m = np.asarray(m)
    k = m.shape[-1]
    planes = (k, k) + m.shape[:-2]
    re, im = np.empty(planes), np.empty(planes)
    for i, j, entry in _adjugate_entries(m):
        re[i, j] = entry.real
        im[i, j] = entry.imag
    total = np.empty((k, k), dtype=np.complex128)
    for i in range(k):
        for j in range(k):
            # np.cumsum adds in order; its last element is the in-order sum
            total[i, j] = complex(np.cumsum(re[i, j])[-1], np.cumsum(im[i, j])[-1])
    return re, im, total / re[0, 0].size


def positive_definite(m: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Pointwise positive definiteness of a batch of Hermitian matrices, sizes 1..3.

    Sylvester's criterion with the guard described above; ``det`` is the
    caller's :func:`hermitian_det` of ``m``, the last leading minor.  Agrees
    pointwise with ``eigvalsh(m)[..., 0] > 0``.
    """
    m = np.asarray(m)
    k = m.shape[-1]
    if k == 1:
        return m[..., 0, 0].real > 0
    if k > 3:
        raise ModelError(f"positivity tests cover sizes 1..3, got {k}")
    s = np.abs(m[..., 0, 0].real)
    for i in range(1, k):
        s += np.abs(m[..., i, i].real)
        for j in range(i):
            off = np.abs(m[..., i, j].real)
            off += np.abs(m[..., i, j].imag)
            off *= 2.0
            s += off
    minors = [m[..., 0, 0].real]
    if k == 3:
        minors.append(hermitian_det(m[..., :2, :2]))
    minors.append(det)
    positive = minors[0] > 0
    near_zero = np.zeros(m.shape[:-2], dtype=bool)
    bound = _GUARD * s
    for order, minor in enumerate(minors, start=1):
        if order > 1:
            positive &= minor > 0
            bound *= s
        near_zero |= np.abs(minor) <= bound
    if near_zero.any():
        idx = np.nonzero(near_zero)
        positive[idx] = eigvalsh(m[idx])[..., 0] > 0
    return positive


def eigvalsh_planes(a: np.ndarray, d: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues ``(low, high)`` of batched 2 x 2 Hermitian matrices given as planes.

    The matrices are ``[[a, conj(b)], [b, d]]``: ``a`` and ``d`` are the real
    diagonals and ``b`` the complex lower off-diagonal, broadcast together.
    Closed form with the near-zero guard described above: where either
    eigenvalue lies within ``64 eps (|h| + r)`` of zero, both come from
    ``np.linalg.eigvalsh``, which reads only the real diagonal and the lower
    triangle, so the result is bitwise that of :func:`eigvalsh` on the matrices.
    """
    h = 0.5 * (a + d)
    r = np.hypot(0.5 * (a - d), np.abs(b))
    low, high = h - r, h + r
    bound = _GUARD * (np.abs(h) + r)
    idx = np.nonzero((np.abs(low) <= bound) | (np.abs(high) <= bound))
    if idx[0].size:
        m = np.empty((idx[0].size, 2, 2), dtype=np.complex128)
        m[:, 0, 0] = np.broadcast_to(a, low.shape)[idx]
        m[:, 1, 1] = np.broadcast_to(d, low.shape)[idx]
        m[:, 1, 0] = np.broadcast_to(b, low.shape)[idx]
        m[:, 0, 1] = np.conj(m[:, 1, 0])
        lam = np.linalg.eigvalsh(m)
        low[idx], high[idx] = lam[:, 0], lam[:, 1]
    return low, high


def eigvalsh(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of batched Hermitian matrices, ascending along the last axis.

    Size 1 is the diagonal, size 2 :func:`eigvalsh_planes` on the matrices'
    planes, size 3 ``np.linalg.eigvalsh``.
    """
    m = np.asarray(m)
    k = m.shape[-1]
    if k == 1:
        return m[..., 0, :].real.copy()
    if k != 2:
        return np.linalg.eigvalsh(m)
    if m.ndim == 2:
        return eigvalsh(m[None])[0]
    return np.stack(eigvalsh_planes(m[..., 0, 0].real, m[..., 1, 1].real, m[..., 1, 0]), axis=-1)
