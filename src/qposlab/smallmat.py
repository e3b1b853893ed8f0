"""Batched kernels for the small matrices carried by grid fields.

Every pointwise matrix in the package is n x n with n <= 3 (the torus
dimension), or up to 4 x 4 for the Jacobian minors of the degeneracy scan.
Hermitian batches are entry planes: ``diag``, n real diagonal planes, and
``upper``, the n(n-1)/2 complex planes above the diagonal in
:func:`upper_pairs` order, conjugated below it.  A product with an
off-diagonal plane stays a numpy complex product, which numpy fuses, in
:func:`det`'s order, so results are bitwise :func:`det`'s on the matrices.

At a million grid points a batched LAPACK call spends its time on per-matrix
overhead, so determinants and adjugates are written out by cofactors, and
Hermitian eigenvalues of sizes 1 and 2 come from the closed form

    lambda = h -+ r,   h = (a + d) / 2,   r = hypot((a - d) / 2, |b|)

for ``[[a, b], [conj(b), d]]``.  Its absolute error is a few ulps of
``|h| + r``, the same order as a backward-stable solver's; only relative
accuracy near zero is lost.  Every eigenvalue with ``|lambda| <= 64 eps (|h|
+ r)`` is therefore recomputed by ``np.linalg.eigvalsh``, so each sign
decision near zero is the reference kernel's (J. Kopp, arXiv:physics/0610206,
analyses this hybrid for 3 x 3).  Size 3 goes to ``np.linalg.eigvalsh``
directly, on matrices :func:`hermitian_matrices` assembles.

Positive definiteness is decided by Sylvester's criterion on the leading
principal minors, with the same kind of guard: with ``s`` the sum of the
entries' absolute real and imaginary parts (a bound on every eigenvalue),
the minors decide where each minor of order i lies outside ``64 eps s^i`` of
zero, and :func:`eigvalsh` decides elsewhere.  Where the minors decide, the
smallest eigenvalue is at least about ``64 eps s`` away from zero, so the test
agrees pointwise with ``eigvalsh(diag, upper)[0] > 0``.
"""

from __future__ import annotations

import numpy as np

from .errors import ModelError

__all__ = [
    "det",
    "upper_pairs",
    "hermitian_entries",
    "hermitian_matrices",
    "hermitian_det",
    "adjugate_planes",
    "eigvalsh",
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
    if not 1 <= k <= 4:
        raise ModelError(f"closed-form determinants cover sizes 1..4, got {k}")
    # [()] turns the entries of a single matrix into numpy scalars
    return _expand([[m[..., i, j][()] for j in range(k)] for i in range(k)])


def _expand(e: list[list]):
    """Cofactor expansion along the first row of the square entry table ``e``."""
    k = len(e)
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
    acc = np.zeros(np.shape(e[0][0]), dtype=np.complex128)
    for c in range(k):
        acc = acc + ((-1) ** c) * e[0][c] * _expand([row[:c] + row[c + 1 :] for row in e[1:]])
    return acc


def upper_pairs(n: int) -> list[tuple[int, int]]:
    """``(j, k)``, ``j < k``, of the upper planes of an n x n batch, in their order."""
    return [(j, k) for j in range(n) for k in range(j + 1, n)]


def hermitian_entries(diag, upper) -> list[list]:
    """``e[i][j]``: the plane of entry ``(i, j)``, conjugated below the diagonal."""
    n = len(diag)
    e = [[diag[i] if i == j else None for j in range(n)] for i in range(n)]
    for p, (j, k) in enumerate(upper_pairs(n)):
        e[j][k], e[k][j] = upper[p], np.conj(upper[p])
    return e


def hermitian_matrices(diag, upper) -> np.ndarray:
    """The ``(*batch, n, n)`` complex matrices of a batch given as planes."""
    entries = np.broadcast_arrays(*(p for row in hermitian_entries(diag, upper) for p in row))
    out = np.stack(entries, axis=-1).astype(np.complex128, copy=False)
    return out.reshape(entries[0].shape + (len(diag),) * 2)


def hermitian_det(diag, upper) -> np.ndarray:
    """Batched real determinant of Hermitian planes, sizes 1..3: :func:`det`'s expansion,
    with the products of two diagonal planes real (at size 2, all but ``b * conj(b)``)."""
    n = len(diag)
    if n == 2:
        return diag[0] * diag[1] - (upper[0] * np.conj(upper[0])).real
    if n in (1, 3):
        return np.real(_expand(hermitian_entries(diag, upper)))
    raise ModelError(f"Hermitian determinants of planes cover sizes 1..3, got {n}")


def adjugate_planes(diag, upper):
    """``(diag, re, im, mean)``: the adjugate ``adj(M) M = det(M) I`` of planes of one shape, sizes 1..3.

    The adjugate of a Hermitian matrix is Hermitian, and positive definite
    when the matrix is: ``diag`` stacks its real diagonal planes and ``re``,
    ``im`` the parts of its upper planes, each contiguous.  ``mean`` is its
    ``(n, n)`` batch mean, each plane summed in batch order.
    """
    n = len(diag)
    if not 1 <= n <= 3:
        raise ModelError(f"adjugates cover sizes 1..3, got {n}")
    shape = np.shape(diag[0])
    pairs = upper_pairs(n)
    adj_diag = np.empty((n,) + shape)
    re, im = np.empty((len(pairs),) + shape), np.empty((len(pairs),) + shape)
    if n == 1:
        adj_diag[0] = 1.0
    elif n == 2:
        adj_diag[0], adj_diag[1] = diag[1], diag[0]
        np.negative(upper[0].real, out=re[0])
        np.negative(upper[0].imag, out=im[0])
    else:
        # adj_ij is (-1)^(i+j) times the minor without row j and column i
        e = hermitian_entries(diag, upper)
        for i in range(3):
            r0, r1 = [a for a in range(3) if a != i]
            adj_diag[i] = hermitian_det([diag[r0], diag[r1]], [e[r0][r1]])
        for p, (i, j) in enumerate(pairs):
            entry = (-1) ** (i + j) * _expand([[e[a][b] for b in range(3) if b != i] for a in range(3) if a != j])
            re[p], im[p] = entry.real, entry.imag
    total = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        # np.cumsum adds in order; its last element is the in-order sum
        total[i, i] = complex(np.cumsum(adj_diag[i])[-1], 0.0)
    for p, (i, j) in enumerate(pairs):
        real, imag = np.cumsum(re[p])[-1], np.cumsum(im[p])[-1]
        total[i, j], total[j, i] = complex(real, imag), complex(real, -imag)
    return adj_diag, re, im, total / adj_diag[0].size


def positive_definite(diag, upper, det: np.ndarray) -> np.ndarray:
    """Pointwise positive definiteness of Hermitian planes of one shape, sizes 1..3.

    Sylvester's criterion with the guard described above; ``det`` is the
    caller's :func:`hermitian_det` of the planes, the last leading minor.
    Agrees pointwise with ``eigvalsh(diag, upper)[0] > 0``.
    """
    k = len(diag)
    if k == 1:
        return diag[0] > 0
    if k > 3:
        raise ModelError(f"positivity tests cover sizes 1..3, got {k}")
    s = np.abs(diag[0])
    for i in range(1, k):
        s += np.abs(diag[i])
        for j in range(i):
            b = upper[upper_pairs(k).index((j, i))]
            off = np.abs(b.real)
            off += np.abs(b.imag)
            off *= 2.0
            s += off
    minors = [diag[0]]
    if k == 3:
        minors.append(hermitian_det(diag[:2], upper[:1]))
    minors.append(det)
    positive = minors[0] > 0
    near_zero = np.zeros(s.shape, dtype=bool)
    bound = _GUARD * s
    for order, minor in enumerate(minors, start=1):
        if order > 1:
            positive &= minor > 0
            bound *= s
        near_zero |= np.abs(minor, out=off) <= bound  # into off, dead here: one plane less at the peak
    if near_zero.any():
        idx = np.nonzero(near_zero)
        positive[idx] = eigvalsh([p[idx] for p in diag], [p[idx] for p in upper])[0] > 0
    return positive


def eigvalsh(diag, upper) -> tuple[np.ndarray, ...]:
    """Ascending eigenvalues of batched Hermitian planes (broadcast together), one plane each.

    Size 1 is the diagonal plane itself, size 2 the guarded closed form and
    size 3 ``np.linalg.eigvalsh``, which reads the real diagonal and the lower
    triangle (the conjugates of ``upper``) of the assembled matrices.
    """
    n = len(diag)
    if n == 1:
        return (diag[0],)
    if n == 3:
        return tuple(np.moveaxis(np.linalg.eigvalsh(hermitian_matrices(diag, upper)), -1, 0))
    if n != 2:
        raise ModelError(f"eigenvalues of planes cover sizes 1..3, got {n}")
    a, d, b = diag[0], diag[1], upper[0]
    h = 0.5 * (a + d)
    r = np.hypot(0.5 * (a - d), np.abs(b))
    low, high = h - r, h + r
    bound = _GUARD * (np.abs(h) + r)
    idx = np.nonzero((np.abs(low) <= bound) | (np.abs(high) <= bound))
    if idx[0].size:
        near = [np.broadcast_to(p, low.shape)[idx] for p in (a, d, b)]
        lam = np.linalg.eigvalsh(hermitian_matrices(near[:2], near[2:]))
        low[idx], high[idx] = lam[:, 0], lam[:, 1]
    return low, high
