"""Polynomial holomorphic maps: degeneracy loci and fibre probes.

A map is stored exactly as exponent-to-coefficient tables, so Jacobians are
formal derivatives, not finite differences.  Rank decisions go through the
elementary symmetric functions of the pullback ``J^H J``,

    sigma_j = sum over all j x j minors M of J of |det M|^2,

which equals the j-th elementary symmetric polynomial of the eigenvalues of
``J^H J`` (Cauchy-Binet); ``sigma_j`` vanishes exactly where ``rank J < j``.
Minor determinants of size <= 4 are expanded in closed form, by
:mod:`qposlab.smallmat`'s cofactor expansion on views of the Jacobian
entries: pivoting determinants introduce rounding on exact-integer inputs,
cofactor expansion does not.

The sampled scan keeps a bounded working set: it runs the points in slabs
of about 65,536 on the slab pool of :mod:`qposlab.calculus`, whatever the
CPU count, and each slab computes its own Jacobians and sigmas.  The fibre
probe steps all its Gauss-Newton seeds as one batch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import smallmat
from .calculus import _run_slabs, _slab_bounds
from .errors import ModelError

__all__ = [
    "PolyMap",
    "sigma_j_minors",
    "sigma_profile",
    "numeric_rank",
    "sample_box",
    "DegeneracyScan",
    "degeneracy_locus_scan",
    "fibre_dimension_estimate",
]

_SIGMA_RTOL = 1e-10


def _clean_exponents(exps, n: int) -> tuple[int, ...]:
    t = tuple(int(e) for e in exps)
    if len(t) != n or any(e < 0 for e in t):
        raise ModelError(f"exponent tuple {exps} must have {n} nonnegative entries")
    return t


def _check_dimensions(n: int, m: int) -> None:
    if not 1 <= n <= 4 or not 1 <= m <= 6:
        raise ModelError(f"map dimensions out of range: n={n}, m={m}")


def _monomial_row(row, n: int, m: int, where: str) -> tuple[int, tuple[int, ...], complex]:
    """Component, exponents and coefficient of the row ``[component, e_1, ...,
    e_n, re, im]`` named ``where``: integers in 0..m-1 and nonnegative
    integers, then finite numbers; no entry is a bool."""
    if not isinstance(row, (list, tuple)) or len(row) != n + 3 or any(isinstance(x, bool) for x in row):
        raise ModelError(f"{where}: expected [component, {n} exponents, re, im], got {row!r}")
    comp, *exps, re, im = row
    if not all(isinstance(x, int) for x in (comp, *exps)):
        raise ModelError(f"{where}: component and exponents must be integers, got {row!r}")
    if not 0 <= comp < m:
        raise ModelError(f"{where}: component index {comp} outside 0..{m - 1}")
    if any(e < 0 for e in exps):
        raise ModelError(f"{where}: exponents must be nonnegative, got {exps}")
    try:
        coeff = complex(re, im)
    except (TypeError, OverflowError):  # a string, or an integer beyond float range
        coeff = np.nan
    if not np.isfinite(coeff):
        raise ModelError(f"{where}: re and im must be finite numbers, got {re!r}, {im!r}")
    return comp, tuple(exps), coeff


@dataclass(frozen=True)
class PolyMap:
    """Polynomial map C^n -> C^m with exact coefficient tables.

    ``components[i]`` maps an exponent tuple ``(e_1, ..., e_n)`` to the
    complex coefficient of ``z_1^{e_1} ... z_n^{e_n}`` in the i-th output.
    """

    n: int
    m: int
    components: tuple[dict, ...]

    def __post_init__(self):
        _check_dimensions(self.n, self.m)
        if len(self.components) != self.m:
            raise ModelError(f"expected {self.m} component tables, got {len(self.components)}")
        cleaned = []
        for i, comp in enumerate(self.components):
            table = {}
            for exps, coeff in comp.items():
                c = complex(coeff)
                if not np.isfinite(c):
                    raise ModelError(f"component {i}: coefficient of {exps} must be finite, got {coeff!r}")
                if c != 0:
                    table[_clean_exponents(exps, self.n)] = c
            cleaned.append(table)
        object.__setattr__(self, "components", tuple(cleaned))

    @classmethod
    def from_rows(cls, rows, n: int, m: int) -> "PolyMap":
        """Map from ``(where, row)`` pairs read by ``_monomial_row``; repeated monomials add up."""
        _check_dimensions(n, m)
        tables = [dict() for _ in range(m)]
        for where, row in rows:
            comp, key, coeff = _monomial_row(row, n, m, where)
            tables[comp][key] = tables[comp].get(key, 0.0) + coeff
        return cls(n=n, m=m, components=tuple(tables))

    @classmethod
    def from_text(cls, text: str, n: int, m: int) -> "PolyMap":
        """Parse ``component e_1 ... e_n re im`` lines (0-based component index).

        Blank lines and ``#`` comments are skipped; repeated monomials add up.
        """
        rows = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            fields = raw.split("#", 1)[0].split()
            if fields:
                try:
                    row = [int(f) for f in fields[:-2]] + [float(f) for f in fields[-2:]]
                except ValueError as exc:
                    raise ModelError(f"map line {lineno}: {exc}") from exc
                rows.append((f"map line {lineno}", row))
        return cls.from_rows(rows, n, m)

    def evaluate(self, points) -> np.ndarray:
        """Map values at ``points`` of shape (..., n); returns (..., m)."""
        z = np.asarray(points, dtype=np.complex128)
        if z.shape[-1] != self.n:
            raise ModelError(f"points must end in an axis of length n={self.n}, got {z.shape}")
        out = np.zeros(z.shape[:-1] + (self.m,), dtype=np.complex128)
        for i, table in enumerate(self.components):
            _add_monomials(z, table, out[..., i])
        return out

    def derivative_table(self, comp: int, var: int) -> dict:
        """Formal d(component comp)/d z_var as an exponent table (exact)."""
        out = {}
        for exps, coeff in self.components[comp].items():
            e = exps[var]
            if e:
                key = exps[:var] + (e - 1,) + exps[var + 1 :]
                out[key] = out.get(key, 0.0) + e * coeff
        return out

    def jacobian(self, points) -> np.ndarray:
        """Holomorphic Jacobian at ``points`` (..., n); returns (..., m, n)."""
        z = np.asarray(points, dtype=np.complex128)
        if z.shape[-1] != self.n:
            raise ModelError(f"points must end in an axis of length n={self.n}, got {z.shape}")
        out = np.zeros(z.shape[:-1] + (self.m, self.n), dtype=np.complex128)
        for i in range(self.m):
            for v in range(self.n):
                _add_monomials(z, self.derivative_table(i, v), out[..., i, v])
        return out


def _add_monomials(z: np.ndarray, table: dict, out: np.ndarray) -> None:
    """Add each term ``coeff * z^exps`` of ``table`` into ``out``, in table order."""
    for exps, coeff in table.items():
        term = np.full(z.shape[:-1], coeff, dtype=np.complex128)
        for v, e in enumerate(exps):
            if e:
                term = term * z[..., v] ** e
        out += term


def sigma_j_minors(jacobians: np.ndarray, j: int) -> np.ndarray:
    """j-th elementary symmetric function of eig(J^H J) from squared minors.

    ``jacobians`` has shape (..., m, n); ``j`` runs 1..n.  For j > m the rank
    of J^H J caps the symmetric function at exactly zero, matching the empty
    minor sum.  The result is exact up to rounding of the minors themselves.
    """
    jac = np.asarray(jacobians, dtype=np.complex128)
    mrows, ncols = jac.shape[-2:]
    if not 1 <= j <= ncols:
        raise ModelError(f"sigma index {j} outside 1..{ncols}")
    # one batch axis even for a single Jacobian, so every point takes the same
    # array arithmetic; each minor is smallmat's cofactor expansion on entry
    # views of the Jacobians, with no copy of the minor
    flat = jac.reshape((-1, mrows, ncols))
    acc = np.zeros(flat.shape[0], dtype=np.float64)
    for rows in itertools.combinations(range(mrows), j):
        for cols in itertools.combinations(range(ncols), j):
            d = smallmat._expand([[flat[:, r, c] for c in cols] for r in rows])
            acc = acc + (d * d.conj()).real
    return acc.reshape(jac.shape[:-2])


def sigma_profile(jacobians: np.ndarray) -> np.ndarray:
    """All sigma_1..sigma_n stacked on a trailing axis; shape (..., n)."""
    jac = np.asarray(jacobians, dtype=np.complex128)
    n = jac.shape[-1]
    return np.stack([sigma_j_minors(jac, j) for j in range(1, n + 1)], axis=-1)


def _sigma_thresholds(sigma1: np.ndarray, n: int, rtol: float) -> np.ndarray:
    # sigma_j is a degree-j polynomial in the singular values, so the scale
    # reference (1 + sigma_1) enters at the j-th power
    js = np.arange(1, n + 1, dtype=np.float64)
    return rtol * (1.0 + sigma1)[..., None] ** js


def numeric_rank(jacobians: np.ndarray, rtol: float = _SIGMA_RTOL) -> np.ndarray:
    """Largest j with sigma_j above its scale-aware threshold (0 if none)."""
    sig = sigma_profile(jacobians)
    n = sig.shape[-1]
    above = sig > _sigma_thresholds(sig[..., 0], n, rtol)
    ranks = np.zeros(sig.shape[:-1], dtype=np.intp)
    for j in range(n):
        ranks = np.where(above[..., j], j + 1, ranks)
    return ranks


def sample_box(intervals, per_axis: int) -> np.ndarray:
    """Cartesian sample grid of C^n from 2n real intervals (Re_1, Im_1, ...).

    Returns points of shape (per_axis ** (2n), n), endpoints included.
    """
    intervals = [tuple(map(float, iv)) for iv in intervals]
    if not np.all(np.isfinite(intervals)):
        raise ModelError(f"interval ends must be finite, got {intervals}")
    if len(intervals) % 2 != 0:
        raise ModelError("need an even number of intervals: real and imaginary per variable")
    if per_axis < 2:
        raise ModelError(f"per_axis must be at least 2, got {per_axis}")
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in intervals]
    grids = np.meshgrid(*axes, indexing="ij", sparse=True)
    n = len(intervals) // 2
    pts = np.empty((per_axis,) * (2 * n) + (n,), dtype=np.complex128)
    for j in range(n):
        np.add(grids[2 * j], 1j * grids[2 * j + 1], out=pts[..., j])
    return pts.reshape(-1, n)


@dataclass(frozen=True)
class DegeneracyScan:
    """Sampled degeneracy-locus report for one map and one positivity level."""

    points: np.ndarray
    flagged: np.ndarray
    q: int
    rtol: float

    def flagged_points(self) -> np.ndarray:
        return self.points[self.flagged]


def degeneracy_locus_scan(pmap: PolyMap, q: int, points, rtol: float = _SIGMA_RTOL) -> DegeneracyScan:
    """Flag sample points where ``rank J < n - q``.

    Equivalent sigma form: every sigma_j for j = n-q .. n sits below its
    scale-aware threshold ``rtol * (1 + sigma_1)^j``.  At flagged points the
    pullback ``J^H J`` has fewer than ``n - q`` positive eigenvalues, so the
    pulled-back positivity count q fails there.

    The points run in consecutive slabs of about 65,536 points on the slab
    pool (:func:`qposlab.calculus._run_slabs`); each slab takes its own
    Jacobians, sigma_1 and the sigma_j the rank test reads, and writes only its
    part of the mask, so no whole-grid Jacobian exists.  The slabs do not
    depend on the CPU count.
    """
    if not 0 <= q < pmap.n:
        raise ModelError(f"q must be in 0..{pmap.n - 1}, got {q}")
    if not (rtol > 0 and np.isfinite(rtol)):
        raise ModelError(f"rtol must be a finite positive number, got {rtol}")
    pts = np.asarray(points, dtype=np.complex128)
    if pts.ndim == 0 or pts.shape[-1] != pmap.n:
        raise ModelError(f"points must end in an axis of length n={pmap.n}, got {pts.shape}")
    flat = pts.reshape((-1, pmap.n))
    flagged = np.empty(flat.shape[0], dtype=bool)

    def scan(bounds):
        lo, hi = bounds
        jac = pmap.jacobian(flat[lo:hi])
        sigma1 = sigma_j_minors(jac, 1)
        thr = _sigma_thresholds(sigma1, pmap.n, rtol)
        out = flagged[lo:hi]
        out[:] = True
        for j in range(pmap.n - q, pmap.n + 1):
            out &= (sigma1 if j == 1 else sigma_j_minors(jac, j)) <= thr[:, j - 1]

    _run_slabs(scan, _slab_bounds(flat.shape[0], 1))
    return DegeneracyScan(points=pts, flagged=flagged.reshape(pts.shape[:-1]), q=q, rtol=rtol)


# Fibre probes: Gauss-Newton from _FIBRE_SEEDS seeds whose real and imaginary
# parts are drawn (from one fixed generator seed) uniformly in [-_FIBRE_RADIUS,
# _FIBRE_RADIUS], at most _FIBRE_MAX_ITER steps each, stopping once the residual
# is below _FIBRE_TOL; a point is on the fibre when its residual is below _FIBRE_ACCEPT.
_FIBRE_RADIUS = 1.5
_FIBRE_SEEDS = 48
_FIBRE_RNG_SEED = 0
_FIBRE_TOL = 1e-11
_FIBRE_ACCEPT = 1e-8
_FIBRE_MAX_ITER = 80


def fibre_dimension_estimate(pmap: PolyMap, target) -> int:
    """Estimated dimension of the fibre over ``target`` near the origin.

    Gauss-Newton runs from random seeds; every converged point contributes
    ``rank J`` there, and the fibre dimension is ``n - max rank`` (the rank at
    smooth fibre points).  Returns -1 when no seed lands on the fibre, the
    numerical signature of an empty fibre within the probed ball.

    The seeds step together: each iteration evaluates the map, its Jacobians
    and their pseudo-inverses once for the seeds still running, and a seed
    stops on its own residual and step-size tests.
    """
    w = np.asarray(target, dtype=np.complex128)
    if w.shape != (pmap.m,):
        raise ModelError(f"target must have shape ({pmap.m},), got {w.shape}")
    rng = np.random.default_rng(_FIBRE_RNG_SEED)
    z = _FIBRE_RADIUS * (
        rng.uniform(-1.0, 1.0, (_FIBRE_SEEDS, pmap.n)) + 1j * rng.uniform(-1.0, 1.0, (_FIBRE_SEEDS, pmap.n))
    )
    live = np.arange(_FIBRE_SEEDS)
    for _ in range(_FIBRE_MAX_ITER):
        zl = z[live]
        r = pmap.evaluate(zl) - w
        # negated tests, so a seed whose norms are NaN keeps running
        moving = ~(np.linalg.norm(r, axis=-1) < _FIBRE_TOL)
        live, zl, r = live[moving], zl[moving], r[moving]
        if live.size == 0:
            break
        step = (np.linalg.pinv(pmap.jacobian(zl)) @ r[:, :, None])[:, :, 0]
        moving = ~(np.linalg.norm(step, axis=-1) < 1e-15 * (1.0 + np.linalg.norm(zl, axis=-1)))
        live = live[moving]
        z[live] = zl[moving] - step[moving]
    landed = z[np.linalg.norm(pmap.evaluate(z) - w, axis=-1) < _FIBRE_ACCEPT]
    if landed.shape[0] == 0:
        return -1
    return pmap.n - int(np.max(numeric_rank(pmap.jacobian(landed))))
