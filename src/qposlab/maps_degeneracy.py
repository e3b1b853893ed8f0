"""Polynomial holomorphic maps: pullback forms, degeneracy loci, fibre probes.

A map is stored exactly as exponent-to-coefficient tables, so Jacobians are
formal derivatives, not finite differences.  Rank decisions go through the
elementary symmetric functions of the pullback ``J^H J``,

    sigma_j = sum over all j x j minors M of J of |det M|^2,

which equals the j-th elementary symmetric polynomial of the eigenvalues of
``J^H J`` (Cauchy-Binet); ``sigma_j`` vanishes exactly where ``rank J < j``.
Minor determinants of size <= 4 are expanded in closed form: pivoting
determinants introduce rounding on exact-integer inputs, cofactor expansion
does not.

Chart potentials for stratified centres are assembled on the torus with
centred coordinate representatives in [-1/2, 1/2); bump weights must form a
partition of unity, and the inductive step that merges a stratum potential
into an ambient one retreats along a dyadic ladder of weights until the
required eigenvalue count certifies at every checkpoint.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import smallmat
from .calculus import HermitianFormField, PotentialField, fd_complex_hessian
from .errors import ModelError, PipelineFailure
from .geometry import TorusModel

__all__ = [
    "PolyMap",
    "pullback_form",
    "sigma_j_minors",
    "sigma_profile",
    "numeric_rank",
    "sample_box",
    "DegeneracyScan",
    "degeneracy_locus_scan",
    "fibre_dimension_estimate",
    "ChartData",
    "local_potential_build",
    "CombineResult",
    "combine_normal_potentials",
]

_SIGMA_RTOL = 1e-10


def _clean_exponents(exps, n: int) -> tuple[int, ...]:
    t = tuple(int(e) for e in exps)
    if len(t) != n or any(e < 0 for e in t):
        raise ModelError(f"exponent tuple {exps} must have {n} nonnegative entries")
    return t


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
        if not 1 <= self.n <= 4 or not 1 <= self.m <= 6:
            raise ModelError(f"map dimensions out of range: n={self.n}, m={self.m}")
        if len(self.components) != self.m:
            raise ModelError(f"expected {self.m} component tables, got {len(self.components)}")
        cleaned = []
        for comp in self.components:
            table = {}
            for exps, coeff in comp.items():
                c = complex(coeff)
                if c != 0:
                    table[_clean_exponents(exps, self.n)] = c
            cleaned.append(table)
        object.__setattr__(self, "components", tuple(cleaned))

    @classmethod
    def from_text(cls, text: str, n: int, m: int) -> "PolyMap":
        """Parse ``component e_1 ... e_n re im`` lines (0-based component index).

        Blank lines and ``#`` comments are skipped; repeated monomials add up.
        """
        tables = [dict() for _ in range(m)]
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != n + 3:
                raise ModelError(
                    f"map line {lineno}: expected {n + 3} fields (component, {n} exponents, re, im), "
                    f"got {len(parts)}"
                )
            try:
                comp = int(parts[0])
                exps = tuple(int(p) for p in parts[1 : n + 1])
                coeff = complex(float(parts[n + 1]), float(parts[n + 2]))
            except ValueError as exc:
                raise ModelError(f"map line {lineno}: {exc}") from exc
            if not 0 <= comp < m:
                raise ModelError(f"map line {lineno}: component index {comp} outside 0..{m - 1}")
            key = _clean_exponents(exps, n)
            tables[comp][key] = tables[comp].get(key, 0.0) + coeff
        return cls(n=n, m=m, components=tuple(tables))

    def evaluate(self, points) -> np.ndarray:
        """Map values at ``points`` of shape (..., n); returns (..., m)."""
        z = np.asarray(points, dtype=np.complex128)
        if z.shape[-1] != self.n:
            raise ModelError(f"points must end in an axis of length n={self.n}, got {z.shape}")
        out = np.zeros(z.shape[:-1] + (self.m,), dtype=np.complex128)
        for i, table in enumerate(self.components):
            for exps, coeff in table.items():
                term = np.full(z.shape[:-1], coeff, dtype=np.complex128)
                for v, e in enumerate(exps):
                    if e:
                        term = term * z[..., v] ** e
                out[..., i] += term
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
                for exps, coeff in self.derivative_table(i, v).items():
                    term = np.full(z.shape[:-1], coeff, dtype=np.complex128)
                    for w, e in enumerate(exps):
                        if e:
                            term = term * z[..., w] ** e
                    out[..., i, v] += term
        return out


def pullback_form(pmap: PolyMap, points) -> np.ndarray:
    """Pointwise pullback metric ``J^H J`` at ``points``; shape (..., n, n)."""
    jac = pmap.jacobian(points)
    return jac.conj().swapaxes(-1, -2) @ jac


def _submatrix(mats: np.ndarray, rows, cols) -> np.ndarray:
    r = np.asarray(rows, dtype=np.intp)
    c = np.asarray(cols, dtype=np.intp)
    return mats[..., r[:, None], c[None, :]]


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
    # one batch axis even for a single Jacobian, so every point takes the
    # same (array) arithmetic in smallmat.det
    flat = jac.reshape((-1, mrows, ncols))
    acc = np.zeros(flat.shape[0], dtype=np.float64)
    for rows in itertools.combinations(range(mrows), j):
        for cols in itertools.combinations(range(ncols), j):
            d = smallmat.det(_submatrix(flat, rows, cols))
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
    if len(intervals) % 2 != 0:
        raise ModelError("need an even number of intervals: real and imaginary per variable")
    if per_axis < 2:
        raise ModelError(f"per_axis must be at least 2, got {per_axis}")
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in intervals]
    grids = np.meshgrid(*axes, indexing="ij")
    n = len(intervals) // 2
    pts = np.stack([grids[2 * j] + 1j * grids[2 * j + 1] for j in range(n)], axis=-1)
    return pts.reshape(-1, n)


@dataclass(frozen=True)
class DegeneracyScan:
    """Sampled degeneracy-locus report for one map and one positivity level."""

    points: np.ndarray
    sigmas: np.ndarray
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
    """
    if not 0 <= q < pmap.n:
        raise ModelError(f"q must be in 0..{pmap.n - 1}, got {q}")
    pts = np.asarray(points, dtype=np.complex128)
    jac = pmap.jacobian(pts)
    sig = sigma_profile(jac)
    thr = _sigma_thresholds(sig[..., 0], pmap.n, rtol)
    below = sig <= thr
    flagged = np.all(below[..., pmap.n - q - 1 :], axis=-1)
    return DegeneracyScan(points=pts, sigmas=sig, flagged=flagged, q=q, rtol=rtol)


def fibre_dimension_estimate(
    pmap: PolyMap,
    target,
    center=None,
    radius: float = 1.5,
    n_seeds: int = 48,
    seed: int = 0,
    tol: float = 1e-11,
    accept_tol: float = 1e-8,
    max_iter: int = 80,
    rank_rtol: float = _SIGMA_RTOL,
) -> int:
    """Estimated dimension of the fibre over ``target`` near ``center``.

    Gauss-Newton runs from random seeds; every converged point contributes
    ``rank J`` there, and the fibre dimension is ``n - max rank`` (the rank at
    smooth fibre points).  Returns -1 when no seed lands on the fibre, the
    numerical signature of an empty fibre within the probed ball.
    """
    w = np.asarray(target, dtype=np.complex128)
    if w.shape != (pmap.m,):
        raise ModelError(f"target must have shape ({pmap.m},), got {w.shape}")
    c = np.zeros(pmap.n, dtype=np.complex128) if center is None else np.asarray(center, dtype=np.complex128)
    rng = np.random.default_rng(seed)
    seeds = c + radius * (
        rng.uniform(-1.0, 1.0, (n_seeds, pmap.n)) + 1j * rng.uniform(-1.0, 1.0, (n_seeds, pmap.n))
    )
    best_rank = None
    for z in seeds:
        z = z.copy()
        for _ in range(max_iter):
            r = pmap.evaluate(z) - w
            if np.linalg.norm(r) < tol:
                break
            step = np.linalg.pinv(pmap.jacobian(z)) @ r
            if np.linalg.norm(step) < 1e-15 * (1.0 + np.linalg.norm(z)):
                break
            z = z - step
        if np.linalg.norm(pmap.evaluate(z) - w) < accept_tol:
            rank = int(numeric_rank(pmap.jacobian(z), rtol=rank_rtol))
            best_rank = rank if best_rank is None else max(best_rank, rank)
    if best_rank is None:
        return -1
    return pmap.n - best_rank


@dataclass(frozen=True)
class ChartData:
    """One chart's contribution to a glued stratum potential.

    ``weight`` is the bump value on the grid (real, nonnegative) and
    ``components`` the chart map values, shape ``(*grid_broadcast, m)``.
    """

    weight: np.ndarray
    components: np.ndarray


def local_potential_build(torus: TorusModel, charts, partition_tol: float = 1e-10) -> PotentialField:
    """Glue chart potentials ``sum_i |f_i|^2`` with bump weights.

    The weights must form a partition of unity on the grid within
    ``partition_tol``; charts are expected to present their maps in centred
    torus coordinates so each summand is smooth on the bump's support.
    """
    if not charts:
        raise ModelError("local_potential_build needs at least one chart")
    total_weight = np.zeros((1,) * torus.ndim_real)
    acc = np.zeros((1,) * torus.ndim_real)
    for idx, chart in enumerate(charts):
        w = np.asarray(chart.weight, dtype=np.float64)
        comp = np.asarray(chart.components, dtype=np.complex128)
        if w.ndim != torus.ndim_real:
            raise ModelError(f"chart {idx}: weight must have {torus.ndim_real} axes, got shape {w.shape}")
        if comp.ndim != torus.ndim_real + 1:
            raise ModelError(
                f"chart {idx}: components must have {torus.ndim_real + 1} axes (grid + map), got shape {comp.shape}"
            )
        if np.min(w) < -partition_tol:
            raise ModelError(f"chart {idx}: bump weight dips to {np.min(w)}; must be nonnegative")
        total_weight = total_weight + w
        acc = acc + w * np.sum((comp * comp.conj()).real, axis=-1)
    defect = float(np.max(np.abs(total_weight - 1.0)))
    if defect > partition_tol:
        raise ModelError(f"bump weights miss a partition of unity by {defect:.3e} (> {partition_tol:.1e})")
    return PotentialField(torus, acc)


@dataclass(frozen=True)
class CombineResult:
    """Outcome of one inductive stratum-combination step."""

    potential: PotentialField
    epsilon: float
    min_margin: float
    worst_point: tuple
    halvings: int


def _eigen_counts_at(form: HermitianFormField, points, need: int):
    vals = form.values
    grid_shape = vals.shape[:-2]
    worst = None
    worst_margin = math.inf
    for p in points:
        idx = tuple(int(i) % s for i, s in zip(p, grid_shape))
        if len(idx) != len(grid_shape):
            raise ModelError(f"checkpoint {p} must index {len(grid_shape)} grid axes")
        eigs = np.linalg.eigvalsh(vals[idx])
        margin = float(eigs[-need]) if need > 0 else math.inf
        if margin < worst_margin:
            worst_margin = margin
            worst = tuple(idx)
    return worst_margin, worst


def combine_normal_potentials(
    base: HermitianFormField,
    phi: PotentialField,
    previous: PotentialField,
    check_points,
    q: int,
    margin: float = 0.0,
    max_halvings: int = 40,
    fd_order: int = 4,
) -> CombineResult:
    """Merge ``previous`` into ``phi`` at the largest dyadic weight that keeps
    ``base + Hess(phi + eps * previous)`` q-positive at every checkpoint.

    The certificate is finite-difference on purpose: it is independent of the
    spectral machinery used to construct the inputs.  Exhausting the ladder
    raises with the last worst checkpoint attached.
    """
    n = base.torus.n
    if not 0 <= q < n:
        raise ModelError(f"q must be in 0..{n - 1}, got {q}")
    if not check_points:
        raise ModelError("combine_normal_potentials needs at least one checkpoint")
    need = n - q
    last_margin, last_worst = -math.inf, None
    for halvings in range(max_halvings + 1):
        eps = 2.0**-halvings
        candidate = phi + eps * previous
        evolved = base + fd_complex_hessian(candidate, order=fd_order)
        worst_margin, worst = _eigen_counts_at(evolved, check_points, need)
        if worst_margin > margin:
            return CombineResult(
                potential=candidate,
                epsilon=eps,
                min_margin=worst_margin,
                worst_point=worst,
                halvings=halvings,
            )
        last_margin, last_worst = worst_margin, worst
    raise PipelineFailure(
        f"no dyadic weight down to 2^-{max_halvings} certifies {need} positive eigenvalues "
        f"(last margin {last_margin:.3e} at {last_worst})",
        region="stratum-combination",
        worst_point=last_worst,
    )
