"""Output checks for the benchmark, computed apart from qposlab.

Nothing here imports qposlab.  Each ``check_*`` function takes the JSON
report a CLI run printed, its exit code (0 or 1) and the facts the
benchmark knows about the input, and returns a list of problems; an empty
list means the output is right.  The expected values come from closed-form algebra (small
determinants, the flat-torus Monge-Ampere solution), exact rational cone
membership, or counting on the sample grid, never from the program itself.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

# |min_margin - expected| may be at most this multiple of the solver tol
# (scaled by max(1, |expected|)).  At tol 1e-12 the observed error is below 1e-13.
MARGIN_TOL_FACTOR = 100.0


# ---------------------------------------------------------------- certify

def det_closed(m) -> complex:
    """Determinant of a 1x1 or 2x2 matrix, written out."""
    m = np.asarray(m)
    if m.shape == (1, 1):
        return m[0, 0]
    if m.shape == (2, 2):
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    raise ValueError(f"det_closed takes 1x1 or 2x2 matrices, not {m.shape}")


def is_positive_definite(m) -> bool:
    """Sylvester's criterion: every leading principal minor is positive."""
    m = np.asarray(m)
    return all(det_closed(m[:r, :r]).real > 0 for r in range(1, m.shape[0] + 1))


def certify_expectation(line, kahler, q: int, k_max: int = 64) -> dict:
    """Smallest k with H + k w positive definite and D_k > 1, D_k, and the margin.

    On the flat torus the Monge-Ampere solution is phi = -psi0 + const, so the
    evolved form is the constant H + k w and the certified margin is the
    (n-q)-th largest eigenvalue of (k w)^-1 (H + k w), minus one.
    """
    h = np.asarray(line, dtype=complex)
    g = np.asarray(kahler, dtype=complex)
    n = h.shape[0]
    for k in range(1, k_max + 1):
        shifted = h + k * g
        if not is_positive_definite(shifted):
            continue
        dk = (det_closed(shifted) / det_closed(k * g)).real
        if dk > 1.0:
            rel = np.sort(np.linalg.eigvals(np.linalg.solve(k * g, shifted)).real)[::-1]
            return {"k": k, "dk": float(dk), "min_margin": float(rel[n - q - 1] - 1.0)}
    raise ValueError(f"no admissible k <= {k_max}")


def check_certify(report: dict, code: int, expect: dict, q: int, tol: float,
                  margin_required: float) -> list[str]:
    v = report["verdict"]
    passed = expect["min_margin"] > margin_required
    problems = []
    if code != (0 if passed else 1):
        problems.append(f"exit code {code}, expected {0 if passed else 1}")
    if v["passed"] is not passed:
        problems.append(f"passed={v['passed']}, expected {passed}")
    if v["k"] != expect["k"]:
        problems.append(f"k={v['k']}, expected {expect['k']}")
    if v["q"] != q:
        problems.append(f"q={v['q']}, expected {q}")
    if abs(v["dk"] - expect["dk"]) > 1e-12 * max(1.0, abs(expect["dk"])):
        problems.append(f"dk={v['dk']!r}, expected {expect['dk']!r}")
    allowed = MARGIN_TOL_FACTOR * tol * max(1.0, abs(expect["min_margin"]))
    if not abs(v["min_margin"] - expect["min_margin"]) <= allowed:
        problems.append(
            f"min_margin={v['min_margin']!r}, expected {expect['min_margin']!r} within {allowed:.1e}"
        )
    if not v["ma_residual"] <= tol:
        problems.append(f"ma_residual={v['ma_residual']!r} above tol {tol}")
    return problems


# ------------------------------------------------------------------- glue

def log_trig_pole(grid: int, center, weight: float) -> np.ndarray:
    """(weight / 2) log sum_a sin^2(pi (x_a - c_a)) on the full grid, -inf at the pole."""
    x = np.arange(grid, dtype=np.float64) / grid
    ndim = len(center)
    qsum = np.zeros((1,) * ndim)
    for a, c in enumerate(center):
        shape = [1] * ndim
        shape[a] = grid
        qsum = qsum + (np.sin(np.pi * (x - c)) ** 2).reshape(shape)
    with np.errstate(divide="ignore"):
        return (weight / 2.0) * np.log(qsum)


def chebyshev_neighbourhood(pole: np.ndarray, radius: int) -> np.ndarray:
    """Cells within periodic Chebyshev distance ``radius`` of a pole cell."""
    grid = pole.shape[0]
    idx = np.arange(grid)
    out = np.zeros(pole.shape, dtype=bool)
    for p in np.argwhere(pole):
        near = np.ones(pole.shape, dtype=bool)
        for a, pa in enumerate(p):
            d = np.abs(idx - pa)
            d = np.minimum(d, grid - d)
            shape = [1] * pole.ndim
            shape[a] = grid
            near &= (d <= radius).reshape(shape)
        out |= near
    return out


def glue_threshold(phi_b: np.ndarray, phi_s: np.ndarray, pole_band: int) -> float:
    """Smallest power of two above sup(phi_b - phi_s) outside the pole band."""
    outside = ~chebyshev_neighbourhood(np.isneginf(phi_s), pole_band)
    sup = float(np.max((phi_b - phi_s)[outside]))
    for m in range(-20, 65):
        if sup < 2.0**m:
            return 2.0**m
    raise ValueError(f"gap {sup} above 2**64")


def check_glue(report: dict, code: int, threshold: float) -> list[str]:
    v = report["verdict"]
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    if v["threshold"] != threshold:
        problems.append(f"threshold={v['threshold']!r}, expected {threshold!r}")
    eps = v["smoothing_eps"]
    if not (0 < eps <= 1 and math.frexp(eps)[0] == 0.5):
        problems.append(f"smoothing_eps={eps!r} is not a power of two in (0, 1]")
    names = [r["name"] for r in v["regions"]]
    if names != ["outside U_C", "V_C", "U_C minus V_C"]:
        problems.append(f"regions {names}")
    for r in v["regions"]:
        if r["n_points"] <= 0:
            problems.append(f"region {r['name']} holds no points")
        if not r["passed"]:
            problems.append(f"region {r['name']} did not pass")
    return problems


# ------------------------------------------------------------- ag-surface

def pair(gram, a, b) -> Fraction:
    r = len(a)
    return sum(Fraction(a[i]) * gram[i][j] * Fraction(b[j]) for i in range(r) for j in range(r))


def _solve_exact(columns, x):
    """Unique c with sum c_i columns_i = x, or None when the columns are
    dependent or x is outside their span (Gauss-Jordan over Fractions)."""
    r, dim = len(columns), len(x)
    rows = [[Fraction(columns[j][i]) for j in range(r)] + [Fraction(x[i])] for i in range(dim)]
    for c in range(r):
        p = next((i for i in range(c, dim) if rows[i][c] != 0), None)
        if p is None:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        for i in range(dim):
            if i != c and rows[i][c] != 0:
                f = rows[i][c] / rows[c][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    if any(rows[i][r] != 0 for i in range(r, dim)):
        return None
    return [rows[i][r] / rows[i][i] for i in range(r)]


def cone_contains(generators, x) -> bool:
    """Conic Caratheodory: x is in cone(G) exactly when it is a nonnegative
    combination of some linearly independent subset of at most dim(x)
    generators.  Enumerates the subsets and solves each exactly."""
    if all(Fraction(c) == 0 for c in x):
        return True
    for r in range(1, len(x) + 1):
        for subset in itertools.combinations(generators, r):
            c = _solve_exact(subset, x)
            if c is not None and all(ci >= 0 for ci in c):
                return True
    return False


@functools.lru_cache(maxsize=None)
def _one_ample(effective: tuple, divisor: tuple) -> bool:
    return not cone_contains(effective, [-Fraction(c) for c in divisor])


def check_ag_surface(report: dict, code: int, gram, effective, nef, divisor) -> list[str]:
    """1-ample exactly when -L is outside the effective cone; a witness must
    exist exactly then, be a positive combination of nef generators, and pair
    positively with L."""
    v = report["verdict"]
    one_ample = _one_ample(tuple(map(tuple, effective)), tuple(divisor))
    problems = []
    if v["one_ample"] is not one_ample:
        problems.append(f"one_ample={v['one_ample']}, expected {one_ample}")
    if code != (0 if one_ample else 1):
        problems.append(f"exit code {code}, expected {0 if one_ample else 1}")
    w = v["witness"]
    if (w is not None) is not one_ample:
        problems.append(f"witness {'present' if w else 'absent'} but one_ample={one_ample}")
    if w is not None:
        coeffs = [Fraction(c) for c in w["generator_coefficients"]]
        vector = [sum(c * Fraction(g[i]) for c, g in zip(coeffs, nef)) for i in range(len(divisor))]
        if len(coeffs) != len(nef) or any(c <= 0 for c in coeffs):
            problems.append(f"witness coefficients {w['generator_coefficients']} not all positive")
        if [Fraction(c) for c in w["vector"]] != vector:
            problems.append(f"witness vector {w['vector']} is not the stated nef combination")
        value = pair(gram, divisor, vector)
        if value <= 0 or Fraction(w["pairing"]) != value:
            problems.append(f"witness pairing {w['pairing']}, recomputed {value}")
    return problems


# ------------------------------------------------------------- degeneracy

def check_degeneracy(report: dict, code: int, flagged: int, total: int,
                     fibre_dims: list[int]) -> list[str]:
    v = report["verdict"]
    problems = []
    if code != (0 if flagged == 0 else 1):
        problems.append(f"exit code {code}, expected {0 if flagged == 0 else 1}")
    if v["total_points"] != total:
        problems.append(f"total_points={v['total_points']}, expected {total}")
    if v["flagged_count"] != flagged:
        problems.append(f"flagged_count={v['flagged_count']}, expected {flagged}")
    if v["fibre_dimensions"] != fibre_dims:
        problems.append(f"fibre_dimensions={v['fibre_dimensions']}, expected {fibre_dims}")
    return problems
