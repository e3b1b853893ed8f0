"""Exact cone tests on small surface Picard lattices, decided in integers.

A surface model is a lattice of rank <= 4 with a symmetric intersection
pairing of signature (1, rho-1) and finitely generated nef and effective
cones.  Inputs are exact rationals; each rational vector, and the pairing
matrix, is scaled once by the least common multiple of its denominators, and
every decision is then made on Python integers.  A positive scale changes
none of them: cone membership, the signs of pairings and the signature all
stay the same.

* cone membership by conic Caratheodory: a class lies in cone(G) exactly
  when it is a nonnegative combination of some basis of span(G) drawn from
  G, so each of the at most C(|G|, rank) bases is solved by fraction-free
  Gauss-Jordan elimination (E. H. Bareiss, Math. Comp. 22, 1968) and the
  signs of the solution read off by Cramer's rule (no floating-point LP,
  polynomial for rank <= 4),
* the signature by Descartes' rule on the integer characteristic polynomial
  (Faddeev-LeVerrier, each division by k exact), which counts exactly
  because symmetric matrices have real spectra,
* witness search by maximising the pairing over cone generators (the linear
  functional attains its sign on a generator) and then perturbing the
  maximiser into the cone interior.

Classes, pairings and witnesses stay :class:`fractions.Fraction` values; a
pairing is an integer sum divided once by its scale.

Duality note: a class is recorded cohomologically 1-ample exactly when its
negative is *not* pseudoeffective in the closed-cone sense, so lattice points
on the effective boundary count as not 1-ample; reports carry that semantics
explicitly.

Nothing here runs on a torus grid: :func:`check_analytic_pairing` checks a
declared analytic counterpart (constant matrix classes on the abelian
surface) against the lattice pairing, and ``qposlab ag-surface`` runs its
curvature certificate through :func:`qposlab.positivity.one_positive_pipeline`.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ModelError
from .geometry import ConstantHermitianClass, KahlerClass, intersection_number

__all__ = [
    "SurfaceLattice",
    "DivisorClass",
    "NefWitness",
    "AgSurfaceReport",
    "is_pseudoeffective",
    "is_cohomologically_1ample",
    "positive_pairing_witness",
    "converse_ag_surface",
    "check_analytic_pairing",
    "p1xp1_lattice",
    "hirzebruch_f1_lattice",
    "abelian_diag_lattice",
]


# Exact rationals in text: an optional sign, digits, and optionally '/' and a non-zero denominator, at
# most 100 digits each, so every number a rank-4 lattice query prints stays under Python's 4300-digit limit.
_RATIONAL_TEXT = re.compile(r"[+-]?[0-9]{1,100}(/(?!0+\Z)[0-9]{1,100})?")
_RATIONAL_INT_LIMIT = 10**100  # integers get the same cap
_RATIONAL_RULE = "an integer or 'p/q', at most 100 digits each"


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        if abs(x) >= _RATIONAL_INT_LIMIT:
            raise ModelError(f"cannot read an integer of more than 100 digits as an exact rational: {_RATIONAL_RULE}")
        return Fraction(x)
    if isinstance(x, str):
        if not _RATIONAL_TEXT.fullmatch(x):
            raise ModelError(f"cannot read {x!r} as an exact rational: {_RATIONAL_RULE}")
        return Fraction(x)
    if isinstance(x, float):
        if not x.is_integer():
            raise ModelError(f"float {x} is not an exact integer; pass rationals as 'p/q' strings")
        return Fraction(int(x))
    raise ModelError(f"cannot read {x!r} as an exact rational")


def _frac_vector(v) -> tuple[Fraction, ...]:
    return tuple(_frac(x) for x in v)


def _frac_matrix(m) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(_frac_vector(row) for row in m)


@dataclass(frozen=True)
class DivisorClass:
    """Lattice class in the fixed basis, with exact rational coefficients."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _frac_vector(self.coefficients))

    def __neg__(self):
        return DivisorClass(tuple(-c for c in self.coefficients))

    def __add__(self, other):
        return DivisorClass(tuple(a + b for a, b in zip(self.coefficients, other.coefficients)))

    def scaled(self, t) -> "DivisorClass":
        t = _frac(t)
        return DivisorClass(tuple(t * c for c in self.coefficients))


def _integral(values) -> tuple[list[int], int]:
    """Integers ``scale * values`` and ``scale``, the least common multiple of the denominators."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _times(mat: list[list[int]], vec: list[int]) -> list[int]:
    return [sum(a * b for a, b in zip(row, vec)) for row in mat]


def _dot(a: list[int], b: list[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def _char_poly(m: list[list[int]]) -> list[int]:
    """Characteristic polynomial coefficients [1, c1, ..., c_rho] of an integer
    matrix, by the Faddeev-LeVerrier recursion: every B_k is an integer
    matrix and each division by k is exact."""
    rho = len(m)
    coeffs = [1]
    b = [[int(i == j) for j in range(rho)] for i in range(rho)]
    for k in range(1, rho + 1):
        mb = [[sum(m[i][l] * b[l][j] for l in range(rho)) for j in range(rho)] for i in range(rho)]
        ck = -sum(mb[i][i] for i in range(rho)) // k
        coeffs.append(ck)
        b = [[mb[i][j] + (ck if i == j else 0) for j in range(rho)] for i in range(rho)]
    return coeffs


def _real_root_signs(coeffs: list[int]) -> tuple[int, int, int]:
    """(positive, negative, zero) root counts of a real-rooted polynomial.

    Descartes' rule is exact (with multiplicity) when all roots are real,
    which holds for characteristic polynomials of symmetric matrices.
    """
    zero = 0
    trimmed = list(coeffs)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
        zero += 1
    signs = [c for c in trimmed if c != 0]
    pos = sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))
    alt = [c if i % 2 == 0 else -c for i, c in enumerate(trimmed)]
    signs_neg = [c for c in alt if c != 0]
    neg = sum(1 for a, b in zip(signs_neg, signs_neg[1:]) if (a > 0) != (b > 0))
    return pos, neg, zero


@dataclass(frozen=True)
class SurfaceLattice:
    """Rank <= 4 lattice with pairing Q and declared nef/effective generators."""

    rank: int
    pairing: tuple[tuple[Fraction, ...], ...]
    nef_generators: tuple[DivisorClass, ...]
    effective_generators: tuple[DivisorClass, ...]
    name: str = "surface"
    # ``_gram_scale * pairing`` in integers, with ``_gram_scale`` > 0 the common denominator
    _gram: list[list[int]] = field(init=False, repr=False, compare=False)
    _gram_scale: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.rank <= 4:
            raise ModelError(f"lattice rank must be 1..4, got {self.rank}")
        q = _frac_matrix(self.pairing)
        if len(q) != self.rank or any(len(r) != self.rank for r in q):
            raise ModelError("pairing matrix does not match the declared rank")
        for i in range(self.rank):
            for j in range(self.rank):
                if q[i][j] != q[j][i]:
                    raise ModelError("pairing matrix must be symmetric")
        object.__setattr__(self, "pairing", q)
        flat, scale = _integral([v for row in q for v in row])
        gram = [flat[i : i + self.rank] for i in range(0, len(flat), self.rank)]
        object.__setattr__(self, "_gram", gram)
        object.__setattr__(self, "_gram_scale", scale)
        nef = tuple(g if isinstance(g, DivisorClass) else DivisorClass(g) for g in self.nef_generators)
        eff = tuple(g if isinstance(g, DivisorClass) else DivisorClass(g) for g in self.effective_generators)
        if not nef or not eff:
            raise ModelError("both cone generator lists must be non-empty")
        for g in nef + eff:
            if len(g.coefficients) != self.rank:
                raise ModelError("cone generator length does not match the rank")
        object.__setattr__(self, "nef_generators", nef)
        object.__setattr__(self, "effective_generators", eff)
        pos, negn, zero = _real_root_signs(_char_poly(gram))
        if (pos, negn, zero) != (1, self.rank - 1, 0):
            raise ModelError(
                f"pairing signature is ({pos},{negn},{zero}), model requires (1,{self.rank - 1},0)"
            )
        q_eff = [_times(gram, _integral(h.coefficients)[0]) for h in eff]
        for g in nef:
            g_int = _integral(g.coefficients)[0]
            for h, qh in zip(eff, q_eff):
                if _dot(g_int, qh) < 0:
                    raise ModelError(
                        f"nef generator {g.coefficients} pairs negatively with effective generator {h.coefficients}"
                    )

    def pair(self, a: DivisorClass, b: DivisorClass) -> Fraction:
        x, x_scale = _integral(a.coefficients)
        y, y_scale = _integral(b.coefficients)
        return Fraction(_dot(x, _times(self._gram, y)), x_scale * y_scale * self._gram_scale)


def _bareiss(rows: list[list[int]]) -> list[int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of integer ``rows`` in
    place; return the pivot columns.

    The pivot in each column is the first non-zero entry at or below the next
    pivot row.  Every other row becomes ``(p * row - row[col] * pivot_row) /
    prev``, with p the new pivot and prev the last one; each division is exact,
    as every entry is then a minor of the input.  At the end each pivot row
    holds the last pivot d on its own pivot column and zero on the others, so
    it is d times the row of the reduced row-echelon form.
    """
    pivots: list[int] = []
    prev = 1
    for col in range(len(rows[0])):
        r = len(pivots)
        pick = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        top = rows[r]
        p = top[col]
        for i, row in enumerate(rows):
            if i != r:
                f = row[col]
                rows[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        prev = p
        pivots.append(col)
    return pivots


def _cone_contains(generators: tuple[DivisorClass, ...], point: DivisorClass) -> bool:
    """Exact feasibility of point = sum c_i g_i with c_i >= 0 (conic Caratheodory).

    A member of the cone is a nonnegative combination of linearly independent
    generators, and those extend to a basis of span(G) drawn from G, so it
    suffices to solve point = B c on each such basis B and check the signs.
    A basis that cannot express the point shows it lies outside span(G).
    Each vector is scaled to integers first, which moves no decision.
    """
    x = _integral(point.coefficients)[0]
    if not any(x):
        return True
    gens = [_integral(g.coefficients)[0] for g in generators]
    rank = len(_bareiss([list(g) for g in gens]))
    for basis in itertools.combinations(gens, rank):
        # augmented system [B | x], one row per coordinate
        rows = [[g[i] for g in basis] + [x[i]] for i in range(len(x))]
        pivots = _bareiss(rows)
        if pivots[:rank] != list(range(rank)):
            continue  # dependent subset, not a basis
        if len(pivots) > rank:
            return False
        # Cramer: c_i = rows[i][rank] / d, with d the last pivot
        d = rows[rank - 1][rank - 1]
        if all(rows[i][rank] * d >= 0 for i in range(rank)):
            return True
    return False


def is_pseudoeffective(divisor: DivisorClass, lattice: SurfaceLattice) -> bool:
    """Membership of the closed effective cone (exact)."""
    if len(divisor.coefficients) != lattice.rank:
        raise ModelError("divisor length does not match the lattice rank")
    return _cone_contains(lattice.effective_generators, divisor)


def is_cohomologically_1ample(divisor: DivisorClass, lattice: SurfaceLattice) -> bool:
    """Duality criterion: 1-ample exactly when ``-divisor`` is not pseudoeffective."""
    return not is_pseudoeffective(-divisor, lattice)


@dataclass(frozen=True)
class NefWitness:
    """Interior nef class with positive pairing against the queried class."""

    vector: DivisorClass
    generator_coefficients: tuple[Fraction, ...]
    pairing: Fraction


def positive_pairing_witness(divisor: DivisorClass, lattice: SurfaceLattice) -> NefWitness | None:
    """Interior nef witness H with Q(L, H) > 0, or None when none exists.

    The pairing is linear, so its maximum over the nef cone is attained on a
    generator; a positive maximiser is perturbed into the interior by adding
    the sum of all generators (every coefficient >= 1 by construction).
    """
    if len(divisor.coefficients) != lattice.rank:
        raise ModelError("divisor length does not match the lattice rank")
    # One common scale for every generator keeps the pairings' order and ratios.
    flat, scale = _integral([c for g in lattice.nef_generators for c in g.coefficients])
    gens = [flat[i : i + lattice.rank] for i in range(0, len(flat), lattice.rank)]
    q_divisor = _times(lattice._gram, _integral(divisor.coefficients)[0])
    pairings = [_dot(q_divisor, g) for g in gens]
    best = max(range(len(pairings)), key=pairings.__getitem__)
    if pairings[best] <= 0:
        return None
    t = max(Fraction(1), 1 - Fraction(sum(pairings), pairings[best]))
    coeffs = [Fraction(1)] * len(pairings)
    coeffs[best] += t
    # sum of every generator plus t times the best one
    best_gen = lattice.nef_generators[best].coefficients
    vec = DivisorClass(tuple(Fraction(sum(col), scale) + t * c for col, c in zip(zip(*gens), best_gen)))
    pairing = lattice.pair(divisor, vec)
    if pairing <= 0:
        raise ModelError("witness construction failed to realise a positive pairing; model corrupt")
    return NefWitness(vector=vec, generator_coefficients=tuple(coeffs), pairing=pairing)


@dataclass(frozen=True)
class AgSurfaceReport:
    one_ample: bool
    witness: NefWitness | None
    cone_semantics: str
    lattice_name: str
    divisor: DivisorClass
    notes: tuple[str, ...] = field(default_factory=tuple)


def converse_ag_surface(divisor: DivisorClass, lattice: SurfaceLattice) -> AgSurfaceReport:
    """Surface converse on the lattice: decide 1-ampleness through the cone
    duality and record the positive nef pairing witness, if any."""
    one_ample = is_cohomologically_1ample(divisor, lattice)
    witness = positive_pairing_witness(divisor, lattice)
    if one_ample and witness is None:
        raise ModelError(
            "duality defect: -L outside the effective cone but no positive nef pairing; "
            "the declared cones are not mutually dual"
        )
    notes = []
    if not one_ample and witness is not None:
        notes.append(
            "witness exists but -L is pseudoeffective: declared cones are not mutually dual"
        )
    return AgSurfaceReport(
        one_ample=one_ample,
        witness=witness,
        cone_semantics="closed-cone boundary counts as pseudoeffective (hence not 1-ample)",
        lattice_name=lattice.name,
        divisor=divisor,
        notes=tuple(notes),
    )


def check_analytic_pairing(
    divisor: DivisorClass,
    lattice: SurfaceLattice,
    omega_class: DivisorClass,
    line_class: ConstantHermitianClass,
    kahler: KahlerClass,
) -> None:
    """Check a declared analytic counterpart ``line_class`` of ``divisor`` on an abelian surface.

    ``omega_class`` is the lattice class of ``kahler``.  The Gram matrix of the
    lattice pairing on ``divisor`` and ``omega_class`` must equal that of the
    intersection numbers of ``line_class`` and ``kahler``: Q(L, L), Q(L, omega)
    and Q(omega, omega), each within 1e-9 relative.  A mismatch raises
    :class:`ModelError`.
    """
    if len(omega_class.coefficients) != lattice.rank:
        raise ModelError(
            f"omega_class must hold one entry per lattice basis class ({lattice.rank}), "
            f"got {len(omega_class.coefficients)}"
        )
    entries = (
        ("L, L", divisor, divisor, line_class, line_class),
        ("L, omega", divisor, omega_class, line_class, kahler),
        ("omega, omega", omega_class, omega_class, kahler, kahler),
    )
    for name, a, b, ma, mb in entries:
        lattice_pairing = lattice.pair(a, b)
        matrix_pairing = intersection_number([ma.matrix, mb.matrix])
        if abs(float(lattice_pairing) - matrix_pairing) > 1e-9 * max(1.0, abs(matrix_pairing)):
            raise ModelError(
                f"analytic model inconsistent with the lattice: Q({name}) = {lattice_pairing} "
                f"but the matrix intersection number is {matrix_pairing}"
            )


def p1xp1_lattice() -> SurfaceLattice:
    """Rank-2 quadric lattice: basis of the two rulings, Q = [[0,1],[1,0]]."""
    e1 = DivisorClass((1, 0))
    e2 = DivisorClass((0, 1))
    return SurfaceLattice(
        rank=2,
        pairing=((0, 1), (1, 0)),
        nef_generators=(e1, e2),
        effective_generators=(e1, e2),
        name="p1xp1",
    )


def hirzebruch_f1_lattice() -> SurfaceLattice:
    """Rank-2 Hirzebruch F_1 lattice: basis (fiber f, -1-section s)."""
    f = DivisorClass((1, 0))
    s = DivisorClass((0, 1))
    return SurfaceLattice(
        rank=2,
        pairing=((0, 1), (1, -1)),
        nef_generators=(f, f + s),
        effective_generators=(f, s),
        name="hirzebruch_f1",
    )


def abelian_diag_lattice() -> SurfaceLattice:
    """Diagonal constant classes diag(a, b) on the square abelian surface.

    Basis diag(1,0), diag(0,1); the pairing is the torus intersection number,
    Q = [[0,4],[4,0]].  Nef and effective both reduce to the PSD quadrant.
    """
    e1 = DivisorClass((1, 0))
    e2 = DivisorClass((0, 1))
    return SurfaceLattice(
        rank=2,
        pairing=((0, 4), (4, 0)),
        nef_generators=(e1, e2),
        effective_generators=(e1, e2),
        name="abelian_diag",
    )
