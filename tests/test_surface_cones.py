"""Exact rational cone tests: pseudoeffectivity, 1-ampleness, nef witnesses."""

import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qposlab import (
    ConstantHermitianClass,
    DivisorClass,
    KahlerClass,
    ModelError,
    SurfaceLattice,
    TorusModel,
    abelian_diag_lattice,
    converse_ag_surface,
    hirzebruch_f1_lattice,
    is_cohomologically_1ample,
    is_pseudoeffective,
    one_positive_pipeline,
    p1xp1_lattice,
    positive_pairing_witness,
)
from qposlab.surface_cones import _cone_contains, check_analytic_pairing

rational = st.fractions(
    min_value=Fraction(-12), max_value=Fraction(12), max_denominator=8
)


def rank3_lattice():
    # hyperbolic plane plus one (-1)-vector; signature (1, 2, 0)
    e1 = DivisorClass((1, 0, 0))
    e2 = DivisorClass((0, 1, 0))
    g = DivisorClass((1, 1, -1))
    return SurfaceLattice(
        rank=3,
        pairing=((0, 1, 0), (1, 0, 0), (0, 0, -1)),
        nef_generators=(e1, e2, g),
        effective_generators=(e1, e2, g),
        name="hyperbolic-plus-minus-one",
    )


def fraction_signature(q) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a rational symmetric
    matrix: Faddeev-LeVerrier over the rationals, then Descartes' rule of signs,
    which counts exactly because the characteristic polynomial is real-rooted."""
    rank = len(q)
    coeffs, b = [Fraction(1)], [[Fraction(int(i == j)) for j in range(rank)] for i in range(rank)]
    for k in range(1, rank + 1):
        qb = [[sum(q[i][m] * b[m][j] for m in range(rank)) for j in range(rank)] for i in range(rank)]
        c = -sum(qb[i][i] for i in range(rank)) / k
        coeffs.append(c)
        b = [[qb[i][j] + (c if i == j else 0) for j in range(rank)] for i in range(rank)]
    zero = 0
    while coeffs[-1] == 0:
        coeffs.pop()
        zero += 1

    def changes(cs):
        signs = [c > 0 for c in cs if c != 0]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    return changes(coeffs), changes([c if k % 2 == 0 else -c for k, c in enumerate(coeffs)]), zero


@st.composite
def hyperbolic_pairings(draw):
    """Q = A^T diag(1, -1, ..., -1) A with A upper triangular, rational, with
    A[0][0] = 1 and a non-zero diagonal: signature (1, rank - 1) by Sylvester's
    law of inertia, and Q(e1, e1) = 1."""
    rank = draw(st.integers(min_value=1, max_value=4))
    nonzero = rational.filter(lambda x: x != 0)
    a = [[Fraction(0)] * rank for _ in range(rank)]
    a[0][0] = Fraction(1)
    for i in range(rank):
        if i:
            a[i][i] = draw(nonzero)
        for j in range(i + 1, rank):
            a[i][j] = draw(rational)
    sign = [1] + [-1] * (rank - 1)
    return [[sum(a[k][i] * sign[k] * a[k][j] for k in range(rank)) for j in range(rank)] for i in range(rank)]


class TestDivisorClass:
    def test_rational_coercion(self):
        d = DivisorClass(("1/2", 2, 3.0))
        assert d.coefficients == (Fraction(1, 2), Fraction(2), Fraction(3))

    def test_non_integer_float_rejected(self):
        with pytest.raises(ModelError):
            DivisorClass((0.5, 1))

    @pytest.mark.parametrize(
        "text", ["1e5000", "0.5", "1/0", "1/00", "", "+", "1/-2", " 1", "1" * 101, "1/" + "1" * 101, "1" * 101 + "/3"]
    )
    def test_rational_text_outside_the_rule_rejected(self, text):
        with pytest.raises(ModelError, match="exact rational"):
            DivisorClass((text, 1))

    @pytest.mark.parametrize("value", [10**100, -(10**100), 10**2199])
    def test_integers_beyond_the_digit_cap_rejected(self, value):
        with pytest.raises(ModelError, match="at most 100 digits each"):
            DivisorClass((value, 1))

    def test_integers_at_the_digit_cap(self):
        big = 10**100 - 1
        assert DivisorClass((big, -big)).coefficients == (Fraction(big), Fraction(-big))

    def test_rational_text_at_the_digit_cap(self):
        big = "9" * 100
        d = DivisorClass((big, f"-{big}/{big[:-1]}7", "+0/" + big))
        assert d.coefficients == (Fraction(int(big)), Fraction(-int(big), int(big[:-1] + "7")), Fraction(0))

    def test_algebra(self):
        d = DivisorClass((1, -2))
        assert (-d).coefficients == (Fraction(-1), Fraction(2))
        assert (d + d).coefficients == (Fraction(2), Fraction(-4))
        assert d.scaled("3/2").coefficients == (Fraction(3, 2), Fraction(-3))


class TestSurfaceLattice:
    def test_model_lattices_valid(self):
        for lat in (p1xp1_lattice(), hirzebruch_f1_lattice(), abelian_diag_lattice(), rank3_lattice()):
            assert lat.rank in (2, 3)

    def test_signature_must_be_hyperbolic(self):
        e1, e2 = DivisorClass((1, 0)), DivisorClass((0, 1))
        with pytest.raises(ModelError):
            SurfaceLattice(2, ((1, 0), (0, 1)), (e1, e2), (e1, e2), name="definite")

    def test_degenerate_pairing_rejected(self):
        e1, e2 = DivisorClass((1, 0)), DivisorClass((0, 1))
        with pytest.raises(ModelError):
            SurfaceLattice(2, ((1, 1), (1, 1)), (e1, e2), (e1, e2), name="degenerate")

    def test_asymmetric_pairing_rejected(self):
        e1, e2 = DivisorClass((1, 0)), DivisorClass((0, 1))
        with pytest.raises(ModelError):
            SurfaceLattice(2, ((0, 1), (2, 0)), (e1, e2), (e1, e2), name="askew")

    def test_negative_nef_effective_pairing_rejected(self):
        f, s = DivisorClass((1, 0)), DivisorClass((0, 1))
        with pytest.raises(ModelError):
            SurfaceLattice(2, ((0, 1), (1, -1)), (f, s), (f, s), name="bad-nef")

    def test_generator_length_must_match_rank(self):
        e1 = DivisorClass((1, 0))
        bad = DivisorClass((1, 0, 0))
        with pytest.raises(ModelError):
            SurfaceLattice(2, ((0, 1), (1, 0)), (e1, bad), (e1,), name="mismatch")

    @pytest.mark.parametrize(
        "pairing, message",
        [
            (((0, "1/2"), ("1/3", 0)), "pairing matrix must be symmetric"),
            ((("1/2", 0), (0, "1/3")), r"pairing signature is \(2,0,0\), model requires \(1,1,0\)"),
            ((("1/2", "1/2"), ("1/2", "1/2")), r"pairing signature is \(1,0,1\), model requires \(1,1,0\)"),
            (
                ((0, "1/2"), ("1/2", "-1/2")),
                r"nef generator \(Fraction\(0, 1\), Fraction\(1, 1\)\) pairs negatively with "
                r"effective generator \(Fraction\(0, 1\), Fraction\(1, 1\)\)",
            ),
        ],
    )
    def test_rational_pairing_refusals_keep_their_messages(self, pairing, message):
        f, s = DivisorClass((1, 0)), DivisorClass((0, 1))
        with pytest.raises(ModelError, match=f"^{message}$"):
            SurfaceLattice(2, pairing, (f, s), (f, s), name="refused")

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_signature_matches_fraction_faddeev_leverrier(self, data):
        rank = data.draw(st.integers(min_value=1, max_value=4))
        q = [[Fraction(0)] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                q[i][j] = q[j][i] = data.draw(st.one_of(st.just(Fraction(0)), rational))
        expected = fraction_signature(q)
        zero = DivisorClass((0,) * rank)  # pairs with everything to 0, so only the signature can refuse
        if expected == (1, rank - 1, 0):
            SurfaceLattice(rank, q, (zero,), (zero,))
        else:
            pos, neg, null = expected
            with pytest.raises(ModelError, match=rf"^pairing signature is \({pos},{neg},{null}\),"):
                SurfaceLattice(rank, q, (zero,), (zero,))

    @settings(max_examples=100, deadline=None)
    @given(hyperbolic_pairings(), st.data())
    def test_pair_matches_the_fraction_double_sum(self, q, data):
        rank = len(q)
        e1 = DivisorClass((1,) + (0,) * (rank - 1))  # Q(e1, e1) = 1
        lat = SurfaceLattice(rank, q, (e1,), (e1,))
        vector = st.lists(rational, min_size=rank, max_size=rank)
        a, b = DivisorClass(data.draw(vector)), DivisorClass(data.draw(vector))
        value = lat.pair(a, b)
        assert isinstance(value, Fraction)
        assert value == sum(a.coefficients[i] * q[i][j] * b.coefficients[j] for i in range(rank) for j in range(rank))

    def test_pair_is_exact_fraction(self):
        lat = abelian_diag_lattice()
        val = lat.pair(DivisorClass(("1/3", "-1/7")), DivisorClass((2, 5)))
        assert val == Fraction(1, 3) * 4 * 5 + Fraction(-1, 7) * 4 * 2
        assert isinstance(val, Fraction)


class TestPseudoeffective:
    def test_quadrant_membership_on_quadric(self):
        lat = p1xp1_lattice()
        assert is_pseudoeffective(DivisorClass((3, 5)), lat)
        assert is_pseudoeffective(DivisorClass((1, 0)), lat)  # boundary counts
        assert is_pseudoeffective(DivisorClass((0, 0)), lat)
        assert not is_pseudoeffective(DivisorClass((-1, 5)), lat)
        assert not is_pseudoeffective(DivisorClass(("1/2", "-1/1000")), lat)

    def test_f1_membership_is_basis_coefficients(self):
        lat = hirzebruch_f1_lattice()
        assert is_pseudoeffective(DivisorClass((2, 1)), lat)  # 2f + s
        assert not is_pseudoeffective(DivisorClass((2, -1)), lat)
        assert not is_pseudoeffective(DivisorClass((-1, 2)), lat)

    def test_rank3_membership(self):
        lat = rank3_lattice()
        assert is_pseudoeffective(DivisorClass((2, 1, -1)), lat)  # e1 + (1,1,-1)
        assert not is_pseudoeffective(DivisorClass((0, 0, -1)), lat)

    @settings(max_examples=25, deadline=None)
    @given(rational, rational, rational)
    def test_nonnegative_combinations_are_members(self, a, b, c):
        lat = rank3_lattice()
        coeffs = (abs(a), abs(b), abs(c))
        point = DivisorClass((0, 0, 0))
        for w, g in zip(coeffs, lat.effective_generators):
            point = point + g.scaled(w)
        assert is_pseudoeffective(point, lat)


def fourier_motzkin_contains(generators, point) -> bool:
    """Reference cone test: Fourier-Motzkin elimination on the system
    ``point = sum c_i g_i, c_i >= 0`` (doubly exponential in the worst case).

    Constraints are kept as (coeff-vector over the c_i, bound) rows meaning
    ``a . c <= b``; eliminating every variable leaves constant rows whose
    consistency decides feasibility.
    """
    m = len(generators)
    dim = len(point.coefficients)
    rows = []
    for i in range(m):  # c_i >= 0
        a = [Fraction(0)] * m
        a[i] = Fraction(-1)
        rows.append((a, Fraction(0)))
    for r in range(dim):  # equality as two inequalities
        a = [generators[i].coefficients[r] for i in range(m)]
        rows.append((list(a), point.coefficients[r]))
        rows.append(([-x for x in a], -point.coefficients[r]))
    for var in range(m):
        pos = [(a, b) for a, b in rows if a[var] > 0]
        neg = [(a, b) for a, b in rows if a[var] < 0]
        new_rows = [(a, b) for a, b in rows if a[var] == 0]
        for ap, bp in pos:
            for an, bn in neg:
                sp, sn = ap[var], -an[var]
                new_rows.append(([x / sp + y / sn for x, y in zip(ap, an)], bp / sp + bn / sn))
        rows = list({(tuple(a), b): None for a, b in new_rows})
    return all(b >= 0 for _, b in rows)


small_int = st.integers(min_value=-3, max_value=3)
small_rational = st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=5)


@st.composite
def cone_queries(draw, entry=small_int):
    """Up to four generators in rank 1..4, with zero, repeated and dependent
    generators, and a point that is often a signed combination of them;
    entries and weights are drawn from ``entry``."""
    rank = draw(st.integers(min_value=1, max_value=4))
    vector = st.lists(entry, min_size=rank, max_size=rank)
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(["free", "zero", "repeat", "combination"]))
        if kind == "zero" or (kind != "free" and not gens):
            gens.append([0] * rank if kind == "zero" else draw(vector))
        elif kind == "repeat":
            gens.append(list(draw(st.sampled_from(gens))))
        elif kind == "combination":
            a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
            s, t = draw(entry), draw(entry)
            gens.append([s * x + t * y for x, y in zip(a, b)])
        else:
            gens.append(draw(vector))
    if draw(st.booleans()):
        weights = draw(st.lists(entry, min_size=len(gens), max_size=len(gens)))
        point = [sum(w * g[i] for w, g in zip(weights, gens)) for i in range(rank)]
    else:
        point = draw(vector)
    return tuple(DivisorClass(g) for g in gens), DivisorClass(point)


class TestConeMembership:
    @settings(max_examples=300, deadline=None)
    @given(cone_queries())
    def test_caratheodory_matches_fourier_motzkin(self, query):
        gens, point = query
        assert _cone_contains(gens, point) is fourier_motzkin_contains(gens, point)

    @settings(max_examples=300, deadline=None)
    @given(cone_queries(small_rational))
    def test_rational_generators_match_fourier_motzkin(self, query):
        # p/q entries: each vector is scaled to integers before the elimination
        gens, point = query
        assert _cone_contains(gens, point) is fourier_motzkin_contains(gens, point)

    def test_zero_point_and_zero_generators(self):
        zero = DivisorClass((0, 0, 0))
        e1 = DivisorClass((1, 0, 0))
        assert _cone_contains((zero,), zero)
        assert not _cone_contains((zero, zero), e1)
        assert _cone_contains((zero, e1, e1 + e1), e1.scaled(3))
        assert not _cone_contains((zero, e1), -e1)

    def test_rank4_lattice_decided_quickly(self):
        # Fourier-Motzkin took 187 s and 1.9 GB on this single query
        lat = SurfaceLattice(
            rank=4,
            pairing=((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)),
            nef_generators=(DivisorClass((1, 0, 0, 0)),),
            effective_generators=tuple(
                DivisorClass(g)
                for g in ((2, 3, -2, -2), (3, 1, 1, 3), (1, 1, -1, 0), (1, -2, -1, 0), (4, -3, -3, -3))
            ),
            name="found",
        )
        d = DivisorClass((2, 1, 4, 3))
        start = time.perf_counter()
        assert not is_pseudoeffective(d, lat)
        assert not is_pseudoeffective(-d, lat)
        assert time.perf_counter() - start < 2.0

    def test_rank4_hundred_digit_rationals_decided_quickly(self):
        # The rank-4 lattice above with each generator, the divisor and the
        # pairing scaled by its own positive p/q of 99 digits each: every
        # decision is the small lattice's, and finishes in bounded time.
        rng = np.random.default_rng(4)

        def big():
            return Fraction(*(int("".join(map(str, rng.integers(1, 10, 99)))) for _ in range(2)))

        def scaled(vector):
            t = big()
            return DivisorClass(tuple(str(t * c) for c in vector))

        def lattice(pairing_scale, vector):
            return SurfaceLattice(
                rank=4,
                pairing=[[str(pairing_scale * (i == j) * (1 if i == 0 else -1)) for j in range(4)] for i in range(4)],
                nef_generators=(vector((1, 0, 0, 0)), vector((3, 1, 1, 1))),
                effective_generators=tuple(
                    vector(g) for g in ((2, 3, -2, -2), (3, 1, 1, 3), (1, 1, -1, 0), (1, -2, -1, 0), (4, -3, -3, -3))
                ),
            )

        small, lat = lattice(1, DivisorClass), lattice(big(), scaled)
        entries = [x for g in lat.effective_generators for x in g.coefficients]
        assert all(len(t) <= 100 for x in entries for t in str(abs(x)).split("/"))
        start = time.perf_counter()
        for d in ((2, 1, 4, 3), (1, 0, 0, 0), (9, 1, 1, 3), (-3, -1, -1, -1), (0, 0, 0, -1), (-1, 1, 1, 1)):
            divisor = scaled(d)
            for sign in (1, -1):
                assert is_pseudoeffective(divisor.scaled(sign), lat) is is_pseudoeffective(
                    DivisorClass(d).scaled(sign), small
                ), (d, sign)
            witness = positive_pairing_witness(divisor, lat)
            assert (witness is None) is (positive_pairing_witness(DivisorClass(d), small) is None), d
            if witness is not None:
                assert witness.pairing == lat.pair(divisor, witness.vector) > 0
        assert time.perf_counter() - start < 2.0


class TestOneAmple:
    def test_quadric_frozen_table(self):
        lat = p1xp1_lattice()
        expect = {
            (1, 1): True,
            (1, 0): True,
            (1, -1): True,
            (0, -1): False,
            (-1, -1): False,
            (0, 0): False,  # the zero class is never 1-ample
        }
        for coeffs, val in expect.items():
            assert is_cohomologically_1ample(DivisorClass(coeffs), lat) is val, coeffs

    def test_f1_frozen_table(self):
        lat = hirzebruch_f1_lattice()
        expect = {
            (1, 1): True,
            (-2, 1): True,
            (1, -2): True,
            (-1, 0): False,
            (0, -1): False,
            (-3, -2): False,
        }
        for coeffs, val in expect.items():
            assert is_cohomologically_1ample(DivisorClass(coeffs), lat) is val, coeffs


class TestWitness:
    def test_quadric_frozen_witness(self):
        w = positive_pairing_witness(DivisorClass((1, -1)), p1xp1_lattice())
        assert w is not None
        assert w.vector.coefficients == (Fraction(1), Fraction(2))
        assert w.generator_coefficients == (Fraction(1), Fraction(2))
        assert w.pairing == Fraction(1)

    def test_abelian_frozen_witness(self):
        w = positive_pairing_witness(DivisorClass((2, -1)), abelian_diag_lattice())
        assert w is not None
        assert w.vector.coefficients == (Fraction(1), Fraction(2))
        assert w.pairing == Fraction(12)

    def test_no_witness_for_antieffective(self):
        assert positive_pairing_witness(DivisorClass((0, -1)), p1xp1_lattice()) is None
        assert positive_pairing_witness(DivisorClass((0, 0)), p1xp1_lattice()) is None

    def test_witness_coefficients_interior(self):
        w = positive_pairing_witness(DivisorClass((5, "1/3")), abelian_diag_lattice())
        assert w is not None
        assert all(c >= 1 for c in w.generator_coefficients)

    @settings(max_examples=50, deadline=None)
    @given(rational, rational, st.sampled_from(["p1xp1", "f1", "abelian"]))
    def test_witness_exists_iff_one_ample(self, a, b, which):
        lat = {"p1xp1": p1xp1_lattice(), "f1": hirzebruch_f1_lattice(), "abelian": abelian_diag_lattice()}[which]
        d = DivisorClass((a, b))
        ample = is_cohomologically_1ample(d, lat)
        w = positive_pairing_witness(d, lat)
        assert ample is (w is not None)
        if w is not None:
            assert w.pairing == lat.pair(d, w.vector)
            assert w.pairing > 0


class TestConverseReport:
    def test_plain_lattice_report(self):
        rep = converse_ag_surface(DivisorClass((1, -1)), p1xp1_lattice())
        assert rep.one_ample
        assert rep.witness is not None and rep.witness.pairing == 1
        assert rep.lattice_name == "p1xp1"

    def test_not_ample_report(self):
        rep = converse_ag_surface(DivisorClass((-1, 0)), hirzebruch_f1_lattice())
        assert not rep.one_ample
        assert rep.witness is None

    def test_duality_defect_raises(self):
        # effective cone strictly smaller than the dual of the nef cone
        e1, e2 = DivisorClass((1, 0)), DivisorClass((0, 1))
        lat = SurfaceLattice(2, ((0, 1), (1, 0)), (e2,), (e1,), name="lopsided")
        with pytest.raises(ModelError):
            converse_ag_surface(e2, lat)

    def test_analytic_model_attached_run(self):
        # What ``qposlab ag-surface`` runs for a 1-ample divisor with a declared analytic model.
        divisor, lattice = DivisorClass((2, -1)), abelian_diag_lattice()
        line, kahler = ConstantHermitianClass(np.diag([2.0, -1.0])), KahlerClass(np.eye(2))
        rep = converse_ag_surface(divisor, lattice)
        assert rep.one_ample
        assert rep.witness.pairing == Fraction(12)
        check_analytic_pairing(divisor, lattice, DivisorClass((1, 1)), line, kahler)
        run = one_positive_pipeline(line, kahler, torus=TorusModel(2, 64), k_max=64)
        assert run.certificate.passed
        assert run.certificate.min_margin == pytest.approx(2.0 / 3.0, abs=1e-9)
