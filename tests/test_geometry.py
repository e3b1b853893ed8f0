"""Torus models, constant classes, and exact intersection pairings."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qposlab import (
    ConstantHermitianClass,
    HypothesisViolation,
    KahlerClass,
    ModelError,
    SearchExhausted,
    TorusModel,
    choose_k,
    dk_constant,
    dk_expansion,
    intersection_number,
)

H_EXAMPLE = np.diag([2.0, -1.0])
G_EXAMPLE = np.eye(2)


def rational_hermitian(rng, n, denom=4):
    num = rng.integers(-4, 5, (n, n)) + 1j * rng.integers(-4, 5, (n, n))
    m = (num + num.conj().T) / denom
    return m


def rational_kahler(rng, n, denom=4):
    # diagonally dominant -> positive definite, entries remain rational
    m = rational_hermitian(rng, n, denom)
    return m + np.eye(n) * (float(np.sum(np.abs(m))) + 1.0)


class TestTorusModel:
    def test_shape_and_axes(self):
        t = TorusModel(2, 16)
        assert t.shape == (16, 16, 16, 16)
        assert t.ndim_real == 4

    @pytest.mark.parametrize("n", [0, 4, 2.0])
    def test_bad_dimension(self, n):
        with pytest.raises(ModelError):
            TorusModel(n, 16)

    @pytest.mark.parametrize("grid", [4, 12, 17, -8])
    def test_bad_grid(self, grid):
        with pytest.raises(ModelError):
            TorusModel(1, grid)

    def test_real_coordinates_open_grid(self):
        t = TorusModel(1, 8)
        x, y = t.real_coordinates()
        assert x.shape == (8, 1) and y.shape == (1, 8)
        assert x.min() == 0.0 and x.max() == 7.0 / 8.0  # right endpoint open

    def test_wavenumbers_nyquist_zeroed(self):
        t = TorusModel(1, 16)
        kx, ky = t.wavenumbers()
        assert np.max(np.abs(kx)) == 7.0
        assert kx.shape == (16, 1)


class TestConstantClasses:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ModelError):
            ConstantHermitianClass(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ModelError):
            ConstantHermitianClass(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
    @pytest.mark.parametrize("cls", [ConstantHermitianClass, KahlerClass])
    def test_rejects_non_finite_entries(self, cls, bad):
        # nan slips past the Hermitian test, since nan > tol is false
        m = np.eye(2, dtype=complex)
        m[1, 1] = bad
        with pytest.raises(ModelError, match="finite"):
            cls(m)

    def test_kahler_rejects_indefinite(self):
        with pytest.raises(ModelError):
            KahlerClass(H_EXAMPLE)

    def test_kahler_rejects_semidefinite(self):
        with pytest.raises(ModelError):
            KahlerClass(np.diag([1.0, 0.0]))

    def test_matrix_frozen(self):
        c = ConstantHermitianClass(G_EXAMPLE)
        with pytest.raises(ValueError):
            c.matrix[0, 0] = 5.0

    def test_algebra(self):
        c = ConstantHermitianClass(H_EXAMPLE) + G_EXAMPLE
        assert np.array_equal(c.matrix, np.diag([3.0, 0.0]))
        assert np.array_equal((c + ConstantHermitianClass(G_EXAMPLE)).matrix, np.diag([4.0, 1.0]))


class TestIntersectionNumber:
    def test_frozen_values(self):
        assert intersection_number([H_EXAMPLE, G_EXAMPLE]) == 4.0
        assert intersection_number([G_EXAMPLE, G_EXAMPLE]) == 8.0
        assert intersection_number([H_EXAMPLE, H_EXAMPLE]) == -16.0
        assert intersection_number([np.array([[3.0]])]) == 6.0

    def test_repeated_class_is_factorial_determinant(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3):
            a = rational_hermitian(rng, n)
            expect = math.factorial(n) * 2.0**n * np.linalg.det(a).real
            got = intersection_number([a] * n)
            assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_accepts_class_objects(self):
        assert intersection_number([ConstantHermitianClass(H_EXAMPLE), G_EXAMPLE]) == 4.0

    def test_arity_errors(self):
        with pytest.raises(ModelError):
            intersection_number([])
        with pytest.raises(ModelError):
            intersection_number([G_EXAMPLE])
        with pytest.raises(ModelError):
            intersection_number([G_EXAMPLE, np.eye(3)])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        mats = [rational_hermitian(rng, 3) for _ in range(3)]
        base = intersection_number(mats)
        for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
            assert intersection_number([mats[i] for i in perm]) == pytest.approx(base, rel=1e-12)

    def test_multilinearity(self):
        rng = np.random.default_rng(13)
        a, b, c = (rational_hermitian(rng, 2) for _ in range(3))
        lhs = intersection_number([a + b, c])
        rhs = intersection_number([a, c]) + intersection_number([b, c])
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4))
    def test_scaling_in_first_slot(self, a, b, c, s):
        m = np.array([[a, b], [b, c]], dtype=float)
        assert intersection_number([s * m, G_EXAMPLE]) == pytest.approx(
            s * intersection_number([m, G_EXAMPLE]), abs=1e-12
        )


class TestVolumeRatio:
    def test_frozen_dk(self):
        # det(H + 3G)/ (3^2 det G) = 10/9, and the float division is exact
        assert dk_constant(H_EXAMPLE, G_EXAMPLE, 3) == 10.0 / 9.0

    def test_expansion_matches_determinant_form(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3):
            for _ in range(20):
                h = rational_hermitian(rng, n)
                g = rational_kahler(rng, n)
                for k in (1, 2, 3, 7):
                    a = dk_constant(h, g, k)
                    b = dk_expansion(h, g, k)
                    assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_positive_k_required(self):
        with pytest.raises(ModelError):
            dk_constant(H_EXAMPLE, G_EXAMPLE, 0)
        with pytest.raises(ModelError):
            dk_expansion(H_EXAMPLE, G_EXAMPLE, -1)

    def test_choose_k_frozen(self):
        # k = 1, 2 leave H + kG indefinite or D_k <= 1; k = 3 is the first hit
        assert choose_k(H_EXAMPLE, G_EXAMPLE) == 3

    def test_choose_k_needs_positive_pairing(self):
        with pytest.raises(HypothesisViolation):
            choose_k(np.diag([-1.0, -1.0]), G_EXAMPLE)

    def test_choose_k_exhaustion(self):
        with pytest.raises(SearchExhausted):
            choose_k(H_EXAMPLE, G_EXAMPLE, k_max=2)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(-2, 4),
        st.integers(-2, 2),
        st.integers(-2, 4),
        st.integers(1, 5),
    )
    def test_dk_identity_property(self, a, b, c, k):
        h = np.array([[a, b], [b, c]], dtype=float) / 2.0
        d1 = dk_constant(h, G_EXAMPLE, k)
        d2 = dk_expansion(h, G_EXAMPLE, k)
        assert abs(d1 - d2) <= 1e-12 * max(1.0, abs(d1))
