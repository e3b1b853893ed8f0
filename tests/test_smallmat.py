"""Closed-form small-matrix kernels against numpy's LAPACK routines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qposlab import ModelError, smallmat

EPS = np.finfo(np.float64).eps
TINY = np.finfo(np.float64).tiny  # below the normal range precision is absolute

finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
scales = st.sampled_from([1e-8, 1e-4, 1.0, 1e4, 1e8])


def herm2(a, d, b_re, b_im):
    return np.array([[a, b_re - 1j * b_im], [b_re + 1j * b_im, d]])


def assert_matches_reference(m):
    got = smallmat.eigvalsh(m)
    ref = np.linalg.eigvalsh(m)
    scale = np.max(np.abs(m), axis=(-2, -1), keepdims=True)[..., 0]
    assert got.shape == ref.shape
    assert np.all(np.diff(got, axis=-1) >= 0)
    assert np.all(np.abs(got - ref) <= 16 * EPS * scale + TINY)


class TestEigvalsh:
    @settings(max_examples=200, deadline=None)
    @given(a=finite, d=finite, b_re=finite, b_im=finite, scale=scales)
    def test_generic_2x2(self, a, d, b_re, b_im, scale):
        assert_matches_reference(scale * herm2(a, d, b_re, b_im))

    @settings(max_examples=100, deadline=None)
    @given(a=finite, scale=scales)
    def test_degenerate_2x2(self, a, scale):
        m = scale * herm2(a, a, 0.0, 0.0)
        assert_matches_reference(m)
        assert np.all(smallmat.eigvalsh(m) == scale * a)

    @settings(max_examples=100, deadline=None)
    @given(a=finite, gap=st.floats(min_value=-1e-10, max_value=1e-10), b=st.floats(0, 1e-10), scale=scales)
    def test_near_degenerate_2x2(self, a, gap, b, scale):
        assert_matches_reference(scale * herm2(a, a + gap, b, b))

    @settings(max_examples=100, deadline=None)
    @given(a=finite, d=finite, scale=scales)
    def test_zero_off_diagonal_2x2(self, a, d, scale):
        assert_matches_reference(scale * herm2(a, d, 0.0, 0.0))

    @settings(max_examples=50, deadline=None)
    @given(a=finite, scale=scales)
    def test_1x1_is_exact(self, a, scale):
        m = np.array([[[scale * a + 0j]]])
        assert smallmat.eigvalsh(m).shape == (1, 1)
        assert smallmat.eigvalsh(m)[0, 0] == scale * a

    def test_batched_grid_field(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3):
            z = rng.normal(size=(4, 5, 1, 3, n, n)) + 1j * rng.normal(size=(4, 5, 1, 3, n, n))
            assert_matches_reference(z + z.conj().swapaxes(-1, -2))

    def test_guard_recomputes_near_zero_with_reference(self, monkeypatch):
        # exactly singular with |h| + r = 2: the zero eigenvalue sits inside the guard
        singular = herm2(1.0, 1.0, 1.0, 0.0)
        regular = herm2(2.0, -1.0, 0.3, 0.1)
        m = np.stack([regular, singular, regular])
        seen = []
        reference = np.linalg.eigvalsh

        def counting(x):
            seen.append(x.shape)
            return reference(x)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        got = smallmat.eigvalsh(m)
        assert seen == [(1, 2, 2)]
        assert np.array_equal(got[1], reference(singular))
        assert abs(got[1, 0]) <= 64 * EPS * 2.0

    def test_guard_idle_when_well_separated(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda x: pytest.fail("guard fired"))
        smallmat.eigvalsh(np.stack([herm2(2.0, -1.0, 0.3, 0.1)] * 4))


class TestDeterminantAndAdjugate:
    def test_adjugate_identity(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3):
            m = rng.normal(size=(6, 2, n, n)) + 1j * rng.normal(size=(6, 2, n, n))
            lhs = smallmat.adjugate(m) @ m
            rhs = smallmat.det(m)[..., None, None] * np.eye(n)
            assert np.max(np.abs(lhs - rhs)) < 1e-13 * max(1.0, float(np.max(np.abs(rhs))))

    def test_adjugate_of_hermitian_is_hermitian(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(10, 3, 3)) + 1j * rng.normal(size=(10, 3, 3))
        adj = smallmat.adjugate(z + z.conj().swapaxes(-1, -2))
        assert np.max(np.abs(adj - adj.conj().swapaxes(-1, -2))) < 1e-14

    def test_det_matches_numpy_up_to_4x4(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 4):
            m = rng.normal(size=(20, n, n)) + 1j * rng.normal(size=(20, n, n))
            expect = np.linalg.det(m)
            assert np.max(np.abs(smallmat.det(m) - expect)) < 1e-12 * max(1.0, float(np.max(np.abs(expect))))

    def test_single_matrix_takes_scalar_arithmetic(self):
        # numpy's array kernels round some complex products differently from
        # scalar arithmetic; a single matrix must round like m[i, j] entries
        rng = np.random.default_rng(4)
        for _ in range(200):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            assert smallmat.det(m) == m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            batched = smallmat.det(m[None])[0]
            assert batched == (m[None, 0, 0] * m[None, 1, 1] - m[None, 0, 1] * m[None, 1, 0])[0]

    def test_single_matrix_determinant(self):
        assert smallmat.det(np.array([[2.0, 1.0], [1.0, 3.0]])) == 5.0
        assert smallmat.hermitian_det(np.array([[2.0 + 0j]])) == 2.0

    def test_sizes_out_of_range(self):
        with pytest.raises(ModelError):
            smallmat.det(np.eye(5))
        with pytest.raises(ModelError):
            smallmat.adjugate(np.eye(4))
