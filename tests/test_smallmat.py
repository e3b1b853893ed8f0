"""Closed-form small-matrix kernels against numpy's LAPACK routines.

The kernels take Hermitian batches as entry planes; ``planes`` below cuts a
``(..., n, n)`` test batch into them, reading the real diagonal and the
upper triangle.
"""

import functools
import operator

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


def planes(m):
    """``(diag, upper)`` planes of a ``(..., n, n)`` batch."""
    n = m.shape[-1]
    return [m[..., j, j].real for j in range(n)], [m[..., j, k] for j, k in smallmat.upper_pairs(n)]


def eigvalsh(m):
    """The plane kernel's eigenvalues of a ``(..., n, n)`` batch, stacked along the last axis."""
    if m.ndim == 2:
        return eigvalsh(m[None])[0]
    return np.stack(smallmat.eigvalsh(*planes(m)), axis=-1)


def assert_matches_reference(m):
    got = eigvalsh(m)
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
        assert np.all(eigvalsh(m) == scale * a)

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
        assert eigvalsh(m).shape == (1, 1)
        assert eigvalsh(m)[0, 0] == scale * a

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
        got = eigvalsh(m)
        assert seen == [(1, 2, 2)]
        assert np.array_equal(got[1], reference(singular))
        assert abs(got[1, 0]) <= 64 * EPS * 2.0

    def test_guard_idle_when_well_separated(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda x: pytest.fail("guard fired"))
        eigvalsh(np.stack([herm2(2.0, -1.0, 0.3, 0.1)] * 4))


def stacked_closed_form(m):
    """The 2 x 2 closed form on a (..., 2, 2) field: both eigenvalues stacked,
    the guard tested on the stack, the fallback fed the original matrices."""
    a, d = m[..., 0, 0].real, m[..., 1, 1].real
    h = 0.5 * (a + d)
    r = np.hypot(0.5 * (a - d), np.abs(m[..., 1, 0]))
    lam = np.stack((h - r, h + r), axis=-1)
    near_zero = np.abs(lam) <= (64 * EPS * (np.abs(h) + r))[..., None]
    idx = np.nonzero(np.any(near_zero, axis=-1))
    if idx[0].size:
        lam[idx] = np.linalg.eigvalsh(m[idx])
    return lam


class TestEigvalshPlanes:
    def field(self, seed, shape=(64, 33)):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))
        m = z + z.conj().swapaxes(-1, -2)
        m[::7, ::5] = herm2(1.0, 1.0, 1.0, 0.0)  # singular: the guard fires here
        m[3, 4] = herm2(1e-300, -1e-300, 0.0, 1e-300)
        return m

    def test_bitwise_the_stacked_closed_form(self):
        m = self.field(11)
        low, high = smallmat.eigvalsh(*planes(m))
        ref = stacked_closed_form(m)
        assert low.tobytes() == np.ascontiguousarray(ref[..., 0]).tobytes()
        assert high.tobytes() == np.ascontiguousarray(ref[..., 1]).tobytes()

    def test_fallback_ignores_the_upper_triangle_and_imaginary_diagonal(self):
        # LAPACK reads the real diagonal and the lower triangle, so planes built
        # from those alone (the upper plane the conjugate of the lower entry)
        # reproduce the fallback on matrices with any upper triangle
        m = self.field(12)
        noisy = m.copy()
        noisy[..., 0, 1] += 0.5
        noisy[..., 1, 1] += 0.25j
        low, high = smallmat.eigvalsh([noisy[..., 0, 0].real, noisy[..., 1, 1].real], [np.conj(noisy[..., 1, 0])])
        assert np.stack((low, high), axis=-1).tobytes() == stacked_closed_form(noisy).tobytes()

    def test_broadcast_planes(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(8, 1))
        d = np.float64(0.0)
        b = rng.normal(size=(1, 6)) + 1j * rng.normal(size=(1, 6))
        a[0, 0] = b[0, 0] = 0.0  # row 0, column 0 is the zero matrix: the guard reads broadcast planes
        low, high = smallmat.eigvalsh((a, d), (b,))
        m = np.zeros((8, 6, 2, 2), dtype=np.complex128)
        m[..., 0, 0], m[..., 0, 1] = a, b
        m[..., 1, 0] = np.conj(m[..., 0, 1])
        assert np.array_equal(np.stack((low, high), axis=-1), stacked_closed_form(m))


def adjugate_reference(m):
    """det(M) M^{-1} by LAPACK."""
    return np.linalg.det(m)[..., None, None] * np.linalg.inv(m)


def adjugate_matrices(diag, re, im):
    return smallmat.hermitian_matrices(diag, re + 1j * im)


class TestDeterminantAndAdjugate:
    def test_adjugate_identity(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3):
            z = rng.normal(size=(6, 2, n, n)) + 1j * rng.normal(size=(6, 2, n, n))
            m = z + z.conj().swapaxes(-1, -2)
            diag, re, im, _ = smallmat.adjugate_planes(*planes(m))
            got, expect = adjugate_matrices(diag, re, im), adjugate_reference(m)
            assert np.max(np.abs(got - expect)) < 1e-12 * max(1.0, float(np.max(np.abs(expect))))
            lhs = got @ m
            rhs = smallmat.det(m)[..., None, None] * np.eye(n)
            assert np.max(np.abs(lhs - rhs)) < 1e-13 * max(1.0, float(np.max(np.abs(rhs))))

    def test_adjugate_of_hermitian_is_hermitian(self):
        # what the planes leave out: det(M) M^{-1} has a real diagonal and its
        # lower triangle is the conjugate of the upper planes
        rng = np.random.default_rng(2)
        for n in (2, 3):
            z = rng.normal(size=(10, n, n)) + 1j * rng.normal(size=(10, n, n))
            m = z + z.conj().swapaxes(-1, -2)
            _, re, im, _ = smallmat.adjugate_planes(*planes(m))
            expect = adjugate_reference(m)
            scale = float(np.max(np.abs(expect)))
            assert np.max(np.abs(np.diagonal(expect, axis1=-2, axis2=-1).imag)) < 1e-14 * scale
            for p, (j, k) in enumerate(smallmat.upper_pairs(n)):
                assert np.max(np.abs(expect[..., k, j] - (re[p] - 1j * im[p]))) < 1e-13 * scale

    def test_adjugate_of_positive_definite_is_positive_definite(self):
        rng = np.random.default_rng(2)
        m = hermitian_batch(rng, 3, spectra(rng, "definite", 3, 10))
        diag, re, im, _ = smallmat.adjugate_planes(*planes(m))
        assert np.min(np.linalg.eigvalsh(adjugate_matrices(diag, re, im))) > 0

    def test_hermitian_det_matches_numpy_and_det(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            z = rng.normal(size=(40, n, n)) + 1j * rng.normal(size=(40, n, n))
            m = z + z.conj().swapaxes(-1, -2)
            got = smallmat.hermitian_det(*planes(m))
            expect = np.linalg.det(m).real
            assert np.max(np.abs(got - expect)) < 1e-10 * max(1.0, np.max(np.abs(expect)))
            if n == 2:  # only complex products there: bitwise the real part of det
                assert got.tobytes() == np.real(smallmat.det(m)).tobytes()

    def test_2x2_hermitian_det_keeps_the_complex_product(self):
        # b * conj(b) is a fused complex product; |b|^2 from real squares rounds differently
        rng = np.random.default_rng(14)
        z = rng.normal(size=(1 << 14, 2, 2)) + 1j * rng.normal(size=(1 << 14, 2, 2))
        m = z + z.conj().swapaxes(-1, -2)
        assert smallmat.hermitian_det(*planes(m)).tobytes() == np.real(smallmat.det(m)).tobytes()

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
        assert smallmat.hermitian_det([np.array([2.0])], []) == 2.0

    def test_sizes_out_of_range(self):
        with pytest.raises(ModelError):
            smallmat.det(np.eye(5))
        four = planes(np.eye(4, dtype=complex)[None])
        for kernel in (smallmat.adjugate_planes, smallmat.hermitian_det, smallmat.eigvalsh):
            with pytest.raises(ModelError):
                kernel(*four)


def hermitian_batch(rng, n, eigenvalues):
    """Exactly Hermitian matrices U diag(eigenvalues) U* with random unitaries U."""
    z = rng.normal(size=eigenvalues.shape + (n,)) + 1j * rng.normal(size=eigenvalues.shape + (n,))
    u, _ = np.linalg.qr(z)
    m = (u * eigenvalues[..., None, :]) @ u.conj().swapaxes(-1, -2)
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def spectra(rng, kind, n, count):
    """Eigenvalues in [1/2, 1] up to sign, with the smallest one set by ``kind``."""
    lam = rng.uniform(0.5, 1.0, size=(count, n)) * rng.choice([-1.0, 1.0], size=(count, n))
    if kind == "definite":
        lam = np.abs(lam)
    elif kind == "indefinite" and n > 1:
        lam[:, 0] = -np.abs(lam[:, 0])
        lam[:, 1] = np.abs(lam[:, 1])
    elif kind == "near_singular":
        lam = np.abs(lam)
        lam[:, 0] = 1e-15 * rng.uniform(-1.0, 1.0, size=count)
    return lam


def positive_definite(m):
    diag, upper = planes(m)
    return smallmat.positive_definite(diag, upper, smallmat.hermitian_det(diag, upper))


def assert_positivity_matches_reference(m):
    got = positive_definite(m)
    assert got.dtype == bool and got.shape == m.shape[:-2]
    assert np.array_equal(got, eigvalsh(m)[..., 0] > 0)


class TestPositiveDefinite:
    @settings(max_examples=120, deadline=None)
    @given(n=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**32 - 1), scale=scales,
           kind=st.sampled_from(["definite", "indefinite", "near_singular", "mixed"]))
    def test_agrees_with_smallest_eigenvalue(self, n, seed, scale, kind):
        rng = np.random.default_rng(seed)
        m = scale * hermitian_batch(rng, n, spectra(rng, kind, n, 64))
        assert_positivity_matches_reference(m)

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1), scale=scales)
    def test_exactly_singular(self, n, seed, scale):
        # B B* with small integer B of rank n - 1: every product is exact, so det is exactly 0
        rng = np.random.default_rng(seed)
        b = rng.integers(-3, 4, size=(32, n, n - 1)) + 1j * rng.integers(-3, 4, size=(32, n, n - 1))
        m = b @ b.conj().swapaxes(-1, -2)
        assert np.all(smallmat.hermitian_det(*planes(m)) == 0.0)
        assert_positivity_matches_reference(m)
        assert_positivity_matches_reference(scale * m)

    @settings(max_examples=100, deadline=None)
    @given(a=finite, d=finite, b_re=finite, b_im=finite, scale=scales)
    def test_generic_2x2(self, a, d, b_re, b_im, scale):
        assert_positivity_matches_reference(scale * herm2(a, d, b_re, b_im)[None])

    def test_small_batches_and_zero_matrix(self):
        m = np.stack([herm2(2.0, 1.0, 0.5, 0.5), herm2(2.0, -1.0, 0.0, 0.0)])
        assert np.array_equal(positive_definite(m), [True, False])
        assert np.array_equal(positive_definite(np.zeros((1, 3, 3), dtype=complex)), [False])

    def test_fallback_only_near_zero(self, monkeypatch):
        seen = []
        reference = smallmat.eigvalsh

        def counting(diag, upper):
            seen.append((len(diag), diag[0].shape))
            return reference(diag, upper)

        monkeypatch.setattr(smallmat, "eigvalsh", counting)
        regular = herm2(2.0, 1.0, 0.3, 0.1)
        singular = herm2(1.0, 1.0, 1.0, 0.0)  # det = 0: Sylvester cannot decide
        m = np.stack([regular, -regular] * 3)
        assert np.array_equal(positive_definite(m), [True, False] * 3)
        assert seen == []
        m = np.stack([regular, singular, regular])
        assert np.array_equal(positive_definite(m), [True, False, True])
        assert seen == [(2, (1,))]

    def test_sizes_out_of_range(self):
        with pytest.raises(ModelError):
            smallmat.positive_definite(*planes(np.eye(4, dtype=complex)[None]), np.ones(1))


class TestAdjugatePlanes:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_planes_and_mean_equal_the_adjugate_field(self, n):
        rng = np.random.default_rng(n)
        m = hermitian_batch(rng, n, spectra(rng, "definite", n, 4 * 5 * 6).reshape(4, 5, 6, n))
        diag, re, im, mean = smallmat.adjugate_planes(*planes(m))
        pairs = smallmat.upper_pairs(n)
        assert diag.shape == (n, 4, 5, 6) and re.shape == im.shape == (len(pairs), 4, 5, 6)
        assert diag.flags.c_contiguous and re.flags.c_contiguous and im.flags.c_contiguous
        expect = adjugate_reference(m)
        assert np.max(np.abs(adjugate_matrices(diag, re, im) - expect)) < 1e-12
        assert np.max(np.abs(mean - np.mean(expect.reshape(-1, n, n), axis=0))) < 1e-12

        def in_order(real, imag):
            # sums in batch order, divided as numpy divides a complex array
            total = complex(*(functools.reduce(operator.add, p.ravel().tolist(), 0.0) for p in (real, imag)))
            return (np.array(total) / real.size)[()]

        for j in range(n):
            assert mean[j, j] == in_order(diag[j], np.zeros(1))
        for p, (j, k) in enumerate(pairs):
            assert mean[j, k] == in_order(re[p], im[p])
            assert mean[k, j] == in_order(re[p], -im[p])
