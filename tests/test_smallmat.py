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
        low, high = smallmat.eigvalsh_planes(m[..., 0, 0].real, m[..., 1, 1].real, m[..., 1, 0])
        ref = stacked_closed_form(m)
        assert low.tobytes() == np.ascontiguousarray(ref[..., 0]).tobytes()
        assert high.tobytes() == np.ascontiguousarray(ref[..., 1]).tobytes()
        assert smallmat.eigvalsh(m).tobytes() == ref.tobytes()

    def test_fallback_ignores_the_upper_triangle_and_imaginary_diagonal(self):
        # LAPACK reads the real diagonal and the lower triangle, so planes built
        # from those alone reproduce the fallback on the stored matrices
        m = self.field(12)
        noisy = m.copy()
        noisy[..., 0, 1] += 0.5
        noisy[..., 1, 1] += 0.25j
        assert smallmat.eigvalsh(noisy).tobytes() == stacked_closed_form(noisy).tobytes()

    def test_broadcast_planes(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(8, 1))
        d = np.float64(0.0)
        b = rng.normal(size=(1, 6)) + 1j * rng.normal(size=(1, 6))
        a[0, 0] = b[0, 0] = 0.0  # row 0, column 0 is the zero matrix: the guard reads broadcast planes
        low, high = smallmat.eigvalsh_planes(a, d, b)
        m = np.zeros((8, 6, 2, 2), dtype=np.complex128)
        m[..., 0, 0], m[..., 1, 0] = a, b
        m[..., 0, 1] = np.conj(m[..., 1, 0])
        assert np.array_equal(np.stack((low, high), axis=-1), stacked_closed_form(m))


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
        with pytest.raises(ModelError):
            smallmat.adjugate_planes(np.eye(4)[None])


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


def assert_positivity_matches_reference(m):
    got = smallmat.positive_definite(m, smallmat.hermitian_det(m))
    assert got.dtype == bool and got.shape == m.shape[:-2]
    assert np.array_equal(got, smallmat.eigvalsh(m)[..., 0] > 0)


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
        assert np.all(smallmat.hermitian_det(m) == 0.0)
        assert_positivity_matches_reference(m)
        assert_positivity_matches_reference(scale * m)

    @settings(max_examples=100, deadline=None)
    @given(a=finite, d=finite, b_re=finite, b_im=finite, scale=scales)
    def test_generic_2x2(self, a, d, b_re, b_im, scale):
        assert_positivity_matches_reference(scale * herm2(a, d, b_re, b_im)[None])

    def test_small_batches_and_zero_matrix(self):
        m = np.stack([herm2(2.0, 1.0, 0.5, 0.5), herm2(2.0, -1.0, 0.0, 0.0)])
        assert np.array_equal(smallmat.positive_definite(m, smallmat.hermitian_det(m)), [True, False])
        zero = np.zeros((1, 3, 3), dtype=complex)
        assert np.array_equal(smallmat.positive_definite(zero, smallmat.hermitian_det(zero)), [False])

    def test_fallback_only_near_zero(self, monkeypatch):
        seen = []
        reference = smallmat.eigvalsh

        def counting(x):
            seen.append(x.shape)
            return reference(x)

        monkeypatch.setattr(smallmat, "eigvalsh", counting)
        regular = herm2(2.0, 1.0, 0.3, 0.1)
        singular = herm2(1.0, 1.0, 1.0, 0.0)  # det = 0: Sylvester cannot decide
        m = np.stack([regular, -regular] * 3)
        assert np.array_equal(smallmat.positive_definite(m, smallmat.hermitian_det(m)), [True, False] * 3)
        assert seen == []
        m = np.stack([regular, singular, regular])
        assert np.array_equal(smallmat.positive_definite(m, smallmat.hermitian_det(m)), [True, False, True])
        assert seen == [(1, 2, 2)]

    def test_sizes_out_of_range(self):
        with pytest.raises(ModelError):
            smallmat.positive_definite(np.eye(4)[None], np.ones(1))


class TestAdjugatePlanes:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_planes_and_mean_equal_the_adjugate_field(self, n):
        rng = np.random.default_rng(n)
        m = hermitian_batch(rng, n, spectra(rng, "definite", n, 4 * 5 * 6).reshape(4, 5, 6, n))
        m[..., 0, 0] += 1e-17j  # the planes keep an imaginary diagonal
        re, im, mean = smallmat.adjugate_planes(m)
        adj = smallmat.adjugate(m)
        assert re.shape == im.shape == (n, n, 4, 5, 6) and re.flags.c_contiguous
        assert np.array_equal(re, np.moveaxis(adj.real, (-2, -1), (0, 1)))
        assert np.array_equal(im, np.moveaxis(adj.imag, (-2, -1), (0, 1)))
        assert np.array_equal(mean, np.mean(adj.reshape(-1, n, n), axis=0))
