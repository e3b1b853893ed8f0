"""Real-FFT Hessian and Newton operator against their complex-FFT formulas.

The complex-FFT versions below are the reference: they transform with
``fftn``/``ifftn`` and the symbols of d/dz_j and d/dz_bar_j directly.
"""

import numpy as np
import pytest

from qposlab import PotentialField, TorusModel, complex_hessian, smallmat
from qposlab.ma_solver import _NewtonOperator


def c2c_dz_symbols(torus, shape):
    kappa = list(torus.wavenumbers())
    for a, size in enumerate(shape):
        if size == 1:
            kappa[a] = np.zeros((1,) * torus.ndim_real)
    dz, dzbar = [], []
    for j in range(torus.n):
        kx, ky = kappa[2 * j], kappa[2 * j + 1]
        dz.append(np.pi * (ky + 1j * kx))
        dzbar.append(np.pi * (-ky + 1j * kx))
    return dz, dzbar


def c2c_complex_hessian(torus, v):
    n = torus.n
    vhat = np.fft.fftn(v)
    dz, dzbar = c2c_dz_symbols(torus, v.shape)
    out = np.empty(v.shape + (n, n), dtype=np.complex128)
    for j in range(n):
        for k in range(j, n):
            entry = np.fft.ifftn(vhat * dz[j] * dzbar[k])
            out[..., j, k] = entry
            if k != j:
                out[..., k, j] = np.conj(entry)
    return 0.5 * (out + out.conj().swapaxes(-1, -2))


def c2c_newton_apply(torus, adj, shape, u):
    n = torus.n
    dz, dzbar = c2c_dz_symbols(torus, shape)
    uhat = np.fft.fftn(u)
    grads = [np.fft.ifftn(uhat * dz[k]) for k in range(n)]
    acc = np.zeros(shape, dtype=np.complex128)
    for j in range(n):
        vj = np.zeros(shape, dtype=np.complex128)
        for k in range(n):
            vj = vj + adj[..., j, k] * grads[k]
        acc = acc + np.fft.fftn(vj) * dzbar[j]
    return -np.fft.ifftn(acc).real


# (n, grid, stored shape); length one marks a constant axis, the last case has
# a constant last axis, where rfftn keeps a single mode.
SHAPES = [
    (1, 16, (16, 16)),
    (1, 16, (16, 1)),
    (2, 8, (8, 8, 8, 8)),
    (2, 8, (8, 1, 8, 8)),
    (2, 8, (8, 8, 8, 1)),
    (3, 8, (8, 8, 8, 8, 8, 8)),
    (3, 8, (8, 1, 1, 8, 8, 1)),
]


@pytest.mark.parametrize("n,grid,shape", SHAPES)
def test_complex_hessian_matches_complex_fft(n, grid, shape):
    torus = TorusModel(n, grid)
    v = np.random.default_rng(sum(shape)).normal(size=shape)
    got = complex_hessian(PotentialField(torus, v)).values
    ref = c2c_complex_hessian(torus, v)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(got, got.conj().swapaxes(-1, -2))


def random_hermitian_adjugate(torus, shape, rng):
    n = torus.n
    z = rng.normal(size=shape + (n, n)) + 1j * rng.normal(size=shape + (n, n))
    m = z @ z.conj().swapaxes(-1, -2) + n * np.eye(n)
    return smallmat.adjugate(m)


@pytest.mark.parametrize("n,grid,shape", [s for s in SHAPES if s[0] > 1])
def test_newton_operator_matches_complex_fft_and_is_self_adjoint(n, grid, shape):
    torus = TorusModel(n, grid)
    rng = np.random.default_rng(len(shape) + shape[-1])
    adj = random_hermitian_adjugate(torus, shape, rng)
    op = _NewtonOperator(torus, adj, shape)
    u, v = rng.normal(size=shape), rng.normal(size=shape)
    au, av = op.apply(u), op.apply(v)
    ref = c2c_newton_apply(torus, adj, shape, u)
    assert np.max(np.abs(au - ref)) <= 1e-12 * np.max(np.abs(ref))
    lhs, rhs = float(np.sum(u * av)), float(np.sum(au * v))
    assert abs(lhs - rhs) <= 1e-12 * np.sqrt(np.sum(u * u) * np.sum(av * av))
    assert float(np.sum(u * au)) >= 0.0
