"""Real-FFT Hessian and Newton operator against their complex-FFT formulas.

The complex-FFT versions below are the reference: they transform with
``fftn``/``ifftn`` and the symbols of d/dz_j and d/dz_bar_j directly.
"""

import math
import multiprocessing
import os
import threading

import numpy as np
import pytest

from qposlab import PotentialField, TorusModel, calculus, complex_hessian, smallmat
from qposlab.calculus import _irfftn, _rfftn
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


# Three slabs split the torus axes (8, 16) unevenly; an axis of 9, off any
# torus grid, is split unevenly by two slabs as well.
SLAB_SHAPES = SHAPES + [(None, None, (9, 9, 9, 9))]


def check_fft_helpers_bitwise(shape):
    axes = tuple(range(len(shape)))
    v = np.random.default_rng(sum(shape) + 1).normal(size=shape)
    vhat = _rfftn(v)
    assert np.array_equal(vhat, np.fft.rfftn(v, axes=axes))
    ref = np.fft.irfftn(vhat, s=shape, axes=axes)
    assert np.array_equal(_irfftn(vhat.copy(), shape), ref)  # _irfftn consumes its input
    # complex_hessian writes a diagonal plane contiguously and the real and
    # imaginary parts of an upper plane with a stride of two doubles.
    diag = np.zeros((2,) + shape)
    _irfftn(vhat.copy(), shape, out=diag[1])
    assert diag[1].tobytes() == ref.tobytes()
    upper = np.zeros((1,) + shape, dtype=np.complex128)
    _irfftn(vhat.copy(), shape, out=upper[0].imag)
    assert np.ascontiguousarray(upper[0].imag).tobytes() == ref.tobytes()


def check_complex_hessian(n, grid, shape):
    torus = TorusModel(n, grid)
    v = np.random.default_rng(sum(shape)).normal(size=shape)
    got = complex_hessian(PotentialField(torus, v)).values
    ref = c2c_complex_hessian(torus, v)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(got, got.conj().swapaxes(-1, -2))
    return got


@pytest.mark.parametrize("n,grid,shape", SHAPES)
def test_fft_helpers_are_bitwise_numpy(n, grid, shape):
    check_fft_helpers_bitwise(shape)


@pytest.mark.parametrize("n,grid,shape", SHAPES)
def test_complex_hessian_matches_complex_fft(n, grid, shape):
    check_complex_hessian(n, grid, shape)


@pytest.fixture(params=[2, 3], ids=["2-slabs", "3-slabs"])
def slabs(request, monkeypatch):
    """Split every FFT pass, whatever its size, into that many slabs on a fresh pool."""
    monkeypatch.setattr(calculus, "_SLAB_MIN_BYTES", 0)
    monkeypatch.setattr(calculus, "fft_workers", lambda: request.param)
    monkeypatch.setattr(calculus, "_pool", None)
    yield request.param
    if calculus._pool is not None:
        calculus._pool.shutdown()


@pytest.mark.parametrize("n,grid,shape", SLAB_SHAPES)
def test_slab_fft_helpers_are_bitwise_numpy(slabs, n, grid, shape):
    check_fft_helpers_bitwise(shape)
    assert calculus._pool is not None


@pytest.mark.parametrize("n,grid,shape", SHAPES)
def test_slab_complex_hessian_is_bitwise_serial(slabs, monkeypatch, n, grid, shape):
    got = check_complex_hessian(n, grid, shape)
    assert calculus._pool is not None
    monkeypatch.setattr(calculus, "_SLAB_MIN_BYTES", math.inf)
    v = np.random.default_rng(sum(shape)).normal(size=shape)
    assert np.array_equal(got, complex_hessian(PotentialField(TorusModel(n, grid), v)).values)


@pytest.mark.parametrize("axis, split", [(1, 0), (0, 1), (2, 1)])
def test_pass_cuts_the_longest_other_axis_into_contiguous_slabs(slabs, axis, split):
    a = np.random.default_rng(7).normal(size=(5, 8, 3)) + 0j
    ref = np.fft.fft(a, axis=axis)
    seen = []

    def spy(src, axis, out):
        seen.append(out.shape[split])
        assert np.shares_memory(out, a)
        return np.fft.fft(src, axis=axis, out=out)

    assert calculus._axis_pass(spy, a, a, axis) is a
    length = a.shape[split]
    assert sorted(seen) == sorted(length * (i + 1) // slabs - length * i // slabs for i in range(slabs))
    assert np.array_equal(a, ref)


def test_small_pass_starts_no_thread(monkeypatch):
    monkeypatch.setattr(calculus, "_pool", None)
    threads = threading.active_count()
    v = np.random.default_rng(3).normal(size=(16, 16, 16, 16))  # 0.5 MB, under the cutoff
    assert np.array_equal(_rfftn(v), np.fft.rfftn(v))
    assert calculus._pool is None
    assert threading.active_count() == threads


def test_one_worker_runs_every_pass_serially(monkeypatch):
    monkeypatch.setattr(calculus, "_SLAB_MIN_BYTES", 0)
    monkeypatch.setattr(calculus, "fft_workers", lambda: 1)
    monkeypatch.setattr(calculus, "_pool", None)
    v = np.random.default_rng(4).normal(size=(8, 8, 8, 8))
    ref = np.fft.irfftn(np.fft.rfftn(v), s=v.shape, axes=(0, 1, 2, 3))
    assert np.array_equal(_irfftn(_rfftn(v), v.shape), ref)
    assert calculus._pool is None


def test_fft_workers_is_the_affinity_mask():
    if hasattr(os, "sched_getaffinity"):
        assert calculus.fft_workers() == len(os.sched_getaffinity(0))
    else:
        assert calculus.fft_workers() == (os.cpu_count() or 1)


def _child_hessian(torus, v, conn):
    conn.send_bytes(complex_hessian(PotentialField(torus, v)).values.tobytes())
    conn.close()


# Python 3.12 warns about fork in a process with threads, which is what this tests.
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_gets_a_pool_of_its_own(slabs):
    torus = TorusModel(2, 8)
    v = np.random.default_rng(5).normal(size=(8, 8, 8, 8))
    expected = complex_hessian(PotentialField(torus, v)).values.tobytes()
    assert calculus._pool is not None  # the parent's pool has threads now
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_hessian, args=(torus, v, sender))
    child.start()
    sender.close()  # the child's end only: a child that dies shows as end of file
    try:
        assert receiver.poll(60), "forked child produced no Hessian within 60 s"
        assert receiver.recv_bytes() == expected
        child.join(60)
        assert not child.is_alive()
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join(10)


def random_positive_form(torus, shape, rng):
    n = torus.n
    z = rng.normal(size=shape + (n, n)) + 1j * rng.normal(size=shape + (n, n))
    return z @ z.conj().swapaxes(-1, -2) + n * np.eye(n)


def newton_operator(n, grid, shape, rng):
    """A Newton operator of a random positive form, and the exactly Hermitian matrices its planes hold."""
    torus = TorusModel(n, grid)
    m = random_positive_form(torus, shape, rng)
    diag = np.stack([m[..., j, j].real for j in range(n)])
    pairs = smallmat.upper_pairs(n)
    upper = np.empty((len(pairs),) + shape, dtype=np.complex128)
    for p, (j, k) in enumerate(pairs):
        upper[p] = m[..., j, k]
    return _NewtonOperator(torus, diag, upper, shape), smallmat.hermitian_matrices(diag, upper)


@pytest.mark.parametrize("n,grid,shape", [s for s in SHAPES if s[0] > 1])
def test_newton_operator_matches_complex_fft_and_is_self_adjoint(n, grid, shape):
    rng = np.random.default_rng(len(shape) + shape[-1])
    op, m = newton_operator(n, grid, shape, rng)
    u, v = rng.normal(size=shape), rng.normal(size=shape)
    uhat, vhat = _rfftn(u), _rfftn(v)
    auhat, avhat = op.apply(uhat, np.empty_like(uhat)), op.apply(vhat, np.empty_like(vhat))
    au = _irfftn(auhat.copy(), shape)
    ref = c2c_newton_apply(TorusModel(n, grid), np.linalg.det(m)[..., None, None] * np.linalg.inv(m), shape, u)
    assert np.max(np.abs(au - ref)) <= 1e-12 * np.max(np.abs(ref))
    lhs, rhs = op.dot(uhat, avhat), op.dot(auhat, vhat)
    assert abs(lhs - rhs) <= 1e-12 * np.sqrt(op.dot(uhat, uhat) * op.dot(avhat, avhat))
    assert op.dot(uhat, auhat) >= 0.0


@pytest.mark.parametrize("n,grid,shape", SHAPES)
def test_newton_dot_is_the_real_inner_product(n, grid, shape):
    rng = np.random.default_rng(sum(shape) + 2)
    op, _ = newton_operator(n, grid, shape, rng)
    u, v = rng.normal(size=shape), rng.normal(size=shape)
    ref = float(np.sum(u * v))
    assert abs(op.dot(_rfftn(u), _rfftn(v)) - ref) <= 1e-12 * np.sqrt(np.sum(u * u) * np.sum(v * v))
    assert op.dot(_rfftn(u), _rfftn(u)) == pytest.approx(float(np.sum(u * u)), rel=1e-12)
