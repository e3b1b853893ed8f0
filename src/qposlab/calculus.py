"""Spectral periodic calculus for scalar potentials and Hermitian form fields.

Derivatives use the trigonometric-interpolant (FFT) convention with

    d/dz_j = (d/dx_j - i d/dy_j) / 2,      d/dz_bar_j = (d/dx_j + i d/dy_j) / 2,

so on the unit torus ``d^2/dz dz_bar cos(2 pi x) = -pi^2 cos(2 pi x)``.
Potentials are real, so every transform is a real FFT (``rfftn``/``irfftn``
over all real axes): the complex Hessian entry ``(j, k)`` is assembled from
the real second derivatives

    4 d^2/dz_j dz_bar_k = (d_xj d_xk + d_yj d_yk) + i (d_xj d_yk - d_yj d_xk),

which makes the result Hermitian by construction.  Wavenumbers have the
Nyquist mode zeroed, so every symbol is real and even and the real
transforms are exact.  An nd transform runs one pass per axis, as numpy's
does and with bitwise the same result, but every pass works in one array:
the forward passes all write into the output, and the inverse complex
passes run in place in the caller's temporary spectrum before the real pass
on the last axis writes the result, for a Hessian straight into its plane of
the form field.

A pass of at least 2 MiB runs as one contiguous slab per worker thread, cut
along the longest other axis.  Every line along the transformed axis stays
whole, so each slab runs the same 1-d transforms as the serial pass and the
result stays bitwise numpy's.  The slabs share one thread pool, started by
the first pass that splits, with one worker per CPU in the process's
affinity mask (:func:`fft_workers`); a process pinned to one CPU (``taskset
-c 0``) runs every pass serially and starts no thread.  Smaller passes run
serially on the calling thread.

The finite-difference Hessian has one slab source, :func:`_fd_hessian_rows`:
each slab of about 65,536 points reads its rows of a stored potential with a
periodic halo, so every axis-0 stencil is a slice, and each entry is bitwise
what whole-grid periodic stencils give.  :func:`fd_complex_hessian` writes
its slabs into one form field; the glue certificates run them as leaf tasks
on the same pool (:func:`_run_slabs`) and keep no Hessian.

Fields store numpy arrays broadcastable to the full grid shape; an axis of
length one means "constant along that coordinate" and spectral derivatives
along such axes vanish identically, which both is exact and keeps storage
proportional to the coordinates a problem actually activates.  A Hermitian
form field is stored as entry planes (:class:`HermitianFormField`), half the
bytes of ``(..., n, n)`` complex matrices at n = 2; both Hessians write
them, and the kernels that read them live in :mod:`qposlab.smallmat`.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import ModelError, NumericsError
from .geometry import _HERMITIAN_TOL, TorusModel
from .smallmat import hermitian_det, hermitian_matrices, upper_pairs

__all__ = [
    "PotentialField",
    "HermitianFormField",
    "complex_hessian",
    "fd_complex_hessian",
    "hermitian_det",
    "fft_workers",
]

_MEAN_ZERO_TOL = 1e-12


def _check_grid_values(torus: TorusModel, values: np.ndarray, what: str) -> np.ndarray:
    v = np.asarray(values)
    if v.ndim != torus.ndim_real:
        raise ModelError(
            f"{what} must have one axis per real coordinate ({torus.ndim_real}), got shape {v.shape}"
        )
    for a, size in enumerate(v.shape):
        if size not in (1, torus.grid_size):
            raise ModelError(
                f"{what} axis {a} has length {size}; must be 1 (constant) or grid_size={torus.grid_size}"
            )
    return v


@dataclass(frozen=True)
class PotentialField:
    """Real scalar function sampled on the torus grid.

    ``values`` broadcasts to ``torus.shape``; ``mean_zero`` flags the gauge
    used by the Monge-Ampere solver.
    """

    torus: TorusModel
    values: np.ndarray
    mean_zero: bool = False

    def __post_init__(self):
        v = _check_grid_values(self.torus, np.asarray(self.values, dtype=np.float64), "potential values")
        object.__setattr__(self, "values", v)
        if self.mean_zero and abs(float(np.mean(v))) > _MEAN_ZERO_TOL:
            raise ModelError("field flagged mean_zero has |mean| > 1e-12")

    @classmethod
    def zero(cls, torus: TorusModel) -> "PotentialField":
        return cls(torus, np.zeros((1,) * torus.ndim_real), mean_zero=True)

    def mean(self) -> float:
        # Constant (length-one) axes carry uniform weight, so the plain mean
        # of the stored values equals the mean over the full grid.
        return float(np.mean(self.values))

    def __add__(self, other):
        if isinstance(other, PotentialField):
            _require_same_torus(self, other)
            return PotentialField(self.torus, self.values + other.values)
        return PotentialField(self.torus, self.values + float(other))


def _require_same_torus(a, b):
    if a.torus != b.torus:
        raise ModelError("fields live on different torus models")


@dataclass(frozen=True)
class HermitianFormField:
    """Pointwise Hermitian n x n matrix field on the torus grid, stored as entry planes.

    ``diag`` stacks the n real diagonal planes, ``upper`` the n(n-1)/2 complex
    planes above the diagonal (:mod:`qposlab.smallmat` layout), each of the
    grid broadcast shape.  ``HermitianFormField(torus, values)`` reads and
    checks, and ``values`` builds, ``(*grid, n, n)`` complex matrices, for
    callers outside the package; its own fields skip the check (:meth:`_trusted`).
    """

    torus: TorusModel
    matrices: InitVar[np.ndarray]
    diag: np.ndarray = field(init=False)
    upper: np.ndarray = field(init=False)

    def __post_init__(self, matrices):
        v = np.asarray(matrices, dtype=np.complex128)
        n = self.torus.n
        if v.ndim != self.torus.ndim_real + 2 or v.shape[-2:] != (n, n):
            raise ModelError(f"form field must end in ({n},{n}) matrix axes, got shape {v.shape}")
        _check_grid_values(self.torus, v[..., 0, 0], "form field grid part")
        if not np.all(np.isfinite(v)):
            raise ModelError("form field entries must be finite")
        scale = max(1.0, float(np.max(np.abs(v))))
        if np.max(np.abs(v - v.conj().swapaxes(-1, -2))) > _HERMITIAN_TOL * scale:
            raise ModelError("form field is not pointwise Hermitian within 1e-12")
        rows, cols = np.triu_indices(n, 1)
        object.__setattr__(self, "diag", np.ascontiguousarray(np.moveaxis(v.real[..., range(n), range(n)], -1, 0)))
        object.__setattr__(self, "upper", np.ascontiguousarray(np.moveaxis(v[..., rows, cols], -1, 0)))

    @classmethod
    def from_constant(cls, torus: TorusModel, matrix) -> "HermitianFormField":
        m = np.asarray(matrix, dtype=np.complex128)
        if m.shape != (torus.n, torus.n):
            raise ModelError(f"constant form matrix must be {torus.n} x {torus.n}, got {m.shape}")
        return cls(torus, m.reshape((1,) * torus.ndim_real + m.shape))

    @classmethod
    def _trusted(cls, torus: TorusModel, diag: np.ndarray, upper: np.ndarray) -> "HermitianFormField":
        """Wrap planes that are grid-shaped by construction."""
        form = object.__new__(cls)
        object.__setattr__(form, "torus", torus)
        object.__setattr__(form, "diag", diag)
        object.__setattr__(form, "upper", upper)
        return form

    @property
    def values(self) -> np.ndarray:
        """The ``(*grid_broadcast, n, n)`` complex matrices, built on each call."""
        return hermitian_matrices(self.diag, self.upper)

    def rows(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """``(diag, upper)`` on grid rows ``lo:hi`` along axis 0, or whole when constant along it."""
        if self.diag.shape[1] == 1:
            return self.diag, self.upper
        return self.diag[:, lo:hi], self.upper[:, lo:hi]

    def __add__(self, other):
        if isinstance(other, HermitianFormField):
            _require_same_torus(self, other)
            return HermitianFormField._trusted(self.torus, self.diag + other.diag, self.upper + other.upper)
        raise TypeError("can only add HermitianFormField to HermitianFormField")


def _as_form(obj, torus: TorusModel) -> HermitianFormField:
    """``obj`` as a form field on ``torus``: itself, or the constant field of a class or matrix."""
    if not isinstance(obj, HermitianFormField):
        return HermitianFormField.from_constant(torus, getattr(obj, "matrix", obj))
    if obj.torus != torus:
        raise ModelError("form fields live on different torus models")
    return obj


def _half_spectrum_wavenumbers(torus: TorusModel, shape: tuple[int, ...]) -> list[np.ndarray]:
    """Integer wavenumbers per real axis on the ``rfftn`` half spectrum of a stored shape.

    The last axis keeps its non-negative half.  Along axes where the field is
    constant (stored length one) only the zero mode exists, so the wavenumber
    array collapses to [0] and the derivative along that axis is identically
    zero, exactly.
    """
    kappa = list(torus.wavenumbers())
    last = len(shape) - 1
    for a, size in enumerate(shape):
        if size == 1:
            kappa[a] = np.zeros((1,) * len(shape))
    if shape[last] > 1:
        # fftfreq's first half plus the (zeroed) Nyquist entry is rfftfreq's.
        kappa[last] = kappa[last][..., : shape[last] // 2 + 1]
    return kappa


# A pass that writes fewer bytes than this runs serially (a real array and the
# half spectrum of it are about the same size).  One rfftn and one irfftn on
# two cores, serial against two slabs, medians of alternating runs: 65,536
# points (0.5 MB) 2.37 vs 3.29 ms, 160,000 points (1.3 MB) 4.94 vs 5.75 ms,
# 331,776 points (2.7 MB) 10.3 vs 9.2 ms, 1,048,576 points (8.4 MB) 27.6 vs
# 20.3 ms; at n = 1, 262,144 points (2.1 MB) 4.64 vs 3.62 ms.
_SLAB_MIN_BYTES = 2 << 20

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def fft_workers() -> int:
    """Threads an FFT pass or a set of stencil slabs is split over: one per CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _slab_pool() -> ThreadPoolExecutor:
    """The process's slab pool, started by the first FFT pass or stencil slab set that splits."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(fft_workers(), thread_name_prefix="qposlab-slab")
        return _pool


def _forget_pool() -> None:
    # A forked child inherits the pool object but none of its threads.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run_slabs(task, parts: list) -> list:
    """``[task(p) for p in parts]``, the tasks spread over the slab pool.

    Serial on the calling thread when there is one part or one CPU (no pool
    is started then).  Every task has finished when this returns; the first
    failing part, in order, raises.  A task must not submit work to the pool.
    """
    if len(parts) < 2 or fft_workers() < 2:
        return [task(p) for p in parts]
    futures = [_slab_pool().submit(task, p) for p in parts]
    wait(futures)
    return [f.result() for f in futures]


def _axis_pass(transform, src: np.ndarray, out: np.ndarray, axis: int, **kwargs) -> np.ndarray:
    """``transform(src, axis=axis, out=out)``, one contiguous slab per worker.

    The slabs cut the longest other axis, so every line along ``axis`` stays
    whole and each slab is a batch of the same 1-d transforms numpy runs: the
    result is bitwise the serial one.
    """
    split = max((a for a in range(out.ndim) if a != axis), key=out.shape.__getitem__, default=None)
    slabs = 1 if split is None or out.nbytes < _SLAB_MIN_BYTES else min(fft_workers(), out.shape[split])
    if slabs < 2:
        return transform(src, axis=axis, out=out, **kwargs)
    cuts = [out.shape[split] * i // slabs for i in range(slabs + 1)]
    parts = [(slice(None),) * split + (slice(lo, hi),) for lo, hi in zip(cuts, cuts[1:])]
    _run_slabs(lambda p: transform(src[p], axis=axis, out=out[p], **kwargs), parts)
    return out


def _fft_passes(spec: np.ndarray) -> np.ndarray:
    """The complex passes of ``np.fft.rfftn``, in place in the half spectrum ``spec``.

    They follow the real pass on the last axis and run, in numpy's order, from
    the last axis but one down to axis 0.
    """
    for axis in range(spec.ndim - 2, -1, -1):
        _axis_pass(np.fft.fft, spec, spec, axis)
    return spec


def _ifft_passes(spec: np.ndarray) -> np.ndarray:
    """The complex passes of ``np.fft.irfftn``, in place in the half spectrum ``spec``.

    They precede the real pass on the last axis and run, in numpy's order,
    from axis 0 up to the last axis but one.
    """
    for axis in range(spec.ndim - 1):
        _axis_pass(np.fft.ifft, spec, spec, axis)
    return spec


def _rfftn(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.fft.rfftn`` over every axis, bitwise equal to it, in one output buffer.

    numpy's passes in numpy's order: the real pass on the last axis writes the
    half spectrum, into ``out`` when given (complex128, contiguous), then
    :func:`_fft_passes` runs in place.
    """
    if out is None:
        out = np.empty(v.shape[:-1] + (v.shape[-1] // 2 + 1,), dtype=np.complex128)
    return _fft_passes(_axis_pass(np.fft.rfft, v, out, v.ndim - 1))


def _irfftn(vhat: np.ndarray, shape: tuple[int, ...], out: np.ndarray | None = None) -> np.ndarray:
    """``np.fft.irfftn`` over every axis, bitwise equal to it; consumes ``vhat``.

    :func:`_ifft_passes` runs in place in ``vhat`` (a complex128 temporary the
    caller gives up) before the real pass on the last axis, which writes into
    ``out`` when given (any strides).
    """
    _ifft_passes(vhat)
    if out is None:
        out = np.empty(shape)
    return _axis_pass(np.fft.irfft, vhat, out, len(shape) - 1, n=shape[-1])


def _resample(values: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``values`` resampled to the stored ``shape`` of a coarser or finer grid, by its trigonometric interpolant.

    The ``rfftn`` half spectrum is truncated (restriction) or zero-padded
    (prolongation) to that of ``shape``, and scaled by the ratio of point
    counts.  Along each axis only the modes below the Nyquist mode of the
    smaller of the two lengths are kept, so that mode is dropped either way; an
    axis of length one keeps its zero mode alone.  A field with no mode at or
    above that Nyquist mode goes to the other grid and back unchanged, up to
    rounding.
    """
    vhat = _rfftn(values)
    out = np.zeros(shape[:-1] + (shape[-1] // 2 + 1,), dtype=np.complex128)
    src, dst = [], []
    for a, (old, new) in enumerate(zip(values.shape, shape)):
        keep = max(1, min(old, new) // 2)  # modes 0 .. keep - 1, and on a full axis their negatives
        neg = 0 if a == len(shape) - 1 else keep - 1
        src.append(np.r_[0:keep, old - neg : old])
        dst.append(np.r_[0:keep, new - neg : new])
    out[np.ix_(*dst)] = vhat[np.ix_(*src)] * (np.prod(shape) / values.size)
    return _irfftn(out, shape)


def complex_hessian(phi: PotentialField) -> HermitianFormField:
    """Pointwise complex Hessian d^2 phi / dz_j dz_bar_k from real second derivatives."""
    v = phi.values
    if not np.all(np.isfinite(v)):
        raise NumericsError("potential has non-finite values; cannot differentiate")
    torus = phi.torus
    n = torus.n
    vhat = _rfftn(v)
    kappa = _half_spectrum_wavenumbers(torus, v.shape)
    diag = np.empty((n,) + v.shape)
    upper = np.empty((n * (n - 1) // 2,) + v.shape, dtype=np.complex128)

    def entry(symbol, dest):
        # d^2/dx_a dx_b has symbol -(2 pi)^2 kappa_a kappa_b; with the 1/4 above, -pi^2.
        _irfftn(vhat * (-np.pi**2 * symbol), v.shape, out=dest)

    for j in range(n):
        xj, yj = kappa[2 * j], kappa[2 * j + 1]
        entry(xj * xj + yj * yj, diag[j])
    for p, (j, k) in enumerate(upper_pairs(n)):
        xj, yj, xk, yk = kappa[2 * j], kappa[2 * j + 1], kappa[2 * k], kappa[2 * k + 1]
        entry(xj * xk + yj * yk, upper[p].real)
        entry(xj * yk - yj * xk, upper[p].imag)
    return HermitianFormField._trusted(torus, diag, upper)


# A stencil slab holds about this many grid points (at least one row, since its
# halo rows are recomputed).  One glue smoothing step of a glue-n2-g32
# benchmark input (1,048,576 points, 2 CPUs), medians of 24 steps in two
# alternating passes, in ms: serial, slabs of 32,768 points 176 / 150, 65,536
# 170 / 136, 131,072 165 / 167, 262,144 219 / 174, the whole grid 206 / 209;
# on two threads 104 / 101, 88 / 74, 78 / 87, 91 / 107.
_STENCIL_SLAB_POINTS = 1 << 16


def _slab_bounds(rows: int, row_points: int) -> list[tuple[int, int]]:
    """Consecutive ``(lo, hi)`` ranges of ``rows`` rows along axis 0, about
    ``_STENCIL_SLAB_POINTS`` points each at ``row_points`` points per row."""
    step = max(1, _STENCIL_SLAB_POINTS // max(1, row_points))
    return [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _periodic_rows(values: np.ndarray, lo: int, hi: int, halo: int) -> tuple[np.ndarray, int]:
    """``(block, halo)``: rows ``lo - halo .. hi + halo`` of a periodic field
    along axis 0, or the whole field and halo 0 when axis 0 has stored length
    one (constant along it, so there is nothing to pad)."""
    if values.shape[0] == 1:
        return values, 0
    return np.take(values, np.arange(lo - halo, hi + halo), axis=0, mode="wrap"), halo


def _fd_first(take, h: float, order: int) -> np.ndarray:
    up1, dn1 = take(1), take(-1)
    if order == 2:
        return (up1 - dn1) / (2.0 * h)
    up2, dn2 = take(2), take(-2)
    return (-up2 + 8.0 * up1 - 8.0 * dn1 + dn2) / (12.0 * h)


def _fd_second(take, h: float, order: int) -> np.ndarray:
    up1, dn1 = take(1), take(-1)
    if order == 2:
        return (up1 - 2.0 * take(0) + dn1) / h**2
    up2, dn2 = take(2), take(-2)
    return (-up2 + 16.0 * up1 - 30.0 * take(0) + 16.0 * dn1 - dn2) / (12.0 * h**2)


def _fd_slab_hessian(block: np.ndarray, halo: int, h: float, order: int, n: int):
    """Finite-difference complex Hessian on the rows of ``block`` inside its halo.

    ``block`` is a :func:`_periodic_rows` block: rows ``lo - halo .. hi +
    halo`` of the field, or the whole field with ``halo = 0`` when axis 0 has
    stored length one.  Axis-0 stencils read the halo rows by slicing; the
    other axes are whole in the block and roll periodically.  Each first
    derivative a mixed entry starts from is taken once.  Returns ``(diag,
    upper)``: lists of the real diagonal planes and of the complex planes
    above the diagonal, in :func:`qposlab.smallmat.upper_pairs` order.
    Along an axis of stored length one every derivative is exactly zero.
    """
    rows = block.shape[0] - 2 * halo
    inner = block[halo : halo + rows]

    def derivative(stencil, axis, v=None):
        # along ``axis`` of the plane ``v``, or of the field itself when v is None
        if v is None:
            if axis == 0 and halo:
                return stencil(lambda s: block[halo + s : halo + s + rows], h, order)
            v = inner
        if v.shape[axis] == 1:
            return np.zeros_like(v)
        return stencil(lambda s: np.roll(v, -s, axis) if s else v, h, order)

    diag = [0.25 * (derivative(_fd_second, 2 * j) + derivative(_fd_second, 2 * j + 1)) for j in range(n)]
    first = [derivative(_fd_first, a) for a in range(2 * n - 2)]
    upper = []
    for j, k in upper_pairs(n):
        xj, yj, xk, yk = 2 * j, 2 * j + 1, 2 * k, 2 * k + 1
        dxx = derivative(_fd_first, xk, first[xj])
        dyy = derivative(_fd_first, yk, first[yj])
        dxy = derivative(_fd_first, yk, first[xj])
        dyx = derivative(_fd_first, xk, first[yj])
        upper.append(0.25 * ((dxx + dyy) + 1j * (dxy - dyx)))
    return diag, upper


def _fd_hessian_rows(phi: PotentialField, order: int):
    """Slab source of the finite-difference complex Hessian of ``phi``.

    ``rows(lo, hi)`` gives the ``(diag, upper)`` planes on rows ``lo:hi``
    along axis 0, from those rows and a periodic halo of ``order // 2`` rows
    (:func:`_periodic_rows`, :func:`_fd_slab_hessian`).  The order (2 or 4)
    is checked here; each slab checks that its rows are finite, which keeps
    the check's temporary the size of a slab.
    """
    if order not in (2, 4):
        raise ModelError(f"finite-difference order must be 2 or 4, got {order}")
    v = phi.values
    h = 1.0 / phi.torus.grid_size

    def rows(lo, hi):
        block, halo = _periodic_rows(v, lo, hi, order // 2)
        if not np.all(np.isfinite(block)):
            raise NumericsError("potential has non-finite values; cannot differentiate")
        return _fd_slab_hessian(block, halo, h, order, phi.torus.n)

    return rows


def fd_complex_hessian(phi: PotentialField, order: int = 2) -> HermitianFormField:
    """Periodic central-difference complex Hessian (order 2 or 4).

    Independent of the spectral path: mixed entries compose one-dimensional
    first-derivative stencils (which commute exactly, so Hermitian symmetry is
    structural), diagonal entries use the dedicated second-derivative stencil.
    A stencil touches at most two cells per axis, which callers use to keep
    evaluations away from masked regions.  The entries are written slab by
    slab from :func:`_fd_hessian_rows`, the source the glue certificates read
    without storing the Hessian; each is bitwise what whole-grid stencils give.
    """
    rows = _fd_hessian_rows(phi, order)
    v = phi.values
    n = phi.torus.n
    diag = np.empty((n,) + v.shape)
    upper = np.empty((n * (n - 1) // 2,) + v.shape, dtype=np.complex128)
    for lo, hi in _slab_bounds(v.shape[0], v[0].size):
        for dest, planes in zip((diag, upper), rows(lo, hi)):
            for p, plane in enumerate(planes):
                dest[p, lo:hi] = plane
    return HermitianFormField._trusted(phi.torus, diag, upper)


def poisson_solve(torus: TorusModel, rhs: np.ndarray) -> np.ndarray:
    """Mean-zero spectral solution of  d^2 phi / dz dz_bar = rhs  (n = 1).

    Used as the exact linear path of the Monge-Ampere solver in one complex
    dimension and as an independent oracle in tests.
    """
    if torus.n != 1:
        raise ModelError("poisson_solve is the n=1 path")
    rhs = np.asarray(rhs, dtype=np.float64)
    kx, ky = _half_spectrum_wavenumbers(torus, rhs.shape)
    rhat = _rfftn(rhs - np.mean(rhs))
    symbol = np.broadcast_to(-np.pi**2 * (kx * kx + ky * ky), rhat.shape)
    phihat = np.divide(rhat, symbol, out=np.zeros_like(rhat), where=symbol != 0)
    phi = _irfftn(phihat, rhs.shape)
    return phi - np.mean(phi)
