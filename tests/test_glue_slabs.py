"""Slab-by-slab glue certificates against whole-grid references kept here.

The references are the whole-grid forms of the computations: periodic
``np.roll`` stencils for the finite-difference Hessian, ``background + H`` as
whole-grid entry planes, ``smallmat.eigvalsh`` on them, and one masked argmin
per region.  Every comparison is bit for bit.
"""

import math

import numpy as np
import pytest

from qposlab import HermitianFormField, NumericsError, PotentialField, TorusModel, calculus, smallmat
from qposlab.calculus import _fd_hessian_rows, complex_hessian, fd_complex_hessian
from qposlab.gluing import RegionCertificate, SingularPotential, _certify_glue_regions, zariski_fujita_pipeline


def roll_first(v, axis, h, order):
    if v.shape[axis] == 1:
        return np.zeros_like(v)
    up1, dn1 = np.roll(v, -1, axis), np.roll(v, 1, axis)
    if order == 2:
        return (up1 - dn1) / (2.0 * h)
    up2, dn2 = np.roll(v, -2, axis), np.roll(v, 2, axis)
    return (-up2 + 8.0 * up1 - 8.0 * dn1 + dn2) / (12.0 * h)


def roll_second(v, axis, h, order):
    if v.shape[axis] == 1:
        return np.zeros_like(v)
    up1, dn1 = np.roll(v, -1, axis), np.roll(v, 1, axis)
    if order == 2:
        return (up1 - 2.0 * v + dn1) / h**2
    up2, dn2 = np.roll(v, -2, axis), np.roll(v, 2, axis)
    return (-up2 + 16.0 * up1 - 30.0 * v + 16.0 * dn1 - dn2) / (12.0 * h**2)


def roll_fd_hessian(v, n, h, order):
    """``(diag, upper)`` planes of the whole-grid finite-difference Hessian."""
    diag = [0.25 * (roll_second(v, 2 * j, h, order) + roll_second(v, 2 * j + 1, h, order)) for j in range(n)]
    upper = []
    for j, k in smallmat.upper_pairs(n):
        xj, yj, xk, yk = 2 * j, 2 * j + 1, 2 * k, 2 * k + 1
        dxx = roll_first(roll_first(v, xj, h, order), xk, h, order)
        dyy = roll_first(roll_first(v, yj, h, order), yk, h, order)
        dxy = roll_first(roll_first(v, xj, h, order), yk, h, order)
        dyx = roll_first(roll_first(v, yj, h, order), xk, h, order)
        upper.append(0.25 * ((dxx + dyy) + 1j * (dxy - dyx)))
    return diag, upper


def masked_certificate(name, margin_field, mask, margin):
    vals, msk = np.broadcast_arrays(margin_field, mask)
    n_points = int(np.count_nonzero(msk))
    if n_points == 0:
        return RegionCertificate(name=name, n_points=0, min_margin=math.inf, passed=False, worst_point=None)
    masked = np.where(msk, vals, np.inf)
    flat = int(np.argmin(masked))
    worst = tuple(int(i) for i in np.unravel_index(flat, masked.shape))
    low = float(masked.reshape(-1)[flat])
    return RegionCertificate(name=name, n_points=n_points, min_margin=low, passed=bool(low > margin), worst_point=worst)


def whole_grid_eigvalsh(hessian, background):
    """Eigenvalue planes of ``background + H``, ``H`` given as ``(diag, upper)`` planes."""
    diag, upper = hessian
    return smallmat.eigvalsh(
        [b + h for b, h in zip(background.diag, diag)], [b + h for b, h in zip(background.upper, upper)]
    )


def reference(hessian, background, regions, shift=0.0):
    eig = whole_grid_eigvalsh(hessian, background)
    return tuple(
        masked_certificate(name, eig[index] - shift, mask, margin) for name, mask, index, margin in regions
    )


def bits(certs):
    return [(c.name, c.n_points, float(c.min_margin).hex(), c.passed, c.worst_point) for c in certs]


@pytest.fixture(params=[1, 2, 3], ids=["1-worker", "2-workers", "3-workers"])
def workers(request, monkeypatch):
    """Run slabs on a fresh pool of that many workers (serially for one)."""
    monkeypatch.setattr(calculus, "fft_workers", lambda: request.param)
    monkeypatch.setattr(calculus, "_pool", None)
    yield request.param
    if request.param == 1:
        assert calculus._pool is None
    elif calculus._pool is not None:
        calculus._pool.shutdown()


def slab_rows(monkeypatch, shape, rows):
    """Make every slab ``rows`` rows of a field of stored ``shape``."""
    monkeypatch.setattr(calculus, "_STENCIL_SLAB_POINTS", rows * math.prod(shape[1:]))


def random_hermitian(rng, n, shape=()):
    z = rng.normal(size=shape + (n, n)) + 1j * rng.normal(size=shape + (n, n))
    return 0.5 * (z + np.conj(np.swapaxes(z, -1, -2))) + 2 * n * np.eye(n)


def fd_source(torus, values, order):
    return _fd_hessian_rows(PotentialField(torus, values), order)


# (n, grid, stored shape): axis 0 of 8 is cut unevenly by 3-row slabs, and
# length-one axes take the exact-zero derivative path.
SHAPES = [
    (1, 8, (8, 8)),
    (1, 8, (8, 1)),
    (1, 8, (1, 8)),
    (2, 8, (8, 8, 8, 8)),
    (2, 8, (8, 1, 8, 8)),
    (2, 8, (1, 8, 8, 1)),
    (2, 8, (1, 1, 1, 1)),
    (3, 8, (8, 1, 8, 8, 1, 8)),
    (3, 8, (1, 8, 1, 8, 8, 1)),
]


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("rows", [1, 3, 5])
@pytest.mark.parametrize("n,grid,shape", SHAPES)
def test_fd_complex_hessian_is_bitwise_the_roll_stencils(monkeypatch, n, grid, shape, rows, order):
    slab_rows(monkeypatch, shape, rows)
    torus = TorusModel(n, grid)
    v = np.random.default_rng(sum(shape) + rows).normal(size=shape)
    got = fd_complex_hessian(PotentialField(torus, v), order=order)
    diag, upper = roll_fd_hessian(v, n, 1.0 / grid, order)
    assert got.diag.shape == (n,) + shape and got.upper.shape == (n * (n - 1) // 2,) + shape
    assert got.diag.tobytes() == np.stack(diag).tobytes()
    assert got.upper.tobytes() == np.array(upper, dtype=np.complex128).reshape(got.upper.shape).tobytes()


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("n,grid,shape", SHAPES)
def test_fd_regions_are_bitwise_the_whole_grid(monkeypatch, workers, n, grid, shape, order):
    slab_rows(monkeypatch, shape, 3)
    torus = TorusModel(n, grid)
    rng = np.random.default_rng(len(shape) * 31 + sum(shape))
    v = rng.normal(size=shape)
    background = HermitianFormField.from_constant(torus, random_hermitian(rng, n))
    full = np.broadcast_shapes(shape, (grid,) + (1,) * (len(shape) - 1))
    some_rows = np.zeros(full, dtype=bool)
    some_rows[:1] = rng.random(full[1:]) < 0.5  # empty in every slab but the first
    regions = [
        ("random", rng.random(full) < 0.5, 0, 0.0),
        ("first rows", some_rows, n - 1, 0.0),
        ("empty", np.zeros(full, dtype=bool), 0, 0.0),
    ]
    for shift in (0.0, 0.3):
        got = _certify_glue_regions(fd_source(torus, v, order), shape, background, regions, shift)
        want = reference(roll_fd_hessian(v, n, 1.0 / grid, order), background, regions, shift)
        assert bits(got) == bits(want)
    assert got[2].n_points == 0 and not got[2].passed


def test_background_varying_along_axis_zero(monkeypatch, workers):
    torus, shape = TorusModel(2, 8), (1, 8, 8, 8)
    slab_rows(monkeypatch, (8, 8, 8, 8), 3)
    rng = np.random.default_rng(9)
    v = rng.normal(size=shape)
    background = HermitianFormField(torus, random_hermitian(rng, 2, (8, 1, 1, 1)))
    regions = [("all", np.ones((8, 8, 8, 8), dtype=bool), 0, 0.0)]
    got = _certify_glue_regions(fd_source(torus, v, 2), shape, background, regions)
    want = reference(roll_fd_hessian(v, 2, 1.0 / 8, 2), background, regions)
    assert bits(got) == bits(want)


def test_equal_minima_in_two_slabs_first_wins(monkeypatch, workers):
    torus = TorusModel(1, 8)
    base = np.random.default_rng(4).normal(size=(4, 8))
    v = np.concatenate([base, base])  # period four rows: every margin repeats four rows on
    slab_rows(monkeypatch, v.shape, 3)  # slabs [0, 3), [3, 6), [6, 8): copies sit in different slabs
    background = HermitianFormField.from_constant(torus, np.eye(1))
    regions = [("all", np.ones(v.shape, dtype=bool), 0, 0.0)]
    got = _certify_glue_regions(fd_source(torus, v, 2), v.shape, background, regions)
    want = reference(roll_fd_hessian(v, 1, 1.0 / 8, 2), background, regions)
    assert bits(got) == bits(want)
    row, col = got[0].worst_point
    assert row < 4
    margins = whole_grid_eigvalsh(roll_fd_hessian(v, 1, 1.0 / 8, 2), background)[0]
    assert margins[row + 4, col] == got[0].min_margin  # the tie is real


def test_near_zero_guard_falls_back_inside_a_slab(monkeypatch, workers):
    torus, shape = TorusModel(2, 8), (8, 8, 8, 8)
    slab_rows(monkeypatch, shape, 3)
    v = np.zeros(shape)
    v[:2] = np.random.default_rng(6).normal(size=(2, 8, 8, 8))  # H = 0 on rows 3 to 6
    background = HermitianFormField.from_constant(torus, np.diag([1.0, 0.0]))  # eigenvalue 0 there
    regions = [("all", np.ones(shape, dtype=bool), 0, -1.0), ("top", np.ones(shape, dtype=bool), 1, 0.0)]
    want = reference(roll_fd_hessian(v, 2, 1.0 / 8, 2), background, regions)
    reference_eigvalsh = np.linalg.eigvalsh
    batches = []

    def counting(m):
        batches.append(m.shape[0])
        return reference_eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    got = _certify_glue_regions(fd_source(torus, v, 2), shape, background, regions)
    assert sum(batches) >= 4 * 8**3
    assert bits(got) == bits(want)


def test_spectral_source_with_a_constant_buffer(monkeypatch, workers):
    # the worked example's (1, 1) buffer against a full-grid declaration mask
    torus = TorusModel(1, 64)
    form = complex_hessian(PotentialField(torus, np.zeros((1, 1))))
    assert form.diag.shape == (1, 1, 1) and form.upper.shape == (0, 1, 1)
    slab_rows(monkeypatch, (64, 64), 5)
    mask = np.zeros((64, 64), dtype=bool)
    mask[28:37, 28:37] = True
    background = HermitianFormField.from_constant(torus, np.eye(1))
    regions = [("buffer", mask, 0, 0.0)]
    got = _certify_glue_regions(form.rows, form.diag.shape[1:], background, regions)
    assert bits(got) == bits(reference((form.diag, form.upper), background, regions))
    assert got[0].n_points == 81 and got[0].worst_point == (28, 28)


@pytest.mark.parametrize("n,grid,shape", [s for s in SHAPES if s[0] > 1])
def test_spectral_source_is_bitwise_the_whole_grid(monkeypatch, workers, n, grid, shape):
    torus = TorusModel(n, grid)
    rng = np.random.default_rng(sum(shape) + 5)
    form = complex_hessian(PotentialField(torus, rng.normal(size=shape)))
    slab_rows(monkeypatch, shape, 3)
    background = HermitianFormField.from_constant(torus, random_hermitian(rng, n))
    regions = [("random", rng.random(shape) < 0.7, n - 1, 0.0)]
    got = _certify_glue_regions(form.rows, shape, background, regions)
    assert bits(got) == bits(reference((form.diag, form.upper), background, regions))


def test_nan_margin_wins_like_argmin(monkeypatch, workers):
    # np.argmin takes the first nan for the minimum, even after a smaller number
    torus, shape = TorusModel(2, 8), (8, 8, 8, 8)
    rng = np.random.default_rng(8)
    values = random_hermitian(rng, 2, shape)
    values[0, 1, 2, 3] = np.diag([-5.0, 1.0])
    values[7, 0, 0, 1, 0, 0] = np.nan
    # the constructor refuses a nan entry; a Hessian of overflowing values can hold one
    form = HermitianFormField._trusted(torus, np.moveaxis(values[..., [0, 1], [0, 1]].real, -1, 0), values[None, ..., 0, 1])
    slab_rows(monkeypatch, shape, 3)
    background = HermitianFormField.from_constant(torus, np.eye(2))
    regions = [("all", np.ones(shape, dtype=bool), 0, 0.0)]
    got = _certify_glue_regions(form.rows, shape, background, regions)
    assert bits(got) == bits(reference((form.diag, form.upper), background, regions))
    assert got[0].worst_point == (7, 0, 0, 1) and math.isnan(got[0].min_margin)


def test_non_finite_values_raise(monkeypatch, workers):
    torus, shape = TorusModel(1, 8), (8, 8)
    slab_rows(monkeypatch, shape, 3)
    v = np.zeros(shape)
    v[5, 3] = np.inf
    background = HermitianFormField.from_constant(torus, np.eye(1))
    with pytest.raises(NumericsError, match="non-finite"):
        _certify_glue_regions(fd_source(torus, v, 2), shape, background, [("all", np.ones(shape, dtype=bool), 0, 0.0)])


def test_pool_runs_one_task_per_slab(monkeypatch):
    monkeypatch.setattr(calculus, "fft_workers", lambda: 2)
    monkeypatch.setattr(calculus, "_pool", None)
    torus, shape = TorusModel(2, 8), (8, 8, 8, 8)
    slab_rows(monkeypatch, shape, 3)
    pool = calculus._slab_pool()
    submitted = []
    submit = pool.submit
    monkeypatch.setattr(pool, "submit", lambda fn, *a: submitted.append(a) or submit(fn, *a))
    try:
        background = HermitianFormField.from_constant(torus, np.eye(2))
        v = np.random.default_rng(2).normal(size=shape)
        _certify_glue_regions(fd_source(torus, v, 2), shape, background, [("all", np.ones(shape, dtype=bool), 0, 0.0)])
        assert submitted == [((0, 3),), ((3, 6),), ((6, 8),)]
    finally:
        pool.shutdown()


def worked_example():
    t = TorusModel(1, 64)
    x, y = t.real_coordinates()
    q = np.sin(np.pi * (x - 0.5)) ** 2 + np.sin(np.pi * (y - 0.5)) ** 2
    with np.errstate(divide="ignore"):
        sing = SingularPotential(t, 0.025 * np.log(q), lower_bound=0.5)
    return t, sing


@pytest.mark.parametrize("rows", [1, 3, 64])
def test_pipeline_report_does_not_depend_on_slabs(monkeypatch, workers, rows):
    t, sing = worked_example()
    phi_b = PotentialField(t, np.zeros((1, 1)))
    slab_rows(monkeypatch, (64, 64), rows)
    report = zariski_fujita_pipeline(np.eye(1), phi_b, sing, margin=0.85)
    monkeypatch.setattr(calculus, "_STENCIL_SLAB_POINTS", 1 << 30)
    whole = zariski_fujita_pipeline(np.eye(1), phi_b, sing, margin=0.85)
    assert bits(report.certificates) == bits(whole.certificates)
    assert report.declarations == whole.declarations
    assert [(e, bits(c)) for e, c in report.smoothing] == [(e, bits(c)) for e, c in whole.smoothing]
    assert report.result.psi.values.tobytes() == whole.result.psi.values.tobytes()
