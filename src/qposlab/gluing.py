"""Gluing a singular potential to a smooth buffer with certified positivity.

The glue smooths the pointwise maximum ``max(phi_b - C, phi_s)`` of a smooth
buffer potential shifted down by a dyadic threshold ``C`` and a potential
``phi_s`` with logarithmic poles.  ``C`` is selected so the singular branch
wins outside a declared neighbourhood ``U_C`` of the poles, which caps the
singularity while leaving ``phi_s`` untouched far away.  The maximum itself
is never stored: the regions need only where the buffer branch wins,
``V_C = {phi_b - C > phi_s}``.

Certification splits the torus into three regions: outside ``U_C`` the
singular branch must dominate a declared Kahler lower bound (full
positivity), on the buffer-active region ``V_C`` and on the remainder
``U_C minus V_C`` the glued metric must keep ``n - q`` positive eigenvalues.
The final check differentiates the *smoothed* maximum (softmax at dyadic
epsilon, which sandwiches the true maximum within ``eps * log 2``) with
second-order finite differences, skipping the one-cell band where the active
branch switches; the smoothing weight retreats along a dyadic ladder until
every region that holds grid points certifies, and exhaustion raises with the
failing region and grid point attached.  A region without grid points never
passes: the report then carries it as failed, because nothing was checked
there.

Every certificate reads a stored potential slab by slab along axis 0: the
singular potential with its poles filled, or one smoothed potential, which
is computed once per ``eps`` on the whole grid and, when accepted, kept as
the result.  A slab of about 65,536 grid points (at least one row) takes the
Hessian of its rows from :func:`qposlab.calculus._fd_hessian_rows` (a
periodic halo of one row for the second-order stencils, two for the
fourth-order ones) as entry planes (the layout of every form field) and adds
the background's planes; the grid certificate of :mod:`qposlab.positivity`,
which ``certify`` shares, takes the eigenvalues and reduces each region to
its point count, minimum and first argmin.  Glue runs those slabs on the
thread pool of the spectral transforms, one worker per CPU in the affinity
mask and serially on one CPU.  Stencil and eigenvalue temporaries stay the
size of a slab (the buffer's spectral Hessian is still taken on the whole
grid), and every count, margin and worst point is bitwise what a whole-grid
evaluation gives.

All masks live in Chebyshev geometry: dilation by radius ``r`` is the
separable per-axis sweep, periodic across the torus seam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import (
    HermitianFormField,
    PotentialField,
    _as_form,
    _check_grid_values,
    complex_hessian,
    _fd_hessian_rows,
    _run_slabs,
)
from .errors import ModelError, PipelineFailure
from .geometry import TorusModel
from .positivity import RegionCertificate, _certify_regions

__all__ = [
    "dilate",
    "SingularPotential",
    "regularized_max",
    "select_threshold",
    "GlueResult",
    "RegionCertificate",
    "GlueReport",
    "zariski_fujita_pipeline",
]

# Exponents m of the dyadic thresholds C = 2**m that select_threshold tries, smallest first.
_THRESHOLD_EXPONENTS = range(-20, 65)

# The first smoothing scale the dyadic ladder tries; it halves down to eps_min.
_EPS_START = 1.0


def dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    """Chebyshev (box) dilation of a boolean grid mask, periodic per axis.

    Box dilation is separable, so each axis is swept independently: a point
    is set when its window of ``w = 2 radius + 1`` cells along the axis holds
    a set cell.  The axis is padded periodically once, and the window is the
    OR of two overlapping runs of the largest power-of-two length ``<= w``,
    built by doubling: about ``log2 w`` ORs of slices per axis.  Axes of
    stored length one are constant and stay constant.
    """
    if not isinstance(radius, int) or radius < 0:
        raise ModelError(f"dilation radius must be a nonnegative integer, got {radius!r}")
    out = np.asarray(mask, dtype=bool).copy()
    window = 2 * radius + 1
    for axis in range(out.ndim):
        size = out.shape[axis]
        if size == 1 or radius == 0:
            continue

        def cells(lo, hi):
            return (slice(None),) * axis + (slice(lo, hi),)

        # run[i] is the OR of cells i - radius .. i - radius + span - 1
        run = np.take(out, np.arange(-radius, size + radius) % size, axis=axis)
        span = 1
        while 2 * span <= window:
            run = run[cells(0, -span)] | run[cells(span, None)]
            span *= 2
        out = run[cells(0, size)] | run[cells(window - span, window - span + size)]
    return out


@dataclass(frozen=True)
class SingularPotential:
    """Potential with logarithmic poles, stored as ``-inf`` at the pole cells.

    ``pole_mask`` defaults to the non-finite cells; when given it must cover
    them.  ``lower_bound`` declares the Kahler constant ``omega_0`` the
    potential's curvature is claimed to dominate away from the poles.
    """

    torus: TorusModel
    values: np.ndarray
    pole_mask: np.ndarray | None = None
    lower_bound: float = 0.0

    def __post_init__(self):
        v = _check_grid_values(self.torus, np.asarray(self.values, dtype=np.float64), "singular potential")
        nonfinite = ~np.isfinite(v)
        if np.any(nonfinite & ~(v == -np.inf)):
            raise ModelError("singular potential may contain -inf poles only; found nan or +inf")
        if self.pole_mask is None:
            mask = nonfinite
        else:
            mask = np.asarray(self.pole_mask, dtype=bool)
            if mask.shape != v.shape:
                raise ModelError(
                    f"pole mask shape {mask.shape} must match the value shape {v.shape}"
                )
            if np.any(nonfinite & ~mask):
                raise ModelError("every -inf cell must be inside the declared pole mask")
        if not np.any(mask):
            raise ModelError("pole mask is empty; use a plain potential field instead")
        if not 0 <= self.lower_bound < math.inf:
            raise ModelError(f"declared lower bound must be finite and nonnegative, got {self.lower_bound}")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "pole_mask", mask)

    def finite_values(self) -> np.ndarray:
        """Values with pole cells set to zero; stencils wider than the pole band
        never read the replaced cells, so any finite fill works."""
        return np.where(self.pole_mask, 0.0, self.values)


def regularized_max(u: np.ndarray, v: np.ndarray, eps: float) -> np.ndarray:
    """Softmax smoothing of the pointwise maximum at scale ``eps``.

    Sandwich: ``max(u, v) <= result <= max(u, v) + eps * log 2``, with exact
    equality of the lower bound where one branch is ``-inf``.
    """
    if eps <= 0:
        raise ModelError(f"smoothing scale must be positive, got {eps}")
    u, v = np.asarray(u), np.asarray(v)
    # u/eps, the logaddexp and the product share one plane of the broadcast shape
    out = np.divide(u, eps, out=np.empty(np.broadcast_shapes(u.shape, v.shape)))
    np.logaddexp(out, v / eps, out=out)
    return np.multiply(out, eps, out=out)


def select_threshold(phi_b: PotentialField, singular: SingularPotential, region_u: np.ndarray) -> float:
    """Smallest dyadic ``C = 2**m`` with ``phi_b - phi_s < C`` outside ``region_u``.

    Keeping ``C`` minimal keeps the capped region as large as possible, which
    is what pushes the buffer branch over the steep part of the pole.
    Precondition: the poles, dilated by two cells, must sit inside
    ``region_u`` (finite-difference stencils must never straddle a pole from
    outside).
    """
    mask_u = np.asarray(region_u, dtype=bool)
    pole2, mask_b = np.broadcast_arrays(dilate(singular.pole_mask, 2), mask_u)
    if np.any(pole2 & ~mask_b):
        raise ModelError("region_u must contain the pole mask dilated by two cells")
    diff = phi_b.values - singular.values
    diff, mask = np.broadcast_arrays(diff, mask_u)
    outside = ~mask
    if not np.any(outside):
        raise ModelError("region_u covers the whole grid; nothing to glue against")
    sup = float(np.max(np.where(outside, diff, -np.inf)))
    for m in _THRESHOLD_EXPONENTS:
        c = 2.0**m
        if sup < c:
            return c
    raise ModelError(f"no dyadic threshold up to 2**{_THRESHOLD_EXPONENTS[-1]} dominates the gap {sup:.3e}")


@dataclass(frozen=True)
class GlueResult:
    """The accepted smoothed glue at scale ``smoothing_eps``, with the threshold and the masks that justified it."""

    psi: PotentialField
    threshold: float
    region_u: np.ndarray
    region_v: np.ndarray
    smoothing_eps: float


@dataclass(frozen=True)
class GlueReport:
    """Successful glue run: declarations, threshold, smoothing, region margins.

    ``smoothing`` holds one ``(eps, certificates)`` pair per smoothing scale
    tried, the accepted one last; ``switching_band_points`` counts the grid
    points of the excluded band where the active branch switches.
    """

    result: GlueResult
    declarations: dict
    certificates: tuple[RegionCertificate, ...]
    q: int
    smoothing: tuple = ()
    switching_band_points: int = 0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.certificates)


def _certify_glue_regions(
    hessian_rows, field_shape, background: HermitianFormField, regions, shift: float = 0.0
) -> tuple[RegionCertificate, ...]:
    """Certificates of the margins ``eigvalsh(background + H)[index] - shift``, on the slab pool.

    ``regions`` holds ``(name, mask, index, margin)``; ``hessian_rows(lo, hi)``
    gives the Hessian planes on rows ``lo:hi`` of ``field_shape``
    (:func:`qposlab.calculus._fd_hessian_rows`, :meth:`HermitianFormField.rows`), and each slab
    adds the background planes before :func:`qposlab.positivity._certify_regions`
    takes its eigenvalues.  The slabs run on the pool, whose speed-up is
    measured beside :data:`qposlab.calculus._STENCIL_SLAB_POINTS`.
    """

    def planes_rows(lo, hi):
        diag, upper = hessian_rows(lo, hi)
        bg_diag, bg_upper = background.rows(lo, hi)
        return [b + h for b, h in zip(bg_diag, diag)], [b + h for b, h in zip(bg_upper, upper)]

    def margin_of(index):
        return lambda lam: lam[index] - shift if shift else lam[index]

    return _certify_regions(
        planes_rows,
        np.broadcast_shapes(field_shape, background.diag.shape[1:]),
        [(name, mask, margin_of(index), margin) for name, mask, index, margin in regions],
        _run_slabs,
    )


def zariski_fujita_pipeline(
    background,
    phi_b: PotentialField,
    singular: SingularPotential,
    q: int = 0,
    pole_band: int = 4,
    eps_min: float = 2.0**-20,
    tol: float = 1e-9,
    margin: float = 0.0,
) -> GlueReport:
    """Glue, smooth, and certify ``max(phi_b - C, phi_s)`` region by region.

    Stages:

    1.  Declaration (a): ``H + Hess(phi_s)`` dominates the declared lower
        bound outside ``U_C = dilate(poles, pole_band)``; fourth-order
        stencils stay clear of the poles because their reach is two cells.
    2.  Declaration (b): the buffer metric ``H + Hess(phi_b)`` keeps
        ``n - q`` positive eigenvalues on a one-cell enlargement of ``U_C``.
    3.  Threshold selection, and the buffer-active region ``V_C`` where
        ``phi_b - C > phi_s``.
    4.  Dyadic smoothing sweep from 1 down to ``eps_min``: the
        first ``eps`` whose smoothed glue certifies on every region that
        holds grid points (band excluded) wins.

    Every stage certifies a stored potential slab by slab
    (:func:`_certify_glue_regions`): the finite-difference stencils and the
    eigenvalues run on slabs of rows.  Each smoothed potential is computed
    once, on the whole grid, and the accepted one is the result's ``psi``.
    The spectral Hessian of declaration (b) is taken whole, before its slabs.

    Any failed stage raises :class:`PipelineFailure` naming the region and
    the worst grid point.  A returned report is a success end to end exactly
    when ``report.passed``; otherwise a region held no grid points.
    """
    torus = singular.torus
    n = torus.n
    if not 0 <= q < n:
        raise ModelError(f"q must be in 0..{n - 1}, got {q}")
    if not 0 < eps_min <= _EPS_START:
        raise ModelError(f"smoothing needs 0 < eps_min <= {_EPS_START}, got eps_min={eps_min}")
    background = _as_form(background, torus)
    if phi_b.torus != torus:
        raise ModelError("buffer and singular potential must share one torus model")

    pole = singular.pole_mask
    u_c = dilate(pole, pole_band)
    if np.all(u_c):
        raise ModelError("region_u covers the whole grid; nothing to glue against")

    # declaration (a): singular branch beats the lower bound away from poles
    phi_s = PotentialField(torus, singular.finite_values())
    (cert_a,) = _certify_glue_regions(
        _fd_hessian_rows(phi_s, 4),
        phi_s.values.shape,
        background,
        [("outside U_C (declaration)", ~u_c, 0, -tol)],
        shift=singular.lower_bound,
    )
    if not cert_a.passed:
        raise PipelineFailure(
            f"singular potential misses its declared lower bound by {-cert_a.min_margin:.3e} "
            f"at {cert_a.worst_point}",
            region="outside U_C",
            worst_point=cert_a.worst_point,
        )

    # declaration (b): buffer metric is q-positive where it may take over
    (cert_b,) = _certify_glue_regions(
        complex_hessian(phi_b).rows,
        phi_b.values.shape,
        background,
        [("buffer (declaration)", dilate(pole, pole_band + 1), q, margin)],
    )
    if not cert_b.passed:
        raise PipelineFailure(
            f"buffer metric is not q-positive near the poles "
            f"(margin {cert_b.min_margin:.3e} at {cert_b.worst_point})",
            region="buffer",
            worst_point=cert_b.worst_point,
        )

    threshold = select_threshold(phi_b, singular, u_c)
    # select_threshold puts the gap phi_b - phi_s below C outside U_C, so the
    # buffer branch wins (region_v) inside U_C only.
    shifted = phi_b.values - threshold
    region_v = shifted > singular.values
    u_c_b, v_b = np.broadcast_arrays(u_c, region_v)
    band = dilate(v_b, 1) & dilate(~v_b, 1)
    region_defs = (
        ("outside U_C", ~u_c_b & ~band, 0, margin),
        ("V_C", v_b & ~band, q, margin),
        ("U_C minus V_C", u_c_b & ~v_b & ~band, q, margin),
    )

    eps = _EPS_START
    ladder = []
    while eps >= eps_min * (1.0 - 1e-12):
        psi_eps = PotentialField(torus, regularized_max(shifted, singular.values, eps))
        certs = _certify_glue_regions(_fd_hessian_rows(psi_eps, 2), psi_eps.values.shape, background, region_defs)
        ladder.append((eps, certs))
        if all(c.passed or c.n_points == 0 for c in certs):
            return GlueReport(
                result=GlueResult(psi_eps, threshold, region_u=u_c, region_v=region_v, smoothing_eps=eps),
                declarations={
                    "outside_margin": cert_a.min_margin,
                    "buffer_margin": cert_b.min_margin,
                    "threshold": threshold,
                },
                certificates=certs,
                q=q,
                smoothing=tuple(ladder),
                switching_band_points=int(np.count_nonzero(band)),
            )
        eps *= 0.5
    failing = next(c for c in ladder[-1][1] if not c.passed and c.n_points > 0)
    raise PipelineFailure(
        f"smoothing sweep exhausted at eps >= {eps_min:.3e}; region '{failing.name}' "
        f"stuck at margin {failing.min_margin:.3e}",
        region=failing.name,
        worst_point=failing.worst_point,
    )
