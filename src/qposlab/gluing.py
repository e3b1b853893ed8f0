"""Gluing a singular potential to a smooth buffer with certified positivity.

The glue is the pointwise maximum ``psi = max(phi_b - C, phi_s)`` of a smooth
buffer potential shifted down by a dyadic threshold ``C`` and a potential
``phi_s`` with logarithmic poles.  ``C`` is selected so the singular branch
wins outside a declared neighbourhood ``U_C`` of the poles, which caps the
singularity while leaving ``phi_s`` untouched far away.

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

All masks live in Chebyshev geometry: dilation by radius ``r`` is the
separable per-axis sweep, periodic across the torus seam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import smallmat
from .calculus import HermitianFormField, PotentialField, _check_grid_values, complex_hessian, fd_complex_hessian
from .errors import ModelError, PipelineFailure
from .geometry import ConstantHermitianClass, TorusModel

__all__ = [
    "dilate",
    "SingularPotential",
    "regularized_max",
    "select_threshold",
    "GlueResult",
    "glue_max",
    "RegionCertificate",
    "GlueReport",
    "zariski_fujita_pipeline",
]


def dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    """Chebyshev (box) dilation of a boolean grid mask, periodic per axis.

    Box dilation is separable, so each axis is swept independently; axes of
    stored length one are constant and stay constant.
    """
    if not isinstance(radius, int) or radius < 0:
        raise ModelError(f"dilation radius must be a nonnegative integer, got {radius!r}")
    out = np.asarray(mask, dtype=bool).copy()
    for axis in range(out.ndim):
        if out.shape[axis] == 1:
            continue
        acc = out.copy()
        for r in range(1, radius + 1):
            acc |= np.roll(out, r, axis)
            acc |= np.roll(out, -r, axis)
        out = acc
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
        if self.lower_bound < 0:
            raise ModelError(f"declared lower bound must be nonnegative, got {self.lower_bound}")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "pole_mask", mask)

    def finite_values(self, fill: float = 0.0) -> np.ndarray:
        """Values with pole cells replaced; stencils wider than the pole band
        never read the replaced cells, so any finite fill works."""
        return np.where(self.pole_mask, fill, self.values)


def regularized_max(u: np.ndarray, v: np.ndarray, eps: float) -> np.ndarray:
    """Softmax smoothing of the pointwise maximum at scale ``eps``.

    Sandwich: ``max(u, v) <= result <= max(u, v) + eps * log 2``, with exact
    equality of the lower bound where one branch is ``-inf``.
    """
    if eps <= 0:
        raise ModelError(f"smoothing scale must be positive, got {eps}")
    return eps * np.logaddexp(np.asarray(u) / eps, np.asarray(v) / eps)


def select_threshold(
    phi_b: PotentialField,
    singular: SingularPotential,
    region_u: np.ndarray,
    m_lo: int = -20,
    m_hi: int = 64,
) -> float:
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
    for m in range(m_lo, m_hi + 1):
        c = 2.0**m
        if sup < c:
            return c
    raise ModelError(f"no dyadic threshold up to 2**{m_hi} dominates the gap {sup:.3e}")


@dataclass(frozen=True)
class GlueResult:
    """Glued potential with the masks that justified it."""

    psi: PotentialField
    threshold: float
    region_u: np.ndarray
    region_v: np.ndarray
    smoothing_eps: float | None = None


def glue_max(
    phi_b: PotentialField,
    threshold: float,
    singular: SingularPotential,
    region_u: np.ndarray | None = None,
) -> GlueResult:
    """Pointwise maximum glue ``max(phi_b - C, phi_s)``.

    ``region_v`` records where the buffer branch is strictly active; the pole
    cells always belong to it, so the result is finite everywhere.
    """
    if phi_b.torus != singular.torus:
        raise ModelError("buffer and singular potential live on different torus models")
    if threshold <= 0:
        raise ModelError(f"threshold must be positive, got {threshold}")
    shifted = phi_b.values - threshold
    psi_vals = np.maximum(shifted, singular.values)
    region_v = shifted > singular.values
    if region_u is None:
        region_u = dilate(singular.pole_mask, 2)
    region_u = np.asarray(region_u, dtype=bool)
    v_bc, u_bc = np.broadcast_arrays(region_v, region_u)
    if np.any(v_bc & ~u_bc):
        raise ModelError("buffer branch active outside region_u; threshold too small for this region")
    return GlueResult(
        psi=PotentialField(singular.torus, psi_vals),
        threshold=float(threshold),
        region_u=region_u,
        region_v=region_v,
    )


@dataclass(frozen=True)
class RegionCertificate:
    """Eigenvalue margin of one region, switching band excluded.

    A region with no grid points has ``min_margin = inf`` and does not pass.
    """

    name: str
    n_points: int
    min_margin: float
    passed: bool
    worst_point: tuple | None


@dataclass(frozen=True)
class GlueReport:
    """Successful glue run: declarations, threshold, smoothing, region margins."""

    result: GlueResult
    declarations: dict
    certificates: tuple[RegionCertificate, ...]
    q: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.certificates)


def _masked_certificate(name: str, margin_field: np.ndarray, mask: np.ndarray, margin: float) -> RegionCertificate:
    vals, msk = np.broadcast_arrays(margin_field, mask)
    n_points = int(np.count_nonzero(msk))
    if n_points == 0:
        return RegionCertificate(name=name, n_points=0, min_margin=math.inf, passed=False, worst_point=None)
    masked = np.where(msk, vals, np.inf)
    flat = int(np.argmin(masked))
    worst = tuple(int(i) for i in np.unravel_index(flat, masked.shape))
    min_margin = float(masked.reshape(-1)[flat])
    return RegionCertificate(
        name=name,
        n_points=n_points,
        min_margin=min_margin,
        passed=bool(min_margin > margin),
        worst_point=worst,
    )


def _ascending_margins(form: HermitianFormField, index: int) -> np.ndarray:
    return smallmat.eigvalsh(form.values)[..., index]


def zariski_fujita_pipeline(
    background,
    phi_b: PotentialField,
    singular: SingularPotential,
    q: int = 0,
    pole_band: int = 4,
    eps_start: float = 1.0,
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
    3.  Threshold selection and the raw maximum glue.
    4.  Dyadic smoothing sweep: the first ``eps`` whose smoothed glue
        certifies on every region that holds grid points (band excluded)
        wins.

    Any failed stage raises :class:`PipelineFailure` naming the region and
    the worst grid point.  A returned report is a success end to end exactly
    when ``report.passed``; otherwise a region held no grid points.
    """
    torus = singular.torus
    n = torus.n
    if not 0 <= q < n:
        raise ModelError(f"q must be in 0..{n - 1}, got {q}")
    if not isinstance(background, HermitianFormField):
        mat = background.matrix if isinstance(background, ConstantHermitianClass) else background
        background = HermitianFormField.from_constant(torus, mat)
    if phi_b.torus != torus or background.torus != torus:
        raise ModelError("background, buffer, and singular potential must share one torus model")

    pole = singular.pole_mask
    u_c = dilate(pole, pole_band)
    if np.all(u_c):
        raise ModelError("region_u covers the whole grid; nothing to glue against")

    # declaration (a): singular branch beats the lower bound away from poles
    phi_s_finite = PotentialField(torus, singular.finite_values())
    a_form = background + fd_complex_hessian(phi_s_finite, order=4)
    a_margins = _ascending_margins(a_form, 0) - singular.lower_bound
    cert_a = _masked_certificate("outside U_C (declaration)", a_margins, ~u_c, -tol)
    if not cert_a.passed:
        raise PipelineFailure(
            f"singular potential misses its declared lower bound by {-cert_a.min_margin:.3e} "
            f"at {cert_a.worst_point}",
            region="outside U_C",
            worst_point=cert_a.worst_point,
        )

    # declaration (b): buffer metric is q-positive where it may take over
    b_form = background + complex_hessian(phi_b)
    b_margins = _ascending_margins(b_form, q)
    cert_b = _masked_certificate("buffer (declaration)", b_margins, dilate(pole, pole_band + 1), margin)
    if not cert_b.passed:
        raise PipelineFailure(
            f"buffer metric is not q-positive near the poles "
            f"(margin {cert_b.min_margin:.3e} at {cert_b.worst_point})",
            region="buffer",
            worst_point=cert_b.worst_point,
        )

    threshold = select_threshold(phi_b, singular, u_c)
    raw = glue_max(phi_b, threshold, singular, u_c)
    u_c_b, v_b = np.broadcast_arrays(u_c, raw.region_v)
    band = dilate(v_b, 1) & dilate(~v_b, 1)
    region_defs = (
        ("outside U_C", ~u_c_b & ~band, 0),
        ("V_C", v_b & ~band, q),
        ("U_C minus V_C", u_c_b & ~v_b & ~band, q),
    )

    eps = float(eps_start)
    last_certs = None
    while eps >= eps_min * (1.0 - 1e-12):
        psi_eps = PotentialField(
            torus, regularized_max(phi_b.values - threshold, singular.values, eps)
        )
        evolved = background + fd_complex_hessian(psi_eps, order=2)
        ascending = smallmat.eigvalsh(evolved.values)
        certs = tuple(
            _masked_certificate(name, ascending[..., idx], mask, margin)
            for name, mask, idx in region_defs
        )
        if all(c.passed or c.n_points == 0 for c in certs):
            return GlueReport(
                result=replace(raw, psi=psi_eps, smoothing_eps=eps),
                declarations={
                    "outside_margin": cert_a.min_margin,
                    "buffer_margin": cert_b.min_margin,
                    "threshold": threshold,
                },
                certificates=certs,
                q=q,
            )
        last_certs = certs
        eps *= 0.5
    failing = next(c for c in last_certs if not c.passed and c.n_points > 0)
    raise PipelineFailure(
        f"smoothing sweep exhausted at eps >= {eps_min:.3e}; region '{failing.name}' "
        f"stuck at margin {failing.min_margin:.3e}",
        region=failing.name,
        worst_point=failing.worst_point,
    )
