"""Max-glue of a log-pole potential against a smooth buffer, with certificates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qposlab import (
    HermitianFormField,
    ModelError,
    PipelineFailure,
    PotentialField,
    SingularPotential,
    TorusModel,
    dilate,
    gluing,
    regularized_max,
    select_threshold,
    zariski_fujita_pipeline,
)
from qposlab.calculus import fd_complex_hessian

LOG2 = float(np.log(2.0))


def worked_example(weight=0.05, lower_bound=0.5):
    """Single log pole at (1/2, 1/2) on the n=1 torus at grid 64."""
    t = TorusModel(1, 64)
    x, y = t.real_coordinates()
    q = np.sin(np.pi * (x - 0.5)) ** 2 + np.sin(np.pi * (y - 0.5)) ** 2
    with np.errstate(divide="ignore"):
        vals = 0.5 * weight * np.log(q)
    sing = SingularPotential(t, vals, lower_bound=lower_bound)
    return t, sing


def roll_dilate(mask, radius):
    """Reference box dilation: 2 * radius periodic rolls per axis."""
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


class TestDilate:
    def test_counts(self):
        mask = np.zeros((16, 16), dtype=bool)
        mask[8, 8] = True
        assert int(np.count_nonzero(dilate(mask, 1))) == 9
        assert int(np.count_nonzero(dilate(mask, 2))) == 25

    def test_radius_zero_identity(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[2, 3] = True
        assert np.array_equal(dilate(mask, 0), mask)

    def test_periodic_wrap(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[0, 0] = True
        out = dilate(mask, 1)
        assert out[7, 7] and out[7, 0] and out[0, 7] and out[1, 1]
        assert int(np.count_nonzero(out)) == 9

    def test_singleton_axes_stay_constant(self):
        mask = np.zeros((8, 1), dtype=bool)
        mask[3, 0] = True
        out = dilate(mask, 1)
        assert out.shape == (8, 1)
        assert int(np.count_nonzero(out)) == 3

    def test_radius_validated(self):
        with pytest.raises(ModelError):
            dilate(np.zeros((4, 4), dtype=bool), -1)
        with pytest.raises(ModelError):
            dilate(np.zeros((4, 4), dtype=bool), 1.5)

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.lists(st.sampled_from([1, 2, 3, 5, 8]), min_size=1, max_size=4),
        radius=st.integers(0, 9),
        density=st.floats(0.0, 0.3),
        seed=st.integers(0, 2**16),
    )
    def test_matches_roll_sweep(self, shape, radius, density, seed):
        mask = np.random.default_rng(seed).random(shape) < density
        out = dilate(mask, radius)
        assert out.dtype == bool and out.shape == mask.shape
        assert np.array_equal(out, roll_dilate(mask, radius))


class TestRegularizedMax:
    def test_sandwich(self):
        rng = np.random.default_rng(23)
        u = rng.normal(size=(32, 32))
        v = rng.normal(size=(32, 32))
        mx = np.maximum(u, v)
        for eps in (1.0, 0.05, 2.0**-10):
            m = regularized_max(u, v, eps)
            assert np.all(m >= mx - 1e-13)
            assert np.all(m <= mx + eps * LOG2 + 1e-13)

    def test_exact_on_minus_infinity_branch(self):
        u = np.array([1.0, -2.0, 0.5])
        v = np.full(3, -np.inf)
        assert np.array_equal(regularized_max(u, v, 0.25), u)

    def test_eps_validated(self):
        with pytest.raises(ModelError):
            regularized_max(np.zeros(3), np.zeros(3), 0.0)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-50, 50), st.floats(-50, 50), st.sampled_from([1.0, 0.5, 0.01]))
    def test_sandwich_pointwise(self, a, b, eps):
        m = float(regularized_max(np.float64(a), np.float64(b), eps))
        assert max(a, b) - 1e-13 <= m <= max(a, b) + eps * LOG2 + 1e-13


class TestSingularPotential:
    def test_pole_mask_defaults_to_nonfinite(self):
        _, sing = worked_example()
        assert sing.pole_mask.shape == (64, 64)
        assert int(np.count_nonzero(sing.pole_mask)) == 1
        assert sing.pole_mask[32, 32]

    def test_rejects_nan_and_plus_inf(self):
        t = TorusModel(1, 16)
        bad = np.zeros((16, 16))
        bad[0, 0] = np.nan
        with pytest.raises(ModelError):
            SingularPotential(t, bad)
        bad[0, 0] = np.inf
        with pytest.raises(ModelError):
            SingularPotential(t, bad)

    @pytest.mark.parametrize("lower_bound", [np.nan, np.inf, -0.5])
    def test_rejects_bad_lower_bound(self, lower_bound):
        with pytest.raises(ModelError, match="lower bound"):
            worked_example(lower_bound=lower_bound)

    def test_explicit_mask_must_cover_poles(self):
        t = TorusModel(1, 16)
        vals = np.zeros((16, 16))
        vals[5, 5] = -np.inf
        mask = np.zeros((16, 16), dtype=bool)
        mask[0, 0] = True
        with pytest.raises(ModelError):
            SingularPotential(t, vals, pole_mask=mask)

    def test_mask_shape_checked(self):
        t = TorusModel(1, 16)
        vals = np.zeros((16, 16))
        vals[5, 5] = -np.inf
        with pytest.raises(ModelError):
            SingularPotential(t, vals, pole_mask=np.ones((8, 8), dtype=bool))

    @pytest.mark.parametrize("shape", [(16,), (16, 8), (16, 16, 1)])
    def test_value_shape_checked(self, shape):
        t = TorusModel(1, 16)
        vals = np.zeros(shape)
        vals.flat[0] = -np.inf
        with pytest.raises(ModelError, match="singular potential"):
            SingularPotential(t, vals)

    def test_empty_mask_rejected(self):
        t = TorusModel(1, 16)
        with pytest.raises(ModelError):
            SingularPotential(t, np.zeros((16, 16)))

    def test_negative_lower_bound_rejected(self):
        t = TorusModel(1, 16)
        vals = np.zeros((16, 16))
        vals[0, 0] = -np.inf
        with pytest.raises(ModelError):
            SingularPotential(t, vals, lower_bound=-0.1)

    def test_finite_values_keep_the_values_off_the_poles(self):
        _, sing = worked_example()
        filled = sing.finite_values()
        assert np.all(np.isfinite(filled))
        off = ~sing.pole_mask
        assert np.array_equal(filled[off], sing.values[off])


class TestThresholdSelection:
    def test_frozen_threshold(self):
        _, sing = worked_example()
        phi_b = PotentialField(sing.torus, np.zeros((1, 1)))
        c = select_threshold(phi_b, sing, dilate(sing.pole_mask, 4))
        assert c == 0.125  # smallest dyadic above the 0.0703 gap

    def test_larger_region_gives_smaller_threshold(self):
        _, sing = worked_example()
        phi_b = PotentialField(sing.torus, np.zeros((1, 1)))
        c6 = select_threshold(phi_b, sing, dilate(sing.pole_mask, 6))
        assert c6 == 0.0625

    def test_pole_clearance_precondition(self):
        _, sing = worked_example()
        phi_b = PotentialField(sing.torus, np.zeros((1, 1)))
        with pytest.raises(ModelError):
            select_threshold(phi_b, sing, sing.pole_mask)

    def test_needs_nonempty_complement(self):
        _, sing = worked_example()
        phi_b = PotentialField(sing.torus, np.zeros((1, 1)))
        with pytest.raises(ModelError):
            select_threshold(phi_b, sing, np.ones((64, 64), dtype=bool))


class TestPipeline:
    def test_worked_example_certifies(self):
        t, sing = worked_example()
        phi_b = PotentialField(t, np.zeros((1, 1)))
        report = zariski_fujita_pipeline(np.eye(1), phi_b, sing)
        assert report.q == 0
        assert report.result.threshold == 0.125
        assert report.result.smoothing_eps == 1.0
        assert report.declarations["threshold"] == 0.125
        assert report.declarations["buffer_margin"] == pytest.approx(1.0, abs=1e-12)
        assert report.declarations["outside_margin"] == pytest.approx(0.3766, abs=2e-3)
        by_name = {c.name: c for c in report.certificates}
        assert set(by_name) == {"outside U_C", "V_C", "U_C minus V_C"}
        assert all(c.passed for c in report.certificates)
        assert by_name["outside U_C"].n_points == 4015
        assert by_name["V_C"].n_points == 1
        assert by_name["U_C minus V_C"].n_points == 56
        assert by_name["outside U_C"].min_margin == pytest.approx(0.9339, abs=2e-3)
        assert by_name["U_C minus V_C"].min_margin == pytest.approx(0.7530, abs=2e-3)
        assert by_name["U_C minus V_C"].worst_point == (29, 32)
        assert by_name["V_C"].min_margin > 100  # softmax cap curves up steeply

    def test_nine_cell_buffer_region(self):
        # At C = 1/8 the buffer branch wins on the pole cell and its eight neighbours.
        t, sing = worked_example()
        phi_b = PotentialField(t, np.zeros((1, 1)))
        result = zariski_fujita_pipeline(np.eye(1), phi_b, sing).result
        assert result.threshold == 0.125
        assert int(np.count_nonzero(result.region_v)) == 9
        assert result.region_v[32, 32]

    def test_greedy_lower_bound_fails_declaration_a(self):
        t, sing = worked_example(lower_bound=1.5)
        phi_b = PotentialField(t, np.zeros((1, 1)))
        with pytest.raises(PipelineFailure) as exc:
            zariski_fujita_pipeline(np.eye(1), phi_b, sing)
        assert exc.value.region == "outside U_C"
        assert exc.value.worst_point is not None

    def test_concave_buffer_fails_declaration_b(self):
        t, sing = worked_example()
        x = t.real_coordinates()[0]
        phi_b = PotentialField(t, -0.15 * np.cos(2 * np.pi * x))
        with pytest.raises(PipelineFailure) as exc:
            zariski_fujita_pipeline(np.eye(1), phi_b, sing)
        assert exc.value.region == "buffer"

    def test_smoothing_sweep_exhaustion(self):
        # margin below the buffer declaration value (1.0) but above what the
        # smoothed glue achieves outside U_C, so every eps in the sweep fails
        t, sing = worked_example()
        phi_b = PotentialField(t, np.zeros((1, 1)))
        with pytest.raises(PipelineFailure) as exc:
            zariski_fujita_pipeline(np.eye(1), phi_b, sing, margin=0.95, eps_min=2.0**-4)
        assert exc.value.region == "outside U_C"
        assert exc.value.worst_point is not None

    def test_trace_records_the_ladder_and_the_band(self):
        t, sing = worked_example()
        phi_b = PotentialField(t, np.zeros((1, 1)))
        # U_C minus V_C reaches margin 0.85 only once eps is down to 1/4
        report = zariski_fujita_pipeline(np.eye(1), phi_b, sing, margin=0.85)
        assert [eps for eps, _ in report.smoothing] == [1.0, 0.5, 0.25]
        assert report.result.smoothing_eps == 0.25
        assert report.smoothing[-1][1] == report.certificates
        for _, certs in report.smoothing[:-1]:
            assert [c.passed for c in certs] == [True, True, False]
        # the band is the ring around the single V_C cell, a 5 x 5 box less its centre
        assert report.switching_band_points == 24

    def test_each_smoothed_potential_is_computed_once_and_kept(self, monkeypatch):
        t, sing = worked_example()
        phi_b = PotentialField(t, np.zeros((1, 1)))
        returned = []

        def recording(u, v, eps):
            returned.append(regularized_max(u, v, eps))
            return returned[-1]

        monkeypatch.setattr(gluing, "regularized_max", recording)
        report = zariski_fujita_pipeline(np.eye(1), phi_b, sing, margin=0.85)
        assert len(returned) == len(report.smoothing) == 3
        assert report.result.psi.values is returned[-1]

    def test_the_certified_potentials_are_the_stored_ones(self, monkeypatch):
        t, sing = worked_example()
        phi_b = PotentialField(t, np.zeros((1, 1)))
        sources, rows = [], gluing._fd_hessian_rows

        def recording(phi, order):
            sources.append((phi, order))
            return rows(phi, order)

        monkeypatch.setattr(gluing, "_fd_hessian_rows", recording)
        report = zariski_fujita_pipeline(np.eye(1), phi_b, sing, margin=0.85)
        # declaration (a) at order 4, then one order-2 source per smoothing scale
        assert [order for _, order in sources] == [4, 2, 2, 2]
        assert np.array_equal(sources[0][0].values, sing.finite_values())
        assert sources[-1][0] is report.result.psi
        # the accepted certificate is what the whole-grid Hessian of the reported psi gives
        hess = fd_complex_hessian(report.result.psi) + HermitianFormField.from_constant(t, np.eye(1))
        u_c_minus_v_c = next(c for c in report.certificates if c.name == "U_C minus V_C")
        assert hess.diag[0][u_c_minus_v_c.worst_point] == u_c_minus_v_c.min_margin

    # 2.0 lies above the ladder's first scale 1: no scale to try
    @pytest.mark.parametrize("eps_min", [2.0, float("nan"), float("inf"), 0.0, -2.0])
    def test_bad_smoothing_scales_rejected(self, eps_min):
        t, sing = worked_example()
        phi_b = PotentialField(t, np.zeros((1, 1)))
        with pytest.raises(ModelError, match="0 < eps_min <= 1"):
            zariski_fujita_pipeline(np.eye(1), phi_b, sing, eps_min=eps_min)

    def test_single_scale_ladder(self):
        t, sing = worked_example()
        phi_b = PotentialField(t, np.zeros((1, 1)))
        report = zariski_fujita_pipeline(np.eye(1), phi_b, sing, eps_min=1.0)
        assert [eps for eps, _ in report.smoothing] == [1.0]

    def test_q_validated(self):
        t, sing = worked_example()
        phi_b = PotentialField(t, np.zeros((1, 1)))
        with pytest.raises(ModelError):
            zariski_fujita_pipeline(np.eye(1), phi_b, sing, q=1)

    def test_torus_mismatch_rejected(self):
        _, sing = worked_example()
        phi_b = PotentialField(TorusModel(1, 32), np.zeros((1, 1)))
        with pytest.raises(ModelError):
            zariski_fujita_pipeline(np.eye(1), phi_b, sing)
