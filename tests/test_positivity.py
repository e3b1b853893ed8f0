"""Relative eigenvalue fields, the grid certificate, and the pairing pipeline."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qposlab import (
    ConsistencyFailure,
    HermitianFormField,
    HypothesisViolation,
    ModelError,
    PotentialField,
    TorusModel,
    eigenvalues_relative,
    one_positive_pipeline,
)
from qposlab import calculus, cli, positivity, smallmat
from qposlab.calculus import _as_form
from qposlab.positivity import _certify_regions, _in_order, _inverse_cholesky, _whitened

H_EXAMPLE = np.diag([2.0, -1.0])
G_EXAMPLE = np.eye(2)


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m + m.conj().T


def random_pd(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m @ m.conj().T + np.eye(n)


def certify(curvature, reference, torus, q, margin=1e-8):
    """The grid certificate that ``curvature`` is q-positive relative to ``reference``:
    the reducer over the whitened planes, with the (n - q)-th largest eigenvalue as margin."""
    a, b = _as_form(curvature, torus), _as_form(reference, torus)
    inv_chol = _inverse_cholesky(b)

    def planes_rows(lo, hi):
        return _whitened(*a.rows(lo, hi), inv_chol if inv_chol.shape[0] == 1 else inv_chol[lo:hi])

    every_point = np.ones((1,) * torus.ndim_real, dtype=bool)
    shape = np.broadcast_shapes(a.diag.shape[1:], b.diag.shape[1:])
    (cert,) = _certify_regions(planes_rows, shape, [("certificate", every_point, lambda lam: lam[q], margin)], _in_order)
    return cert


def full_grid_psi0(torus, amplitude):
    """The full-grid seed of the slab checks: a cosine on every real axis plus one mixed mode."""
    xs = torus.real_coordinates()
    values = amplitude * sum(np.cos(2 * np.pi * x) for x in xs) + 0.5 * amplitude * np.sin(2 * np.pi * (xs[0] + xs[-1]))
    assert values.shape == torus.shape
    return PotentialField(torus, values)


class TestEigenvaluesRelative:
    def test_frozen_diagonal_case(self):
        t = TorusModel(2, 16)
        lam = eigenvalues_relative(np.diag([5.0, 2.0]), 3 * np.eye(2), t)
        assert lam[..., 0] == pytest.approx(5.0 / 3.0, abs=1e-14)
        assert lam[..., 1] == pytest.approx(2.0 / 3.0, abs=1e-14)
        assert float(np.prod(lam, axis=-1)[0, 0, 0, 0]) == pytest.approx(10.0 / 9.0, abs=1e-14)

    def test_descending_order(self):
        rng = np.random.default_rng(2)
        t = TorusModel(3, 16)
        lam = eigenvalues_relative(random_hermitian(rng, 3), random_pd(rng, 3), t)
        v = lam[0, 0, 0, 0, 0, 0]
        assert v[0] >= v[1] >= v[2]

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        t = TorusModel(2, 8)
        x = t.real_coordinates()[0]
        base = random_hermitian(rng, 2)
        bump = random_hermitian(rng, 2)
        a = base + np.cos(2 * np.pi * x)[..., None, None] * bump
        b = np.broadcast_to(random_pd(rng, 2), a.shape)
        lam = eigenvalues_relative(HermitianFormField(t, a), HermitianFormField(t, b), t)
        brute = np.sort(np.linalg.eigvals(np.linalg.inv(b) @ a).real, axis=-1)[..., ::-1]
        assert np.max(np.abs(lam - brute)) < 1e-10

    def test_shift_identity(self):
        rng = np.random.default_rng(4)
        t = TorusModel(2, 16)
        for _ in range(8):
            a = random_hermitian(rng, 2)
            b = random_pd(rng, 2)
            lam = eigenvalues_relative(a, b, t)
            shifted = eigenvalues_relative(a - b, b, t)
            assert np.max(np.abs(shifted - (lam - 1.0))) < 1e-12

    def test_monotone_under_psd_perturbation(self):
        rng = np.random.default_rng(5)
        t = TorusModel(2, 16)
        for _ in range(8):
            a = random_hermitian(rng, 2)
            b = random_pd(rng, 2)
            c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            psd = c @ c.conj().T
            lam = eigenvalues_relative(a, b, t)
            lam_up = eigenvalues_relative(a + psd, b, t)
            assert np.min(lam_up - lam) > -1e-12

    def test_reference_must_be_positive(self):
        t = TorusModel(1, 16)
        x = t.real_coordinates()[0]
        b = (np.cos(2 * np.pi * x) + 1.5)[..., None, None] - np.ones((1, 1))[..., None, None]
        with pytest.raises(ModelError):
            eigenvalues_relative(np.ones((1, 1)), HermitianFormField(t, b + 0j), t)

    def test_constant_forms_give_a_stored_constant_field(self):
        t = TorusModel(2, 16)
        lam = eigenvalues_relative(H_EXAMPLE, G_EXAMPLE, t)
        assert lam.shape == (1, 1, 1, 1, 2)
        assert lam.tobytes() == np.array([2.0, -1.0]).tobytes()

    def test_min_over_grid_one_based(self):
        # Column j - 1 holds the j-th largest eigenvalue; a q certificate reads the (n - q)-th.
        t = TorusModel(2, 16)
        lam = eigenvalues_relative(np.diag([5.0, 2.0]), 3 * np.eye(2), t)
        assert float(np.min(lam[..., 0])) == pytest.approx(5.0 / 3.0)
        assert float(np.min(lam[..., 1])) == pytest.approx(2.0 / 3.0)
        assert certify(np.diag([5.0, 2.0]), 3 * np.eye(2), t, q=1).min_margin == pytest.approx(5.0 / 3.0)
        assert certify(np.diag([5.0, 2.0]), 3 * np.eye(2), t, q=0).min_margin == pytest.approx(2.0 / 3.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_product_identity(self, seed):
        rng = np.random.default_rng(seed)
        t = TorusModel(2, 8)
        a = random_hermitian(rng, 2)
        b = random_pd(rng, 2)
        lam = eigenvalues_relative(a, b, t)
        expect = np.linalg.det(a).real / np.linalg.det(b).real
        assert float(np.prod(lam, axis=-1)[0, 0, 0, 0]) == pytest.approx(expect, rel=1e-10, abs=1e-10)


def whole_grid_eigenvalues(curvature, reference, torus):
    """Relative eigenvalues from whole-grid planes in one pass: the formula the
    slab loop of ``eigenvalues_relative`` runs per slab, and its bitwise reference."""
    a, b = (c if isinstance(c, HermitianFormField) else HermitianFormField.from_constant(torus, c)
            for c in (curvature, reference))
    n = torus.n
    inv_chol = np.linalg.inv(np.linalg.cholesky(b.values))
    conj_inv = inv_chol.conj()
    entry = smallmat.hermitian_entries(a.diag, a.upper)
    diag, upper = [None] * n, [None] * (n * (n - 1) // 2)
    for j in range(n):
        for k in range(j + 1):
            acc = 0.0
            for p in range(j + 1):
                for r in range(k + 1):
                    acc = acc + (inv_chol[..., j, p] * conj_inv[..., k, r]) * entry[p][r]
            if k == j:
                diag[j] = acc.real.copy()
            else:
                upper[smallmat.upper_pairs(n).index((k, j))] = np.conj(acc, out=acc)
    return np.stack(smallmat.eigvalsh(diag, upper)[::-1], axis=-1)


def varying_form(torus, shape, rng, rank_deficient=False):
    """A Hermitian field on ``shape`` from random matrices times cosines; rank one
    less than n (an exact zero eigenvalue up to rounding) when ``rank_deficient``."""
    n = torus.n
    xs = [x for x, size in zip(torus.real_coordinates(), shape) if size > 1]
    waves = np.broadcast_to(sum(np.cos(2 * np.pi * (a + 1) * x) for a, x in enumerate(xs)), shape)[..., None, None]
    if rank_deficient:
        vecs = rng.normal(size=(n, n - 1)) + 1j * rng.normal(size=(n, n - 1)) + waves[..., :1] * 0.3
        return HermitianFormField(torus, vecs @ vecs.conj().swapaxes(-1, -2))
    return HermitianFormField(torus, random_hermitian(rng, n) + waves * random_hermitian(rng, n))


class TestSlabEigenvalues:
    # n = 3 keeps four of its six axes: LAPACK takes every 3 x 3 matrix.
    CASES = [(2, 16, (16,) * 4), (3, 8, (8, 8, 1, 1, 8, 8))]

    @pytest.mark.parametrize("slab_rows", [None, 1, 3], ids=["default", "one-row", "three-rows"])
    @pytest.mark.parametrize("n,grid,shape", CASES, ids=["n2-g16", "n3-g8"])
    def test_constant_reference(self, monkeypatch, n, grid, shape, slab_rows):
        if slab_rows is not None:
            monkeypatch.setattr(calculus, "_STENCIL_SLAB_POINTS", slab_rows * math.prod(shape[1:]))
        t = TorusModel(n, grid)
        rng = np.random.default_rng(n)
        a, b = varying_form(t, shape, rng), random_pd(rng, n)
        assert np.array_equal(eigenvalues_relative(a, b, t), whole_grid_eigenvalues(a, b, t))

    @pytest.mark.parametrize("n,grid,shape", CASES, ids=["n2-g16", "n3-g8"])
    def test_reference_varying_along_axis_0(self, monkeypatch, n, grid, shape):
        monkeypatch.setattr(calculus, "_STENCIL_SLAB_POINTS", 3 * math.prod(shape[1:]))
        t = TorusModel(n, grid)
        rng = np.random.default_rng(n + 10)
        a = varying_form(t, shape, rng)
        x0, y_last = t.real_coordinates()[0], t.real_coordinates()[-1]
        bump = np.cos(2 * np.pi * x0) * np.sin(2 * np.pi * y_last)
        b = HermitianFormField(t, random_pd(rng, n) + 0.3 * bump[..., None, None] * np.eye(n))
        assert b.diag.shape[1] == grid and b.diag.shape[1:] != shape
        lam = whole_grid_eigenvalues(a, b, t)
        assert np.array_equal(eigenvalues_relative(a, b, t), lam)
        for q in range(n):
            margins = lam[..., n - q - 1]
            cert = certify(a, b, t, q=q)
            assert float(cert.min_margin).hex() == float(np.min(margins)).hex()
            assert cert.worst_point == np.unravel_index(int(np.argmin(margins)), margins.shape)

    @pytest.mark.parametrize("n,grid,shape", CASES, ids=["n2-g16", "n3-g8"])
    def test_points_near_zero_take_the_lapack_fallback(self, monkeypatch, n, grid, shape):
        monkeypatch.setattr(calculus, "_STENCIL_SLAB_POINTS", 3 * math.prod(shape[1:]))
        t = TorusModel(n, grid)
        rng = np.random.default_rng(n + 20)
        a, b = varying_form(t, shape, rng, rank_deficient=True), random_pd(rng, n)
        lapack = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: lapack.append(m.shape[:-2]) or eigvalsh(m))
        got = eigenvalues_relative(a, b, t)
        slab_calls, lapack[:] = list(lapack), []
        ref = whole_grid_eigenvalues(a, b, t)
        assert np.array_equal(got, ref)
        assert np.max(np.abs(ref[..., -1])) < 1e-12  # a zero eigenvalue at every point
        # every point goes to LAPACK, one batch per slab (plus the reference's own eigenvalues)
        assert sum(math.prod(s) for s in slab_calls) >= math.prod(shape)
        assert len(slab_calls) > 2


class TestCertificate:
    def test_nan_reference_is_a_model_error(self):
        # a nan compares false against every bound, so it must be refused on entry
        t = TorusModel(2, 16)
        reference = 3 * np.eye(2, dtype=complex)
        reference[1, 1] = np.nan
        with pytest.raises(ModelError, match="finite"):
            eigenvalues_relative(H_EXAMPLE, reference, t)

    def test_frozen_margin(self):
        t = TorusModel(2, 16)
        cert = certify(H_EXAMPLE, 3 * np.eye(2), t, q=1)
        assert cert.passed
        assert cert.min_margin == pytest.approx(2.0 / 3.0, abs=1e-14)
        assert len(cert.worst_point) == 4

    def test_failing_margin(self):
        t = TorusModel(2, 16)
        cert = certify(np.diag([-1.0, -2.0]), np.eye(2), t, q=1)
        assert not cert.passed
        assert cert.min_margin == pytest.approx(-1.0)

    def test_q_zero_needs_all_eigenvalues(self):
        t = TorusModel(2, 16)
        assert certify(np.eye(2), np.eye(2), t, q=0).passed
        assert not certify(np.diag([1.0, -0.1]), np.eye(2), t, q=0).passed

    def test_margin_threshold_strict(self):
        t = TorusModel(2, 16)
        cert = certify(H_EXAMPLE, 3 * np.eye(2), t, q=1, margin=0.7)
        assert not cert.passed  # 2/3 < 0.7

    def test_q_range_validated(self):
        t = TorusModel(2, 16)
        for q in (-1, 2, 5):
            with pytest.raises(ModelError, match="q must lie"):
                one_positive_pipeline(H_EXAMPLE, G_EXAMPLE, torus=t, q=q)


class TestOnePositivePipeline:
    def test_n3_newton_solve(self):
        # psi0 varies along x1, x2 and y3 only: the planar 3 x 3 adjugate, the
        # Sylvester minors and the n = 3 LAPACK eigenvalues all run
        t = TorusModel(3, 8)
        x1, _, x2, _, _, y3 = t.real_coordinates()
        psi0 = PotentialField(
            t, 0.05 * (np.cos(2 * np.pi * x1) + np.cos(2 * np.pi * x2)) + 0.025 * np.sin(2 * np.pi * (x1 + y3))
        )
        assert psi0.values.shape == (8, 1, 8, 1, 1, 8)
        run = one_positive_pipeline(np.diag([2.0, -1.0, 1.0]), np.eye(3), psi0=psi0)
        assert run.k == 2 and run.dk == pytest.approx(1.5, abs=1e-12)
        assert run.ma_result.iterations >= 1 and all(cg >= 1 for cg in run.ma_result.cg_iterations)
        assert run.certificate.passed
        assert run.certificate.min_margin == pytest.approx(1.0, abs=1e-9)

    def test_frozen_constant_run(self):
        t = TorusModel(2, 64)
        run = one_positive_pipeline(H_EXAMPLE, G_EXAMPLE, torus=t)
        assert run.k == 3
        assert run.dk == pytest.approx(10.0 / 9.0, abs=1e-15)
        assert run.pairing == 4.0
        assert run.product_error < 1e-12
        assert run.ma_result.iterations == 0
        assert run.certificate.passed
        assert run.certificate.min_margin == pytest.approx(2.0 / 3.0, abs=1e-9)
        lam = eigenvalues_relative(run.ma_result.form, run.k_omega, t)
        assert np.max(np.abs(lam[..., 0] - 5.0 / 3.0)) < 1e-9
        assert np.max(np.abs(lam[..., 1] - 2.0 / 3.0)) < 1e-9
        assert np.max(np.abs(run.margin_field - 2.0 / 3.0)) < 1e-9

    def test_cosine_background_run(self):
        t = TorusModel(2, 64)
        x = t.real_coordinates()[0]
        psi0 = PotentialField(t, 0.1 * np.cos(2 * np.pi * x), mean_zero=True)
        run = one_positive_pipeline(H_EXAMPLE, G_EXAMPLE, psi0=psi0)
        assert run.certificate.passed
        assert run.product_error < 1e-6
        # rigidity: the evolved metric is the flat one, so the margins match
        assert run.certificate.min_margin == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_stronger_count_can_fail_without_raising(self):
        t = TorusModel(2, 64)
        run = one_positive_pipeline(H_EXAMPLE, G_EXAMPLE, torus=t, q=0)
        assert not run.certificate.passed
        assert run.certificate.min_margin == pytest.approx(-1.0 / 3.0, abs=1e-9)

    def test_hypothesis_checked(self):
        t = TorusModel(2, 16)
        with pytest.raises(HypothesisViolation):
            one_positive_pipeline(np.diag([-1.0, -1.0]), G_EXAMPLE, torus=t)

    def test_needs_torus_or_psi0(self):
        with pytest.raises(ModelError):
            one_positive_pipeline(H_EXAMPLE, G_EXAMPLE)


class TestDifferentiationCount:
    def test_full_grid_run_differentiates_each_field_once(self, monkeypatch):
        # The background psi0 and each line-search trial; the certificate reads
        # the planes of the solver's last accepted state.
        from qposlab import calculus, ma_solver, positivity

        shapes = []

        def counting(phi):
            shapes.append(phi.values.shape)
            return calculus.complex_hessian(phi)

        for module in (ma_solver, positivity):
            monkeypatch.setattr(module, "complex_hessian", counting, raising=False)
        t = TorusModel(2, 8)
        xs = t.real_coordinates()
        values = 0.02 * sum(np.cos(2 * np.pi * x) for x in xs) + 0.01 * np.sin(2 * np.pi * (xs[0] + xs[3]))
        assert values.shape == t.shape
        psi0 = PotentialField(t, values)
        run = one_positive_pipeline(H_EXAMPLE, G_EXAMPLE, psi0=psi0, tol=1e-12)
        ma = run.ma_result
        assert run.certificate.passed
        assert ma.iterations >= 2
        assert len(shapes) == 1 + ma.iterations + sum(ma.line_search_halvings)
        assert set(shapes) == {t.shape}


class TestSolvedPlanes:
    def test_margin_field_reads_the_solver_form(self):
        # The certificate's relative eigenvalues are those of the solver's last
        # accepted state, bit for bit, not of a second build of the form.
        t = TorusModel(2, 8)
        xs = t.real_coordinates()
        values = 0.02 * sum(np.cos(2 * np.pi * x) for x in xs) + 0.01 * np.sin(2 * np.pi * (xs[0] + xs[3]))
        run = one_positive_pipeline(H_EXAMPLE, G_EXAMPLE, psi0=PotentialField(t, values), tol=1e-12)
        assert run.ma_result.iterations >= 2
        expected = eigenvalues_relative(run.ma_result.form, run.k * G_EXAMPLE, t)[..., 0] - 1.0
        assert run.margin_field.shape == expected.shape == t.shape
        assert run.margin_field.tobytes() == expected.tobytes()


class TestEigenPassCount:
    def test_full_grid_run_takes_one_grid_eigen_pass(self, monkeypatch):
        # The certificate's relative eigenvalues are the only eigen pass over the
        # grid: the reference k omega is constant, the solver's positivity test
        # falls back to eigenvalues only on points near zero, and the solved
        # form's smallest eigenvalue is not computed unless it is read.
        from qposlab import smallmat

        t = TorusModel(2, 8)
        grid_passes = []
        eigvalsh = smallmat.eigvalsh

        def counting(diag, upper):
            if np.shape(diag[0]) == t.shape:
                grid_passes.append(1)
            return eigvalsh(diag, upper)

        monkeypatch.setattr(smallmat, "eigvalsh", counting)
        xs = t.real_coordinates()
        values = 0.02 * sum(np.cos(2 * np.pi * x) for x in xs) + 0.01 * np.sin(2 * np.pi * (xs[0] + xs[3]))
        run = one_positive_pipeline(H_EXAMPLE, G_EXAMPLE, psi0=PotentialField(t, values), tol=1e-12)
        assert run.certificate.passed
        assert run.ma_result.iterations >= 2
        assert len(grid_passes) == 1


class TestPseffPipeline:
    """The pseff command: a PSD, non-zero check in front of the certify pipeline."""

    @pytest.fixture(autouse=True)
    def _clean_environment(self, monkeypatch):
        for key in list(os.environ):
            if key.startswith("QPOSLAB_"):
                monkeypatch.delenv(key)

    @staticmethod
    def pseff(line_class, tmp_path, capsys):
        config = tmp_path / "pseff.json"
        config.write_text(json.dumps({"line_class": np.asarray(line_class).tolist(), "kahler": G_EXAMPLE.tolist(), "grid": 16}))
        code = cli.main(["pseff", "--config", str(config)])
        captured = capsys.readouterr()
        return code, json.loads(captured.out) if captured.out.strip() else None, captured.err

    def test_zero_class_rejected(self, tmp_path, capsys):
        code, report, err = self.pseff(np.zeros((2, 2)), tmp_path, capsys)
        assert code == 3 and report is None
        assert err.startswith("model error: the zero class")

    def test_indefinite_rejected(self, tmp_path, capsys):
        code, report, err = self.pseff(H_EXAMPLE, tmp_path, capsys)
        assert code == 3 and report is None
        assert err.startswith("model error: class is indefinite")

    def test_rank_one_psd_certifies(self, tmp_path, capsys):
        p = np.array([[1.0, 0.5], [0.5, 0.25]])
        code, report, _ = self.pseff(p, tmp_path, capsys)
        assert code == 0
        verdict = report["verdict"]
        assert verdict["passed"] is True
        assert verdict["k"] == 1
        assert verdict["min_margin"] == pytest.approx(1.25, abs=1e-9)


class TestGridCertificate:
    # CI's full-grid certify inputs, and a positive H for the q = 0 count: every
    # real axis varies, and 3-row slabs cut axis 0 unevenly.
    INPUTS = [
        (2, 32, 0.02, np.diag([2.0, -1.0]), None),
        (3, 8, 0.03, np.diag([2.0, -1.0, 1.0]), None),
        (2, 16, 0.02, np.diag([2.0, 1.0]), 0),
    ]

    @pytest.mark.parametrize("n,grid,amplitude,line_class,q", INPUTS, ids=["n2-g32", "n3-g8", "n2-g16-q0"])
    def test_full_grid_run_is_bitwise_the_whole_grid_reduction(self, monkeypatch, n, grid, amplitude, line_class, q):
        monkeypatch.setattr(calculus, "_STENCIL_SLAB_POINTS", 3 * grid ** (2 * n - 1))
        t = TorusModel(n, grid)
        run = one_positive_pipeline(line_class, np.eye(n), psi0=full_grid_psi0(t, amplitude), tol=1e-12, q=q)
        assert len(calculus._slab_bounds(grid, grid ** (2 * n - 1))) > 2
        lam = eigenvalues_relative(run.ma_result.form, run.k_omega, t)
        assert lam.shape == t.shape + (n,)
        margins = lam[..., n - run.q - 1] - 1.0
        cert = run.certificate
        assert cert.passed and cert.n_points == grid ** (2 * n)
        assert float(cert.min_margin).hex() == float(np.min(margins)).hex()
        assert cert.worst_point == np.unravel_index(int(np.argmin(margins)), margins.shape)
        assert float(run.product_error).hex() == float(np.max(np.abs(np.prod(lam, axis=-1) - run.dk))).hex()
        assert run.margin_field.tobytes() == margins.tobytes()

    def test_margin_field_is_computed_only_when_read(self, monkeypatch):
        t = TorusModel(2, 8)
        calls = []
        field = positivity.eigenvalues_relative

        def counting(*args):
            calls.append(1)
            return field(*args)

        monkeypatch.setattr(positivity, "eigenvalues_relative", counting)
        run = one_positive_pipeline(H_EXAMPLE, G_EXAMPLE, psi0=full_grid_psi0(t, 0.02), tol=1e-12)
        assert run.certificate.passed and calls == []
        assert run.margin_field.shape == t.shape and len(calls) == 1

    def test_solved_form_not_positive_somewhere_raises(self, monkeypatch):
        # Negating the form at one point negates its eigenvalues exactly and keeps
        # their product (n = 2), so only the positivity check can catch it.
        t = TorusModel(2, 8)
        solve = positivity.solve_ma

        def flipped(problem):
            result = solve(problem)
            diag, upper = result.form.diag.copy(), result.form.upper.copy()
            diag[:, 3, 1, 4, 6] *= -1.0
            upper[:, 3, 1, 4, 6] *= -1.0
            return dataclasses.replace(result, form=HermitianFormField._trusted(t, diag, upper))

        monkeypatch.setattr(positivity, "solve_ma", flipped)
        with pytest.raises(ConsistencyFailure, match="positivity"):
            one_positive_pipeline(H_EXAMPLE, G_EXAMPLE, psi0=full_grid_psi0(t, 0.02), tol=1e-12)
