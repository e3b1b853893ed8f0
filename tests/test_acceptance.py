"""Acceptance gate for the laboratory.

Ten quantitative criteria, one test each, covering the closed-form volume
ratio, both certificate pipelines, the manufactured Monge-Ampere solve, the
minor-sum rank machinery, exact surface-cone duality, relative eigenvalue
identities, glue smoothing, the degeneracy scan, and CLI determinism.  Every
test prints one ``ACCEPTANCE <n> <label>: PASS|FAIL`` line (visible through
pytest's capture) and then asserts, so a red run still announces itself.
"""

import contextlib
import itertools
import json
import os
import time
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from qposlab.calculus import (
    HermitianFormField,
    PotentialField,
    complex_hessian,
    fd_complex_hessian,
)
from qposlab.cli import main
from qposlab.geometry import ConstantHermitianClass, TorusModel, dk_constant, dk_expansion
from qposlab.gluing import SingularPotential, regularized_max, zariski_fujita_pipeline
from qposlab.ma_solver import MAProblem, solve_ma
from qposlab.maps_degeneracy import (
    PolyMap,
    degeneracy_locus_scan,
    fibre_dimension_estimate,
    sample_box,
    sigma_j_minors,
    sigma_profile,
)
from qposlab.positivity import eigenvalues_relative, one_positive_pipeline
from qposlab.smallmat import hermitian_det
from qposlab.surface_cones import (
    DivisorClass,
    converse_ag_surface,
    hirzebruch_f1_lattice,
    p1xp1_lattice,
)

TAU = 2.0 * np.pi
DIAG_2_M1 = np.diag([2.0, -1.0]).astype(complex)
EYE_2 = np.eye(2, dtype=complex)


@pytest.fixture(autouse=True)
def _clean_environment(monkeypatch):
    for key in list(os.environ):
        if key.startswith("QPOSLAB_"):
            monkeypatch.delenv(key)


@contextlib.contextmanager
def criterion(capsys, index, label):
    checks = {}
    try:
        yield checks
    except Exception:
        with capsys.disabled():
            print(f"ACCEPTANCE {index} {label}: FAIL")
        raise
    ok = bool(checks) and all(checks.values())
    with capsys.disabled():
        print(f"ACCEPTANCE {index} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"failed checks: {sorted(k for k, v in checks.items() if not v)}"


def rational_hermitian(rng, n, denom=4):
    num = rng.integers(-8, 9, size=(n, n)) + 1j * rng.integers(-8, 9, size=(n, n))
    return (num + num.conj().T) / denom


def rational_kahler(rng, n, denom=4):
    h = rational_hermitian(rng, n, denom)
    shift = int(np.ceil(np.max(np.sum(np.abs(h), axis=1)))) + 1
    return h + shift * np.eye(n)


def esym(values, j):
    return float(sum(np.prod(c) for c in itertools.combinations(values, j)))


def test_01_volume_ratio_identity(capsys):
    with criterion(capsys, 1, "volume-ratio identity") as checks:
        t0 = time.perf_counter()
        rng = np.random.default_rng(20260815)
        agree = True
        for _ in range(100):
            n = int(rng.integers(2, 4))
            h = rational_hermitian(rng, n)
            g = rational_kahler(rng, n)
            k = int(rng.integers(1, 11))
            a = dk_constant(h, g, k)
            b = dk_expansion(h, g, k)
            agree = agree and abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))
        checks["closed_form_matches_expansion"] = agree
        checks["worked_value_exact"] = dk_constant(DIAG_2_M1, EYE_2, 3) == 10.0 / 9.0
        checks["runtime_under_1s"] = time.perf_counter() - t0 < 1.0


def test_02_constant_class_certificate(capsys):
    with criterion(capsys, 2, "constant-class certificate") as checks:
        t0 = time.perf_counter()
        torus = TorusModel(n=2, grid_size=64)
        run = one_positive_pipeline(DIAG_2_M1, EYE_2, torus=torus)
        lam = eigenvalues_relative(run.ma_result.form, run.k_omega, torus)
        checks["shift_is_3"] = run.k == 3
        checks["lambda_constant_5_3"] = float(np.max(np.abs(lam[..., 0] - 5.0 / 3.0))) <= 1e-9
        checks["lambda_constant_2_3"] = float(np.max(np.abs(lam[..., 1] - 2.0 / 3.0))) <= 1e-9
        checks["product_is_dk"] = (
            float(np.max(np.abs(np.prod(lam, axis=-1) - 10.0 / 9.0))) <= 1e-9
        )
        checks["one_positive_certified"] = run.certificate.passed and run.q == 1
        checks["margin_two_thirds"] = abs(run.certificate.min_margin - 2.0 / 3.0) <= 1e-9
        checks["runtime_under_5s"] = time.perf_counter() - t0 < 5.0


def test_03_nonconstant_metric_uniqueness(capsys):
    with criterion(capsys, 3, "nonconstant-metric certificate") as checks:
        t0 = time.perf_counter()
        torus = TorusModel(n=2, grid_size=64)
        x1 = torus.real_coordinates()[0]
        psi0 = PotentialField(torus, 0.1 * np.cos(TAU * x1))
        run = one_positive_pipeline(DIAG_2_M1, EYE_2, psi0=psi0, torus=torus)
        total = psi0.values + run.ma_result.phi.values
        checks["solution_cancels_psi0"] = float(np.max(np.abs(total - np.mean(total)))) < 1e-6
        checks["pointwise_product_identity"] = run.product_error < 1e-6
        checks["certified"] = run.certificate.passed
        checks["runtime_under_60s"] = time.perf_counter() - t0 < 60.0


def test_04_manufactured_ma_recovery(capsys):
    def recovery(amplitude):
        torus = TorusModel(n=2, grid_size=64)
        coords = torus.real_coordinates()
        phi_star = amplitude * np.sin(TAU * coords[0]) * np.cos(TAU * coords[3])
        form = HermitianFormField.from_constant(torus, EYE_2) + complex_hessian(
            PotentialField(torus, phi_star)
        )
        density = 8.0 * hermitian_det(form.diag, form.upper)  # n! 2^n det, n = 2
        problem = MAProblem(
            torus=torus,
            background=ConstantHermitianClass(EYE_2),
            target_density=density,
            tol=1e-11,
            max_iter=25,
        )
        result = solve_ma(problem)
        diff = result.phi.values - (phi_star - np.mean(phi_star))
        err = float(np.max(np.abs(diff - np.mean(diff))))
        return err, result.iterations, float(np.min(density))

    with criterion(capsys, 4, "manufactured Monge-Ampere recovery") as checks:
        t0 = time.perf_counter()
        err, iterations, min_density = recovery(0.05)
        err_half, _, min_density_half = recovery(0.025)
        checks["densities_positive"] = min_density > 0.0 and min_density_half > 0.0
        checks["recovery_below_1e6"] = err < 1e-6
        checks["iterations_at_most_15"] = iterations <= 15
        checks["error_scales_with_amplitude"] = err_half <= 0.5 * err + 1e-10
        checks["runtime_under_60s"] = time.perf_counter() - t0 < 60.0


def test_05_minor_sums_match_eigenvalues(capsys):
    with criterion(capsys, 5, "minor sums vs pullback eigenvalues") as checks:
        t0 = time.perf_counter()
        rng = np.random.default_rng(51)
        agree = True
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(n, 5))
            tables = []
            for _comp in range(m):
                table = {}
                for _ in range(int(rng.integers(1, 4))):
                    exps = tuple(int(e) for e in rng.integers(0, 3, size=n))
                    table[exps] = complex(rng.normal(), rng.normal())
                tables.append(table)
            pmap = PolyMap(n=n, m=m, components=tuple(tables))
            z = rng.normal(scale=0.8, size=n) + 1j * rng.normal(scale=0.8, size=n)
            jac = pmap.jacobian(z)
            sig = sigma_profile(jac)
            eigs = np.linalg.eigvalsh(jac.conj().T @ jac)
            for j in range(1, n + 1):
                expect = esym(eigs, j)
                agree = agree and abs(float(sig[j - 1]) - expect) <= 1e-10 * max(1.0, abs(expect))
        checks["random_maps_agree"] = agree
        worked = PolyMap.from_text("0 1 0 1 0\n1 1 1 1 0", n=2, m=2)
        jac = worked.jacobian(np.array([2.0 + 0j, 3.0 + 0j]))
        checks["worked_sigma1_exact"] = float(sigma_j_minors(jac, 1)) == 14.0
        checks["worked_sigma2_exact"] = float(sigma_j_minors(jac, 2)) == 4.0
        checks["runtime_under_10s"] = time.perf_counter() - t0 < 10.0


def test_06_surface_cone_duality(capsys):
    def verified(report, lattice, divisor):
        if report.witness is None:
            return not report.one_ample
        w = report.witness
        rebuilt = reduce(
            DivisorClass.__add__,
            (g.scaled(c) for g, c in zip(lattice.nef_generators, w.generator_coefficients)),
        )
        return (
            report.one_ample
            and rebuilt == w.vector
            and lattice.pair(divisor, w.vector) == w.pairing
            and w.pairing > 0
        )

    with criterion(capsys, 6, "surface cone duality") as checks:
        t0 = time.perf_counter()
        quadric = p1xp1_lattice()
        f1 = hirzebruch_f1_lattice()
        one = Fraction(1)

        hyp = DivisorClass((one, -one))
        rep = converse_ag_surface(hyp, quadric)
        checks["e1_minus_e2_witnessed"] = rep.one_ample and verified(rep, quadric, hyp)
        rep = converse_ag_surface(DivisorClass((-one, 0)), quadric)
        checks["minus_e1_rejected"] = not rep.one_ample and rep.witness is None
        rep = converse_ag_surface(DivisorClass((0, 0)), quadric)
        checks["zero_rejected"] = not rep.one_ample and rep.witness is None

        rng = np.random.default_rng(66)
        consistent = True
        for lattice in (quadric, f1):
            for _ in range(500):
                divisor = DivisorClass(
                    tuple(
                        Fraction(int(rng.integers(-12, 13)), int(rng.integers(1, 9)))
                        for _ in range(lattice.rank)
                    )
                )
                report = converse_ag_surface(divisor, lattice)
                consistent = (
                    consistent
                    and report.one_ample == (report.witness is not None)
                    and verified(report, lattice, divisor)
                )
        checks["witness_iff_one_ample_1000_random"] = consistent
        checks["runtime_under_5s"] = time.perf_counter() - t0 < 5.0


def test_07_relative_eigenvalue_machinery(capsys):
    with criterion(capsys, 7, "relative eigenvalue machinery") as checks:
        torus = TorusModel(n=2, grid_size=8)
        shape = (8, 1, 1, 8, 2, 2)
        shift_ok = brute_ok = margin_monotone = passed_monotone = True
        for seed in range(5):
            rng = np.random.default_rng(700 + seed)
            raw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            a_vals = 0.5 * (raw + raw.conj().swapaxes(-1, -2))
            c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            b_vals = c @ c.conj().swapaxes(-1, -2) + 2.0 * np.eye(2)
            a = HermitianFormField(torus, a_vals)
            b = HermitianFormField(torus, b_vals)
            lam = eigenvalues_relative(a, b, torus)
            scale = max(1.0, float(np.max(np.abs(lam))))

            shifted = eigenvalues_relative(HermitianFormField(torus, a_vals - b_vals), b, torus)
            shift_ok = shift_ok and float(np.max(np.abs(shifted - (lam - 1.0)))) <= 1e-12 * scale

            brute = np.sort(np.linalg.eigvals(np.linalg.solve(b_vals, a_vals)).real, axis=-1)[
                ..., ::-1
            ]
            brute_ok = brute_ok and float(np.max(np.abs(brute - lam))) <= 1e-10 * scale

            # the q-certificate's margin is the (n - q)-th largest eigenvalue, at least 1e-8 to pass
            margin0, margin1 = float(np.min(lam[..., 1])), float(np.min(lam[..., 0]))
            margin_monotone = margin_monotone and margin1 >= margin0
            passed_monotone = passed_monotone and (not margin0 > 1e-8 or margin1 > 1e-8)
        checks["shift_identity"] = shift_ok
        checks["brute_force_agreement"] = brute_ok
        checks["margin_monotone_in_q"] = margin_monotone
        checks["passed_monotone_in_q"] = passed_monotone


def test_08_glue_smoothing_and_inheritance(capsys):
    def pair_builders():
        def p1(x, y):
            return np.sin(TAU * x) + 0.3 * np.cos(TAU * y), np.cos(TAU * x) - 0.2 * np.sin(TAU * y)

        def p2(x, y):
            return 0.5 * np.cos(TAU * x) * np.cos(TAU * y), 0.4 * np.sin(TAU * x) * np.sin(
                2.0 * TAU * y
            )

        def p3(x, y):
            return np.cos(2.0 * TAU * x) + 0.1 * np.sin(TAU * y), 0.7 * np.cos(TAU * x) + 0.1

        return (p1, p2, p3)

    def deficit(grid_size, builder):
        torus = TorusModel(n=1, grid_size=grid_size)
        x, y = torus.real_coordinates()
        u, v = builder(x, y)
        field = PotentialField(torus, regularized_max(u, v, 0.1))
        gap = fd_complex_hessian(field, order=2).values - complex_hessian(field).values
        return float(np.max(np.abs(gap)))

    with criterion(capsys, 8, "glue smoothing and Hessian inheritance") as checks:
        t0 = time.perf_counter()
        torus = TorusModel(n=1, grid_size=64)
        x, y = torus.real_coordinates()
        sandwich = True
        for builder in pair_builders():
            u, v = builder(x, y)
            lower = np.maximum(u, v)
            for eps in (0.05, 0.1):
                m = regularized_max(u, v, eps)
                slack = 1e-13 * (float(np.max(np.abs(lower))) + eps + 1.0)
                sandwich = (
                    sandwich
                    and bool(np.all(m >= lower - slack))
                    and bool(np.all(m <= lower + eps * np.log(2.0) + slack))
                )
        checks["sandwich_every_point"] = sandwich

        for i, builder in enumerate(pair_builders(), start=1):
            checks[f"deficit_shrinks_pair_{i}"] = deficit(128, builder) < deficit(64, builder)

        qv = np.sin(np.pi * (x - 0.5)) ** 2 + np.sin(np.pi * (y - 0.5)) ** 2
        with np.errstate(divide="ignore"):
            singular_values = 0.025 * np.log(qv)
        singular = SingularPotential(torus, singular_values, lower_bound=0.5)
        report = zariski_fujita_pipeline(
            ConstantHermitianClass(np.array([[1.0 + 0j]])),
            PotentialField.zero(torus),
            singular,
        )
        checks["three_region_certificates"] = len(report.certificates) == 3
        checks["pipeline_certifies"] = all(c.passed for c in report.certificates)
        checks["runtime_under_30s"] = time.perf_counter() - t0 < 30.0


def test_09_rank_drop_scan_and_fibres(capsys):
    with criterion(capsys, 9, "rank-drop scan and fibre dimensions") as checks:
        pmap = PolyMap.from_text("0 1 0 1 0\n1 1 1 1 0", n=2, m=2)
        points = sample_box([(-1.0, 1.0)] * 4, 9)
        scan = degeneracy_locus_scan(pmap, 0, points)
        flagged = scan.flagged_points()
        cell = 2.0 / 8.0
        checks["locus_detected"] = flagged.shape[0] > 0
        checks["flagged_within_one_cell"] = (
            float(
                np.max(np.maximum(np.abs(flagged[:, 0].real), np.abs(flagged[:, 0].imag)))
            )
            <= cell + 1e-12
        )
        on_locus = np.abs(points[:, 0]) == 0.0
        checks["locus_samples_all_flagged"] = bool(np.all(scan.flagged[on_locus]))
        coordinate = PolyMap.from_text("0 1 0 1 0", n=2, m=1)
        checks["coordinate_fibre_is_curve"] = (
            fibre_dimension_estimate(coordinate, np.array([0j])) == 1
        )
        identity = PolyMap.from_text("0 1 0 1 0\n1 0 1 1 0", n=2, m=2)
        checks["identity_fibre_is_point"] = (
            fibre_dimension_estimate(identity, np.array([0j, 0j])) == 0
        )


def test_10_cli_determinism(capsys, tmp_path):
    def run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        return code, json.loads(out)

    with criterion(capsys, 10, "CLI determinism") as checks:
        certify_cfg = tmp_path / "certify.json"
        certify_cfg.write_text(
            json.dumps(
                {"line_class": [[2, 0], [0, -1]], "kahler": [[1, 0], [0, 1]], "grid": 64}
            )
        )
        surface_cfg = tmp_path / "surface.json"
        surface_cfg.write_text(
            json.dumps({"lattice": {"model": "p1xp1"}, "divisor": [1, -1]})
        )
        for name, argv in (
            ("certify", ["certify", "--config", str(certify_cfg)]),
            ("ag_surface", ["ag-surface", "--config", str(surface_cfg)]),
        ):
            code_a, first = run(argv)
            code_b, second = run(argv)
            blob = lambda r: json.dumps(r["verdict"], sort_keys=True).encode()
            checks[f"{name}_exit_codes_agree"] = code_a == code_b == 0
            checks[f"{name}_verdict_bytes_identical"] = blob(first) == blob(second)
            checks[f"{name}_digest_stable"] = first["inputs_digest"] == second["inputs_digest"]
