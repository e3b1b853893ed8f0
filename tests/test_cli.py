"""End-to-end tests of the command-line driver.

Each test calls ``main(argv)`` in-process and inspects the printed JSON
report, the exit code, and any artifacts written to a temporary out
directory.  Exit-code contract: 0 certified / predicate true, 1 well-posed
but not certified, 2 numerics failure, 3 invalid model, configuration or
command line.
"""

import argparse
import json
import os
from pathlib import Path

import numpy as np
import pytest

from qposlab import calculus
from qposlab.cli import main
from qposlab.fields_io import write_field
from qposlab.geometry import TorusModel

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

DIAG_2_M1 = [[2, 0], [0, -1]]
IDENTITY_2 = [[1, 0], [0, 1]]

MAP_F = {"n": 2, "m": 2, "monomials": [[0, 1, 0, 1, 0], [1, 1, 1, 1, 0]]}

GLUE_CONFIG = {
    "background": [[1]],
    "singular": {
        "type": "log_trig_pole",
        "center": [0.5, 0.5],
        "weight": 0.05,
        "lower_bound": 0.5,
    },
}


@pytest.fixture(autouse=True)
def _clean_environment(monkeypatch):
    for key in list(os.environ):
        if key.startswith("QPOSLAB_"):
            monkeypatch.delenv(key)


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


class TestIntersect:
    def test_frozen_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"classes": [DIAG_2_M1, IDENTITY_2]})
        code, report, err = run_cli(["intersect", "--config", cfg], capsys)
        assert code == 0
        assert err == ""
        assert report["command"] == "intersect"
        assert report["schema_version"] == 3
        assert report["trace"] == {}
        assert report["verdict"] == {"intersection_number": 4.0, "n": 2, "classes": 2}

    def test_re_im_pair_entries(self, tmp_path, capsys):
        classes = [[[2, [0, 0]], [[0, 0], -1]], IDENTITY_2]
        cfg = write_config(tmp_path, {"classes": classes})
        code, report, _ = run_cli(["intersect", "--config", cfg], capsys)
        assert code == 0
        assert report["verdict"]["intersection_number"] == 4.0

    def test_non_square_matrix_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"classes": [[[1, 0]], IDENTITY_2]})
        code, report, err = run_cli(["intersect", "--config", cfg], capsys)
        assert code == 3
        assert report is None
        assert "must be square" in err

    def test_missing_classes_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {})
        code, _, err = run_cli(["intersect", "--config", cfg], capsys)
        assert code == 3
        assert "missing required config key 'classes'" in err


class TestMASolve:
    def test_constant_density_newton(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"background": IDENTITY_2, "density_constant": 2.0, "grid": 8},
        )
        code, report, _ = run_cli(["ma-solve", "--config", cfg], capsys)
        assert code == 0
        verdict = report["verdict"]
        assert verdict["n"] == 2
        assert verdict["grid"] == 8
        assert verdict["iterations"] == 0
        assert verdict["residual"] == 0.0
        assert verdict["positivity_margin"] > 0.0
        assert verdict["compat_factor"] == pytest.approx(4.0)

    def test_n1_linear_path_and_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            {"background": [[1]], "density_constant": 3.0, "grid": 16},
        )
        code, report, _ = run_cli(["ma-solve", "--config", cfg, "--out", str(out)], capsys)
        assert code == 0
        assert report["verdict"]["iterations"] == 1
        assert report["verdict"]["residual"] == 0.0
        assert report["trace"]["newton"]["steps"] == [
            {"residual": 0.0, "cg_iterations": 0, "line_search_halvings": 0}
        ]
        names = {os.path.basename(p) for p in report["artifacts"]}
        assert names == {"phi.qpf", "phi_heatmap.csv"}
        for p in report["artifacts"]:
            assert os.path.exists(p)
        on_disk = json.loads((out / "report.json").read_text())
        assert on_disk == report

    def test_exactly_one_density_source(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "background": [[1]],
                "density_constant": 1.0,
                "density_file": "nope.qpf",
                "grid": 8,
            },
        )
        code, _, err = run_cli(["ma-solve", "--config", cfg], capsys)
        assert code == 3
        assert "exactly one of 'density_constant' or 'density_file'" in err

    def test_nonconvergence_exits_two(self, tmp_path, capsys):
        from qposlab.calculus import (
            HermitianFormField,
            PotentialField,
            complex_hessian,
            form_top_density,
        )

        torus = TorusModel(n=2, grid_size=8)
        x1 = torus.real_coordinates()[0]
        y2 = torus.real_coordinates()[3]
        phi = PotentialField(
            torus, 0.05 * (np.cos(2.0 * np.pi * x1) + 0.7 * np.sin(2.0 * np.pi * y2))
        )
        # Density of a genuinely curved metric: one damped step cannot reach tol.
        form = HermitianFormField.from_constant(torus, np.eye(2)) + complex_hessian(phi)
        density = form_top_density(form)
        assert np.min(density) > 0.0
        field_path = tmp_path / "density.qpf"
        write_field(field_path, torus, density)
        cfg = write_config(
            tmp_path,
            {
                "background": IDENTITY_2,
                "density_file": str(field_path),
                "grid": 8,
                "max_iter": 1,
                "tol": 1e-13,
            },
        )
        code, report, err = run_cli(["ma-solve", "--config", cfg], capsys)
        assert code == 2
        assert report is None
        assert err.startswith("numerics error:")


class TestCertify:
    def worked_config(self, tmp_path, **extra):
        data = {"line_class": DIAG_2_M1, "kahler": IDENTITY_2, "grid": 8}
        data.update(extra)
        return write_config(tmp_path, data)

    def test_worked_example_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = self.worked_config(tmp_path)
        code, report, _ = run_cli(["certify", "--config", cfg, "--out", str(out)], capsys)
        assert code == 0
        verdict = report["verdict"]
        assert verdict["passed"] is True
        assert verdict["q"] == 1
        assert verdict["k"] == 3
        assert verdict["dk"] == pytest.approx(10.0 / 9.0, abs=1e-12)
        assert verdict["pairing"] == pytest.approx(4.0, abs=1e-12)
        assert verdict["min_margin"] == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert verdict["ma_iterations"] == 0
        assert verdict["product_error"] < 1e-9
        names = {os.path.basename(p) for p in report["artifacts"]}
        assert "margin_heatmap.csv" in names
        assert (out / "report.json").exists()

    def test_trace_records_each_newton_step(self, tmp_path, capsys):
        cfg = self.worked_config(
            tmp_path, psi0={"type": "cosine", "amplitude": 0.1, "axis": 0}, tol=1e-12
        )
        code, report, _ = run_cli(["certify", "--config", cfg], capsys)
        assert code == 0
        newton = report["trace"]["newton"]
        steps = newton["steps"]
        assert len(steps) == report["verdict"]["ma_iterations"] >= 1
        assert newton["initial_residual"] > steps[0]["residual"]
        assert steps[-1]["residual"] == report["verdict"]["ma_residual"]
        for step in steps:
            assert set(step) == {"residual", "cg_iterations", "line_search_halvings"}
            assert step["cg_iterations"] >= 1 and step["line_search_halvings"] >= 0

    def test_q_zero_fails_with_exit_one(self, tmp_path, capsys):
        cfg = self.worked_config(tmp_path)
        code, report, err = run_cli(["certify", "--config", cfg, "--q", "0"], capsys)
        assert code == 1
        assert err == ""
        verdict = report["verdict"]
        assert verdict["passed"] is False
        assert verdict["q"] == 0
        assert verdict["min_margin"] == pytest.approx(-1.0 / 3.0, abs=1e-9)

    def test_cosine_psi0(self, tmp_path, capsys):
        cfg = self.worked_config(
            tmp_path, psi0={"type": "cosine", "amplitude": 0.1, "axis": 0}
        )
        code, report, _ = run_cli(["certify", "--config", cfg], capsys)
        assert code == 0
        verdict = report["verdict"]
        assert verdict["passed"] is True
        assert verdict["k"] == 3
        assert verdict["ma_iterations"] >= 1
        assert verdict["min_margin"] == pytest.approx(2.0 / 3.0, abs=1e-5)

    def test_typo_suggestions_collected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"line_clas": DIAG_2_M1, "kahlr": IDENTITY_2})
        code, _, err = run_cli(["certify", "--config", cfg], capsys)
        assert code == 3
        assert err.startswith("invalid configuration:")
        assert "unknown config key 'line_clas' (did you mean 'line_class'?)" in err
        assert "unknown config key 'kahlr' (did you mean 'kahler'?)" in err
        assert "missing required config key 'line_class'" in err
        assert "missing required config key 'kahler'" in err

    def test_shape_mismatch_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"line_class": DIAG_2_M1, "kahler": [[1]]})
        code, _, err = run_cli(["certify", "--config", cfg], capsys)
        assert code == 3
        assert "line_class is (2, 2) but kahler is (1, 1)" in err


class TestPseff:
    def test_rank_one_psd_passes(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"line_class": [[1, 0.5], [0.5, 0.25]], "kahler": IDENTITY_2, "grid": 8},
        )
        code, report, _ = run_cli(["pseff", "--config", cfg], capsys)
        assert code == 0
        verdict = report["verdict"]
        assert verdict["passed"] is True
        assert verdict["k"] == 1
        assert verdict["min_margin"] == pytest.approx(1.25, abs=1e-9)

    def test_indefinite_is_model_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"line_class": [[1, 0], [0, -1]], "kahler": IDENTITY_2, "grid": 8},
        )
        code, report, err = run_cli(["pseff", "--config", cfg], capsys)
        assert code == 3
        assert report is None
        assert err.startswith("model error:")

    def test_zero_class_is_model_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"line_class": [[0, 0], [0, 0]], "kahler": IDENTITY_2, "grid": 8},
        )
        code, _, err = run_cli(["pseff", "--config", cfg], capsys)
        assert code == 3
        assert err.startswith("model error:")


class TestAgSurface:
    def test_abelian_witness(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"lattice": {"model": "abelian_diag"}, "divisor": [2, -1]},
        )
        code, report, _ = run_cli(["ag-surface", "--config", cfg], capsys)
        assert code == 0
        verdict = report["verdict"]
        assert verdict["one_ample"] is True
        assert verdict["divisor"] == ["2", "-1"]
        assert verdict["witness"]["vector"] == ["1", "2"]
        assert verdict["witness"]["pairing"] == "12"
        assert "analytic" not in verdict
        assert report["trace"] == {}

    def test_not_ample_exits_one(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"lattice": {"model": "hirzebruch_f1"}, "divisor": [-1, 0]},
        )
        code, report, err = run_cli(["ag-surface", "--config", cfg], capsys)
        assert code == 1
        assert err == ""
        assert report["verdict"]["one_ample"] is False
        assert report["verdict"]["witness"] is None

    def test_unknown_model_suggestion(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"lattice": {"model": "p1xp2"}, "divisor": [1, 1]}
        )
        code, _, err = run_cli(["ag-surface", "--config", cfg], capsys)
        assert code == 3
        assert "unknown model 'p1xp2' (did you mean 'p1xp1'?)" in err

    def test_float_rational_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"lattice": {"model": "p1xp1"}, "divisor": [0.5, 1]}
        )
        code, _, err = run_cli(["ag-surface", "--config", cfg], capsys)
        assert code == 3
        assert "exact rationals are integers or 'p/q' strings" in err

    def test_explicit_lattice_and_rational_strings(self, tmp_path, capsys):
        lattice = {
            "rank": 2,
            "pairing": [[0, 1], [1, 0]],
            "nef_generators": [[1, 0], [0, 1]],
            "effective_generators": [[1, 0], [0, 1]],
            "name": "quadric",
        }
        cfg = write_config(
            tmp_path, {"lattice": lattice, "divisor": ["1/1", "-1"]}
        )
        code, report, _ = run_cli(["ag-surface", "--config", cfg], capsys)
        assert code == 0
        verdict = report["verdict"]
        assert verdict["lattice"] == "quadric"
        assert verdict["one_ample"] is True
        assert verdict["witness"]["pairing"] == "1"

    def test_analytic_run_attached(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "lattice": {"model": "abelian_diag"},
                "divisor": [2, -1],
                "analytic": {
                    "line_class": DIAG_2_M1,
                    "kahler": IDENTITY_2,
                    "omega_class": [1, 1],
                },
                "grid": 8,
            },
        )
        code, report, _ = run_cli(["ag-surface", "--config", cfg], capsys)
        assert code == 0
        analytic = report["verdict"]["analytic"]
        assert analytic["passed"] is True
        assert analytic["k"] == 3
        assert analytic["min_margin"] == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert report["trace"]["fft_workers"] == calculus.fft_workers()
        assert "newton" in report["trace"]["analytic"]


class TestDegeneracy:
    def test_rank_drop_scan_flags_axis(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            {
                "map": MAP_F,
                "per_axis": 9,
                "fibre_targets": [[[0, 0], [0, 0]], [[2, 0], [6, 0]]],
            },
        )
        code, report, err = run_cli(
            ["degeneracy", "--config", cfg, "--out", str(out)], capsys
        )
        assert code == 1
        assert err == ""
        verdict = report["verdict"]
        assert verdict["n"] == 2
        assert verdict["m"] == 2
        assert verdict["q"] == 0
        assert verdict["total_points"] == 9**4
        assert verdict["flagged_count"] == 81
        assert verdict["fibre_dimensions"] == [1, 0]
        flagged_csv = out / "flagged_points.csv"
        assert flagged_csv.exists()
        lines = flagged_csv.read_text().strip().splitlines()
        assert lines[0] == "re_z1,im_z1,re_z2,im_z2"
        assert len(lines) == 1 + 81
        for line in lines[1:]:
            re1, im1 = line.split(",")[:2]
            assert float(re1) == 0.0 and float(im1) == 0.0

    def test_q_one_tolerates_one_drop(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"map": MAP_F, "per_axis": 5})
        code, report, _ = run_cli(["degeneracy", "--config", cfg, "--q", "1"], capsys)
        assert code == 0
        assert report["verdict"]["flagged_count"] == 0
        assert report["verdict"]["fibre_dimensions"] is None

    def test_map_from_text_file(self, tmp_path, capsys):
        map_path = tmp_path / "map.txt"
        map_path.write_text("0 1 0 1 0\n1 1 1 1 0\n")
        cfg = write_config(
            tmp_path,
            {"map": {"n": 2, "m": 2, "file": str(map_path)}, "per_axis": 3},
        )
        code, report, _ = run_cli(["degeneracy", "--config", cfg], capsys)
        assert code == 1
        assert report["verdict"]["total_points"] == 3**4

    def test_bad_monomial_row_reported(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"map": {"n": 2, "m": 2, "monomials": [[0, 1, 0, 1]]}},
        )
        code, _, err = run_cli(["degeneracy", "--config", cfg], capsys)
        assert code == 3
        assert "expected [component, 2 exponents, re, im]" in err


class TestGlue:
    def test_worked_example(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, GLUE_CONFIG)
        code, report, _ = run_cli(["glue", "--config", cfg, "--out", str(out)], capsys)
        assert code == 0
        verdict = report["verdict"]
        assert verdict["q"] == 0
        assert verdict["threshold"] == 0.125
        assert verdict["smoothing_eps"] == 1.0
        assert verdict["declarations"]["threshold"] == 0.125
        assert verdict["declarations"]["buffer_margin"] == pytest.approx(1.0, abs=1e-12)
        regions = {r["name"]: r for r in verdict["regions"]}
        assert set(regions) == {"outside U_C", "V_C", "U_C minus V_C"}
        assert all(r["passed"] for r in regions.values())
        assert regions["outside U_C"]["n_points"] == 4015
        assert regions["V_C"]["n_points"] == 1
        assert regions["U_C minus V_C"]["n_points"] == 56
        names = {os.path.basename(p) for p in report["artifacts"]}
        assert names == {"psi.qpf", "psi_heatmap.csv"}

    def test_empty_region_is_not_certified(self, capsys):
        # At grid 256 the buffer branch wins at no grid point outside the
        # switching band, so V_C holds nothing and cannot pass.
        cfg = str(CONFIGS / "glue.json")
        code, report, _ = run_cli(["glue", "--config", cfg, "--grid", "256"], capsys)
        assert code == 1
        regions = {r["name"]: r for r in report["verdict"]["regions"]}
        assert regions["V_C"]["n_points"] == 0
        assert regions["V_C"]["passed"] is False
        assert regions["outside U_C"]["passed"] and regions["U_C minus V_C"]["passed"]

    def test_unreachable_margin_exits_two(self, tmp_path, capsys):
        data = dict(GLUE_CONFIG)
        data["margin"] = 50.0
        data["eps_min"] = 2.0**-4
        cfg = write_config(tmp_path, data)
        code, report, err = run_cli(["glue", "--config", cfg], capsys)
        assert code == 2
        assert report is None
        assert err.startswith("numerics error:")

    def test_q_one_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, GLUE_CONFIG)
        code, _, err = run_cli(["glue", "--config", cfg, "--q", "1"], capsys)
        assert code == 3
        assert err.startswith("model error:")


class TestSettingsAndReport:
    def masolve_config(self, tmp_path, **extra):
        data = {"background": [[1]], "density_constant": 2.0, "grid": 8}
        data.update(extra)
        return write_config(tmp_path, data)

    def test_precedence_config_env_flag(self, tmp_path, capsys, monkeypatch):
        cfg = self.masolve_config(tmp_path)
        _, report, _ = run_cli(["ma-solve", "--config", cfg], capsys)
        assert report["verdict"]["grid"] == 8
        monkeypatch.setenv("QPOSLAB_GRID", "16")
        _, report, _ = run_cli(["ma-solve", "--config", cfg], capsys)
        assert report["verdict"]["grid"] == 16
        _, report, _ = run_cli(["ma-solve", "--config", cfg, "--grid", "32"], capsys)
        assert report["verdict"]["grid"] == 32

    def test_unreadable_env_value_rejected(self, tmp_path, capsys, monkeypatch):
        cfg = self.masolve_config(tmp_path)
        monkeypatch.setenv("QPOSLAB_TOL", "abc")
        code, _, err = run_cli(["ma-solve", "--config", cfg], capsys)
        assert code == 3
        assert "environment QPOSLAB_TOL: cannot read tol='abc'" in err

    @pytest.mark.parametrize(
        "tol", [float("nan"), float("inf"), -float("inf"), 0.0], ids=["nan", "inf", "-inf", "zero"]
    )
    def test_non_finite_config_tol_rejected(self, tmp_path, capsys, tol):
        # NaN used to skip the Newton loop and certify an unsolved problem.
        data = {"line_class": DIAG_2_M1, "kahler": IDENTITY_2, "grid": 8, "tol": tol}
        code, report, err = run_cli(["certify", "--config", write_config(tmp_path, data)], capsys)
        assert code == 3
        assert report is None
        assert f"config: tol must be a finite positive number, got {tol!r}" in err

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "-1e-9"])
    def test_non_finite_env_tol_rejected(self, tmp_path, capsys, monkeypatch, text):
        cfg = write_config(tmp_path, {"line_class": DIAG_2_M1, "kahler": IDENTITY_2, "grid": 8})
        monkeypatch.setenv("QPOSLAB_TOL", text)
        code, report, err = run_cli(["certify", "--config", cfg], capsys)
        assert code == 3
        assert report is None
        assert f"environment QPOSLAB_TOL: tol must be a finite positive number, got {text!r}" in err

    def test_non_finite_flag_tol_rejected(self, tmp_path, capsys):
        cfg = self.masolve_config(tmp_path)
        code, report, err = run_cli(["ma-solve", "--config", cfg, "--tol", "nan"], capsys)
        assert code == 3
        assert report is None
        assert "--tol: tol must be a finite positive number, got nan" in err

    @pytest.mark.parametrize("dc", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
    def test_non_finite_density_constant_rejected(self, tmp_path, capsys, dc):
        cfg = self.masolve_config(tmp_path, density_constant=dc)
        code, report, err = run_cli(["ma-solve", "--config", cfg], capsys)
        assert code == 3
        assert report is None
        assert f"density_constant must be a finite positive number, got {dc!r}" in err

    def test_main_reuses_one_parser_and_parses_each_call_afresh(self, tmp_path, capsys, monkeypatch):
        seen = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(parser, *args, **kwargs):
            namespace = parse_args(parser, *args, **kwargs)
            seen.append((parser, namespace))
            return namespace

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        cfg = self.masolve_config(tmp_path)
        _, first, _ = run_cli(["ma-solve", "--config", cfg, "--grid", "16"], capsys)
        _, second, _ = run_cli(["ma-solve", "--config", cfg], capsys)
        (parser_a, ns_a), (parser_b, ns_b) = seen
        assert parser_a is parser_b
        assert ns_a is not ns_b
        assert (ns_a.grid, ns_b.grid) == (16, None)
        assert (first["verdict"]["grid"], second["verdict"]["grid"]) == (16, 8)

    @pytest.mark.parametrize(
        "command, config, spectral",
        [
            ("certify", {"line_class": DIAG_2_M1, "kahler": IDENTITY_2, "grid": 8}, True),
            ("pseff", {"line_class": [[1, 0], [0, 0]], "kahler": IDENTITY_2, "grid": 8}, True),
            ("ma-solve", {"background": [[1]], "density_constant": 2.0, "grid": 8}, True),
            ("glue", {**GLUE_CONFIG, "grid": 16}, True),
            ("intersect", {"classes": [IDENTITY_2, IDENTITY_2]}, False),
            ("degeneracy", {"map": MAP_F, "per_axis": 3}, False),
        ],
    )
    def test_trace_names_fft_workers_where_fields_are_transformed(
        self, tmp_path, capsys, command, config, spectral
    ):
        _, report, _ = run_cli([command, "--config", write_config(tmp_path, config)], capsys)
        if spectral:
            assert report["trace"]["fft_workers"] == calculus.fft_workers() >= 1
            assert "fft_workers" not in report["verdict"]
        else:
            assert "fft_workers" not in report["trace"]

    def test_workers_is_an_unknown_key(self, tmp_path, capsys):
        cfg = self.masolve_config(tmp_path, workers=2)
        code, report, err = run_cli(["ma-solve", "--config", cfg], capsys)
        assert code == 3
        assert report is None
        assert "unknown config key 'workers'" in err

    @pytest.mark.parametrize(
        "argv",
        [["certify", "--grid", "abc"], ["certify", "--bogus"], [], ["ma-solve", "--workers", "2"]],
        ids=["bad-grid", "unknown-flag", "no-subcommand", "workers-flag"],
    )
    def test_usage_errors_exit_three(self, capsys, argv):
        assert main(argv) == 3
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["certify", "pseff"])
    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"margin": "abc"}, "margin must be a finite nonnegative number, got 'abc'"),
            ({"margin": -1}, "margin must be a finite nonnegative number, got -1"),
            ({"margin": float("nan")}, "margin must be a finite nonnegative number, got nan"),
            ({"max_iter": "x"}, "max_iter must be a positive integer, got 'x'"),
            ({"max_iter": 2.5}, "max_iter must be a positive integer, got 2.5"),
        ],
        ids=["margin-text", "margin-negative", "margin-nan", "max_iter-text", "max_iter-fraction"],
    )
    def test_bad_max_iter_or_margin_is_config_error(self, tmp_path, capsys, command, extra, message):
        data = {"line_class": [[1, 0.5], [0.5, 0.25]], "kahler": IDENTITY_2, "grid": 8, **extra}
        code, report, err = run_cli([command, "--config", write_config(tmp_path, data)], capsys)
        assert code == 3
        assert report is None
        assert err.startswith("invalid configuration:")
        assert message in err

    def test_verdict_deterministic_and_digest_stable(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"line_class": DIAG_2_M1, "kahler": IDENTITY_2, "grid": 8}
        )
        _, first, _ = run_cli(["certify", "--config", cfg], capsys)
        _, second, _ = run_cli(["certify", "--config", cfg], capsys)
        dump = lambda r: json.dumps(r["verdict"], sort_keys=True)
        assert dump(first) == dump(second)
        assert first["inputs_digest"] == second["inputs_digest"]

    def test_digest_ignores_out(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"line_class": DIAG_2_M1, "kahler": IDENTITY_2, "grid": 8}
        )
        _, plain, _ = run_cli(["certify", "--config", cfg], capsys)
        out = tmp_path / "out"
        _, decorated, _ = run_cli(["certify", "--config", cfg, "--out", str(out)], capsys)
        assert plain["inputs_digest"] == decorated["inputs_digest"]
        assert plain["verdict"] == decorated["verdict"]

    def test_digest_tracks_settings(self, tmp_path, capsys, monkeypatch):
        cfg = self.masolve_config(tmp_path)
        _, base, _ = run_cli(["ma-solve", "--config", cfg], capsys)
        monkeypatch.setenv("QPOSLAB_GRID", "16")
        _, changed, _ = run_cli(["ma-solve", "--config", cfg], capsys)
        assert base["inputs_digest"] != changed["inputs_digest"]

    def test_digest_tracks_referenced_file_content(self, tmp_path, capsys):
        map_path = tmp_path / "map.txt"
        map_path.write_text("0 1 0 1 0\n1 1 1 1 0\n")
        cfg = write_config(
            tmp_path,
            {"map": {"n": 2, "m": 2, "file": str(map_path)}, "per_axis": 3},
        )
        _, base, _ = run_cli(["degeneracy", "--config", cfg], capsys)
        map_path.write_text("0 1 0 1 0\n1 1 1 1 0\n1 0 0 2 0\n")
        _, changed, _ = run_cli(["degeneracy", "--config", cfg], capsys)
        assert base["inputs_digest"] != changed["inputs_digest"]

    def test_config_file_not_found(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        code, _, err = run_cli(["intersect", "--config", missing], capsys)
        assert code == 3
        assert f"config file not found: {missing}" in err

    def test_config_not_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("not json {")
        code, _, err = run_cli(["intersect", "--config", str(path)], capsys)
        assert code == 3
        assert "config file is not valid JSON" in err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        assert "qposlab" in capsys.readouterr().out


SHIPPED = {
    "ag_surface.json": ("ag-surface", 0),
    "ag_surface_analytic.json": ("ag-surface", 0),
    "certify.json": ("certify", 0),
    "degeneracy.json": ("degeneracy", 1),  # the scan finds the rank-drop locus
    "glue.json": ("glue", 0),
    "intersect.json": ("intersect", 0),
    "masolve.json": ("ma-solve", 0),
    "pseff.json": ("pseff", 0),
}


def test_every_shipped_config_is_listed():
    assert sorted(p.name for p in CONFIGS.glob("*.json")) == sorted(SHIPPED)


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_config_exit_code(name, capsys):
    command, expected = SHIPPED[name]
    code, report, err = run_cli([command, "--config", str(CONFIGS / name)], capsys)
    assert code == expected, err
    assert report["command"] == command
