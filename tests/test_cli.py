"""End-to-end tests of the command-line driver.

Each test calls ``main(argv)`` in-process and inspects the printed JSON
report, the exit code, and any artifacts written to a temporary out
directory.  Exit-code contract: 0 certified / predicate true, 1 well-posed
but not certified, 2 numerics failure, 3 invalid model, configuration or
command line.
"""

import argparse
import copy
import json
import os
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qposlab import calculus, cli, ma_solver
from qposlab.cli import main
from qposlab.fields_io import write_field
from qposlab.geometry import TorusModel
from qposlab.maps_degeneracy import sample_box

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


def _pole_values(grid):
    """GLUE_CONFIG's log-trig pole on the n = 1 grid, -inf at the centre."""
    x = np.arange(grid) / grid
    with np.errstate(divide="ignore"):
        return 0.025 * np.log(np.sin(np.pi * (x[:, None] - 0.5)) ** 2 + np.sin(np.pi * (x[None, :] - 0.5)) ** 2)


# Every config key that names an input file, as (command, dotted key): a config
# that lacks only that key, the file's name, and its text or grid values.
FILE_KEYS = {
    ("ma-solve", "density_file"): ({"background": [[1]], "grid": 8}, "density.qpf", np.full((8, 8), 2.0)),
    ("certify", "psi0.path"): (
        {"line_class": DIAG_2_M1, "kahler": IDENTITY_2, "grid": 8, "psi0": {"type": "file"}},
        "psi0.qpf",
        0.02 * np.cos(2 * np.pi * np.arange(8) / 8).reshape(8, 1, 1, 1),
    ),
    ("degeneracy", "map.file"): ({"map": {"n": 2, "m": 2}, "per_axis": 3}, "map.txt", "0 1 0 1 0\n1 1 1 1 0\n"),
    ("glue", "buffer_file"): (GLUE_CONFIG, "buffer.qpf", np.zeros((64, 64))),
    ("glue", "singular.path"): (
        {"background": [[1]], "singular": {"type": "file", "lower_bound": 0.5}},
        "pole.qpf",
        _pole_values(64),
    ),
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
        assert report["schema_version"] == 5
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
        assert list(report["trace"]["newton"]) == ["levels"]
        (level,) = report["trace"]["newton"]["levels"]
        assert (level["grid"], level["ended"]) == (16, "converged")
        assert level["steps"] == [{"residual": 0.0, "cg_iterations": 0, "line_search_halvings": 0}]
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
        from qposlab.calculus import HermitianFormField, PotentialField, complex_hessian, hermitian_det

        torus = TorusModel(n=2, grid_size=8)
        x1 = torus.real_coordinates()[0]
        y2 = torus.real_coordinates()[3]
        phi = PotentialField(
            torus, 0.05 * (np.cos(2.0 * np.pi * x1) + 0.7 * np.sin(2.0 * np.pi * y2))
        )
        # Density of a genuinely curved metric: one damped step cannot reach tol.
        form = HermitianFormField.from_constant(torus, np.eye(2)) + complex_hessian(phi)
        density = 8.0 * hermitian_det(form.diag, form.upper)  # n! 2^n det, n = 2
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

    def test_non_finite_psi0_file_exits_three(self, tmp_path, capsys):
        torus = TorusModel(n=2, grid_size=8)
        values = np.zeros((8, 1, 1, 1))
        values[3] = np.nan
        path = tmp_path / "psi0.qpf"
        write_field(path, torus, values)
        cfg = self.worked_config(tmp_path, psi0={"type": "file", "path": str(path)})
        code, report, err = run_cli(["certify", "--config", cfg], capsys)
        assert code == 3 and report is None
        assert str(path) in err and "non-finite" in err

    @pytest.mark.parametrize(
        "name, content",
        [
            ("psi0.qpf", b"QPF1" + b"\x02\x00\x00\x00"),
            ("psi0.csv", b"# qposlab-field n=2 grid\n"),
            ("psi0.csv", b"# qposlab-field n=2 grid=8 shape=8x8\n1.0,2.0,3.0\n"),
        ],
        ids=["truncated-binary", "csv-header", "csv-short"],
    )
    def test_malformed_psi0_file_exits_three(self, tmp_path, capsys, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        cfg = self.worked_config(tmp_path, psi0={"type": "file", "path": str(path)})
        code, report, err = run_cli(["certify", "--config", cfg], capsys)
        assert code == 3 and report is None
        assert str(path) in err

    def test_full_grid_psi0_writes_no_heatmap(self, tmp_path, capsys):
        torus = TorusModel(n=2, grid_size=8)
        xs = torus.real_coordinates()
        path = tmp_path / "psi0.qpf"
        write_field(path, torus, 0.02 * sum(np.cos(2 * np.pi * x) for x in xs))
        out = tmp_path / "out"
        cfg = self.worked_config(tmp_path, psi0={"type": "file", "path": str(path)}, tol=1e-12)
        code, report, _ = run_cli(["certify", "--config", cfg, "--out", str(out)], capsys)
        assert code == 0
        assert {os.path.basename(p) for p in report["artifacts"]} == {"phi.qpf"}

    def test_trace_records_each_newton_step(self, tmp_path, capsys):
        cfg = self.worked_config(
            tmp_path, psi0={"type": "cosine", "amplitude": 0.1, "axis": 0}, tol=1e-12
        )
        code, report, _ = run_cli(["certify", "--config", cfg], capsys)
        assert code == 0
        newton = report["trace"]["newton"]
        assert list(newton) == ["levels"] and [level["grid"] for level in newton["levels"]] == [8]
        (level,) = newton["levels"]
        steps = level["steps"]
        assert len(steps) == report["verdict"]["ma_iterations"] >= 1
        assert level["initial_residual"] > steps[0]["residual"]
        assert steps[-1]["residual"] == report["verdict"]["ma_residual"]
        for step in steps:
            assert set(step) == {"residual", "cg_iterations", "line_search_halvings"}
            assert step["cg_iterations"] >= 1 and step["line_search_halvings"] >= 0
        assert level["ended"] == "converged"

    def test_trace_records_each_grid_level(self, tmp_path, capsys):
        cfg = self.worked_config(
            tmp_path, psi0={"type": "cosine", "amplitude": 0.1, "axis": 0}, tol=1e-12, grid=16
        )
        code, report, _ = run_cli(["certify", "--config", cfg], capsys)
        assert code == 0
        newton = report["trace"]["newton"]
        assert list(newton) == ["levels"]
        levels = newton["levels"]
        assert [level["grid"] for level in levels] == [8, 16]
        for level in levels:
            assert set(level) == {"grid", "initial_residual", "steps", "ended", "wall_s"}
            assert level["wall_s"] >= 0 and level["ended"] in ("converged", "stalled")
        assert len(levels[-1]["steps"]) == report["verdict"]["ma_iterations"]
        assert levels[-1]["initial_residual"] > 0.0
        assert levels[-1]["ended"] == "converged" and report["verdict"]["ma_residual"] <= 1e-12

    def test_coarse_levels_stop_at_the_rounding_floor(self, capsys):
        # The shipped input solves on grid 64 from grids 8, 16 and 32.  Grid 16 starts at
        # rounding level and takes no step; no coarse level steps from at or below the floor.
        code, report, _ = run_cli(["certify", "--config", str(CONFIGS / "certify.json")], capsys)
        assert code == 0
        levels = report["trace"]["newton"]["levels"]
        assert [level["grid"] for level in levels] == [8, 16, 32, 64]
        assert levels[1]["initial_residual"] <= ma_solver._COARSE_FLOOR and levels[1]["steps"] == []
        for level in levels[:-1]:
            residuals = [level["initial_residual"]] + [step["residual"] for step in level["steps"]]
            assert all(residual > ma_solver._COARSE_FLOOR for residual in residuals[:-1])

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

    def test_shape_error_comes_before_the_psd_test(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"line_class": [[1, 0], [0, -1]], "kahler": [[1]], "grid": 8})
        code, report, err = run_cli(["pseff", "--config", cfg], capsys)
        assert code == 3 and report is None
        assert "line_class is (2, 2) but kahler is (1, 1)" in err
        assert "indefinite" not in err

    def test_verdict_is_the_certify_verdict(self, tmp_path, capsys):
        # pseff is certify behind a PSD check: same classes and grid, no psi0, default q.
        config = json.loads((CONFIGS / "pseff.json").read_text())
        cfg = write_config(
            tmp_path, {key: config[key] for key in ("line_class", "kahler", "grid")}, name="certify.json"
        )
        verdicts = []
        for argv in (["pseff", "--config", str(CONFIGS / "pseff.json")], ["certify", "--config", cfg]):
            code, report, _ = run_cli(argv, capsys)
            assert code == 0
            verdicts.append(json.dumps(report["verdict"], sort_keys=True))
        assert verdicts[0] == verdicts[1]


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

    @pytest.mark.parametrize("entry", ["1e5000", "0.5", "1/0", "1" * 101, "1/" + "1" * 101])
    def test_rational_strings_outside_the_rule_exit_three(self, tmp_path, capsys, entry):
        cfg = write_config(tmp_path, {"lattice": {"model": "p1xp1"}, "divisor": [entry, -1]})
        code, report, err = run_cli(["ag-surface", "--config", cfg], capsys)
        assert code == 3 and report is None
        assert "divisor[0]" in err and "exact rationals are integers or 'p/q' strings" in err

    def test_integers_beyond_the_digit_cap_exit_three(self, tmp_path, capsys):
        # 2,200-digit JSON integers: the cone decision would succeed, and
        # printing the witness would pass Python's 4300-digit limit.
        big = int("3" * 2200)
        lattice = {
            "rank": 2,
            "pairing": [[0, big], [big, 0]],
            "nef_generators": [[1, 0], [0, 1]],
            "effective_generators": [[1, 0], [0, 1]],
        }
        cfg = write_config(tmp_path, {"lattice": lattice, "divisor": [int("7" * 2200), -1]})
        code, report, err = run_cli(["ag-surface", "--config", cfg], capsys)
        assert code == 3 and report is None
        assert "divisor[0]" in err and "exact rationals are integers or 'p/q' strings" in err

    def test_integer_at_the_digit_cap_is_read(self, tmp_path, capsys):
        big = 10**100 - 1
        cfg = write_config(tmp_path, {"lattice": {"model": "p1xp1"}, "divisor": [big, 1]})
        code, report, _ = run_cli(["ag-surface", "--config", cfg], capsys)
        assert code == 0
        assert report["verdict"]["divisor"] == [str(big), "1"]
        assert report["verdict"]["witness"]["pairing"] == str(2 * big + 1)

    def test_every_entry_at_the_digit_cap_prints_its_witness(self, tmp_path, capsys):
        # The degree-6 del Pezzo lattice (basis H, E1, E2, E3; pairing
        # diag(1, -1, -1, -1)) with its pairing, every generator and the
        # divisor scaled by 100-digit rationals: every non-zero entry is a
        # 100-digit numerator over a 100-digit denominator.
        rng = np.random.default_rng(100)

        def scale(coefficients):
            num = int("".join(str(d) for d in rng.integers(0, 10, 99))) + 10**99  # 2 * num and 3 * num keep 100 digits
            den = int("".join(str(d) for d in rng.integers(0, 10, 99))) + 10**99
            return [f"{c * num}/{den}" if c else 0 for c in coefficients]

        diagonal = scale([1, -1, -1, -1])
        pairing = [[diagonal[i] if i == j else 0 for j in range(4)] for i in range(4)]
        effective = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, -1, -1, 0], [1, -1, 0, -1], [1, 0, -1, -1]]
        nef = [[1, 0, 0, 0], [1, -1, 0, 0], [1, 0, -1, 0], [1, 0, 0, -1], [2, -1, -1, -1]]
        lattice = {
            "rank": 4,
            "pairing": pairing,
            "effective_generators": [scale(g) for g in effective],
            "nef_generators": [scale(g) for g in nef],
        }
        divisor = scale([3, -1, -1, -1])
        entries = [e for row in pairing for e in row] + divisor
        entries += [e for g in lattice["effective_generators"] + lattice["nef_generators"] for e in g]
        assert {len(part.lstrip("-")) for e in entries if e for part in e.split("/")} == {100}
        cfg = write_config(tmp_path, {"lattice": lattice, "divisor": divisor})
        code, report, _ = run_cli(["ag-surface", "--config", cfg], capsys)
        assert code == 0
        witness = report["verdict"]["witness"]
        vector, d = [Fraction(c) for c in witness["vector"]], [Fraction(c) for c in divisor]
        q = [[Fraction(e) for e in row] for row in pairing]
        assert Fraction(witness["pairing"]) == sum(d[i] * q[i][j] * vector[j] for i in range(4) for j in range(4)) > 0

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

    def test_analytic_model_consistency_checked(self, tmp_path, capsys):
        # Q((2, -1), (1, 1)) = 4 on the lattice, but diag(2, -1) . 2I = 8
        analytic = {"line_class": DIAG_2_M1, "kahler": [[2, 0], [0, 2]], "omega_class": [1, 1]}
        cfg = write_config(
            tmp_path, {"lattice": {"model": "abelian_diag"}, "divisor": [2, -1], "analytic": analytic, "grid": 8}
        )
        code, report, err = run_cli(["ag-surface", "--config", cfg], capsys)
        assert code == 3 and report is None
        assert err.startswith("model error: analytic model inconsistent with the lattice")

    @pytest.mark.parametrize("omega", [[1], [1, 1, 5]])
    def test_omega_class_of_another_rank_exits_three(self, tmp_path, capsys, omega):
        analytic = {"line_class": DIAG_2_M1, "kahler": IDENTITY_2, "omega_class": omega}
        cfg = write_config(
            tmp_path, {"lattice": {"model": "abelian_diag"}, "divisor": [2, -1], "analytic": analytic, "grid": 8}
        )
        code, report, err = run_cli(["ag-surface", "--config", cfg], capsys)
        assert code == 3 and report is None
        assert err.startswith("model error:") and "omega_class" in err

    def test_analytic_grid_is_checked_before_the_cone_decision(self, tmp_path, capsys):
        # (-1, -1) is not 1-ample, so no analytic run follows; grid 12 still exits 3.
        analytic = {"line_class": DIAG_2_M1, "kahler": IDENTITY_2, "omega_class": [1, 1]}
        cfg = write_config(
            tmp_path, {"lattice": {"model": "abelian_diag"}, "divisor": [-1, -1], "analytic": analytic, "grid": 12}
        )
        code, report, err = run_cli(["ag-surface", "--config", cfg], capsys)
        assert code == 3 and report is None
        assert "grid_size must be a power of two" in err


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

    def test_flagged_csv_rows_are_float_reprs(self, tmp_path, capsys):
        # (z1, z1 z2) drops rank exactly on z1 = 0; the z2 box gives fractional parts
        box = [[-1, 1], [-1, 1], [-0.7, 0.35], [0.1, 2.0 / 3.0]]
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"map": MAP_F, "per_axis": 5, "box": box})
        code, _, _ = run_cli(["degeneracy", "--config", cfg, "--out", str(out)], capsys)
        assert code == 1
        pts = sample_box(box, 5)
        rows = [",".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row) for row in pts[pts[:, 0] == 0]]
        assert len(rows) == 25
        expect = "re_z1,im_z1,re_z2,im_z2\n" + "".join(row + "\n" for row in rows)
        assert (out / "flagged_points.csv").read_text() == expect

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

    def test_non_finite_buffer_file_exits_three(self, tmp_path, capsys):
        values = np.zeros((64, 64))
        values[0, 0] = np.nan  # far from the pole at the centre
        path = tmp_path / "buffer.qpf"
        write_field(path, TorusModel(n=1, grid_size=64), values)
        cfg = write_config(tmp_path, {**GLUE_CONFIG, "buffer_file": str(path)})
        code, report, err = run_cli(["glue", "--config", cfg], capsys)
        assert code == 3 and report is None
        assert str(path) in err and "non-finite" in err

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

    def test_trace_holds_the_ladder_outside_the_verdict(self, tmp_path, capsys):
        cfg = write_config(tmp_path, GLUE_CONFIG)
        _, report, _ = run_cli(["glue", "--config", cfg], capsys)
        trace = report["trace"]
        assert trace["switching_band_points"] == 24
        assert [step["eps"] for step in trace["smoothing"]] == [1.0]
        assert trace["smoothing"][0]["regions"] == [
            {"name": r["name"], "min_margin": r["min_margin"], "passed": r["passed"]}
            for r in report["verdict"]["regions"]
        ]
        assert "smoothing" not in report["verdict"]

    @pytest.mark.parametrize("eps_min", [float("nan"), float("inf"), 0.0, -1.0, 2.0, True])
    def test_bad_eps_min_exits_three(self, tmp_path, capsys, eps_min):
        cfg = write_config(tmp_path, {**GLUE_CONFIG, "eps_min": eps_min})
        code, report, err = run_cli(["glue", "--config", cfg], capsys)
        assert code == 3
        assert report is None
        assert "eps_min" in err

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
        in_config = write_config(
            tmp_path, {"line_class": DIAG_2_M1, "kahler": IDENTITY_2, "grid": 8, "out": str(out)}, "out.json"
        )
        assert run_cli(["certify", "--config", in_config], capsys)[1]["inputs_digest"] == plain["inputs_digest"]

    def test_digest_tracks_settings(self, tmp_path, capsys, monkeypatch):
        cfg = self.masolve_config(tmp_path)
        _, base, _ = run_cli(["ma-solve", "--config", cfg], capsys)
        monkeypatch.setenv("QPOSLAB_GRID", "16")
        _, changed, _ = run_cli(["ma-solve", "--config", cfg], capsys)
        assert base["inputs_digest"] != changed["inputs_digest"]

    @pytest.mark.parametrize("command, key", sorted(FILE_KEYS))
    def test_digest_tracks_referenced_file_content(self, tmp_path, capsys, command, key):
        base, name, content = FILE_KEYS[(command, key)]
        path = tmp_path / name
        if isinstance(content, str):
            path.write_text(content)
        else:
            write_field(path, TorusModel(n=content.ndim // 2, grid_size=content.shape[0]), content)
        data = copy.deepcopy(base)
        *parents, leaf = key.split(".")
        target = data
        for parent in parents:
            target = target[parent]
        target[leaf] = str(path)
        cfg = write_config(tmp_path, data)
        code, first, err = run_cli([command, "--config", cfg], capsys)
        assert code in (0, 1), err
        # one byte: a digit of the map text's last coefficient, or the low
        # mantissa byte of the last number of a field file
        raw = bytearray(path.read_bytes())
        raw[-2 if isinstance(content, str) else -8] ^= 1
        path.write_bytes(bytes(raw))
        code, second, err = run_cli([command, "--config", cfg], capsys)
        assert code in (0, 1), err
        assert first["inputs_digest"] != second["inputs_digest"]

    def test_every_file_key_has_a_digest_test(self):
        def file_keys(kind, where):
            if isinstance(kind, cli._File):
                yield where
            elif isinstance(kind, cli._Object):
                for table in kind.tables.values():
                    for key, spec in table.items():
                        yield from file_keys(spec.kind, f"{where}.{key}")
            elif isinstance(kind, cli._List) and kind.item is not None:
                yield from file_keys(kind.item, f"{where}[]")

        found = {
            (command, key)
            for command, (_, table, _) in cli._COMMANDS.items()
            for name, spec in table.items()
            for key in file_keys(spec.kind, name)
        }
        assert found == set(FILE_KEYS)

    def test_report_writes_numpy_complex_and_fraction_values(self, tmp_path, capsys, monkeypatch):
        help_text, table, _ = cli._COMMANDS["intersect"]
        monkeypatch.setitem(cli._COMMANDS, "intersect", (help_text, table, lambda v: (0, MIXED, [], MIXED)))
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"classes": [IDENTITY_2]})
        assert main(["intersect", "--config", cfg, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert text == (out / "report.json").read_text()
        nested = MIXED_TEXT.replace("\n", "\n  ")
        assert f'\n  "trace": {nested},\n' in text
        assert text.endswith(f'\n  "verdict": {nested}\n}}\n')

    def test_digest_does_not_depend_on_where_the_inputs_sit(self, tmp_path, capsys):
        torus = TorusModel(n=2, grid_size=8)
        psi0 = 0.02 * np.cos(2 * np.pi * torus.real_coordinates()[0])
        reports = []
        for place in ("a", "b/deeper"):
            work = tmp_path / place
            work.mkdir(parents=True)
            write_field(work / "psi0.qpf", torus, np.broadcast_to(psi0, torus.shape))
            data = {"line_class": DIAG_2_M1, "kahler": IDENTITY_2, "grid": 8,
                    "psi0": {"type": "file", "path": str(work / "psi0.qpf")}}
            reports.append(run_cli(["certify", "--config", write_config(work, data)], capsys)[1])
        assert reports[0]["verdict"] == reports[1]["verdict"]
        assert reports[0]["inputs_digest"] == reports[1]["inputs_digest"]

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


MIXED = {
    "bool": np.bool_(True),
    "int": np.int64(-7),
    "float": np.float64(0.1),
    "inf": np.float64("inf"),
    "nan": np.float64("nan"),
    "complex": complex(1.5, -2.0),
    "np_complex": np.complex128(0.25 + 1e-17j),
    "real_array": np.array([[1.0, 2.5], [-0.0, 3.0]]),
    "complex_array": np.array([1 + 2j, -0.5j]),
    "fraction": Fraction(-10, 9),
    "tuple": (np.int64(3), 4, (np.float64(0.5), None)),
}
# MIXED as the report wrote it when every value was first converted to plain
# Python, frozen: numpy scalars as Python numbers, complex numbers as [re, im].
MIXED_TEXT = """{
  "bool": true,
  "complex": [
    1.5,
    -2.0
  ],
  "complex_array": [
    [
      1.0,
      2.0
    ],
    [
      -0.0,
      -0.5
    ]
  ],
  "float": 0.1,
  "fraction": "-10/9",
  "inf": Infinity,
  "int": -7,
  "nan": NaN,
  "np_complex": [
    0.25,
    1e-17
  ],
  "real_array": [
    [
      1.0,
      2.5
    ],
    [
      -0.0,
      3.0
    ]
  ],
  "tuple": [
    3,
    4,
    [
      0.5,
      null
    ]
  ]
}"""


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


def _reject_constant(token):
    raise ValueError(f"report holds the non-standard JSON token {token}")


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_config_exit_code(name, capsys):
    command, expected = SHIPPED[name]
    code = main([command, "--config", str(CONFIGS / name)])
    captured = capsys.readouterr()
    assert code == expected, captured.err
    # strict JSON: a NaN or Infinity anywhere in the report fails here
    report = json.loads(captured.out, parse_constant=_reject_constant)
    assert report["command"] == command


# One valid config per command, with every numeric key it accepts set.
# Paths into a config name the keys the tests below replace.
BASE = {
    "intersect": {"classes": [DIAG_2_M1, IDENTITY_2]},
    "ma-solve": {"background": IDENTITY_2, "density_constant": 2.0, "max_iter": 50, "grid": 8, "tol": 1e-9},
    "certify": {
        "line_class": [[2, 0], [[0, 0], -1]],
        "kahler": IDENTITY_2,
        "psi0": {"type": "cosine", "amplitude": 0.1, "axis": 0},
        "max_iter": 50,
        "margin": 1e-8,
        "grid": 8,
        "q": 1,
        "k_max": 64,
        "tol": 1e-9,
    },
    "pseff": {"line_class": [[1, 0.5], [0.5, 0.25]], "kahler": IDENTITY_2, "max_iter": 50, "margin": 1e-8,
              "grid": 8, "k_max": 64, "tol": 1e-9},
    "ag-surface": {
        "lattice": {
            "rank": 2,
            "pairing": [[0, 4], [4, 0]],
            "nef_generators": [[1, 0], [0, 1]],
            "effective_generators": [[1, 0], [0, 1]],
        },
        "divisor": [2, -1],
        "analytic": {"line_class": DIAG_2_M1, "kahler": IDENTITY_2, "omega_class": [1, 1]},
        "grid": 8,
        "k_max": 64,
    },
    "degeneracy": {
        "map": MAP_F,
        "box": [[-1, 1]] * 4,
        "per_axis": 3,
        "rtol": 1e-10,
        "fibre_targets": [[[0, 0], [0, 0]]],
        "q": 0,
    },
    "glue": {**GLUE_CONFIG, "pole_band": 4, "eps_min": 2.0**-20, "margin": 0.0, "grid": 16, "q": 0, "tol": 1e-9},
}

# (command, path to a numeric value, the name the message must give it when
# that differs from the path).  Matrix entries and [re, im] parts, list
# entries and the entries of monomial rows are numeric values too.
NUMERIC_KEYS = [
    ("intersect", ("classes", 1, 0, 0), None),
    ("ma-solve", ("background", 0, 1), None),
    ("ma-solve", ("density_constant",), None),
    ("ma-solve", ("max_iter",), None),
    ("ma-solve", ("grid",), "config: grid"),
    ("ma-solve", ("tol",), "config: tol"),
    ("certify", ("line_class", 0, 0), None),
    ("certify", ("line_class", 1, 0, 1), "line_class[1][0]"),
    ("certify", ("kahler", 1, 1), None),
    ("certify", ("psi0", "amplitude"), None),
    ("certify", ("psi0", "axis"), None),
    ("certify", ("max_iter",), None),
    ("certify", ("margin",), None),
    ("certify", ("grid",), "config: grid"),
    ("certify", ("q",), "config: q"),
    ("certify", ("k_max",), "config: k_max"),
    ("certify", ("tol",), "config: tol"),
    ("pseff", ("line_class", 1, 1), None),
    ("pseff", ("kahler", 0, 1), None),
    ("pseff", ("max_iter",), None),
    ("pseff", ("margin",), None),
    ("pseff", ("k_max",), "config: k_max"),
    ("ag-surface", ("lattice", "rank"), None),
    ("ag-surface", ("lattice", "pairing", 0, 1), None),
    ("ag-surface", ("lattice", "nef_generators", 1, 0), None),
    ("ag-surface", ("lattice", "effective_generators", 0, 0), None),
    ("ag-surface", ("divisor", 1), None),
    ("ag-surface", ("analytic", "line_class", 1, 1), None),
    ("ag-surface", ("analytic", "kahler", 0, 0), None),
    ("ag-surface", ("analytic", "omega_class", 0), None),
    ("ag-surface", ("grid",), "config: grid"),
    ("ag-surface", ("k_max",), "config: k_max"),
    ("degeneracy", ("map", "n"), None),
    ("degeneracy", ("map", "m"), None),
    ("degeneracy", ("map", "monomials", 0, 0), "map.monomials[0]"),
    ("degeneracy", ("map", "monomials", 0, 1), "map.monomials[0]"),
    ("degeneracy", ("map", "monomials", 1, 3), "map.monomials[1]"),
    ("degeneracy", ("map", "monomials", 1, 4), "map.monomials[1]"),
    ("degeneracy", ("box", 0, 0), None),
    ("degeneracy", ("box", 3, 1), None),
    ("degeneracy", ("per_axis",), None),
    ("degeneracy", ("rtol",), None),
    ("degeneracy", ("fibre_targets", 0, 1), None),
    ("degeneracy", ("fibre_targets", 0, 0, 1), "fibre_targets[0][0]"),
    ("degeneracy", ("q",), "config: q"),
    ("glue", ("background", 0, 0), None),
    ("glue", ("singular", "center", 1), None),
    ("glue", ("singular", "weight"), None),
    ("glue", ("singular", "lower_bound"), None),
    ("glue", ("pole_band",), None),
    ("glue", ("eps_min",), None),
    ("glue", ("margin",), None),
    ("glue", ("grid",), "config: grid"),
    ("glue", ("q",), "config: q"),
    ("glue", ("tol",), "config: tol"),
]
BAD_NUMBERS = [float("nan"), float("inf"), -float("inf"), True, "x"]


def _key_name(path):
    name = path[0]
    for step in path[1:]:
        name += f"[{step}]" if isinstance(step, int) else f".{step}"
    return name


@pytest.mark.parametrize("command", sorted(BASE))
def test_base_configs_run(command, tmp_path, capsys):
    code, report, err = run_cli([command, "--config", write_config(tmp_path, BASE[command])], capsys)
    assert code in (0, 1), err


@pytest.mark.parametrize("bad", BAD_NUMBERS, ids=["nan", "inf", "-inf", "true", "text"])
@pytest.mark.parametrize(
    "command, path, name", NUMERIC_KEYS, ids=[f"{c}:{_key_name(p)}" for c, p, _ in NUMERIC_KEYS]
)
def test_every_numeric_key_rejects_non_numbers(command, path, name, bad, tmp_path, capsys):
    data = copy.deepcopy(BASE[command])
    target = data
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = bad
    code, report, err = run_cli([command, "--config", write_config(tmp_path, data)], capsys)
    assert code == 3, err
    assert report is None
    assert (name or _key_name(path)) in err


# The common settings each command reads; these alone are its flags and
# setting keys.
READS = {
    "intersect": {"out"},
    "ma-solve": {"grid", "tol", "out"},
    "certify": {"grid", "q", "k_max", "tol", "out"},
    "pseff": {"grid", "k_max", "tol", "out"},
    "ag-surface": {"grid", "k_max", "out"},
    "degeneracy": {"q", "out"},
    "glue": {"grid", "q", "tol", "out"},
}
UNREAD = [(c, s) for c in sorted(READS) for s in ("grid", "q", "k_max", "tol") if s not in READS[c]]  # 13 pairs
SETTING_TEXT = {"grid": "16", "q": "0", "k_max": "8", "tol": "1e-9"}


@pytest.mark.parametrize("command", sorted(READS))
def test_flags_are_the_settings_a_command_reads(command, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main([command, "--help"])
    assert exc_info.value.code == 0
    flags = set(re.findall(r"--([a-z][a-z-]*)", capsys.readouterr().out))
    assert flags == {"help", "config"} | {s.replace("_", "-") for s in READS[command]}


@pytest.mark.parametrize("command, setting", UNREAD, ids=[f"{c}:{s}" for c, s in UNREAD])
def test_unread_setting_exits_three(command, setting, tmp_path, capsys):
    cfg = write_config(tmp_path, BASE[command])
    flag = "--" + setting.replace("_", "-")
    assert main([command, "--config", cfg, flag, SETTING_TEXT[setting]]) == 3
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    cfg = write_config(tmp_path, {**BASE[command], setting: json.loads(SETTING_TEXT[setting])})
    code, report, err = run_cli([command, "--config", cfg], capsys)
    assert code == 3
    assert report is None
    assert f"unknown config key '{setting}'" in err


def test_environment_setting_a_command_does_not_read_is_ignored(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, BASE["intersect"])
    _, plain, _ = run_cli(["intersect", "--config", cfg], capsys)
    monkeypatch.setenv("QPOSLAB_GRID", "abc")
    monkeypatch.setenv("QPOSLAB_TOL", "nan")
    code, report, err = run_cli(["intersect", "--config", cfg], capsys)
    assert (code, err) == (0, "")
    assert report["inputs_digest"] == plain["inputs_digest"]


def test_null_optional_key_takes_its_default(tmp_path, capsys):
    data = {"line_class": DIAG_2_M1, "kahler": IDENTITY_2, "grid": 8}
    _, plain, _ = run_cli(["certify", "--config", write_config(tmp_path, data)], capsys)
    nulls = {**data, "psi0": None, "margin": None, "max_iter": None, "q": None, "tol": None}
    code, report, _ = run_cli(["certify", "--config", write_config(tmp_path, nulls)], capsys)
    assert code == 0
    assert report["verdict"] == plain["verdict"]


def test_null_required_key_is_missing(tmp_path, capsys):
    cfg = write_config(tmp_path, {"line_class": None, "kahler": IDENTITY_2, "grid": 8})
    code, _, err = run_cli(["certify", "--config", cfg], capsys)
    assert code == 3
    assert "missing required config key 'line_class'" in err


@pytest.mark.parametrize(
    "psi0, message",
    [
        ({"type": "cosine", "amplitud": 0.2}, "unknown config key 'psi0.amplitud' (did you mean 'psi0.amplitude'?)"),
        ({"amplitude": 0.2}, "missing required config key 'psi0.type'"),
        ({"type": "sine"}, "psi0: unknown type 'sine'"),
        ({"type": "cosine", "axis": 4}, "psi0.axis must be below 4, got 4"),
        ({"type": "file"}, "missing required config key 'psi0.path'"),
    ],
    ids=["typo", "no-type", "unknown-type", "axis-range", "no-path"],
)
def test_nested_keys_are_checked(tmp_path, capsys, psi0, message):
    cfg = write_config(tmp_path, {"line_class": DIAG_2_M1, "kahler": IDENTITY_2, "grid": 8, "psi0": psi0})
    code, report, err = run_cli(["certify", "--config", cfg], capsys)
    assert code == 3
    assert report is None
    assert message in err


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"box": [[-1, 1]] * 3}, "box must be a list of 4 [lo, hi] pairs, got 3"),
        ({"fibre_targets": [[[0, 0]]]}, "fibre_targets[0]: expected a vector of 2 entries, got 1"),
        ({"map": {"n": 2, "m": 2, "text": "0 1 0 1 0", "file": "map.txt"}},
         "map: provide exactly one of 'monomials', 'text' or 'file'"),
    ],
    ids=["box-length", "target-length", "map-source"],
)
def test_degeneracy_shapes_are_checked(tmp_path, capsys, extra, message):
    cfg = write_config(tmp_path, {**BASE["degeneracy"], **extra})
    code, report, err = run_cli(["degeneracy", "--config", cfg], capsys)
    assert code == 3
    assert report is None
    assert message in err
