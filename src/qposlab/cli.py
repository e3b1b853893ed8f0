"""Command-line driver for the positivity laboratory.

Every subcommand reads one JSON config file plus a handful of override flags
and prints a single JSON run report.  The report's ``verdict`` section is a
pure function of the inputs (sorted keys, no timestamps, no timings), so two
runs of the same config are byte-identical there; wall-clock data lives in
the separate ``timings`` section, how the run got there (for a Monge-Ampere
solve: the residual, CG iterations and line-search halvings of each Newton
step; for a glue run: each smoothing scale tried with its region margins,
and the size of the excluded switching band; for every run that transforms
fields: ``fft_workers``, the threads an FFT pass and a stencil slab run
on) in ``trace``, and an sha256 digest over the resolved
inputs (including the content of referenced field files) ties the verdict to
what produced it.

Override precedence, highest first: command-line flag, ``QPOSLAB_*``
environment variable, config file entry, built-in default.

Config conventions: complex matrices are lists of rows whose entries are
numbers or ``[re, im]`` pairs; exact rationals are integers or ``"p/q"``
strings (floats are rejected where exactness matters); grid fields are
referenced by file path (binary ``.qpf`` or ``.csv``).

Exit codes: 0 when the run certifies (or the computed predicate is true),
1 when a well-posed run does not certify, 2 when numerics fail, and 3 for
invalid models, configuration or command lines.  Configuration checking
reports every problem at once, with nearest-key suggestions for typos.
"""

from __future__ import annotations

import argparse
import difflib
import functools
import hashlib
import json
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .calculus import PotentialField, fft_workers
from .errors import ConfigError, ModelError, NumericsError
from .fields_io import read_field, write_field, write_heatmap_csv
from .geometry import ConstantHermitianClass, KahlerClass, TorusModel, intersection_number
from .gluing import SingularPotential, zariski_fujita_pipeline
from .ma_solver import MAProblem, compatibility_check, solve_ma
from .maps_degeneracy import PolyMap, degeneracy_locus_scan, fibre_dimension_estimate, sample_box
from .positivity import one_positive_pipeline, pseff_pipeline
from .surface_cones import (
    AnalyticSurfaceModel,
    DivisorClass,
    SurfaceLattice,
    abelian_diag_lattice,
    converse_ag_surface,
    hirzebruch_f1_lattice,
    p1xp1_lattice,
)

__all__ = ["main"]

SCHEMA_VERSION = 3
_ENV_PREFIX = "QPOSLAB_"

EXIT_CERTIFIED = 0
EXIT_NOT_CERTIFIED = 1
EXIT_NUMERICS = 2
EXIT_MODEL = 3

_COMMON_KEYS = ("grid", "q", "k_max", "tol", "out")
_DEFAULTS = {"grid": 64, "q": None, "k_max": 64, "tol": 1e-9, "out": None}

_COMMAND_KEYS = {
    "intersect": {"classes"},
    "ma-solve": {"background", "density_constant", "density_file", "max_iter"},
    "certify": {"line_class", "kahler", "psi0", "max_iter", "margin"},
    "pseff": {"line_class", "kahler", "max_iter", "margin"},
    "ag-surface": {"lattice", "divisor", "analytic"},
    "degeneracy": {"map", "box", "per_axis", "rtol", "fibre_targets"},
    "glue": {"background", "buffer_file", "singular", "pole_band", "eps_min", "margin"},
}

_LATTICE_MODELS = {
    "p1xp1": p1xp1_lattice,
    "hirzebruch_f1": hirzebruch_f1_lattice,
    "abelian_diag": abelian_diag_lattice,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qposlab",
        description="numerical certification of q-positivity on flat torus models",
    )
    parser.add_argument("--version", action="version", version=f"qposlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "intersect": "intersection number of constant (1,1)-classes",
        "ma-solve": "solve a Monge-Ampere equation on the torus grid",
        "certify": "one-positive-pairing certificate for a constant class",
        "pseff": "certificate for a pseudoeffective (PSD, non-zero) class",
        "ag-surface": "exact cone duality on a surface lattice, optional analytic run",
        "degeneracy": "rank-drop scan and fibre dimensions of a polynomial map",
        "glue": "glue a singular potential to a buffer and certify regions",
    }
    for name, help_text in helps.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", type=str, help="JSON config file")
        sp.add_argument("--grid", type=int, help="grid points per real coordinate")
        sp.add_argument("--q", type=int, help="positivity defect level")
        sp.add_argument("--k-max", dest="k_max", type=int, help="largest shift scanned")
        sp.add_argument("--tol", type=float, help="solver tolerance")
        sp.add_argument("--out", type=str, help="directory for report and artifacts")
    return parser


def _load_config(path: str | None, command: str, problems: list) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        problems.append(f"config file not found: {path}")
        return {}
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        problems.append(f"config file is not valid JSON: {exc}")
        return {}
    if not isinstance(data, dict):
        problems.append("config root must be a JSON object")
        return {}
    allowed = set(_COMMON_KEYS) | _COMMAND_KEYS[command]
    for key in data:
        if key not in allowed:
            close = difflib.get_close_matches(key, sorted(allowed), n=1)
            hint = f" (did you mean '{close[0]}'?)" if close else ""
            problems.append(f"unknown config key '{key}'{hint}")
    return data


def _coerce_setting(key: str, raw, source: str, problems: list):
    try:
        if key in ("grid", "k_max", "q"):
            if isinstance(raw, bool) or (isinstance(raw, float) and not float(raw).is_integer()):
                raise ValueError
            return int(raw)
        if key == "tol":
            if isinstance(raw, bool):
                raise ValueError
            tol = float(raw)
            if not 0 < tol < math.inf:
                problems.append(f"{source}: tol must be a finite positive number, got {raw!r}")
                return _DEFAULTS[key]
            return tol
        if key == "out":
            return str(raw)
    except (TypeError, ValueError):
        pass
    problems.append(f"{source}: cannot read {key}={raw!r}")
    return _DEFAULTS[key]


def _resolve_settings(args, config: dict, problems: list) -> dict:
    settings = dict(_DEFAULTS)
    for key in _COMMON_KEYS:
        if key in config:
            settings[key] = _coerce_setting(key, config[key], "config", problems)
    for key in _COMMON_KEYS:
        env_name = _ENV_PREFIX + key.upper()
        if env_name in os.environ:
            settings[key] = _coerce_setting(key, os.environ[env_name], f"environment {env_name}", problems)
    for key in _COMMON_KEYS:
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            settings[key] = _coerce_setting(key, cli_value, f"--{key.replace('_', '-')}", problems)
    return settings


def _require(config: dict, key: str, problems: list):
    if key not in config:
        problems.append(f"missing required config key '{key}'")
        return None
    return config[key]


def _parse_complex_entry(entry, where: str, problems: list) -> complex:
    if isinstance(entry, bool):
        problems.append(f"{where}: matrix entries are numbers or [re, im] pairs, got {entry!r}")
        return 0j
    if isinstance(entry, (int, float)):
        return complex(entry)
    if (
        isinstance(entry, list)
        and len(entry) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
    ):
        return complex(entry[0], entry[1])
    problems.append(f"{where}: matrix entries are numbers or [re, im] pairs, got {entry!r}")
    return 0j


def _parse_matrix(obj, where: str, problems: list) -> np.ndarray | None:
    if obj is None:
        return None
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        problems.append(f"{where}: expected a matrix as a list of rows")
        return None
    k = len(obj)
    if any(len(r) != k for r in obj):
        problems.append(f"{where}: matrix must be square, got row lengths {[len(r) for r in obj]}")
        return None
    return np.array([[_parse_complex_entry(e, where, problems) for e in row] for row in obj])


def _parse_rational(obj, where: str, problems: list) -> Fraction:
    if isinstance(obj, bool):
        problems.append(f"{where}: exact rationals are integers or 'p/q' strings, got {obj!r}")
        return Fraction(0)
    try:
        if isinstance(obj, int):
            return Fraction(obj)
        if isinstance(obj, str):
            return Fraction(obj)
    except (ValueError, ZeroDivisionError):
        pass
    problems.append(f"{where}: exact rationals are integers or 'p/q' strings, got {obj!r}")
    return Fraction(0)


def _parse_rational_vector(obj, where: str, problems: list) -> tuple:
    if not isinstance(obj, list) or not obj:
        problems.append(f"{where}: expected a non-empty list of rationals")
        return (Fraction(0),)
    return tuple(_parse_rational(x, f"{where}[{i}]", problems) for i, x in enumerate(obj))


def _max_iter(config: dict, problems: list):
    max_iter = config.get("max_iter", 50)
    if not isinstance(max_iter, int) or isinstance(max_iter, bool) or max_iter < 1:
        problems.append(f"max_iter must be a positive integer, got {max_iter!r}")
    return max_iter


def _margin(config: dict, default: float, problems: list):
    margin = config.get("margin", default)
    if not isinstance(margin, (int, float)) or isinstance(margin, bool) or not 0 <= margin < math.inf:
        problems.append(f"margin must be a finite nonnegative number, got {margin!r}")
    return margin


def _field_file(path, torus: TorusModel, where: str, problems: list, files: list) -> np.ndarray | None:
    """Values of the field stored at ``path``, which joins the digest's files."""
    if not isinstance(path, str) or not Path(path).exists():
        problems.append(f"{where}: field file not found: {path!r}")
        return None
    files.append(path)
    return read_field(path, torus)[1]


def _ensure_valid(problems: list):
    if problems:
        raise ConfigError(problems)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


def _inputs_digest(command: str, config: dict, settings: dict, file_paths) -> str:
    payload = {
        "command": command,
        "config": _jsonable(config),
        "settings": {k: _jsonable(settings[k]) for k in ("grid", "q", "k_max", "tol")},
        "file_digests": {},
    }
    for fp in sorted(str(p) for p in file_paths):
        payload["file_digests"][fp] = hashlib.sha256(Path(fp).read_bytes()).hexdigest()
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _active_q(settings: dict, fallback: int) -> int:
    return fallback if settings["q"] is None else settings["q"]


def _psi0_from_config(spec, torus: TorusModel, where: str, problems: list, files: list):
    if spec is None:
        return None
    if not isinstance(spec, dict) or "type" not in spec:
        problems.append(f"{where}: expected an object with a 'type' field")
        return None
    kind = spec["type"]
    if kind == "cosine":
        amplitude = spec.get("amplitude", 0.1)
        axis = spec.get("axis", 0)
        if not isinstance(amplitude, (int, float)) or isinstance(amplitude, bool):
            problems.append(f"{where}: amplitude must be a number")
            return None
        if not isinstance(axis, int) or isinstance(axis, bool) or not 0 <= axis < torus.ndim_real:
            problems.append(f"{where}: axis must be an integer in 0..{torus.ndim_real - 1}")
            return None
        coord = torus.real_coordinates()[axis]
        return PotentialField(torus, float(amplitude) * np.cos(2.0 * np.pi * coord))
    if kind == "file":
        values = _field_file(spec.get("path"), torus, where, problems, files)
        return None if values is None else PotentialField(torus, values)
    problems.append(f"{where}: unknown potential type {kind!r} (use 'cosine' or 'file')")
    return None


def _certificate_verdict(run) -> dict:
    cert = run.certificate
    return {
        "passed": cert.passed,
        "q": cert.q,
        "k": run.k,
        "dk": run.dk,
        "pairing": run.pairing,
        "min_margin": cert.min_margin,
        "margin_required": cert.margin,
        "worst_point": list(cert.worst_point),
        "eigen_jump": cert.eigen_jump,
        "product_error": run.product_error,
        "ma_residual": run.ma_result.residual,
        "ma_iterations": run.ma_result.iterations,
    }


def _newton_trace(ma) -> dict:
    """The Monge-Ampere solve step by step, from an ``MASolveResult``."""
    steps = zip(ma.residual_history[1:], ma.cg_iterations, ma.line_search_halvings)
    return {
        "newton": {
            "initial_residual": ma.residual_history[0],
            "steps": [
                {"residual": r, "cg_iterations": cg, "line_search_halvings": h} for r, cg, h in steps
            ],
        }
    }


def _spectral_trace(trace: dict) -> dict:
    """``trace`` of a run that ran FFTs or stencil slabs, with the number of threads they are split over."""
    return {**trace, "fft_workers": fft_workers()}


def _cmd_intersect(config, settings, problems):
    classes = _require(config, "classes", problems)
    mats = []
    if isinstance(classes, list) and classes:
        mats = [_parse_matrix(c, f"classes[{i}]", problems) for i, c in enumerate(classes)]
    elif classes is not None:
        problems.append("classes: expected a non-empty list of matrices")
    _ensure_valid(problems)
    value = intersection_number(mats)
    verdict = {
        "intersection_number": value,
        "n": int(mats[0].shape[0]),
        "classes": len(mats),
    }
    return EXIT_CERTIFIED, verdict, [], [], {}


def _cmd_ma_solve(config, settings, problems):
    files = []
    background = _parse_matrix(_require(config, "background", problems), "background", problems)
    has_const = "density_constant" in config
    has_file = "density_file" in config
    if has_const == has_file:
        problems.append("provide exactly one of 'density_constant' or 'density_file'")
    max_iter = _max_iter(config, problems)
    density = None
    torus = None
    if background is not None:
        torus = TorusModel(n=int(background.shape[0]), grid_size=settings["grid"])
        if has_const and not has_file:
            dc = config["density_constant"]
            if not isinstance(dc, (int, float)) or isinstance(dc, bool) or not 0 < dc < math.inf:
                problems.append(f"density_constant must be a finite positive number, got {dc!r}")
            else:
                density = float(dc)
        elif has_file and not has_const:
            density = _field_file(config["density_file"], torus, "density_file", problems, files)
    _ensure_valid(problems)
    problem = MAProblem(
        torus=torus,
        background=ConstantHermitianClass(background),
        target_density=np.asarray(density),
        tol=settings["tol"],
        max_iter=max_iter,
    )
    wform = problem.background_form()
    problem = compatibility_check(problem, wform)
    result = solve_ma(problem, background_form=wform)
    verdict = {
        "n": torus.n,
        "grid": torus.grid_size,
        "residual": result.residual,
        "iterations": result.iterations,
        "positivity_margin": result.positivity_margin,
        "log_constant": result.log_constant,
        "compat_factor": problem.compat_factor,
    }
    artifacts = [
        ("phi.qpf", lambda p: write_field(p, torus, result.phi.values)),
    ]
    if np.squeeze(result.phi.values).ndim <= 2:
        artifacts.append(("phi_heatmap.csv", lambda p: write_heatmap_csv(p, result.phi.values)))
    return EXIT_CERTIFIED, verdict, artifacts, files, _spectral_trace(_newton_trace(result))


def _certificate_inputs(config, settings, problems):
    """What ``certify`` and ``pseff`` share: the line and Kahler classes, the
    torus their common size fixes (None when they differ), ``max_iter`` and
    ``margin``."""
    line = _parse_matrix(_require(config, "line_class", problems), "line_class", problems)
    kahler = _parse_matrix(_require(config, "kahler", problems), "kahler", problems)
    torus = None
    if line is not None and kahler is not None:
        if line.shape != kahler.shape:
            problems.append(f"line_class is {line.shape} but kahler is {kahler.shape}")
        else:
            torus = TorusModel(n=int(line.shape[0]), grid_size=settings["grid"])
    return line, kahler, torus, _max_iter(config, problems), _margin(config, 1e-8, problems)


def _cmd_certify(config, settings, problems):
    files = []
    line, kahler, torus, max_iter, margin = _certificate_inputs(config, settings, problems)
    psi0 = None
    if torus is not None:
        psi0 = _psi0_from_config(config.get("psi0"), torus, "psi0", problems, files)
    _ensure_valid(problems)
    run = one_positive_pipeline(
        ConstantHermitianClass(line),
        KahlerClass(kahler),
        psi0=psi0,
        torus=torus,
        k_max=settings["k_max"],
        tol=settings["tol"],
        max_iter=max_iter,
        margin=margin,
        q=settings["q"],
    )
    verdict = _certificate_verdict(run)
    artifacts = []
    if np.squeeze(run.certificate.margin_field).ndim <= 2:
        artifacts.append(
            ("margin_heatmap.csv", lambda p: write_heatmap_csv(p, run.certificate.margin_field))
        )
    code = EXIT_CERTIFIED if run.certificate.passed else EXIT_NOT_CERTIFIED
    return code, verdict, artifacts, files, _spectral_trace(_newton_trace(run.ma_result))


def _cmd_pseff(config, settings, problems):
    line, kahler, torus, max_iter, margin = _certificate_inputs(config, settings, problems)
    _ensure_valid(problems)
    run = pseff_pipeline(
        line,
        kahler,
        torus=torus,
        k_max=settings["k_max"],
        tol=settings["tol"],
        max_iter=max_iter,
        margin=margin,
    )
    code = EXIT_CERTIFIED if run.certificate.passed else EXIT_NOT_CERTIFIED
    return code, _certificate_verdict(run), [], [], _spectral_trace(_newton_trace(run.ma_result))


def _lattice_from_config(spec, problems) -> SurfaceLattice | None:
    if spec is None:
        return None
    if not isinstance(spec, dict):
        problems.append("lattice: expected an object")
        return None
    if "model" in spec:
        name = spec["model"]
        if name not in _LATTICE_MODELS:
            close = difflib.get_close_matches(str(name), sorted(_LATTICE_MODELS), n=1)
            hint = f" (did you mean '{close[0]}'?)" if close else ""
            problems.append(f"lattice: unknown model {name!r}{hint}")
            return None
        extra = set(spec) - {"model"}
        if extra:
            problems.append(f"lattice: model shorthand takes no other keys, got {sorted(extra)}")
            return None
        return _LATTICE_MODELS[name]()
    required = {"rank", "pairing", "nef_generators", "effective_generators"}
    missing = required - set(spec)
    if missing:
        problems.append(f"lattice: missing keys {sorted(missing)}")
        return None
    rank = spec["rank"]
    if not isinstance(rank, int) or isinstance(rank, bool):
        problems.append(f"lattice: rank must be an integer, got {rank!r}")
        return None
    pairing_rows = spec["pairing"]
    if not isinstance(pairing_rows, list) or len(pairing_rows) != rank:
        problems.append("lattice: pairing must be a rank x rank matrix of rationals")
        return None
    pairing = tuple(
        _parse_rational_vector(row, f"lattice.pairing[{i}]", problems) for i, row in enumerate(pairing_rows)
    )
    gens = {}
    for key in ("nef_generators", "effective_generators"):
        rows = spec[key]
        if not isinstance(rows, list) or not rows:
            problems.append(f"lattice: {key} must be a non-empty list of vectors")
            return None
        gens[key] = tuple(
            DivisorClass(_parse_rational_vector(row, f"lattice.{key}[{i}]", problems))
            for i, row in enumerate(rows)
        )
    if problems:
        return None
    return SurfaceLattice(
        rank=rank,
        pairing=pairing,
        nef_generators=gens["nef_generators"],
        effective_generators=gens["effective_generators"],
        name=str(spec.get("name", "custom")),
    )


def _cmd_ag_surface(config, settings, problems):
    lattice = _lattice_from_config(_require(config, "lattice", problems), problems)
    divisor_spec = _require(config, "divisor", problems)
    divisor = None
    if divisor_spec is not None:
        divisor = DivisorClass(_parse_rational_vector(divisor_spec, "divisor", problems))
    analytic = None
    spec = config.get("analytic")
    if spec is not None:
        if not isinstance(spec, dict):
            problems.append("analytic: expected an object")
        else:
            line = _parse_matrix(spec.get("line_class"), "analytic.line_class", problems)
            kahler = _parse_matrix(spec.get("kahler"), "analytic.kahler", problems)
            omega = spec.get("omega_class")
            omega_class = (
                DivisorClass(_parse_rational_vector(omega, "analytic.omega_class", problems))
                if omega is not None
                else None
            )
            if omega_class is None:
                problems.append("analytic: missing 'omega_class'")
            if line is not None and kahler is not None and omega_class is not None and not problems:
                analytic = AnalyticSurfaceModel(
                    line_class=ConstantHermitianClass(line),
                    kahler=KahlerClass(kahler),
                    omega_lattice_class=omega_class,
                    torus=TorusModel(n=int(line.shape[0]), grid_size=settings["grid"]),
                    k_max=settings["k_max"],
                )
    _ensure_valid(problems)
    report = converse_ag_surface(divisor, lattice, analytic_model=analytic)
    witness = None
    if report.witness is not None:
        witness = {
            "vector": [str(c) for c in report.witness.vector.coefficients],
            "generator_coefficients": [str(c) for c in report.witness.generator_coefficients],
            "pairing": str(report.witness.pairing),
        }
    verdict = {
        "one_ample": report.one_ample,
        "lattice": report.lattice_name,
        "divisor": [str(c) for c in report.divisor.coefficients],
        "witness": witness,
        "cone_semantics": report.cone_semantics,
        "notes": list(report.notes),
    }
    trace = {}
    if report.analytic_run is not None:
        verdict["analytic"] = _certificate_verdict(report.analytic_run)
        trace = _spectral_trace({"analytic": _newton_trace(report.analytic_run.ma_result)})
    code = EXIT_CERTIFIED if report.one_ample else EXIT_NOT_CERTIFIED
    return code, verdict, [], [], trace


def _polymap_from_config(spec, problems, files) -> PolyMap | None:
    if spec is None:
        return None
    if not isinstance(spec, dict):
        problems.append("map: expected an object with n, m and monomials/text/file")
        return None
    n, m = spec.get("n"), spec.get("m")
    for label, v in (("n", n), ("m", m)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            problems.append(f"map: {label} must be a positive integer, got {v!r}")
            return None
    sources = [k for k in ("monomials", "text", "file") if k in spec]
    if len(sources) != 1:
        problems.append("map: provide exactly one of 'monomials', 'text', 'file'")
        return None
    if sources[0] == "file":
        path = spec["file"]
        if not isinstance(path, str) or not Path(path).exists():
            problems.append(f"map: file not found: {path!r}")
            return None
        files.append(path)
        return PolyMap.from_text(Path(path).read_text(), n=n, m=m)
    if sources[0] == "text":
        if not isinstance(spec["text"], str):
            problems.append("map: text must be a string of monomial lines")
            return None
        return PolyMap.from_text(spec["text"], n=n, m=m)
    rows = spec["monomials"]
    if not isinstance(rows, list) or not rows:
        problems.append("map: monomials must be a non-empty list of rows")
        return None
    tables = [dict() for _ in range(m)]
    for i, row in enumerate(rows):
        if (
            not isinstance(row, list)
            or len(row) != n + 3
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in row)
        ):
            problems.append(
                f"map.monomials[{i}]: expected [component, {n} exponents, re, im], got {row!r}"
            )
            continue
        comp = int(row[0])
        if not 0 <= comp < m:
            problems.append(f"map.monomials[{i}]: component {comp} outside 0..{m - 1}")
            continue
        key = tuple(int(e) for e in row[1 : n + 1])
        if any(e < 0 for e in key):
            problems.append(f"map.monomials[{i}]: exponents must be nonnegative")
            continue
        tables[comp][key] = tables[comp].get(key, 0.0) + complex(row[n + 1], row[n + 2])
    if problems:
        return None
    return PolyMap(n=n, m=m, components=tuple(tables))


def _cmd_degeneracy(config, settings, problems):
    files = []
    pmap = _polymap_from_config(_require(config, "map", problems), problems, files)
    per_axis = config.get("per_axis", 9)
    if not isinstance(per_axis, int) or isinstance(per_axis, bool) or per_axis < 2:
        problems.append(f"per_axis must be an integer >= 2, got {per_axis!r}")
    rtol = config.get("rtol", 1e-10)
    if not isinstance(rtol, (int, float)) or isinstance(rtol, bool) or rtol <= 0:
        problems.append(f"rtol must be a positive number, got {rtol!r}")
    box = config.get("box")
    intervals = None
    if pmap is not None:
        if box is None:
            intervals = [(-1.0, 1.0)] * (2 * pmap.n)
        elif (
            isinstance(box, list)
            and len(box) == 2 * pmap.n
            and all(isinstance(iv, list) and len(iv) == 2 for iv in box)
        ):
            intervals = [(float(iv[0]), float(iv[1])) for iv in box]
        else:
            problems.append(f"box must be a list of {2 * pmap.n if pmap else '2n'} [lo, hi] pairs")
    targets = config.get("fibre_targets")
    target_vectors = []
    if targets is not None:
        if not isinstance(targets, list):
            problems.append("fibre_targets must be a list of target vectors")
        else:
            for i, tv in enumerate(targets):
                if not isinstance(tv, list) or (pmap is not None and len(tv) != pmap.m):
                    problems.append(f"fibre_targets[{i}]: expected a vector of {pmap.m} entries")
                    continue
                target_vectors.append(
                    [_parse_complex_entry(e, f"fibre_targets[{i}]", problems) for e in tv]
                )
    _ensure_valid(problems)
    q = _active_q(settings, 0)
    scan = degeneracy_locus_scan(pmap, q, sample_box(intervals, per_axis), rtol=float(rtol))
    fibre_dims = [fibre_dimension_estimate(pmap, np.array(tv)) for tv in target_vectors]
    flagged = scan.flagged_points()
    verdict = {
        "n": pmap.n,
        "m": pmap.m,
        "q": q,
        "rtol": float(rtol),
        "per_axis": per_axis,
        "total_points": int(scan.points.shape[0]),
        "flagged_count": int(flagged.shape[0]),
        "fibre_dimensions": fibre_dims if target_vectors else None,
    }

    def _write_flagged(path):
        with Path(path).open("w") as fh:
            fh.write(",".join(f"re_z{j + 1},im_z{j + 1}" for j in range(pmap.n)) + "\n")
            for row in flagged:
                fh.write(",".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row) + "\n")

    artifacts = [("flagged_points.csv", _write_flagged)]
    code = EXIT_CERTIFIED if flagged.shape[0] == 0 else EXIT_NOT_CERTIFIED
    return code, verdict, artifacts, files, {}


def _singular_from_config(spec, torus, problems, files) -> SingularPotential | None:
    if spec is None:
        return None
    if not isinstance(spec, dict) or "type" not in spec:
        problems.append("singular: expected an object with a 'type' field")
        return None
    lower = spec.get("lower_bound", 0.0)
    if not isinstance(lower, (int, float)) or isinstance(lower, bool) or lower < 0:
        problems.append(f"singular: lower_bound must be a nonnegative number, got {lower!r}")
        return None
    if spec["type"] == "log_trig_pole":
        center = spec.get("center", [0.5] * torus.ndim_real)
        weight = spec.get("weight", 0.05)
        if (
            not isinstance(center, list)
            or len(center) != torus.ndim_real
            or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in center)
        ):
            problems.append(f"singular: center must be {torus.ndim_real} numbers in [0, 1)")
            return None
        if not isinstance(weight, (int, float)) or isinstance(weight, bool) or weight <= 0:
            problems.append(f"singular: weight must be a positive number, got {weight!r}")
            return None
        coords = torus.real_coordinates()
        qsum = np.zeros((1,) * torus.ndim_real)
        for c, x in zip(center, coords):
            qsum = qsum + np.sin(np.pi * (x - float(c))) ** 2
        with np.errstate(divide="ignore"):
            values = (float(weight) / 2.0) * np.log(qsum)
        return SingularPotential(torus, values, lower_bound=float(lower))
    if spec["type"] == "file":
        values = _field_file(spec.get("path"), torus, "singular", problems, files)
        return None if values is None else SingularPotential(torus, values, lower_bound=float(lower))
    problems.append(f"singular: unknown type {spec['type']!r} (use 'log_trig_pole' or 'file')")
    return None


def _cmd_glue(config, settings, problems):
    files = []
    background = _parse_matrix(_require(config, "background", problems), "background", problems)
    pole_band = config.get("pole_band", 4)
    if not isinstance(pole_band, int) or isinstance(pole_band, bool) or pole_band < 3:
        problems.append(f"pole_band must be an integer >= 3, got {pole_band!r}")
    eps_min = config.get("eps_min", 2.0**-20)
    if not isinstance(eps_min, (int, float)) or isinstance(eps_min, bool) or not 0 < eps_min <= 1:
        problems.append(f"eps_min must be in (0, 1], got {eps_min!r}")
    margin = _margin(config, 0.0, problems)
    torus = None
    singular = None
    phi_b = None
    if background is not None:
        torus = TorusModel(n=int(background.shape[0]), grid_size=settings["grid"])
        singular = _singular_from_config(_require(config, "singular", problems), torus, problems, files)
        if config.get("buffer_file") is None:
            phi_b = PotentialField.zero(torus)
        else:
            values = _field_file(config["buffer_file"], torus, "buffer_file", problems, files)
            phi_b = None if values is None else PotentialField(torus, values)
    _ensure_valid(problems)
    report = zariski_fujita_pipeline(
        ConstantHermitianClass(background),
        phi_b,
        singular,
        q=_active_q(settings, 0),
        pole_band=pole_band,
        eps_min=float(eps_min),
        tol=settings["tol"],
        margin=float(margin),
    )
    verdict = {
        "q": report.q,
        "threshold": report.result.threshold,
        "smoothing_eps": report.result.smoothing_eps,
        "declarations": dict(report.declarations),
        "regions": [
            {
                "name": c.name,
                "n_points": c.n_points,
                "min_margin": c.min_margin,
                "passed": c.passed,
                "worst_point": list(c.worst_point) if c.worst_point is not None else None,
            }
            for c in report.certificates
        ],
    }
    psi = report.result.psi
    artifacts = [("psi.qpf", lambda p: write_field(p, torus, psi.values))]
    if np.squeeze(psi.values).ndim <= 2:
        artifacts.append(("psi_heatmap.csv", lambda p: write_heatmap_csv(p, psi.values)))
    code = EXIT_CERTIFIED if report.passed else EXIT_NOT_CERTIFIED
    trace = {
        "smoothing": [
            {"eps": eps, "regions": [{"name": c.name, "min_margin": c.min_margin, "passed": c.passed} for c in certs]}
            for eps, certs in report.smoothing
        ],
        "switching_band_points": report.switching_band_points,
    }
    return code, verdict, artifacts, files, _spectral_trace(trace)


_HANDLERS = {
    "intersect": _cmd_intersect,
    "ma-solve": _cmd_ma_solve,
    "certify": _cmd_certify,
    "pseff": _cmd_pseff,
    "ag-surface": _cmd_ag_surface,
    "degeneracy": _cmd_degeneracy,
    "glue": _cmd_glue,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code != 2:  # --help and --version
            raise
        return EXIT_MODEL  # argparse's usage error
    t_start = time.perf_counter()
    problems: list = []
    try:
        config = _load_config(args.config, args.command, problems)
        settings = _resolve_settings(args, config, problems)
        code, verdict, artifacts, files, trace = _HANDLERS[args.command](config, settings, problems)
        digest = _inputs_digest(args.command, config, settings, files)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_MODEL
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except NumericsError as exc:
        print(f"numerics error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS

    written = []
    if settings["out"] is not None:
        out_dir = Path(settings["out"])
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, writer in artifacts:
            target = out_dir / name
            writer(target)
            written.append(str(target))

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "inputs_digest": digest,
        "verdict": _jsonable(verdict),
        "timings": {
            "total_s": round(time.perf_counter() - t_start, 6),
        },
        "trace": _jsonable(trace),
        "artifacts": written,
    }
    if settings["out"] is not None:
        (Path(settings["out"]) / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
