"""Command-line driver for the positivity laboratory.

Every subcommand reads one JSON config file plus a handful of override flags
and prints a single JSON run report.  The report's ``verdict`` section is a
pure function of the inputs (sorted keys, no timestamps, no timings), so two
runs of the same config are byte-identical there; wall-clock data lives in
the separate ``timings`` section, how the run got there (for a Monge-Ampere
solve: per grid of its ladder, coarsest first, the residual, CG iterations
and line-search halvings of each Newton step; for a glue run: each smoothing
scale tried with its region margins, and the size of the excluded switching
band; for every run that transforms fields: ``fft_workers``, the threads an
FFT pass and a stencil slab run on) in ``trace``, and an sha256 digest over
the resolved inputs (with each input file's path replaced by the digest of
its content) ties the verdict to what produced it, wherever the inputs sit.

Each subcommand has one key table: it gives every config key the command
accepts a kind and a default (none when the key is required), and holds the
common settings ``grid``, ``q``, ``k_max``, ``tol`` and ``out`` only where
the command reads them; those settings alone are its flags.  Precedence for
a setting, highest first: flag, ``QPOSLAB_*`` environment variable, config
entry, default.  One reader per kind applies its rule: numbers are finite,
never booleans, and in their key's range; integers have a minimum; complex
matrices are square lists of rows of numbers or ``[re, im]`` pairs; exact
rationals are integers or ``"p/q"`` strings (floats are rejected where
exactness matters); grid fields (``.qpf`` or ``.csv``) and map text are
paths of existing files.  Nested objects have tables of their own, optional
keys set to ``null`` take their default, and handlers get typed values.

Exit codes: 0 when the run certifies (or the computed predicate is true),
1 when a well-posed run does not certify, 2 when numerics fail, and 3 for
invalid models, configuration or command lines.  The key tables report
every problem they find at once, with nearest-key suggestions for typos.
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
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .calculus import PotentialField, fft_workers
from .errors import ConfigError, ModelError, NumericsError
from .fields_io import read_field, write_field, write_heatmap_csv
from .geometry import ConstantHermitianClass, KahlerClass, TorusModel, intersection_number
from .gluing import SingularPotential, zariski_fujita_pipeline
from .ma_solver import MAProblem, solve_ma
from .maps_degeneracy import PolyMap, degeneracy_locus_scan, fibre_dimension_estimate, sample_box
from .positivity import one_positive_pipeline
from .surface_cones import (
    DivisorClass,
    SurfaceLattice,
    _frac,
    abelian_diag_lattice,
    check_analytic_pairing,
    converse_ag_surface,
    hirzebruch_f1_lattice,
    p1xp1_lattice,
)

__all__ = ["main"]

SCHEMA_VERSION = 5
_ENV_PREFIX = "QPOSLAB_"

EXIT_CERTIFIED = 0
EXIT_NOT_CERTIFIED = 1
EXIT_NUMERICS = 2
EXIT_MODEL = 3

_LATTICE_MODELS = {
    "p1xp1": p1xp1_lattice,
    "hirzebruch_f1": hirzebruch_f1_lattice,
    "abelian_diag": abelian_diag_lattice,
}


class _Kind:
    """How one config value is read.  ``convert`` returns the typed value, or
    None when ``raw`` breaks the rule that ``what`` states; kinds made of
    parts override ``read`` to name the part at fault."""

    what = ""
    from_text: Callable | None = None  # parses a flag or QPOSLAB_* value, for kinds a setting has

    def problem(self, where: str, raw) -> str:
        return f"{where} must be {self.what}, got {raw!r}"

    def read(self, raw, where: str, problems: list, shown=None):
        """The typed value, or None after a problem that quotes ``shown`` (else ``raw``)."""
        value = self.convert(raw)
        if value is None:
            problems.append(self.problem(where, raw if shown is None else shown))
        return value


def _real(raw) -> float | None:
    """``raw`` as a float when it is a finite JSON number and not a bool."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        return None
    # false for nan, the infinities and integers beyond float range
    return float(raw) if -sys.float_info.max <= raw <= sys.float_info.max else None


class _Number(_Kind):
    """A finite number at least ``lo`` (above it when ``lo_open``) and at most ``hi``, read as a float."""

    from_text = float

    def __init__(self, lo: float = -math.inf, hi: float = math.inf, lo_open: bool = False):
        self.lo, self.hi, self.lo_open = lo, hi, lo_open
        if hi < math.inf:
            self.what = f"a finite number in {'(' if lo_open else '['}{lo:g}, {hi:g}]"
        elif lo == 0:
            self.what = "a finite positive number" if lo_open else "a finite nonnegative number"
        else:
            self.what = "a finite number"

    def convert(self, raw):
        x = _real(raw)
        inside = x is not None and (self.lo < x if self.lo_open else self.lo <= x) and x <= self.hi
        return x if inside else None


class _Integer(_Kind):
    """A JSON integer, not a bool, at least ``lo``."""

    from_text = int

    def __init__(self, lo: int):
        self.lo = lo
        self.what = {0: "a nonnegative integer", 1: "a positive integer"}.get(lo, f"an integer >= {lo}")

    def convert(self, raw):
        ok = isinstance(raw, int) and not isinstance(raw, bool) and raw >= self.lo
        return raw if ok else None


class _Text(_Kind):
    what = "a string"
    from_text = str

    def convert(self, raw):
        return raw if isinstance(raw, str) else None


class _InputFile(str):
    """The path of an input file, which the inputs digest replaces by the digest of its content."""


class _File(_Kind):
    what = "the path of an existing file"

    def convert(self, raw):
        return _InputFile(raw) if isinstance(raw, str) and Path(raw).is_file() else None


class _Complex(_Kind):
    what = "a finite number or an [re, im] pair of finite numbers"

    def convert(self, raw):
        re, im = (_real(x) for x in (raw if isinstance(raw, list) and len(raw) == 2 else (raw, 0)))
        return None if re is None or im is None else complex(re, im)


class _Rational(_Kind):
    what = "an exact rational (exact rationals are integers or 'p/q' strings, at most 100 digits each)"

    def convert(self, raw):
        try:
            return _frac(raw) if isinstance(raw, (int, str)) and not isinstance(raw, bool) else None
        except ModelError:
            return None


class _List(_Kind):
    """A JSON list, non-empty unless ``empty``, of ``length`` entries when given,
    whose entries ``item`` reads (or are passed on as they are, when None)."""

    def __init__(self, item: _Kind | None, length: int | None = None, empty: bool = False):
        self.item, self.length, self.empty = item, length, empty
        self.what = f"a list of {length} entries" if length else "a list" if empty else "a non-empty list"

    def read(self, raw, where, problems):
        if not isinstance(raw, list) or not (raw or self.empty) or len(raw) != (self.length or len(raw)):
            problems.append(self.problem(where, raw))
            return None
        if self.item is None:
            return raw
        values = [self.item.read(x, f"{where}[{i}]", problems) for i, x in enumerate(raw)]
        return None if any(v is None for v in values) else values


class _Matrix(_List):
    """A square complex matrix as a list of rows, read as a complex array;
    ``size`` rows when given."""

    def __init__(self, size: int | None = None):
        super().__init__(_List(_Complex()))
        self.size = size

    def read(self, raw, where, problems):
        rows = super().read(raw, where, problems)
        if rows is not None and any(len(row) != len(rows) for row in rows):
            problems.append(f"{where}: matrix must be square, got row lengths {[len(row) for row in rows]}")
            return None
        if rows is not None and self.size not in (None, len(rows)):
            problems.append(f"{where}: matrix must be {self.size}x{self.size}, got {len(rows)}x{len(rows)}")
            return None
        return None if rows is None else np.array(rows)


class _Object(_Kind):
    """A JSON object read by a key table of its own.  With a ``tag``, the
    tag's value names the table among ``variants``, and ``table`` (if any)
    reads the objects that leave the tag out."""

    what = "an object"

    def __init__(self, table: dict | None = None, tag: str | None = None, **variants: dict):
        tag_key = {tag: _Key(_Text(), None)} if tag else {}
        self.tag = tag
        self.tables = {name: {**tag_key, **t} for name, t in variants.items()}
        if table is not None:
            self.tables[None] = {**tag_key, **table}

    def read(self, raw, where, problems):
        if not isinstance(raw, dict):
            problems.append(self.problem(where, raw))
            return None
        choice = raw.get(self.tag) if self.tag else None
        table = self.tables.get(choice) if choice is None or isinstance(choice, str) else None
        if table is not None:
            return _read_table(table, raw, problems, f"{where}.")
        if choice is None:
            problems.append(f"missing required config key '{where}.{self.tag}'")
        else:
            problems.append(f"{where}: {_unknown(self.tag, choice, [name for name in self.tables if name])}")
        return None


_REQUIRED = object()


@dataclass(frozen=True)
class _Key:
    """One row of a key table: the key's kind and default (``_REQUIRED`` when
    the key must be given).  ``flag`` is the help text of a common setting,
    which a flag and a ``QPOSLAB_*`` variable may also set; of the keys that
    share a ``one_of`` group, exactly one must be given."""

    kind: _Kind
    default: object = _REQUIRED
    flag: str | None = None
    one_of: str | None = None


_SETTINGS = {
    "grid": _Key(_Integer(8), 64, flag="grid points per real coordinate"),
    "q": _Key(_Integer(0), None, flag="positivity defect level"),
    "k_max": _Key(_Integer(1), 64, flag="largest shift scanned"),
    "tol": _Key(_Number(0, lo_open=True), 1e-9, flag="solver tolerance"),
    "out": _Key(_Text(), None, flag="directory for report and artifacts"),
}


def _settings(*names: str) -> dict:
    return {name: _SETTINGS[name] for name in names}


def _unknown(what: str, word, options) -> str:
    close = difflib.get_close_matches(str(word), sorted(options), n=1)
    return f"unknown {what} {word!r}" + (f" (did you mean '{close[0]}'?)" if close else "")


def _read_table(table: dict, data: dict, problems: list, prefix: str = "") -> dict:
    """Typed value of every key in ``table``, read from the JSON object ``data``
    (a nested one when ``prefix`` is its dotted path); absent and null
    optional keys take their default."""
    for key in data:
        if key not in table:
            problems.append(_unknown("config key", prefix + key, [prefix + k for k in table]))
    values = {}
    for key, spec in table.items():
        raw = data.get(key)
        if raw is not None:
            where = f"config: {key}" if spec.flag else prefix + key
            values[key] = spec.kind.read(raw, where, problems)
        elif spec.default is _REQUIRED:
            problems.append(f"missing required config key '{prefix}{key}'")
        else:
            values[key] = spec.default
    for group in {spec.one_of for spec in table.values()} - {None}:
        keys = [key for key, spec in table.items() if spec.one_of == group]
        if sum(data.get(key) is not None for key in keys) != 1:
            names = [f"'{key}'" for key in keys]
            where = f"{prefix[:-1]}: " if prefix else ""
            problems.append(f"{where}provide exactly one of {', '.join(names[:-1])} or {names[-1]}")
    return values


def _override_settings(table: dict, args, values: dict, problems: list) -> None:
    """Set each setting of ``table`` from its ``QPOSLAB_*`` variable, then its flag."""
    for key, spec in table.items():
        if spec.flag is None:
            continue
        env = _ENV_PREFIX + key.upper()
        if env in os.environ:
            text = os.environ[env]
            try:
                raw = spec.kind.from_text(text)
            except ValueError:
                problems.append(f"environment {env}: cannot read {key}={text!r}")
            else:
                values[key] = spec.kind.read(raw, f"environment {env}: {key}", problems, shown=text)
        if getattr(args, key) is not None:
            values[key] = spec.kind.read(getattr(args, key), f"--{key.replace('_', '-')}: {key}", problems)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"]) from None
    except OSError as exc:  # a directory, say
        raise ConfigError([f"cannot read config file {path}: {exc}"]) from None
    except ValueError as exc:  # invalid JSON or text that is not UTF-8
        raise ConfigError([f"config file is not valid JSON: {exc}"]) from None
    if not isinstance(data, dict):
        raise ConfigError(["config root must be a JSON object"])
    return data


def _field(path: str, torus: TorusModel, finite: bool = False) -> np.ndarray:
    """Values of the field stored at ``path`` (all finite, when ``finite``)."""
    values = read_field(path, torus)[1]
    if finite and not np.all(np.isfinite(values)):
        raise ConfigError([f"field file {path} holds non-finite values; a potential must be finite"])
    return values


def _json_default(obj):
    """What ``json`` cannot write itself: complex numbers as ``[re, im]``, numpy
    scalars and arrays as Python values, and anything else (a ``Fraction``) as text."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    return str(obj)


def _input_files(value):
    """Every ``_InputFile`` in a typed value, nested objects and lists included."""
    if isinstance(value, _InputFile):
        yield value
    elif isinstance(value, (dict, list)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _input_files(item)


def _inputs_digest(command: str, config: dict, values: dict) -> str:
    # The payload holds all four settings; one the command does not read
    # enters at its default.  Each input file's path is replaced in the
    # config by the sha256 of its content, and the config's ``out`` is left
    # out, so the digest depends neither on where the inputs sit nor on where
    # the outputs go.
    settings = {k: values.get(k, _SETTINGS[k].default) for k in ("grid", "q", "k_max", "tol")}
    content = {fp: "sha256:" + hashlib.sha256(Path(fp).read_bytes()).hexdigest() for fp in _input_files(values)}

    def by_content(obj):  # file paths sit in objects only, never in lists
        if isinstance(obj, dict):
            return {k: by_content(v) for k, v in obj.items()}
        return content.get(obj, obj) if isinstance(obj, str) else obj

    payload = {
        "command": command,
        "config": by_content({k: v for k, v in config.items() if k != "out"}),
        "settings": settings,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_json_default).encode()
    return hashlib.sha256(blob).hexdigest()


def _certificate_verdict(run) -> dict:
    cert = run.certificate
    return {
        "passed": cert.passed,
        "q": run.q,
        "k": run.k,
        "dk": run.dk,
        "pairing": run.pairing,
        "min_margin": cert.min_margin,
        "margin_required": run.margin,
        "worst_point": list(cert.worst_point),
        "product_error": run.product_error,
        "ma_residual": run.ma_result.residual,
        "ma_iterations": run.ma_result.iterations,
    }


def _newton_trace(ma) -> dict:
    """The Monge-Ampere solve step by step, from an ``MASolveResult``: every level
    of its grid ladder, coarsest first, the solve's own grid last."""

    def steps(level):
        record = zip(level.residual_history[1:], level.cg_iterations, level.line_search_halvings)
        return [{"residual": r, "cg_iterations": cg, "line_search_halvings": h} for r, cg, h in record]

    return {
        "newton": {
            "levels": [
                {
                    "grid": level.grid,
                    "initial_residual": level.residual_history[0] if level.residual_history else None,
                    "steps": steps(level),
                    "ended": level.ended,
                    "wall_s": level.wall_s,
                }
                for level in ma.levels
            ],
        }
    }


def _spectral_trace(trace: dict) -> dict:
    """``trace`` of a run that ran FFTs or stencil slabs, with the number of threads they are split over."""
    return {**trace, "fft_workers": fft_workers()}



_MATRIX = _Matrix()
_FINITE = _Number()
_POSITIVE = _Number(0, lo_open=True)
_NONNEGATIVE = _Number(0)
_RATIONALS = _List(_Rational())
_MAX_ITER = _Key(_Integer(1), 50)

_INTERSECT = {"classes": _Key(_List(_MATRIX)), **_settings("out")}


def _cmd_intersect(v):
    mats = v["classes"]
    verdict = {
        "intersection_number": intersection_number(mats),
        "n": int(mats[0].shape[0]),
        "classes": len(mats),
    }
    return EXIT_CERTIFIED, verdict, [], {}


_MA_SOLVE = {
    "background": _Key(_MATRIX),
    "density_constant": _Key(_POSITIVE, None, one_of="density"),
    "density_file": _Key(_File(), None, one_of="density"),
    "max_iter": _MAX_ITER,
    **_settings("grid", "tol", "out"),
}


def _cmd_ma_solve(v):
    torus = TorusModel(n=int(v["background"].shape[0]), grid_size=v["grid"])
    density = v["density_constant"]
    if density is None:
        density = _field(v["density_file"], torus)
    problem = MAProblem(
        torus=torus,
        background=ConstantHermitianClass(v["background"]),
        target_density=np.asarray(density),
        tol=v["tol"],
        max_iter=v["max_iter"],
    )
    result = solve_ma(problem)
    verdict = {
        "n": torus.n,
        "grid": torus.grid_size,
        "residual": result.residual,
        "iterations": result.iterations,
        "positivity_margin": result.positivity_margin,
        "log_constant": result.log_constant,
        "compat_factor": result.compat_factor,
    }
    artifacts = [
        ("phi.qpf", lambda p: write_field(p, torus, result.phi.values)),
    ]
    if np.squeeze(result.phi.values).ndim <= 2:
        artifacts.append(("phi_heatmap.csv", lambda p: write_heatmap_csv(p, result.phi.values)))
    return EXIT_CERTIFIED, verdict, artifacts, _spectral_trace(_newton_trace(result))


_CERTIFICATE = {
    "line_class": _Key(_MATRIX),
    "kahler": _Key(_MATRIX),
    "max_iter": _MAX_ITER,
    "margin": _Key(_NONNEGATIVE, 1e-8),
}
_PSI0 = _Object(
    tag="type",
    cosine={"amplitude": _Key(_FINITE, 0.1), "axis": _Key(_Integer(0), 0)},
    file={"path": _Key(_File())},
)
_CERTIFY = {**_CERTIFICATE, "psi0": _Key(_PSI0, None), **_settings("grid", "q", "k_max", "tol", "out")}
_PSEFF = {**_CERTIFICATE, **_settings("grid", "k_max", "tol", "out")}


def _certificate_torus(v) -> TorusModel:
    """The torus of the line and Kahler classes, which must be of one size."""
    line, kahler = v["line_class"], v["kahler"]
    if line.shape != kahler.shape:
        raise ConfigError([f"line_class is {line.shape} but kahler is {kahler.shape}"])
    return TorusModel(n=int(line.shape[0]), grid_size=v["grid"])


def _psi0(spec: dict, torus: TorusModel) -> PotentialField:
    if spec["type"] == "file":
        return PotentialField(torus, _field(spec["path"], torus, finite=True))
    if spec["axis"] >= torus.ndim_real:
        raise ConfigError([f"psi0.axis must be below {torus.ndim_real}, got {spec['axis']}"])
    coord = torus.real_coordinates()[spec["axis"]]
    return PotentialField(torus, spec["amplitude"] * np.cos(2.0 * np.pi * coord))


def _cmd_certify(v):
    torus = _certificate_torus(v)
    psi0 = None if v["psi0"] is None else _psi0(v["psi0"], torus)
    run = one_positive_pipeline(
        ConstantHermitianClass(v["line_class"]),
        KahlerClass(v["kahler"]),
        psi0=psi0,
        torus=torus,
        k_max=v["k_max"],
        tol=v["tol"],
        max_iter=v["max_iter"],
        margin=v["margin"],
        q=v["q"],
    )
    verdict = _certificate_verdict(run)
    artifacts = [("phi.qpf", lambda p: write_field(p, torus, run.ma_result.phi.values))]
    # The margin field is computed only when the heatmap is written; it has the solved form's stored shape.
    if sum(size > 1 for size in run.ma_result.form.diag.shape[1:]) <= 2:
        artifacts.append(("margin_heatmap.csv", lambda p: write_heatmap_csv(p, run.margin_field)))
    code = EXIT_CERTIFIED if run.certificate.passed else EXIT_NOT_CERTIFIED
    return code, verdict, artifacts, _spectral_trace(_newton_trace(run.ma_result))


def _cmd_pseff(v):
    torus = _certificate_torus(v)
    line = ConstantHermitianClass(v["line_class"])
    # Desk-scale pseudoeffectivity for a constant class: its matrix is positive semidefinite and non-zero.
    scale = float(np.max(np.abs(line.matrix)))
    if scale == 0.0:
        raise ModelError("the zero class is trivially semipositive; nothing to certify")
    smallest = np.linalg.eigvalsh(line.matrix)[0]
    if smallest < -1e-12 * scale:
        raise ModelError(f"class is indefinite (smallest eigenvalue {smallest:.3e}); pseudoeffective model requires PSD")
    # Such a class pairs positively with every Kahler class, the hypothesis of one_positive_pipeline.
    run = one_positive_pipeline(
        line,
        KahlerClass(v["kahler"]),
        psi0=None,
        torus=torus,
        k_max=v["k_max"],
        tol=v["tol"],
        max_iter=v["max_iter"],
        margin=v["margin"],
    )
    code = EXIT_CERTIFIED if run.certificate.passed else EXIT_NOT_CERTIFIED
    return code, _certificate_verdict(run), [], _spectral_trace(_newton_trace(run.ma_result))


_LATTICE = _Object(
    {
        "rank": _Key(_Integer(1)),
        "pairing": _Key(_List(_RATIONALS)),
        "nef_generators": _Key(_List(_RATIONALS)),
        "effective_generators": _Key(_List(_RATIONALS)),
        "name": _Key(_Text(), "custom"),
    },
    tag="model",
    **{name: {} for name in _LATTICE_MODELS},
)
# The analytic side is an abelian surface: constant classes on a complex 2-torus.
_SURFACE_MATRIX = _Matrix(size=2)
_ANALYTIC = _Object(
    {"line_class": _Key(_SURFACE_MATRIX), "kahler": _Key(_SURFACE_MATRIX), "omega_class": _Key(_RATIONALS)}
)
_AG_SURFACE = {
    "lattice": _Key(_LATTICE),
    "divisor": _Key(_RATIONALS),
    "analytic": _Key(_ANALYTIC, None),
    **_settings("grid", "k_max", "out"),
}


def _lattice(spec: dict) -> SurfaceLattice:
    if spec["model"] is not None:
        return _LATTICE_MODELS[spec["model"]]()
    return SurfaceLattice(
        rank=spec["rank"],
        pairing=spec["pairing"],
        nef_generators=tuple(DivisorClass(g) for g in spec["nef_generators"]),
        effective_generators=tuple(DivisorClass(g) for g in spec["effective_generators"]),
        name=spec["name"],
    )


def _cmd_ag_surface(v):
    spec = v["analytic"]
    # The analytic model is built before the cone decision: a bad one exits 3 whatever the divisor.
    if spec is not None:
        line = ConstantHermitianClass(spec["line_class"])
        kahler = KahlerClass(spec["kahler"])
        omega = DivisorClass(spec["omega_class"])
        torus = TorusModel(n=2, grid_size=v["grid"])
    divisor = DivisorClass(v["divisor"])
    lattice = _lattice(v["lattice"])
    report = converse_ag_surface(divisor, lattice)
    run = None
    if spec is not None:
        check_analytic_pairing(divisor, lattice, omega, line, kahler)
        if report.one_ample:
            run = one_positive_pipeline(line, kahler, torus=torus, k_max=v["k_max"])
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
    if run is not None:
        verdict["analytic"] = _certificate_verdict(run)
        trace = _spectral_trace({"analytic": _newton_trace(run.ma_result)})
    code = EXIT_CERTIFIED if report.one_ample else EXIT_NOT_CERTIFIED
    return code, verdict, [], trace


_MAP = _Object(
    {
        "n": _Key(_Integer(1)),
        "m": _Key(_Integer(1)),
        # rows are read by PolyMap.from_rows, which knows n and m
        "monomials": _Key(_List(None), None, one_of="source"),
        "text": _Key(_Text(), None, one_of="source"),
        "file": _Key(_File(), None, one_of="source"),
    }
)
_DEGENERACY = {
    "map": _Key(_MAP),
    "box": _Key(_List(_List(_FINITE, length=2)), None),
    "per_axis": _Key(_Integer(2), 9),
    "rtol": _Key(_POSITIVE, 1e-10),
    "fibre_targets": _Key(_List(_List(_Complex()), empty=True), None),
    **_settings("q", "out"),
}


def _polymap(spec: dict) -> PolyMap:
    n, m = spec["n"], spec["m"]
    if spec["monomials"] is not None:
        return PolyMap.from_rows(((f"map.monomials[{i}]", row) for i, row in enumerate(spec["monomials"])), n, m)
    if spec["file"] is not None:
        return PolyMap.from_text(Path(spec["file"]).read_text(), n=n, m=m)
    return PolyMap.from_text(spec["text"], n=n, m=m)


def _write_flagged(path, points: np.ndarray) -> None:
    """The ``(k, n)`` complex ``points`` as CSV: a header, then each point's
    real and imaginary float64 parts in row order, each as its ``repr``.

    A sample grid holds few distinct values per coordinate, so each column
    formats each of its distinct values once.  They are told apart by their
    bits, since ``-0.0`` equals ``0.0`` but is written differently.
    """
    parts = np.ascontiguousarray(points, dtype=np.complex128).view(np.float64)
    columns = []
    for column in parts.view(np.uint64).T:
        keys, index = np.unique(column, return_inverse=True)
        text = np.array([repr(x) for x in keys.view(np.float64).tolist()], dtype=object)
        columns.append(text[index].tolist())
    header = ",".join(f"re_z{j + 1},im_z{j + 1}" for j in range(points.shape[-1]))
    Path(path).write_text("\n".join([header, *map(",".join, zip(*columns))]) + "\n")


def _cmd_degeneracy(v):
    pmap = _polymap(v["map"])
    intervals = v["box"] or [(-1.0, 1.0)] * (2 * pmap.n)
    targets = v["fibre_targets"] or []
    if len(intervals) != 2 * pmap.n:
        raise ConfigError([f"box must be a list of {2 * pmap.n} [lo, hi] pairs, got {len(intervals)}"])
    for i, tv in enumerate(targets):
        if len(tv) != pmap.m:
            raise ConfigError([f"fibre_targets[{i}]: expected a vector of {pmap.m} entries, got {len(tv)}"])
    q = v["q"] or 0
    scan = degeneracy_locus_scan(pmap, q, sample_box(intervals, v["per_axis"]), rtol=v["rtol"])
    fibre_dims = [fibre_dimension_estimate(pmap, np.array(tv)) for tv in targets]
    flagged = scan.flagged_points()
    verdict = {
        "n": pmap.n,
        "m": pmap.m,
        "q": q,
        "rtol": v["rtol"],
        "per_axis": v["per_axis"],
        "total_points": int(scan.points.shape[0]),
        "flagged_count": int(flagged.shape[0]),
        "fibre_dimensions": fibre_dims if targets else None,
    }
    artifacts = [("flagged_points.csv", lambda p: _write_flagged(p, flagged))]
    code = EXIT_CERTIFIED if flagged.shape[0] == 0 else EXIT_NOT_CERTIFIED
    return code, verdict, artifacts, {}


_LOWER_BOUND = _Key(_NONNEGATIVE, 0.0)
_SINGULAR = _Object(
    tag="type",
    log_trig_pole={"center": _Key(_List(_FINITE), None), "weight": _Key(_POSITIVE, 0.05), "lower_bound": _LOWER_BOUND},
    file={"path": _Key(_File()), "lower_bound": _LOWER_BOUND},
)
_GLUE = {
    "background": _Key(_MATRIX),
    "buffer_file": _Key(_File(), None),
    "singular": _Key(_SINGULAR),
    "pole_band": _Key(_Integer(3), 4),
    "eps_min": _Key(_Number(0, 1, lo_open=True), 2.0**-20),
    "margin": _Key(_NONNEGATIVE, 0.0),
    **_settings("grid", "q", "tol", "out"),
}


def _singular(spec: dict, torus: TorusModel) -> SingularPotential:
    if spec["type"] == "file":
        return SingularPotential(torus, _field(spec["path"], torus), lower_bound=spec["lower_bound"])
    center = spec["center"] or [0.5] * torus.ndim_real
    if len(center) != torus.ndim_real:
        raise ConfigError([f"singular.center must hold {torus.ndim_real} numbers, got {len(center)}"])
    qsum = np.zeros((1,) * torus.ndim_real)
    for c, x in zip(center, torus.real_coordinates()):
        qsum = qsum + np.sin(np.pi * (x - c)) ** 2
    with np.errstate(divide="ignore"):
        values = (spec["weight"] / 2.0) * np.log(qsum)
    return SingularPotential(torus, values, lower_bound=spec["lower_bound"])


def _cmd_glue(v):
    torus = TorusModel(n=int(v["background"].shape[0]), grid_size=v["grid"])
    singular = _singular(v["singular"], torus)
    if v["buffer_file"] is None:
        phi_b = PotentialField.zero(torus)
    else:
        phi_b = PotentialField(torus, _field(v["buffer_file"], torus, finite=True))
    report = zariski_fujita_pipeline(
        ConstantHermitianClass(v["background"]),
        phi_b,
        singular,
        q=v["q"] or 0,
        pole_band=v["pole_band"],
        eps_min=v["eps_min"],
        tol=v["tol"],
        margin=v["margin"],
    )
    verdict = {
        "q": report.q,
        "threshold": report.result.threshold,
        "smoothing_eps": report.result.smoothing_eps,
        "declarations": dict(report.declarations),
        "regions": [asdict(c) for c in report.certificates],
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
    return code, verdict, artifacts, _spectral_trace(trace)


# name: (help, key table, handler)
_COMMANDS = {
    "intersect": ("intersection number of constant (1,1)-classes", _INTERSECT, _cmd_intersect),
    "ma-solve": ("solve a Monge-Ampere equation on the torus grid", _MA_SOLVE, _cmd_ma_solve),
    "certify": ("one-positive-pairing certificate for a constant class", _CERTIFY, _cmd_certify),
    "pseff": ("certificate for a pseudoeffective (PSD, non-zero) class", _PSEFF, _cmd_pseff),
    "ag-surface": ("exact cone duality on a surface lattice, optional analytic run", _AG_SURFACE, _cmd_ag_surface),
    "degeneracy": ("rank-drop scan and fibre dimensions of a polynomial map", _DEGENERACY, _cmd_degeneracy),
    "glue": ("glue a singular potential to a buffer and certify regions", _GLUE, _cmd_glue),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged.
    A subcommand's flags are the settings in its key table."""
    parser = argparse.ArgumentParser(
        prog="qposlab",
        description="numerical certification of q-positivity on flat torus models",
    )
    parser.add_argument("--version", action="version", version=f"qposlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, table, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", type=str, help="JSON config file")
        for key, spec in table.items():
            if spec.flag:
                sp.add_argument(f"--{key.replace('_', '-')}", dest=key, type=spec.kind.from_text, help=spec.flag)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code != 2:  # --help and --version
            raise
        return EXIT_MODEL  # argparse's usage error
    t_start = time.perf_counter()
    _, table, handler = _COMMANDS[args.command]
    try:
        config = _load_config(args.config)
        problems: list = []
        values = _read_table(table, config, problems)
        _override_settings(table, args, values, problems)
        if problems:
            raise ConfigError(problems)
        code, verdict, artifacts, trace = handler(values)
        digest = _inputs_digest(args.command, config, values)
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
    if values["out"] is not None:
        out_dir = Path(values["out"])
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, writer in artifacts:
            target = out_dir / name
            writer(target)
            written.append(str(target))

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "inputs_digest": digest,
        "verdict": verdict,
        "timings": {
            "total_s": round(time.perf_counter() - t_start, 6),
        },
        "trace": trace,
        "artifacts": written,
    }
    text = json.dumps(report, indent=2, sort_keys=True, default=_json_default)
    if values["out"] is not None:
        (Path(values["out"]) / "report.json").write_text(text + "\n")
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
