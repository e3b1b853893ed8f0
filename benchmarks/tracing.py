"""Spans around qposlab's layer functions and numeric kernels, kept in memory.

``Recorder.install`` wraps the public layer functions named in
``LAYER_FUNCTIONS`` and the numpy (and, when installed, scipy) FFT, eigen
and factorisation entry points in ``KERNELS``.  A wrapper records nothing
outside ``Recorder.operation``, which the benchmark holds around each CLI
call, so its own set-up and checks stay out of the figures.

Per span name it keeps the call count, inclusive seconds and self seconds
(inclusive less the time of wrapped children).  For the spans whose
``peak_mb`` is reported it also keeps the tracemalloc peak above the level
at entry; numpy reports its buffers to tracemalloc, so the peak covers
arrays.  tracemalloc runs only inside those spans: outside them it would
slow the pure-Python layers (exact cone tests, Gauss-Newton) several fold.
Each span is also kept as (name, parent, start, end) and written out when
the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import importlib.util
import json
import math
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

# (module, qualified name) of every layer function a span is recorded for.
LAYER_FUNCTIONS = [
    ("qposlab.cli", "main"),
    ("qposlab.calculus", "complex_hessian"),
    ("qposlab.calculus", "fd_complex_hessian"),
    ("qposlab.calculus", "hermitian_det"),
    ("qposlab.calculus", "HermitianFormField.__post_init__"),
    ("qposlab.ma_solver", "solve_ma"),
    ("qposlab.positivity", "eigenvalues_relative"),
    ("qposlab.positivity", "one_positive_pipeline"),
    ("qposlab.gluing", "dilate"),
    ("qposlab.gluing", "regularized_max"),
    ("qposlab.gluing", "zariski_fujita_pipeline"),
    ("qposlab.surface_cones", "SurfaceLattice.__post_init__"),
    ("qposlab.surface_cones", "is_pseudoeffective"),
    ("qposlab.surface_cones", "positive_pairing_witness"),
    ("qposlab.maps_degeneracy", "PolyMap.jacobian"),
    ("qposlab.maps_degeneracy", "sigma_j_minors"),
    ("qposlab.maps_degeneracy", "degeneracy_locus_scan"),
    ("qposlab.maps_degeneracy", "fibre_dimension_estimate"),
    ("qposlab.fields_io", "read_field"),
    ("qposlab.fields_io", "write_field"),
]

_FFT = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn", "fft2", "ifft2", "rfft2", "irfft2")
KERNELS = {
    "kernel.fft": [("numpy.fft", f) for f in _FFT] + [("scipy.fft", f) for f in _FFT],
    "kernel.eigen": [("numpy.linalg", f) for f in ("eigvalsh", "eigh", "eigvals", "eig")]
    + [("scipy.linalg", f) for f in ("eigvalsh", "eigh", "eigvals", "eig")],
    "kernel.factor": [("numpy.linalg", f) for f in ("cholesky", "inv", "pinv", "solve", "lstsq", "svd", "qr")]
    + [("scipy.linalg", f) for f in ("cholesky", "cho_factor", "cho_solve", "inv", "pinv", "solve",
                                     "lstsq", "svd", "qr", "lu_factor", "lu_solve")],
}

# Per-layer metrics, in the order they are reported, as BENCHMARK.json lists
# them.  "<span>.<field>" reads a span statistic; any other name is a counter.
PER_LAYER = [(m["name"], m["unit"]) for m in
             json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]]
_SPAN_FIELDS = ("calls", "s", "self_s", "peak_mb")
_PEAK_SPANS = {name.removesuffix(".peak_mb") for name, _ in PER_LAYER if name.endswith(".peak_mb")}
# Reported as measured, not divided by the number of traced rounds.
_NOT_PER_ROUND = ("peak_mb", "trace.overhead_ms")


class _Open:
    __slots__ = ("name", "index", "start", "child_s", "entry_bytes", "peak_bytes", "owns_tracemalloc")

    def __init__(self, name, index, start, entry_bytes, owns_tracemalloc):
        self.name, self.index, self.start = name, index, start
        self.child_s, self.entry_bytes, self.peak_bytes = 0.0, entry_bytes, entry_bytes
        self.owns_tracemalloc = owns_tracemalloc


class Recorder:
    def __init__(self):
        self.active = False
        self.stack: list[_Open] = []
        self.stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "peak_mb": 0.0})
        self.counters = defaultdict(float)
        self.spans: list[tuple] = []
        self.top_level_s = 0.0
        self._t0 = time.perf_counter()
        self._restore: list[tuple] = []

    # -- spans ---------------------------------------------------------
    def _fold_peak(self):
        """Credit the peak since the last reset to every open span, then reset."""
        if tracemalloc.is_tracing():
            _, peak = tracemalloc.get_traced_memory()
            for span in self.stack:
                span.peak_bytes = max(span.peak_bytes, peak)
            tracemalloc.reset_peak()

    def _enter(self, name):
        self._fold_peak()
        owns = name in _PEAK_SPANS and not tracemalloc.is_tracing()
        if owns:
            tracemalloc.start()
        if name == "calculus.complex_hessian" and self._inside("ma_solver.solve_ma"):
            self.counters["ma_solver.state_evaluations"] += 1
        elif name == "gluing.regularized_max" and self._inside("gluing.zariski_fujita_pipeline"):
            self.counters["gluing.smoothing_steps"] += 1
        parent = self.stack[-1].index if self.stack else -1
        index = len(self.spans)
        self.spans.append((name, parent, 0.0, 0.0))
        self.stack.append(_Open(name, index, time.perf_counter(), tracemalloc.get_traced_memory()[0], owns))

    def _exit(self):
        end = time.perf_counter()
        self._fold_peak()
        span = self.stack.pop()
        if span.owns_tracemalloc:
            tracemalloc.stop()
        took = end - span.start
        st = self.stats[span.name]
        st["calls"] += 1
        st["s"] += took
        st["self_s"] += took - span.child_s
        if span.name in _PEAK_SPANS:
            st["peak_mb"] = max(st["peak_mb"], (span.peak_bytes - span.entry_bytes) / 2**20)
        if self.stack:
            self.stack[-1].child_s += took
        else:
            self.top_level_s += took
        self.spans[span.index] = (span.name, self.spans[span.index][1], span.start - self._t0, end - self._t0)

    @contextlib.contextmanager
    def operation(self):
        """Record spans, and the process CPU time, for the duration of one operation."""
        self.active = True
        cpu = time.process_time()
        try:
            yield
        finally:
            self.active = False
            self.counters["process.cpu_s"] += time.process_time() - cpu

    def _inside(self, name) -> bool:
        return any(s.name == name for s in self.stack)

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------
    def _replace(self, owner, attr, wrapper, original):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        # names bound by "from module import f" inside qposlab
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("qposlab") and mod is not None:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def install(self):
        for module, qualname in LAYER_FUNCTIONS:
            owner = importlib.import_module(module)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            name = module.removeprefix("qposlab.") + "." + ".".join(path + ([] if attr == "__post_init__" else [attr]))
            original = getattr(owner, attr)
            after = None
            if name == "ma_solver.solve_ma":
                after = self._count_newton
            self._replace(owner, attr, self._wrap(name, original, after), original)
        for group, entries in KERNELS.items():
            after = {"kernel.fft": self._count_fft, "kernel.eigen": self._count_matrices}.get(group)
            for module, attr in entries:
                if module.startswith("scipy") and importlib.util.find_spec("scipy") is None:
                    continue
                owner = importlib.import_module(module)
                original = getattr(owner, attr, None)
                if original is not None:
                    self._replace(owner, attr, self._wrap(group, original, after), original)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _count_newton(self, args, result):
        self.counters["ma_solver.newton_iterations"] += result.iterations

    def _count_fft(self, args, result):
        self.counters["kernel.fft.mb"] += (getattr(args[0], "nbytes", 0) + result.nbytes) / 2**20

    def _count_matrices(self, args, result):
        self.counters["kernel.eigen.matrices"] += math.prod(getattr(args[0], "shape", (1, 1))[:-2])

    # -- report ----------------------------------------------------------
    def metrics(self, rounds: int) -> dict:
        out = {}
        for name, unit in PER_LAYER:
            span, _, field = name.rpartition(".")
            value = self.stats[span][field] if field in _SPAN_FIELDS else self.counters[name]
            if not any(tag in name for tag in _NOT_PER_ROUND):
                value /= rounds
            out[name] = {"value": value, "unit": unit}
        return out
