"""Every layer function the benchmark's tracer wraps still exists.

``benchmarks/tracing.py`` resolves each ``(module, qualified name)`` of its
``LAYER_FUNCTIONS`` by import and ``getattr`` when a traced run starts, so a
renamed or deleted layer would fail only there; this test fails first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _layer_functions():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYER_FUNCTIONS


@pytest.mark.parametrize("module, qualname", _layer_functions(), ids=lambda x: x)
def test_layer_function_resolves(module, qualname):
    owner = importlib.import_module(module)
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
