"""Every name the benchmark's tracer wraps still exists in hamca.

``perfbench/tracing.py`` looks each traced layer up with a plain ``getattr``,
so a renamed or deleted function would otherwise fail only in a traced
benchmark run.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    """The tracer module, run from its source so that nothing is written
    next to it."""
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


tracing = _tracing()


@pytest.mark.parametrize("layer, modname, attr", [
    (layer, modname, attr) for layer, modname, attr, _ in tracing.FUNCTIONS
])
def test_traced_function_resolves(layer, modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr, None)), layer


@pytest.mark.parametrize("layer, meth", [
    (layer, meth) for layer, meth, _ in tracing.METHODS
])
def test_traced_method_resolves(layer, meth):
    from hamca.verifier import _EnsembleGridAverager

    assert callable(getattr(_EnsembleGridAverager, meth, None)), layer
