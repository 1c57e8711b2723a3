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


def test_traced_counts_read_the_stacked_averager():
    """The tracer's averager counts read the stacked averager's ``members``
    view: the decide benchmark's halting ensemble (243 anchored members)
    gives 243 orbits of 5 shapes, and a states_at call over 7 grid points
    counts 243 x 7 member points."""
    from fractions import Fraction

    import numpy as np

    from hamca.encoding import EnsembleParams, build_initial_ensemble, encode_input
    from hamca.hamiltonian import compile_machine
    from hamca.staged import build_staged_machine
    from hamca.verifier import _EnsembleGridAverager

    spec = build_staged_machine("halt_now", "one-way-amp", include_decode=True)
    params = EnsembleParams("anchored", L=5, alpha=Fraction(1, 8))
    ensemble = build_initial_ensemble(spec, params, encode_input("1", Fraction(1, 8)))
    avger = _EnsembleGridAverager(compile_machine(spec), ensemble)
    assert tracing._averager_counts((avger, None), {}, None) == {"orbits": 243, "orbit_shapes": 5}
    ts = np.linspace(0.0, 1.0, 7)
    counts = tracing._states_at_counts((avger, ts), {}, avger.states_at(ts))
    assert counts == {"member_points": 243 * 7}
