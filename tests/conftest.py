import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from hamca.hamiltonian import compile_machine
from hamca.machine import Configuration, control
from hamca.staged import build_staged_machine, shuttle_machine

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def oneway():
    return build_staged_machine("halt_now", "one-way-amp")


@pytest.fixture(scope="session")
def oneway_nd():
    return build_staged_machine("halt_now", "one-way-amp", include_decode=False)


@pytest.fixture(scope="session")
def twoway_nd():
    return build_staged_machine("halt_now", "two-way-amp", include_decode=False)


@pytest.fixture(scope="session")
def iid_nd():
    return build_staged_machine("halt_now", "iid-repeat-amp", include_decode=False)


@pytest.fixture(scope="session")
def drifter():
    return build_staged_machine("ping_pong", "one-way-amp")


@pytest.fixture(scope="session")
def drifter_nd():
    return build_staged_machine("ping_pong", "one-way-amp", include_decode=False)


@pytest.fixture(scope="session")
def shuttle():
    return shuttle_machine()


@pytest.fixture(scope="session")
def h_oneway_nd(oneway_nd):
    return compile_machine(oneway_nd)


@pytest.fixture(scope="session")
def h_oneway(oneway):
    return compile_machine(oneway)


@pytest.fixture(scope="session")
def rng():
    return np.random.RandomState(42)


@pytest.fixture(scope="session")
def single_control_rings():
    """Strategy for (spec, configuration): arbitrary cells, control site, mode
    and state, on either boundary, for one of five machines."""
    specs = [
        build_staged_machine("halt_now", "two-way-amp", include_decode=False),
        build_staged_machine("counter", "one-way-amp"),
        build_staged_machine("halt_now", "iid-repeat-amp"),
        build_staged_machine("ping_pong", "one-way-amp", include_decode=False),
        shuttle_machine(),
    ]

    @st.composite
    def rings(draw):
        spec = draw(st.sampled_from(specs))
        L = draw(st.integers(0, 9))
        body = draw(st.lists(st.sampled_from(spec.symbols.cells()), min_size=L, max_size=L))
        pos = draw(st.integers(0, L))
        mode = draw(st.integers(0, 1))
        q = draw(st.sampled_from(sorted(spec.control.states)))
        boundary = draw(st.sampled_from(["periodic", "open"]))
        cells = tuple(body[:pos]) + (control(mode, q),) + tuple(body[pos:])
        return spec, Configuration(cells, boundary)

    return rings()
