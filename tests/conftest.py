import dataclasses

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from hamca.dynamics import CodedOrbit, coded_orbit, orbit_site_average
from hamca.hamiltonian import compile_machine
from hamca.machine import Configuration, MalformedConfiguration, control
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


def pad_alphabet(spec, site_values):
    """``spec`` with unused amplification symbols appended to its cell
    alphabet until it has ``site_values`` site values.  Cells come first in
    the site-value order, so the controls take the top codes."""
    d = compile_machine(spec).site_dim
    pad = tuple(f"pad{k}" for k in range(site_values - d))
    symbols = dataclasses.replace(spec.symbols, a_track2=spec.symbols.a_track2 + pad)
    return dataclasses.replace(spec, symbols=symbols)


def split_blocks(config):
    """Split a multi-control configuration into per-block configurations.

    A dynamical block is a control site together with the run of cells to its
    right, up to the next control site; on an open lattice the last block
    stops at the lattice end, and the cells left of the first control come
    first as a control-free part.  Each part is returned as an open
    configuration, since its machine can never leave it.
    """
    sites = config.control_sites()
    if not sites:
        raise MalformedConfiguration("no control site")
    first = sites[0]
    cells = config.cells
    if config.boundary == "periodic":
        body, head = cells[first:] + cells[:first], ()
    else:
        body, head = cells[first:], cells[:first]
    starts = [s - first for s in sites] + [len(body)]
    parts = [head] if head else []
    parts += [body[a:b] for a, b in zip(starts, starts[1:])]
    return [Configuration(p, "open") for p in parts]


def reference_orbit_terms(h, cfg, max_steps):
    """The block split of ``dynamics.stacked_member_orbits``, one configuration
    at a time: (orbit, weight) per part, blocks from ``split_blocks`` with
    each block's control from its own scan, weight block width / lattice
    width.  A control-free part is frozen: its one row as a dead-end
    ``CodedOrbit`` of length one.  The block refusal is not checked."""
    blocks = split_blocks(cfg) if len(cfg.control_sites()) > 1 else [cfg]
    out = []
    for block in blocks:
        if block.control_sites():
            orbit = coded_orbit(h, block, max_steps)
        else:
            rows = h.encode([block.cells], np.min_scalar_type(h.site_dim - 1))
            orbit = CodedOrbit(rows, ("dead_end", 1))
        out.append((orbit, block.size / cfg.size))
    return out


def reference_site_average(h, members, t):
    """Space-averaged state at time t of a mixture [(Configuration, weight)]:
    every part of ``reference_orbit_terms`` through ``orbit_site_average``,
    weighted; a mixture has no cross terms between its members."""
    rho = np.zeros((h.site_dim, h.site_dim), dtype=complex)
    for cfg, w in members:
        for orbit, scale in reference_orbit_terms(h, cfg, 100_000):
            rho += float(w) * scale * orbit_site_average(orbit, h, t)
    return rho
