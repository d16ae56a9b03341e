import os

import numpy as np
import pytest

from stokesrbf.analysis import trig_stokes_problem
from stokesrbf.collocation import assemble, solve
from stokesrbf.geometry import make_level_pointset
from stokesrbf.stokes_kernel import StokesKernelConfig
from stokesrbf.wendland import wendland_c8


@pytest.fixture(scope="session")
def c8():
    return wendland_c8()


@pytest.fixture(scope="session")
def unit_config(c8):
    return StokesKernelConfig(c8, c8, nu=1.0, delta=1.0)


@pytest.fixture(scope="session")
def problem():
    return trig_stokes_problem()


@pytest.fixture(scope="session")
def level1_system(c8, problem):
    from stokesrbf.multiscale import MultiscaleConfig, scale_schedule

    delta = scale_schedule(MultiscaleConfig(n_levels=1))[0]
    pointset = make_level_pointset(1)
    kernel = StokesKernelConfig(c8, c8, nu=1.0, delta=delta)
    return assemble(pointset, kernel, problem.f, problem.g)


@pytest.fixture(scope="session")
def level1_solution(level1_system):
    return solve(level1_system)


class MemoryProbe:
    """Physical memory that reads as ``bytes`` (through a patched
    `os.sysconf`; the machine's own until set), and ``passed``, a stand-in
    for the first step after a memory guard: it raises ``Passed`` and
    allocates nothing.  No guard test may allocate what it guards."""

    class Passed(Exception):
        pass

    def __init__(self):
        self.bytes = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")

    @classmethod
    def passed(cls, *args, **kwargs):
        raise cls.Passed


@pytest.fixture()
def memory(monkeypatch):
    probe = MemoryProbe()
    monkeypatch.setattr(os, "sysconf", lambda name: 1 if name == "SC_PAGE_SIZE" else probe.bytes)
    return probe


@pytest.fixture()
def rng():
    return np.random.default_rng(20260808)
