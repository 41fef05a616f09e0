"""Run the docstring examples shipped in the library."""

import doctest

import pytest

import repro.net.address
import repro.sim.engine
import repro.sim.rng
import repro.traffic.mixer

MODULES = [
    repro.sim.engine,
    repro.sim.rng,
    repro.net.address,
    repro.traffic.mixer,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0
