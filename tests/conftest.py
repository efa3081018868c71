"""Shared fixtures."""

import pytest

from lgc.construction_a import lift, random_code
from lgc.lattice import standard_lattice
from lgc.rng import RngSeed

_BUILDERS = {
    "Z4": lambda: standard_lattice("Zn", 4),
    "D4": lambda: standard_lattice("Dn", 4),
    "E8": lambda: standard_lattice("E8"),
    "A2": lambda: standard_lattice("A2"),
    # an untagged Construction-A basis (p = 7, n = 8, k = 4)
    "lift": lambda: lift(random_code(7, 8, 4, RngSeed(2025, 0)), 0.6),
}


@pytest.fixture
def fresh_lattice():
    """Build a lattice by short name, new on every call (cold caches)."""
    return lambda name: _BUILDERS[name]()
