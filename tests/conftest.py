"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core.checker import CoherenceChecker
from repro.sim.chip import PROTOCOLS, make_protocol
from repro.sim.config import ChipConfig, small_test_chip

# tier-1 runs the same Hypothesis examples every time; the randomized
# profile (``--hypothesis-profile=randomized --hypothesis-seed=N``)
# explores new examples outside it
settings.register_profile("deterministic", derandomize=True, database=None)
settings.register_profile("randomized", derandomize=False)
settings.load_profile("deterministic")

ALL_PROTOCOLS = tuple(PROTOCOLS)


def tiny_chip(**kwargs) -> ChipConfig:
    """A 4x4 chip with very small caches (heavy eviction traffic)."""
    defaults = dict(mesh_width=4, mesh_height=4, n_areas=4, l1_kb=1, l2_kb=4)
    defaults.update(kwargs)
    return small_test_chip(**defaults)


def block_homed_at(config: ChipConfig, home: int, n: int = 0) -> int:
    """The ``n``-th block whose home L2 bank is ``home``."""
    return home + n * config.n_tiles


def addr_of(config: ChipConfig, block: int) -> int:
    return block << (config.block_bytes - 1).bit_length()


def addr_homed_at(config: ChipConfig, home: int, n: int = 0) -> int:
    """A full byte address for the n-th block homed at ``home``."""
    return addr_of(config, block_homed_at(config, home, n))


@pytest.fixture(params=ALL_PROTOCOLS)
def any_protocol(request):
    """One instance of each protocol on the tiny test chip."""
    return make_protocol(request.param, tiny_chip(), seed=0)


@pytest.fixture
def checker() -> CoherenceChecker:
    return CoherenceChecker()
