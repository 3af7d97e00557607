"""Determinism and accounting invariants across the sweep machinery.

The sweep runner's contract is bit-identity: the same :class:`RunSpec`
must produce the same ``RunStats.summary()`` whether it ran in
process, in the executor's worker processes, or came back from the
on-disk cache.  These
tests pin that contract for every protocol, and check the miss-
classification books balance (every L1 miss lands in exactly one
category of Fig. 5's taxonomy).
"""

import pytest

from repro.sim.chip import PROTOCOLS
from repro.sim.config import small_test_chip
from repro.stats.io import stats_to_dict
from repro.sweep import RunSpec, SweepRunner
from repro.sweep.spec import config_to_dict

TINY = config_to_dict(small_test_chip())


def spec_for(protocol: str, **kwargs) -> RunSpec:
    defaults = dict(
        protocol=protocol,
        workload="mixed-sci",
        seed=7,
        cycles=4_000,
        warmup=1_000,
        config=TINY,
    )
    defaults.update(kwargs)
    return RunSpec(**defaults)


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_same_spec_twice_is_bit_identical(protocol):
    spec = spec_for(protocol)
    a = spec.execute()
    b = spec.execute()
    assert a.summary() == b.summary()
    assert stats_to_dict(a) == stats_to_dict(b)


def test_pool_and_serial_agree_for_all_protocols():
    grid = [spec_for(p) for p in sorted(PROTOCOLS)]
    serial = SweepRunner(jobs=1).run(grid)
    pooled = SweepRunner(jobs=2).run(grid)
    for a, b in zip(serial, pooled):
        assert a.spec == b.spec
        assert a.stats.summary() == b.stats.summary()
        assert stats_to_dict(a.stats) == stats_to_dict(b.stats)


def test_cache_round_trip_is_bit_identical(tmp_path):
    spec = spec_for("dico-providers")
    cold = SweepRunner(jobs=1, cache_dir=str(tmp_path)).run([spec])[0]
    warm_runner = SweepRunner(jobs=1, cache_dir=str(tmp_path))
    warm = warm_runner.run([spec])[0]
    assert warm.cached and warm_runner.executed == 0
    assert stats_to_dict(warm.stats) == stats_to_dict(cold.stats)
    assert warm.stats.summary() == cold.stats.summary()


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_miss_categories_account_for_every_l1_miss(protocol):
    stats = spec_for(protocol, workload="apache").execute()
    assert stats.l1_misses > 0
    assert sum(stats.miss_categories.values()) == stats.l1_misses
    # the links accumulator samples exactly the classified misses
    assert stats.miss_latency.count == stats.l1_misses
