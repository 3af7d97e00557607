"""Committed golden digests: the simulator's output pinned across commits.

Every cell's full statistics (``stats_to_dict``) hash to a
``stats_sha256`` digest.  ``golden_digests.json`` holds the digests of
32 small cells — every protocol on a miss-heavy and a hit-heavy
workload, every protocol under the five-kind consolidation storyline,
and every protocol run to a fixed op count (``run_ops``).  A change
that moves any simulation result changes a digest here.  After an
intentional change (a new stats field, a protocol fix), regenerate the
file with::

    PYTHONPATH=src python -m tests.integration.test_golden_digests
"""

import json
from pathlib import Path

import pytest

from repro.sim.chip import PROTOCOLS, Chip
from repro.stats.io import stats_digest
from tests.conftest import tiny_chip
from tests.sim.test_dynamics_chip import dynamic_chip, storyline

GOLDEN = Path(__file__).with_name("golden_digests.json")
STATIC_WORKLOADS = ("apache", "tomcatv")


def cells():
    for protocol in sorted(PROTOCOLS):
        for workload in STATIC_WORKLOADS:
            yield f"{protocol}/{workload}"
        yield f"{protocol}/storyline"
        yield f"{protocol}/run_ops"


def run_cell(cell: str) -> str:
    protocol, workload = cell.split("/")
    if workload == "storyline":
        stats = dynamic_chip(protocol, plan=storyline()).run_cycles(
            4_000, warmup=1_000
        )
    elif workload == "run_ops":
        stats = Chip(protocol, "tomcatv", config=tiny_chip()).run_ops(300)
    else:
        stats = Chip(protocol, workload, config=tiny_chip()).run_cycles(
            3_000, warmup=1_000
        )
    return stats_digest(stats)


@pytest.mark.parametrize("cell", list(cells()))
def test_cell_matches_its_golden_digest(cell):
    assert run_cell(cell) == json.loads(GOLDEN.read_text())[cell]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({cell: run_cell(cell) for cell in cells()}, indent=2,
                   sort_keys=True) + "\n"
    )
