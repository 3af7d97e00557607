"""repro — reproduction of "Energy-Efficient Cache Coherence Protocols
in Chip-Multiprocessors for Server Consolidation" (ICPP 2011).

A trace-driven tiled-CMP simulator with four cache-coherence protocols
(flat Directory, DiCo, DiCo-Providers, DiCo-Arin), a hypervisor
memory-deduplication model, a 2D-mesh NoC with broadcast support, and
calibrated CACTI-like power models — everything needed to regenerate
the paper's Tables V–VII and Figures 7–9.

Quickstart::

    from repro import RunSpec, simulate

    result = simulate(RunSpec("dico-providers", "apache"))
    print(result.stats.summary())

:func:`repro.api.simulate` is the single construction path for
measured runs — the CLI, the benchmark suite and the sweep runner all
dispatch through it, and it is where observability (event tracing, run
manifests, the coherence checker) attaches.
:class:`Chip` remains available for direct, low-level driving.
"""

from .api import RunResult, RunSpec, TraceOptions, simulate
from .sim.chip import PROTOCOLS, Chip, make_protocol, paper_scaled_chip
from .sim.config import ChipConfig, DEFAULT_CHIP, small_test_chip
from .core.storage import (
    PROTOCOL_NAMES,
    overhead_percent,
    overhead_table,
    storage_breakdown,
)
from .power.cacti import LeakageModel, leakage_table
from .power.dynamic import DynamicEnergyModel
from .workloads.placement import VMPlacement
from .workloads.generator import ConsolidatedWorkload
from .workloads.spec import BENCHMARKS, MIXES, WorkloadSpec, spec_names
from .stats.counters import RunStats

__version__ = "1.0.0"

__all__ = [
    "Chip",
    "ChipConfig",
    "ConsolidatedWorkload",
    "DEFAULT_CHIP",
    "DynamicEnergyModel",
    "LeakageModel",
    "PROTOCOLS",
    "PROTOCOL_NAMES",
    "RunResult",
    "RunSpec",
    "RunStats",
    "TraceOptions",
    "simulate",
    "VMPlacement",
    "WorkloadSpec",
    "BENCHMARKS",
    "MIXES",
    "leakage_table",
    "make_protocol",
    "overhead_percent",
    "overhead_table",
    "paper_scaled_chip",
    "small_test_chip",
    "spec_names",
    "storage_breakdown",
]
