"""Shared infrastructure for the reproduction benchmarks.

Each ``bench_*`` module regenerates one table or figure of the paper.
The trace-driven figures (7, 8a, 8b, 9a, 9b) all consume the same
simulation sweep — every workload of Table IV run under all four
protocols — so the sweep is computed once per pytest session and
memoized here.

All simulations route through :class:`repro.sweep.SweepRunner`; three
environment knobs apply:

* ``REPRO_SWEEP_JOBS``  — worker processes of
  :mod:`repro.sweep.executor` (default ``1``: every point runs in one
  worker, one after another; above ``1`` in up to that many, with
  bit-identical results);
* ``REPRO_SWEEP_CACHE`` — on-disk result-cache directory (default:
  unset, no cross-session caching);
* ``REPRO_TRACE_DIR``   — when set, every *executed* benchmark run
  also writes a JSONL event trace + manifest there (cache hits skip
  simulation and leave no trace).  Every run dispatches through
  :func:`repro.api.simulate` either way, so tracing never changes
  the statistics.

The sweep runs under the default failure policy (no timeout, no
retries, no fault plan), and the runner guarantees results identical
to serial execution regardless of any knob, so the figures never
depend on how the sweep was scheduled.

The grid itself (protocol/workload order, per-workload measurement
windows) lives in :mod:`repro.sweep.grids`; the names re-exported here
keep the historical ``benchmarks.common`` import surface working.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro import DEFAULT_CHIP
from repro.stats.counters import RunStats
from repro.sweep import (
    LAB_PROTOCOL_ORDER,
    PROTOCOL_ORDER,
    WINDOWS,
    WORKLOAD_ORDER,
    RunSpec,
    SweepRunner,
    config_to_dict,
    placement_spec,
    snapshot_workload,
    window_for,
)
from repro.workloads.placement import VMPlacement

__all__ = [
    "ENERGY_CHIP",
    "LAB_PROTOCOL_ORDER",
    "PROTOCOL_ORDER",
    "SEED",
    "WINDOWS",
    "WORKLOAD_ORDER",
    "fmt_row",
    "full_sweep",
    "print_table",
    "run_one",
    "run_specs",
    "spec_for",
    "sweep",
]

SEED = 1

#: energy-model geometry: per-access energies come from the paper's
#: full-size Table III structures, event counts from the scaled runs
ENERGY_CHIP = DEFAULT_CHIP

_runner: Optional[SweepRunner] = None
_sweep_cache: Dict[str, Dict[str, RunStats]] = {}


def _get_runner() -> SweepRunner:
    global _runner
    if _runner is None:
        _runner = SweepRunner(
            jobs=int(os.environ.get("REPRO_SWEEP_JOBS", "1")),
            cache_dir=os.environ.get("REPRO_SWEEP_CACHE") or None,
            trace_dir=os.environ.get("REPRO_TRACE_DIR") or None,
        )
    return _runner


def spec_for(
    protocol: str,
    workload: str,
    seed: int = SEED,
    placement: Optional[VMPlacement] = None,
    protocol_kwargs: Optional[dict] = None,
    config=None,
) -> RunSpec:
    """Build the RunSpec matching one measured benchmark run.

    The workload content is snapshotted from the live registry so that
    benches which patch ``BENCHMARKS`` before running still key (and
    dispatch) the patched content, and any explicit chip config or
    placement object is serialized into the spec.
    """
    warmup, window = window_for(workload)
    n_vms = placement.n_vms if placement is not None else 4
    return RunSpec(
        protocol=protocol,
        workload=workload,
        seed=seed,
        placement="aligned" if placement is None else placement_spec(placement),
        cycles=window,
        warmup=warmup,
        n_vms=n_vms,
        config=None if config is None else config_to_dict(config),
        protocol_kwargs=protocol_kwargs or {},
        workload_specs=snapshot_workload(workload, n_vms),
    )


def run_specs(specs: List[RunSpec]) -> List[RunStats]:
    """Run a batch of specs through the shared runner."""
    return [res.stats for res in _get_runner().run(specs)]


def run_one(
    protocol: str,
    workload: str,
    seed: int = SEED,
    placement: Optional[VMPlacement] = None,
    protocol_kwargs: Optional[dict] = None,
    config=None,
) -> RunStats:
    """One measured run of (protocol, workload) on the scaled chip."""
    spec = spec_for(
        protocol,
        workload,
        seed=seed,
        placement=placement,
        protocol_kwargs=protocol_kwargs,
        config=config,
    )
    return run_specs([spec])[0]


def sweep(workload: str) -> Dict[str, RunStats]:
    """The full protocol lab on one workload (memoized per session).

    The mapping covers :data:`LAB_PROTOCOL_ORDER` — the paper's four
    plus VH and the snooping/directoryless families — so the figure
    benches can print all-lab rows while their shape assertions keep
    indexing the :data:`PROTOCOL_ORDER` subset.
    """
    cached = _sweep_cache.get(workload)
    if cached is None:
        specs = [spec_for(p, workload) for p in LAB_PROTOCOL_ORDER]
        stats = run_specs(specs)
        cached = dict(zip(LAB_PROTOCOL_ORDER, stats))
        _sweep_cache[workload] = cached
    return cached


def full_sweep() -> Dict[str, Dict[str, RunStats]]:
    """Every Table IV workload under every lab protocol (memoized).

    Fans the *entire* remaining grid through the runner in one batch,
    so with ``REPRO_SWEEP_JOBS > 1`` the whole figure sweep
    parallelizes instead of one workload at a time.
    """
    missing = [w for w in WORKLOAD_ORDER if w not in _sweep_cache]
    if missing:
        specs = [
            spec_for(p, w) for w in missing for p in LAB_PROTOCOL_ORDER
        ]
        stats = run_specs(specs)
        n = len(LAB_PROTOCOL_ORDER)
        for i, w in enumerate(missing):
            per_w = stats[i * n:(i + 1) * n]
            _sweep_cache[w] = dict(zip(LAB_PROTOCOL_ORDER, per_w))
    return {w: sweep(w) for w in WORKLOAD_ORDER}


def fmt_row(label: str, values, width: int = 16, prec: int = 3) -> str:
    cells = "".join(
        f"{v:>{width}.{prec}f}" if isinstance(v, float) else f"{v:>{width}}"
        for v in values
    )
    return f"{label:<16}{cells}"


def print_table(title: str, header, rows) -> None:
    print()
    print(f"== {title} ==")
    print(fmt_row("", header))
    for label, values in rows:
        print(fmt_row(label, values))
