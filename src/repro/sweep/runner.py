"""Run a grid of specs in worker processes, with result caching.

The grid points of an experiment sweep are embarrassingly parallel —
each :class:`~repro.sweep.spec.RunSpec` is an independent,
deterministic simulation — so :class:`SweepRunner` runs them side by
side in worker processes.  Three properties are load-bearing:

* **Bit-identical results.**  Statistics always travel through the
  JSON codec of :mod:`repro.stats.io`, so a spec's stats are
  byte-for-byte the same whether they came from a worker process or
  the on-disk cache, and equal those of :func:`repro.api.simulate`
  run in this process.
* **Deterministic ordering.**  Results come back in spec order, so
  downstream aggregation never depends on worker scheduling.
* **Content-keyed caching.**  With a cache directory configured, specs
  already on disk are never re-simulated; a warm re-run of a whole
  sweep executes zero simulations.

Every point the cache does not hold runs through
:mod:`repro.sweep.executor`, in up to ``jobs`` forked worker processes
that each run point after point until an attempt fails: it kills a
hung attempt at its deadline, contains a worker that dies, retries in a
new worker with seeded backoff and injects a plan's faults.  A failing
point raises :class:`SweepExecutionError` under the default policy,
and each completed point lands in the result cache as it finishes, so
the cache is the sweep's checkpoint: re-running an interrupted or
partly failed sweep re-executes only the points it does not hold.  To
run one point in this process (under a debugger or a profiler), use
:func:`repro.api.simulate` or ``repro run``.
"""

from __future__ import annotations

import logging
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..faults import FailureRecord, FaultPlan, FaultPolicy
from ..stats.counters import RunStats
from .cache import ResultCache
from .spec import RunSpec

__all__ = [
    "SweepExecutionError",
    "SweepInterrupted",
    "SweepResult",
    "SweepRunner",
]

_log = logging.getLogger("repro.sweep")


class SweepExecutionError(RuntimeError):
    """A grid point exhausted its attempts under ``on_failure="raise"``."""

    def __init__(self, record: FailureRecord, spec: RunSpec) -> None:
        self.record = record
        self.spec = spec
        super().__init__(f"sweep point '{spec.label}' failed — {record.describe()}")


class SweepInterrupted(KeyboardInterrupt):
    """Ctrl-C mid-sweep; carries the results completed so far.

    Subclasses :class:`KeyboardInterrupt` so callers that don't care
    about partial results keep their existing interrupt behavior.
    """

    def __init__(self, results: List["SweepResult"]) -> None:
        self.results = results
        super().__init__(f"sweep interrupted after {len(results)} point(s)")


@dataclass
class SweepResult:
    """One grid point's outcome."""

    spec: RunSpec
    #: ``None`` when the point failed (see :attr:`failure`)
    stats: Optional[RunStats]
    elapsed_s: float
    cached: bool
    #: why the point failed, for failed points only
    failure: Optional[FailureRecord] = None
    #: execution attempts this outcome took (cache hits: 0)
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.failure is None


def _default_progress(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


class SweepRunner:
    """Runs :class:`RunSpec` grids in up to ``jobs`` worker processes.

    ``cache_dir=None`` disables the on-disk cache.  ``progress`` may be
    ``False`` (silent), ``True`` (lines on stderr) or a callable that
    receives each progress line.  ``policy`` (a
    :class:`~repro.faults.FaultPolicy`) selects timeout/retry/skip
    behavior; ``fault_plan`` injects deterministic chaos (``None``:
    no faults).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        progress: bool | Callable[[str], None] = False,
        trace_dir: Optional[str] = None,
        policy: Optional[FaultPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        cpus = os.cpu_count() or jobs
        if jobs > cpus:
            _log.info(
                "clamping jobs=%d to os.cpu_count()=%d (more workers than "
                "cores would only thrash the scheduler)", jobs, cpus,
            )
            jobs = cpus
        self.jobs = jobs
        #: when set, every *executed* spec also writes a JSONL trace +
        #: manifest here (named by content fingerprint).  Cache hits
        #: skip simulation entirely, so they leave no trace file — use
        #: ``cache_dir=None`` to trace a fully warm grid.
        self.trace_dir = trace_dir
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_dir) if cache_dir else None
        )
        self.policy = policy if policy is not None else FaultPolicy()
        self.fault_plan = fault_plan
        if callable(progress):
            self._progress: Optional[Callable[[str], None]] = progress
        else:
            self._progress = _default_progress if progress else None
        #: simulations actually completed (not served from cache, not
        #: failed) since construction — the warm-cache acceptance check
        #: and the resume tests read this
        self.executed = 0
        self.cache_hits = 0
        #: grid points that exhausted their attempts in the last run
        self.failed = 0
        if (
            self.fault_plan is not None
            and any(r.kind == "hang" for r in self.fault_plan.rules)
            and self.policy.timeout_s is None
        ):
            _log.warning(
                "fault plan injects hangs but no timeout_s is set; a hung "
                "worker will stall the sweep for up to %.0fs",
                self.fault_plan.hang_s,
            )

    # ------------------------------------------------------------------

    def _report(self, done: int, total: int, result: SweepResult) -> None:
        if self._progress is None or total == 0:
            return
        if result.failure is not None:
            source = f"FAILED ({result.failure.kind})"
        elif result.cached:
            source = "cache"
        else:
            source = f"{result.elapsed_s:6.2f}s"
        self._progress(
            f"[{done}/{total}] {result.spec.label:<40s} {source}"
        )

    def _payload(self, spec: RunSpec) -> Dict[str, Any]:
        doc = spec.to_dict()
        if self.trace_dir is not None:
            doc["__trace_dir__"] = str(self.trace_dir)
        return doc

    # ------------------------------------------------------------------

    def run(self, specs: Sequence[RunSpec]) -> List[SweepResult]:
        """Execute every spec; results are returned in spec order.

        Under the default :class:`~repro.faults.FaultPolicy` a failing
        point raises :class:`SweepExecutionError`; with
        ``on_failure="skip"`` it comes back as a failed
        :class:`SweepResult` carrying a
        :class:`~repro.faults.FailureRecord`.  ``KeyboardInterrupt``
        is re-raised as :class:`SweepInterrupted` with the completed
        partial results attached; the cache already has them.
        """
        specs = list(specs)
        total = len(specs)
        results: List[Optional[SweepResult]] = [None] * total
        pending: List[Tuple[int, RunSpec, Dict[str, Any], str]] = []
        done = 0
        self.failed = 0
        # each spec's content identity, computed once: the result cache,
        # the executor and fault plans all key by it
        fps = [s.fingerprint() for s in specs]

        def mark(i: int, result: SweepResult) -> None:
            nonlocal done
            done += 1
            # report first: a progress callback that raises (Ctrl-C)
            # leaves this point out of the partial results
            self._report(done, total, result)
            results[i] = result
            if result.failure is not None:
                self.failed += 1
            elif not result.cached:
                self.executed += 1

        def accept(i: int, result: SweepResult) -> None:
            if not result.ok and self.policy.on_failure == "raise":
                raise SweepExecutionError(result.failure, result.spec)
            mark(i, result)

        try:
            for i, spec in enumerate(specs):
                cached = (
                    None if self.cache is None else self.cache.get(spec, fps[i])
                )
                if cached is not None:
                    self.cache_hits += 1
                    mark(
                        i,
                        SweepResult(
                            spec=spec,
                            stats=cached,
                            elapsed_s=0.0,
                            cached=True,
                            attempts=0,
                        ),
                    )
                else:
                    pending.append((i, spec, self._payload(spec), fps[i]))
            if pending:
                # imported here: the executor pulls in asyncio, which a
                # warm sweep never needs
                from .executor import run_points

                run_points(
                    pending,
                    self.jobs,
                    self.policy,
                    accept,
                    plan=self.fault_plan,
                    cache=self.cache,
                )
        except KeyboardInterrupt:
            raise SweepInterrupted(
                [r for r in results if r is not None]
            ) from None

        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]
