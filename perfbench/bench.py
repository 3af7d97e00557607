"""Timed passes, output checks and metrics of the repo benchmark.

A *pass* answers a workload's whole grid once cold, then replays it
from the warm result cache:

* simulation workloads (``miss-heavy``, ``hit-heavy``, ``vm-churn``):
  each cell is built (``RunSpec.build_chip``) and run
  (``Chip.run_cycles``) serially in this process, and audited
  (``Chip.verify_coherence``, untimed) on its first pass.  Its stats go
  into a fresh ``ResultCache``, and ``SweepRunner.run`` then answers the
  cells from that cache;
* ``sweep-short``: ``SweepRunner(jobs=2).run`` over the grid against an
  empty cache directory, then against the warm one.

Every simulated point is checked: it must not raise, must pass its
audit, and must repeat the first pass's op count and stats digest.  A
warm replay must execute nothing and return the same digests.  Each
failed check is counted and reported; none stops the run.
"""

from __future__ import annotations

import contextlib
import gc
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro
from repro.perf.harness import geomean, stats_digest
from repro.power.dynamic import DynamicEnergyModel
from repro.simx import resolve_engine
from repro.stats.counters import RunStats
from repro.sweep import SweepRunner
from repro.sweep.cache import ResultCache
from repro.sweep.spec import RunSpec

import grid
from layertrace import LAYERS, SWEEP_LAYERS, LayerTrace, Span

__all__ = ["MIN_PASSES", "Outcome", "WorkloadRun", "measure", "passes_for"]

#: pool size of ``sweep-short`` (``nproc`` of the 2-core reference box)
SWEEP_JOBS = 2
#: passes a run makes however short ``--seconds`` is; the first pass
#: is the reference that later passes must repeat.  Every timing the
#: run reports is its fastest sample: on a shared host other tenants
#: slow this one by up to 75% for minutes at a time, which moved run
#: medians by as much, while the fastest sample of each cell, replay
#: or import stayed within a few percent
MIN_PASSES = 2
#: warm replays after each cold pass
WARM_REPLAYS = 10

_perf = time.perf_counter
#: the simulator sources this benchmark imported
_SRC = Path(repro.__file__).resolve().parent.parent

Metrics = Dict[str, Tuple[float, str]]


@dataclass
class Point:
    """One simulated grid point of a pass."""

    spec: RunSpec
    stats: RunStats
    #: host seconds building the chip (0 for sweep points: built in a worker)
    build_s: float
    #: host seconds of warmup + window; for a sweep point the worker's
    #: ``elapsed_s``, which also covers its build and audit
    sim_s: float

    @property
    def host_s(self) -> float:
        return self.build_s + self.sim_s


@dataclass
class Pass:
    points: List[Point]
    #: host seconds to answer the grid cold: the cells' build + run, or
    #: the wall time of the cold ``SweepRunner.run``
    cold_s: float
    #: the cells' summed build time, or grid + runner construction
    setup_s: float
    warm_s: List[float]
    #: ``SweepRunner`` cache hits / lookups over the warm replays
    hit_ratio: float = 0.0
    #: layer snapshots of a traced pass: (cold part, warm part)
    snapshots: Optional[Tuple[dict, dict]] = None


@dataclass
class Outcome:
    """What a run attempted, what failed, and what it measured."""

    workload: str
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    metrics: Metrics = field(default_factory=dict)
    #: printed, not gated: ``error_rate`` and ``sweep_cold_s``
    extras: Metrics = field(default_factory=dict)
    digests: Dict[str, Tuple[int, str]] = field(default_factory=dict)
    engine: str = ""
    passes: int = 0
    spans: List[Span] = field(default_factory=list)

    def fail(self, what: str, why: str, count: int = 1) -> None:
        self.failed += count
        self.errors.append(f"{what}: {why}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def peak_rss_mb(workers: bool) -> float:
    """Peak resident set of this process, plus with ``workers`` its
    largest waited-for child (a sweep worker), in MiB.  Without sweep
    workers the only children are the import probes, which are no part
    of the workload."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers else 0
    return (own + child) / 1024.0


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class WorkloadRun:
    """Passes over one workload's grid, with the checks between them.

    ``make_specs(seed)`` builds the grid (default: :mod:`grid`'s for
    ``workload``); tests pass a small one.  ``trace`` is set while a
    :class:`LayerTrace` is installed.
    """

    def __init__(
        self,
        workload: str,
        seed: int,
        work_dir: str,
        make_specs: Optional[Callable[[int], List[RunSpec]]] = None,
    ) -> None:
        if workload not in grid.WORKLOADS:
            raise ValueError(
                f"unknown workload {workload!r}; options: {', '.join(grid.WORKLOADS)}"
            )
        self.sweep = workload == "sweep-short"
        if make_specs is None:
            if self.sweep:
                make_specs = grid.sweep_specs
            else:
                def make_specs(s: int) -> List[RunSpec]:
                    return grid.sim_cells(workload, s)
        self.seed = seed
        self.make_specs = make_specs
        self.specs = make_specs(seed)
        self.work_dir = work_dir
        self.outcome = Outcome(workload)
        self.trace: Optional[LayerTrace] = None
        self._reference: Dict[RunSpec, Tuple[int, str]] = {}
        #: the cache of the first pass that answered the whole grid,
        #: which later passes replay between their cells
        self._replay_dir: Optional[str] = None

    # -- tracing helpers ---------------------------------------------------

    def _paused(self):
        return self.trace.paused() if self.trace else contextlib.nullcontext()

    def _span(self, name: str):
        return self.trace.span(name) if self.trace else contextlib.nullcontext()

    # -- checks ------------------------------------------------------------

    def _mismatch(self, spec: RunSpec, stats: RunStats) -> Optional[str]:
        """Compare with the first result for ``spec``; ``None`` if equal."""
        with self._paused():
            got = (stats.operations, stats_digest(stats))
        first = self._reference.setdefault(spec, got)
        if got == first:
            return None
        return (
            f"ops/stats_sha256 {got[0]}/{got[1][:12]} differ from the first "
            f"pass's {first[0]}/{first[1][:12]}"
        )

    def _accept(self, point: Point) -> bool:
        why = self._mismatch(point.spec, point.stats)
        if why is not None:
            self.outcome.fail(point.spec.label, why)
        return why is None

    # -- one pass ----------------------------------------------------------

    def _cold_cells(self) -> Tuple[List[Point], float, float, List[float]]:
        """Build, run and audit every cell.  Once a pass has answered the
        whole grid, each later cell is followed by one warm replay from
        that pass's cache: the host's speed shifts from moment to
        moment, and replays spread over the run see more of it than the
        replays after a pass."""
        points = []
        between: List[float] = []
        for spec in self.specs:
            self.outcome.attempted += 1
            # the audit runs on a cell's first pass; later passes must
            # repeat its op count and digest, so they ran the same
            audit = spec not in self._reference
            try:
                with self._span("cell"):
                    t0 = _perf()
                    with self._span("build"):
                        chip = spec.build_chip()
                    t1 = _perf()
                    stats = chip.run_cycles(spec.cycles, warmup=spec.warmup)
                    t2 = _perf()
                    if audit:
                        with self._paused():
                            chip.verify_coherence()
            except Exception as exc:  # counted; the other cells still run
                self.outcome.fail(spec.label, _describe(exc))
                continue
            self.outcome.engine = chip.engine
            point = Point(spec, stats, t1 - t0, t2 - t1)
            if self._accept(point):
                points.append(point)
            if self._replay_dir and not self.trace:
                between += self._warm(self.specs, self._replay_dir, 1)[0]
        cold = sum(p.host_s for p in points)
        setup = sum(p.build_s for p in points)
        return points, cold, setup, between

    def _cold_sweep(self, cache_dir: str) -> Tuple[List[Point], float, float]:
        t0 = _perf()
        specs = self.make_specs(self.seed)
        runner = SweepRunner(jobs=SWEEP_JOBS, cache_dir=cache_dir)
        t1 = _perf()
        self.outcome.attempted += len(specs)
        self.outcome.engine = resolve_engine()
        try:
            results = runner.run(specs)
        except Exception as exc:  # the whole grid is lost; count it all
            self.outcome.fail("sweep cold pass", _describe(exc), len(specs))
            return [], 0.0, t1 - t0
        cold = _perf() - t1
        points = []
        for r in results:
            if not r.ok or r.cached:
                why = "served from an empty cache" if r.ok else r.failure.describe()
                self.outcome.fail(r.spec.label, why)
                continue
            point = Point(r.spec, r.stats, 0.0, r.elapsed_s)
            if self._accept(point):
                points.append(point)
        return points, cold, t1 - t0

    def _warm(self, specs: Sequence[RunSpec], cache_dir: str, replays: int) -> Tuple[List[float], float]:
        times = []
        hits = lookups = 0
        for _ in range(replays):
            runner = SweepRunner(
                jobs=SWEEP_JOBS if self.sweep else 1, cache_dir=cache_dir
            )
            self.outcome.attempted += 1
            # a replay takes milliseconds: keep collections out of it, as
            # timeit does, instead of paying a full collection before each
            gc.disable()
            try:
                t0 = _perf()
                results = runner.run(specs)
                dt = _perf() - t0
            except Exception as exc:  # counted; the next replay still runs
                self.outcome.fail("warm replay", _describe(exc))
                continue
            finally:
                gc.enable()
            hits += runner.cache.hits
            lookups += runner.cache.hits + runner.cache.misses
            if runner.executed:
                self.outcome.fail("warm replay", f"executed {runner.executed} points")
                continue
            bad = [
                (r.spec.label, why)
                for r in results
                for why in [self._mismatch(r.spec, r.stats)]
                if why is not None
            ]
            if bad:
                self.outcome.fail(f"warm replay {bad[0][0]}", bad[0][1])
                continue
            times.append(dt)
        return times, hits / lookups if lookups else 0.0

    def one_pass(self, replays: int) -> Pass:
        """Answer the grid cold, then ``replays`` times warm.  Traced
        passes snapshot the layer accumulators after each part."""
        trace = self.trace
        cache_dir = tempfile.mkdtemp(dir=self.work_dir)
        keep = False
        between: List[float] = []
        # start every timed part from a collected heap, so a collection
        # owed to earlier passes does not land in this one
        gc.collect()
        try:
            if trace:
                trace.reset()
            if self.sweep:
                points, cold, setup = self._cold_sweep(cache_dir)
            else:
                points, cold, setup, between = self._cold_cells()
                keep = self._replay_dir is None and len(points) == len(self.specs)
                cache = ResultCache(cache_dir)
                for p in points:
                    cache.put(p.spec, p.stats, p.host_s)
            cold_snap = trace.snapshot() if trace else None
            if trace:
                trace.reset()
            warm, hit_ratio = self._warm([p.spec for p in points], cache_dir, replays)
            warm_snap = trace.snapshot() if trace else None
        finally:
            if keep:
                self._replay_dir = cache_dir
            else:
                shutil.rmtree(cache_dir, ignore_errors=True)
        self.outcome.passes += 1
        return Pass(
            points, cold, setup, between + warm, hit_ratio,
            (cold_snap, warm_snap) if trace else None,
        )

    # -- metrics -------------------------------------------------------------

    def end_to_end(self, passes: Sequence[Pass], imports: Sequence[float]) -> Metrics:
        """``imports``: the run's fresh-interpreter import probes."""
        ops, cycles, host = _per_protocol(passes)
        usable = [p for p in passes if p.points and p.cold_s > 0]
        if self.sweep:
            # the pool's wall time, not the points' own: dispatch counts
            rate = max(
                (sum(pt.stats.operations for pt in p.points) / p.cold_s
                 for p in usable),
                default=0.0,
            )
        else:
            rate = sum(ops.values()) / sum(host.values()) if host else 0.0
        # simulated cycles, not ops: a snoop cell's op count swings 2x
        # between seeds while its host time hardly moves
        speeds = [cycles[proto] / host[proto] for proto in host if host[proto] > 0]
        warm = [t for p in passes for t in p.warm_s]
        out = self.outcome
        setup = min(imports) + min(p.setup_s for p in passes)
        m: Metrics = {
            "sim_ops_per_s": (rate, "ops/s"),
            "cell_cycles_per_s.geomean": (
                geomean(speeds) if speeds else 0.0, "cycles/s"
            ),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (peak_rss_mb(self.sweep), "MiB"),
            "ok_ratio": ((out.attempted - out.failed) / max(1, out.attempted), "ratio"),
            "sweep_warm_s": (min(warm, default=0.0), "s"),
        }
        out.extras["error_rate"] = (out.failed / max(1, out.attempted), "ratio")
        if self.sweep:
            out.extras["sweep_cold_s"] = (min((p.cold_s for p in usable), default=0.0), "s")
        return m

    def per_layer(self, untraced: Pass, traced: Sequence[Pass]) -> Metrics:
        per_pass = [
            _layer_metrics(p, self.sweep) for p in traced if p.snapshots is not None
        ]
        m: Metrics = {}
        for name in per_pass[0] if per_pass else ():
            m[name] = (_median([d[name][0] for d in per_pass]), per_pass[0][name][1])
        ops, _, host = _per_protocol([untraced])
        for proto in grid.protocols():
            rate = ops[proto] / host[proto] if host.get(proto) else 0.0
            m[f"cell.{proto}.ops_per_s"] = (rate, "ops/s")
        m.update(_model_metrics(untraced.points))
        traced_cold = [p.cold_s for p in traced]
        ratio = _median(traced_cold) / untraced.cold_s if untraced.cold_s else 0.0
        m["trace.overhead_ratio"] = (ratio, "ratio")
        return m

    def close(self) -> None:
        """Remove the replayed cache, if a pass kept one."""
        if self._replay_dir:
            shutil.rmtree(self._replay_dir, ignore_errors=True)
            self._replay_dir = None

    def record_digests(self) -> None:
        for spec, (ops, digest) in self._reference.items():
            self.outcome.digests[spec.label] = (ops, digest)


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _per_protocol(
    passes: Sequence[Pass],
) -> Tuple[Dict[str, int], Dict[str, int], Dict[str, float]]:
    """Committed ops, simulated cycles (warmup + window) and host
    seconds per protocol, taking each point's fastest pass (see
    :data:`MIN_PASSES`)."""
    times: Dict[RunSpec, List[float]] = defaultdict(list)
    ops: Dict[str, int] = defaultdict(int)
    cycles: Dict[str, int] = defaultdict(int)
    host: Dict[str, float] = defaultdict(float)
    for p in passes:
        for pt in p.points:
            if not times[pt.spec]:
                ops[pt.spec.protocol] += pt.stats.operations
                cycles[pt.spec.protocol] += pt.spec.warmup + pt.spec.cycles
            times[pt.spec].append(pt.host_s)
    for spec, samples in times.items():
        host[spec.protocol] += min(samples)
    return ops, cycles, host


def fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to import the simulator (the
    part of set-up a run can only pay once in-process)."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import repro.api, repro.sweep; "
        "print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(_SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout)


def _layer_metrics(p: Pass, sweep: bool) -> Metrics:
    """The per-layer figures of one traced pass."""
    cold, warm = p.snapshots

    def c(key: str) -> Tuple[int, float, float]:
        return cold.get(key, (0, 0.0, 0.0))

    def w(key: str) -> Tuple[int, float, float]:
        return warm.get(key, (0, 0.0, 0.0))

    access, retries = c("protocols.access")[0], c("protocols.retry")[0]
    events = c("sim.issue")[0] + c("sim.apply_event")[0]
    point_sim = sum(pt.sim_s for pt in p.points) if sweep else 0.0
    overhead = max(0.0, p.cold_s - point_sim / SWEEP_JOBS) if sweep else 0.0
    return {
        "workloads.build_s": (c("workloads.build")[1], "s"),
        "workloads.next_calls": (c("workloads.next")[0], "count"),
        "workloads.next_s": (c("workloads.next")[1], "s"),
        "workloads.churn_s": (c("workloads.churn")[1], "s"),
        "sim.self_s": (c("sim.run")[2] + c("sim.issue")[2], "s"),
        "sim.ops_per_event": ((access - retries) / events if events else 0.0, "ops/event"),
        "sim.apply_event_calls": (c("sim.apply_event")[0], "count"),
        "sim.apply_event_s": (c("sim.apply_event")[1], "s"),
        "protocols.access_calls": (access, "count"),
        "protocols.access_self_s": (c("protocols.access")[2], "s"),
        "protocols.retry_ratio": (retries / access if access else 0.0, "ratio"),
        "protocols.miss_calls": (c("protocols.miss")[0], "count"),
        "protocols.miss_self_s": (c("protocols.miss")[2], "s"),
        "protocols.evict_calls": (c("protocols.evict")[0], "count"),
        "protocols.evict_s": (c("protocols.evict")[1], "s"),
        "protocols.handoff_calls": (c("protocols.handoff")[0], "count"),
        "protocols.handoff_s": (c("protocols.handoff")[1], "s"),
        "cache.calls": (c("cache")[0], "count"),
        "cache.busy_s": (c("cache")[1], "s"),
        "noc.calls": (c("noc")[0], "count"),
        "noc.busy_s": (c("noc")[1], "s"),
        "mem.calls": (c("mem")[0], "count"),
        "mem.busy_s": (c("mem")[1], "s"),
        "stats.finalize_s": (c("stats.finalize")[1], "s"),
        "stats.codec_calls": (c("stats.codec")[0] + w("stats.codec")[0], "count"),
        "stats.codec_s": (c("stats.codec")[1] + w("stats.codec")[1], "s"),
        "sweep.point_sim_s": (point_sim, "s"),
        "sweep.overhead_s": (overhead, "s"),
        "sweep.cache_get_s": (w("sweep.cache_get")[1], "s"),
        "sweep.cache_put_s": (c("sweep.cache_put")[1], "s"),
        "sweep.cache_hit_ratio": (p.hit_ratio, "ratio"),
    }


def _model_metrics(points: Sequence[Point]) -> Metrics:
    """Simulated results over a pass: they repeat exactly for a seed."""
    ops = refs = misses = messages = 0
    energy = 0.0
    models: Dict[Tuple[str, str], DynamicEnergyModel] = {}
    for pt in points:
        st = pt.stats
        ops += st.operations
        refs += st.l1_hits + st.l1_misses
        misses += st.l1_misses
        messages += st.network.messages + st.network.bus_transactions
        key = (pt.spec.protocol, repr(pt.spec.overrides))
        if key not in models:
            models[key] = DynamicEnergyModel(pt.spec.protocol, pt.spec.resolve_config())
        energy += models[key].evaluate(st).total
    return {
        "model.committed_ops": (ops, "count"),
        "model.l1_miss_rate": (misses / refs if refs else 0.0, "ratio"),
        "model.messages_per_op": (messages / ops if ops else 0.0, "msgs/op"),
        "model.energy_per_op": (energy / ops if ops else 0.0, "l1_reads/op"),
    }


def passes_for(workload: str, seconds: float) -> int:
    """Timed passes of a run of ``seconds``: as many nominal passes
    (:data:`grid.PASS_S`) as fit, at least :data:`MIN_PASSES`.  The
    count depends on the run length alone, never on how fast the tree
    is, so a parent and a change take their fastest samples over equally
    many passes."""
    return max(MIN_PASSES, int(seconds // grid.PASS_S[workload]))


def measure(
    workload: str,
    seed: int,
    seconds: float,
    traced: bool,
    work_dir: str,
    make_specs: Optional[Callable[[int], List[RunSpec]]] = None,
) -> Outcome:
    """Run ``workload`` for about ``seconds`` and return its outcome.

    Untraced: :func:`passes_for` passes, each after a fresh-interpreter
    import probe (one more follows the last), so the probes spread over
    the run.  Traced: one untraced pass (the reference and the overhead
    baseline), then one traced pass fewer than an untraced run makes,
    at least one; the per-layer metrics are medians over the traced
    passes.
    """
    run = WorkloadRun(workload, seed, work_dir, make_specs)
    n = passes_for(workload, seconds)
    try:
        if not traced:
            passes: List[Pass] = []
            imports: List[float] = []
            for _ in range(n):
                imports.append(fresh_import_s())
                passes.append(run.one_pass(WARM_REPLAYS))
            imports.append(fresh_import_s())
            run.outcome.metrics = run.end_to_end(passes, imports)
        else:
            untraced = run.one_pass(WARM_REPLAYS)
            run.trace = LayerTrace(SWEEP_LAYERS if run.sweep else LAYERS)
            traced_passes: List[Pass] = []
            try:
                with run.trace.installed():
                    for _ in range(max(1, n - 1)):
                        traced_passes.append(run.one_pass(1))
            finally:
                run.outcome.spans = run.trace.spans
                run.trace = None
            run.outcome.metrics = run.per_layer(untraced, traced_passes)
    finally:
        run.close()
    run.record_digests()
    return run.outcome
