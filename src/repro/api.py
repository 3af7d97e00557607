"""The experiment facade: one construction path for every run.

Every entry point — ``python -m repro run``, the benchmark scripts,
the sweep runner — funnels through :func:`simulate`::

    from repro.api import RunSpec, TraceOptions, simulate

    result = simulate(
        RunSpec(protocol="dico-providers", workload="apache"),
        trace=TraceOptions(path="run.jsonl"),
        checker=True,
    )
    result.stats.summary()
    result.manifest.config_fingerprint
    result.trace_path

The :class:`~repro.sweep.spec.RunSpec` is the complete, serializable
description of the run; :class:`TraceOptions` selects the observability
instruments (sinks, filters — see :mod:`repro.trace`); ``checker=True``
runs the global coherence-invariant audit over every cached block after
the run.  The returned :class:`RunResult` carries typed accessors
instead of raw dicts: ``.stats`` (a
:class:`~repro.stats.counters.RunStats`), ``.manifest`` (a
:class:`~repro.trace.RunManifest`, built whenever tracing is on or a
manifest path is requested), ``.trace_path`` and — for in-memory sinks
— ``.events``.

With ``trace=None`` (the default) this is exactly the untraced
simulation: no tracer is attached, no manifest subprocess runs, and
the determinism suite pins the statistics bit-identical to a plain
``chip.run_cycles`` call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Optional, Tuple, Union

from .sim.chip import Chip
from .sim.engine import LivelockError
from .stats.counters import RunStats
from .stats.io import STATS_SCHEMA
from .sweep.spec import RunSpec
from .trace import (
    FilterSink,
    JsonlFileSink,
    MetricsRegistry,
    RingBufferSink,
    RunManifest,
    TraceEvent,
    Tracer,
    TraceSink,
)
from .trace.manifest import git_rev

__all__ = [
    "RunSpec",
    "TraceOptions",
    "RunResult",
    "simulate",
    "attach_tracer",
    "detach_tracer",
    "spec_fingerprint",
    "verify",
    "replay_bundle",
    "connect",
]


@dataclass
class TraceOptions:
    """What to record and where to put it.

    With ``path`` set, events stream to a JSONL file (and the manifest
    is written next to it as ``<path>.manifest.json``); otherwise they
    collect in a :class:`~repro.trace.RingBufferSink` of ``capacity``
    events (``None`` keeps everything) and come back on
    ``RunResult.events``.  A custom ``sink`` overrides both.  The four
    filter dimensions, when given, wrap the sink in a
    :class:`~repro.trace.FilterSink` allow-list.
    """

    path: Optional[Union[str, Path]] = None
    capacity: Optional[int] = 65536
    addrs: Optional[Collection[int]] = None
    tiles: Optional[Collection[int]] = None
    events: Optional[Collection[str]] = None
    layers: Optional[Collection[str]] = None
    sink: Optional[TraceSink] = None

    def build_sink(self) -> TraceSink:
        base: TraceSink
        if self.sink is not None:
            base = self.sink
        elif self.path is not None:
            base = JsonlFileSink(self.path)
        else:
            base = RingBufferSink(self.capacity)
        if (
            self.addrs is not None
            or self.tiles is not None
            or self.events is not None
            or self.layers is not None
        ):
            return FilterSink(
                base,
                addrs=self.addrs,
                tiles=self.tiles,
                events=self.events,
                layers=self.layers,
            )
        return base


@dataclass
class RunResult:
    """Typed outcome of one :func:`simulate` call."""

    spec: RunSpec
    stats: RunStats
    wall_time_s: float
    manifest: Optional[RunManifest] = None
    trace_path: Optional[Path] = None
    manifest_path: Optional[Path] = None
    #: the recorded events, for in-memory sinks only (file sinks stream
    #: to ``trace_path``; read them back with ``tracetools.read_trace``)
    events: Optional[Tuple[TraceEvent, ...]] = None
    checked: bool = False

    @property
    def metrics(self) -> MetricsRegistry:
        """The stats re-expressed as a labelled metrics registry."""
        return MetricsRegistry.from_run_stats(self.stats)


def spec_fingerprint(spec: RunSpec) -> str:
    """sha256 over the spec's canonical JSON — its content identity."""
    return spec.fingerprint()


def attach_tracer(chip: Chip, tracer: Tracer) -> None:
    """Point every instrumented structure of ``chip`` at ``tracer``."""
    protocol = chip.protocol
    protocol._trace = tracer
    protocol.network._trace = tracer
    bus = getattr(protocol, "bus", None)
    if bus is not None:
        bus._trace = tracer
    for cache in (*protocol.l1s, *protocol.l2s):
        cache._trace = tracer
    for dircache in getattr(protocol, "dircaches", ()):
        dircache._trace = tracer


def detach_tracer(chip: Chip) -> None:
    """Restore the zero-overhead ``_trace = None`` state."""
    protocol = chip.protocol
    protocol._trace = None
    protocol.network._trace = None
    bus = getattr(protocol, "bus", None)
    if bus is not None:
        bus._trace = None
    for cache in (*protocol.l1s, *protocol.l2s):
        cache._trace = None
    for dircache in getattr(protocol, "dircaches", ()):
        dircache._trace = None


def _collect_events(sink: TraceSink) -> Optional[Tuple[TraceEvent, ...]]:
    inner = sink.inner if isinstance(sink, FilterSink) else sink
    if hasattr(inner, "__iter__"):
        return tuple(inner)
    return None


def simulate(
    spec: RunSpec,
    *,
    trace: Optional[TraceOptions] = None,
    checker: bool = False,
    manifest_path: Optional[Union[str, Path]] = None,
) -> RunResult:
    """Build, run and observe the simulation ``spec`` describes.

    ``trace`` attaches the tracing subsystem for the run (detached
    again before returning); ``checker=True`` audits the coherence
    invariants over every cached block after the measurement window;
    ``manifest_path`` forces a manifest even without tracing.

    A run aborted by the engine's progress watchdog re-raises its
    :class:`~repro.sim.engine.LivelockError` — after writing any
    requested manifest with the ``watchdog`` verdict recorded, so the
    stalled-tiles/blocks diagnostic survives the crash.
    """
    chip = spec.build_chip()
    tracer: Optional[Tracer] = None
    sink: Optional[TraceSink] = None
    if trace is not None:
        sink = trace.build_sink()
        sim = chip.sim
        tracer = Tracer(sink, lambda: sim._now)
        attach_tracer(chip, tracer)
    start = time.perf_counter()
    stats: Optional[RunStats] = None
    livelock: Optional[LivelockError] = None
    try:
        try:
            stats = chip.run_cycles(spec.cycles, warmup=spec.warmup)
            if checker:
                chip.verify_coherence()
        except LivelockError as exc:
            livelock = exc
    finally:
        if tracer is not None:
            detach_tracer(chip)
            tracer.close()
    wall = time.perf_counter() - start
    watchdog_verdict = "ok" if livelock is None else f"livelock: {livelock}"

    trace_path: Optional[Path] = None
    if trace is not None and trace.path is not None:
        trace_path = Path(trace.path)

    manifest: Optional[RunManifest] = None
    written_manifest: Optional[Path] = None
    if trace is not None or manifest_path is not None:
        instruments = []
        if trace is not None:
            instruments.append("tracer")
        if checker:
            instruments.append("checker")
        instruments.append("watchdog")
        manifest = RunManifest(
            protocol=spec.protocol,
            workload=spec.workload,
            seed=spec.seed,
            cycles=spec.cycles,
            warmup=spec.warmup,
            config_fingerprint=spec_fingerprint(spec),
            git_rev=git_rev(),
            stats_schema=STATS_SCHEMA,
            wall_time_s=round(wall, 6),
            created_unix=time.time(),
            instruments=instruments,
            watchdog=watchdog_verdict,
            trace_path=None if trace_path is None else str(trace_path),
            spec=spec.to_dict(),
        )
        if manifest_path is not None:
            written_manifest = manifest.write(manifest_path)
        elif trace_path is not None:
            written_manifest = manifest.write(
                trace_path.with_name(trace_path.name + ".manifest.json")
            )

    if livelock is not None:
        # the diagnostic is on the record (manifest written above, when
        # requested); the caller still sees the failure
        raise livelock

    events: Optional[Tuple[TraceEvent, ...]] = None
    if sink is not None and trace_path is None and (
        trace is None or trace.sink is None
    ):
        events = _collect_events(sink)

    return RunResult(
        spec=spec,
        stats=stats,
        wall_time_s=wall,
        manifest=manifest,
        trace_path=trace_path,
        manifest_path=written_manifest,
        events=events,
        checked=checker,
    )


# ---------------------------------------------------------------------------
# protocol verification (the ``python -m repro verify`` facade)

def verify(
    protocols=None,
    *,
    rounds: int = 4,
    budget_seconds: Optional[float] = None,
    seed: int = 0,
    n_ops: int = 400,
    mutation: Optional[str] = None,
    bundle_dir: Union[str, Path] = "verify-bundles",
    report_path: Optional[Union[str, Path]] = None,
    **kwargs,
):
    """Differentially fuzz the coherence protocols.

    Thin facade over :func:`repro.verify.runner.run_verification`; see
    there for the full parameter list.  With ``report_path`` set the
    machine-readable verdict document is written there as well as
    returned.
    """
    from .verify.runner import run_verification

    report = run_verification(
        protocols,
        rounds=rounds,
        budget_seconds=budget_seconds,
        seed=seed,
        n_ops=n_ops,
        mutation=mutation,
        bundle_dir=bundle_dir,
        **kwargs,
    )
    if report_path is not None:
        report.save(report_path)
    return report


def replay_bundle(path: Union[str, Path]):
    """Re-execute a verification repro bundle deterministically."""
    from .verify.bundle import replay_bundle as _replay

    return _replay(path)


# ---------------------------------------------------------------------------
# the experiment daemon (the ``python -m repro serve`` facade)

def connect(host: str = "127.0.0.1", port: int = 8047, **kwargs):
    """Client for a running experiment daemon (``python -m repro serve``).

    ::

        from repro.api import RunSpec, connect

        client = connect(port=8047)
        job = client.submit(
            [RunSpec(protocol="dico", workload="radix").to_dict()],
            tenant="alice",
        )
        for event in client.results(job["job_id"]):
            print(event["index"], event["status"])

    Returns a :class:`repro.serve.ServeClient`; submissions refused by
    admission control raise :class:`repro.serve.Backpressure` with the
    daemon's ``Retry-After``.
    """
    from .serve import ServeClient

    return ServeClient(host, port, **kwargs)
