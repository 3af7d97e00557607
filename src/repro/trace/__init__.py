"""Structured tracing and run manifests.

The observability layer of the simulator.  Two kinds of artefact:

* **Trace events** (:mod:`repro.trace.events`) — structured records of
  protocol state transitions, NoC message lifecycles and cache
  fill/evict/invalidate actions, emitted through a :class:`Tracer`
  into a :class:`TraceSink` (ring buffer, JSONL file, filter chain).
* **Manifests** (:mod:`repro.trace.manifest`) — a per-run provenance
  document (config fingerprint, seed, git rev, schema versions,
  wall time, enabled instruments) written alongside results.

Tracing is strictly zero-overhead when off: every instrumented object
carries a ``_trace`` attribute that is ``None`` by default, and the
hot paths only ever pay one ``is not None`` test on the rare (miss /
message / fill) paths.  The determinism suite pins ``trace=off`` runs
bit-identical to untraced ones and asserts that ``trace=on`` event
streams reconcile exactly with the aggregate counters
(:mod:`repro.analysis.tracetools`).
"""

from .events import TraceEvent
from .manifest import MANIFEST_SCHEMA_VERSION, RunManifest
from .sink import (
    CountingSink,
    FilterSink,
    JsonlFileSink,
    RingBufferSink,
    TraceSink,
)
from .tracer import Tracer

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "CountingSink",
    "FilterSink",
    "JsonlFileSink",
    "RingBufferSink",
    "RunManifest",
    "TraceEvent",
    "TraceSink",
    "Tracer",
]
