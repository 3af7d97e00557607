"""Outside-in layer tracing: host time split across the simulator's modules.

:class:`LayerTrace` wraps the public entry points of each layer —
``workloads``, ``sim``, ``core.protocols``, ``cache``, ``noc``, ``mem``,
``stats`` and ``sweep`` — by patching their classes and modules from
here, so nothing under ``src/`` changes.  Per-op boundaries (~10^6
calls a pass) feed plain count / busy / self accumulators; only coarse
boundaries (cell, build, warmup and window runs, ``apply_event``, sweep
passes) record spans, so memory stays bounded.

A wrapped call's *busy* time is its wall time; its *self* time is busy
time minus the wrapped calls made inside it.  A call into the same
accumulator from inside itself (a subclass handler calling ``super()``,
``multicast`` calling ``send``) is folded into the outer call.

Usage::

    trace = LayerTrace(LAYERS)
    with trace.installed():        # originals restored on any exit
        ...                        # build and run chips
        with trace.paused():       # audits and digests stay unmeasured
            chip.verify_coherence()
    calls, busy_s, self_s = trace.snapshot()["protocols.access"]

Chips must be built while the wrappers are installed: a core binds
``protocol.access`` and its issue callback when it is constructed.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from typing import (
    Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.cache.cache import SetAssocCache
from repro.core.protocols import REGISTRY
from repro.mem.controller import MemoryControllers
from repro.noc.bus import Bus
from repro.noc.network import Network
from repro.sim.chip import Chip, Core
from repro.sim.engine import Simulator
from repro.stats import io as stats_io
from repro.sweep.cache import ResultCache
from repro.sweep.runner import SweepRunner
from repro.workloads.generator import ConsolidatedWorkload

__all__ = ["LAYERS", "SWEEP_LAYERS", "LayerTrace", "Span", "span_summary"]

LAYERS = ("workloads", "sim", "protocols", "cache", "noc", "mem", "stats", "sweep")
#: the layers that run in the dispatching process of a pooled sweep;
#: the others run in forked workers, whose accumulators are lost
SWEEP_LAYERS = ("stats", "sweep")

_perf = time.perf_counter

#: protocol methods by accumulator key
_PROTOCOL_METHODS = {
    "protocols.access": ("access",),
    "protocols.miss": ("_handle_read_miss", "_handle_write_miss"),
    "protocols.evict": ("_evict_l1_line", "_evict_l2_entry"),
    "protocols.handoff": (
        "migrate_tile_state", "drain_tile", "flush_l1_block", "shootdown_block",
    ),
}
_STATS_METHODS = ("finalize_stats", "reset_stats")
_CODEC_FUNCTIONS = ("stats_to_dict", "stats_from_dict")

#: (owner, attribute, accumulator key, records a span) — class methods
_CLASS_TARGETS = {
    "workloads": [
        (ConsolidatedWorkload, "__init__", "workloads.build", False),
        *(
            (ConsolidatedWorkload, name, "workloads.churn", False)
            for name in ("break_dedup", "merge_dedup", "admit_vm", "release_vm")
        ),
    ],
    "sim": [
        (Simulator, "run", "sim.run", True),
        (Core, "_issue_fast", "sim.issue", False),
        (Chip, "apply_event", "sim.apply_event", True),
    ],
    "cache": [
        (SetAssocCache, name, "cache", False)
        for name in ("lookup", "peek", "insert", "displace", "invalidate")
    ],
    "noc": [
        *((Network, name, "noc", False) for name in ("send", "broadcast", "multicast")),
        (Bus, "transaction", "noc", False),
    ],
    "mem": [
        (MemoryControllers, name, "mem", False)
        for name in ("controller_for", "access_latency")
    ],
    "sweep": [
        (SweepRunner, "run", "sweep.run", True),
        (ResultCache, "get", "sweep.cache_get", False),
        (ResultCache, "put", "sweep.cache_put", False),
    ],
}


def _protocol_targets(methods: Dict[str, Tuple[str, ...]]) -> List[Tuple[Any, str, str, bool]]:
    """Every class in the registered protocols' MROs that defines one
    of ``methods`` itself, so overrides are wrapped too."""
    out, seen = [], set()
    for info in REGISTRY.infos():
        for klass in info.cls.__mro__:
            for key, names in methods.items():
                for name in names:
                    if name in vars(klass) and (klass, name) not in seen:
                        seen.add((klass, name))
                        out.append((klass, name, key, False))
    return out


class Span(NamedTuple):
    """One coarse boundary; ``parent`` indexes the enclosing span in
    :attr:`LayerTrace.spans`, ``-1`` for a root."""

    name: str
    start_s: float
    end_s: float
    parent: int


def span_summary(spans: Sequence[Span]) -> Dict[str, Tuple[int, float, float]]:
    """``name -> (count, total seconds, self seconds)`` over ``spans``,
    in first-seen order; a span's self time is its duration minus its
    child spans'."""
    inner = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            inner[s.parent] += s.end_s - s.start_s
    out: Dict[str, Tuple[int, float, float]] = {}
    for s, children in zip(spans, inner):
        count, total, own = out.get(s.name, (0, 0.0, 0.0))
        duration = s.end_s - s.start_s
        out[s.name] = (count + 1, total + duration, own + duration - children)
    return out


class _Accumulator:
    __slots__ = ("calls", "busy_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0


class _TimedTrace:
    """A core's reference stream whose ``next`` is counted and timed."""

    __slots__ = ("_next", "_acc", "_trace")

    def __init__(self, stream: Iterator, acc: _Accumulator, trace: "LayerTrace") -> None:
        self._next = stream.__next__
        self._acc = acc
        self._trace = trace

    def __iter__(self) -> "_TimedTrace":
        return self

    def __next__(self):
        trace = self._trace
        if not trace.active:
            return self._next()
        t0 = _perf()
        op = self._next()
        dt = _perf() - t0
        acc = self._acc
        acc.calls += 1
        acc.busy_s += dt
        acc.self_s += dt
        if trace._stack:
            trace._stack[-1][1] += dt
        return op


class LayerTrace:
    """Accumulators and spans for the wrapped entry points of ``layers``."""

    def __init__(self, layers: Sequence[str] = LAYERS) -> None:
        unknown = sorted(set(layers) - set(LAYERS))
        if unknown:
            raise ValueError(f"unknown layers {unknown}; options: {list(LAYERS)}")
        self.layers = tuple(layers)
        self.active = False
        self.spans: List[Span] = []
        self._acc: Dict[str, _Accumulator] = {}
        #: open wrapped calls: [accumulator, child busy time]
        self._stack: List[list] = []
        self._open_spans: List[int] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- targets ---------------------------------------------------------

    def targets(self) -> List[Tuple[Any, str, str, bool]]:
        """``(owner, attribute, key, span)`` for every class method the
        selected layers wrap (module functions are found at install)."""
        out = []
        for layer in self.layers:
            out.extend(_CLASS_TARGETS.get(layer, ()))
        if "protocols" in self.layers:
            out.extend(_protocol_targets(_PROTOCOL_METHODS))
        if "stats" in self.layers:
            out.extend(_protocol_targets({"stats.finalize": _STATS_METHODS}))
        return out

    def _codec_targets(self) -> List[Tuple[Any, str, str, bool]]:
        """Every loaded ``repro`` module holding a stats codec function
        (``from ..stats.io import stats_to_dict`` copies the binding)."""
        if "stats" not in self.layers:
            return []
        out = []
        for name in _CODEC_FUNCTIONS:
            original = getattr(stats_io, name)
            for mod_name, module in list(sys.modules.items()):
                if (
                    module is not None
                    and (mod_name == "repro" or mod_name.startswith("repro."))
                    and vars(module).get(name) is original
                ):
                    out.append((module, name, "stats.codec", False))
        return out

    # -- install / restore -----------------------------------------------

    @contextlib.contextmanager
    def installed(self) -> Iterator["LayerTrace"]:
        """Wrap every target for the duration of the block; the
        originals come back however the block exits."""
        if self._restore:
            raise RuntimeError("LayerTrace is already installed")
        try:
            for owner, attr, key, span in self.targets() + self._codec_targets():
                original = vars(owner)[attr]
                self._restore.append((owner, attr, original))
                retries = (
                    self._acc_for("protocols.retry")
                    if key == "protocols.access" else None
                )
                setattr(owner, attr, self._wrap(original, key, span, retries))
            if "workloads" in self.layers:
                original = vars(ConsolidatedWorkload)["trace"]
                self._restore.append((ConsolidatedWorkload, "trace", original))
                setattr(ConsolidatedWorkload, "trace", self._wrap_stream(original))
            self.active = True
            yield self
        finally:
            self.active = False
            while self._restore:
                owner, attr, original = self._restore.pop()
                setattr(owner, attr, original)
            self._stack.clear()
            self._open_spans.clear()

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Let wrapped calls through unmeasured (audits, digests)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _acc_for(self, key: str) -> _Accumulator:
        acc = self._acc.get(key)
        if acc is None:
            acc = self._acc[key] = _Accumulator()
        return acc

    def _wrap(
        self,
        fn: Callable,
        key: str,
        span: bool,
        retries: Optional[_Accumulator] = None,
    ) -> Callable:
        """Time ``fn`` into ``key``.  With ``retries`` the call is a
        protocol access, and results asking for a retry count there."""
        acc = self._acc_for(key)
        stack = self._stack
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not trace.active or (stack and stack[-1][0] is acc):
                return fn(*args, **kwargs)
            frame = [acc, 0.0]
            stack.append(frame)
            sid = trace._open_span(key) if span else -1
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
                if retries is not None and result.retry_at is not None:
                    retries.calls += 1
                return result
            finally:
                t1 = _perf()
                dt = t1 - t0
                stack.pop()
                acc.calls += 1
                acc.busy_s += dt
                acc.self_s += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if span:
                    trace._close_span(sid, t0, t1)

        return wrapper

    def _wrap_stream(self, trace_fn: Callable) -> Callable:
        acc = self._acc_for("workloads.next")
        trace = self

        @functools.wraps(trace_fn)
        def wrapper(workload, tile):
            return _TimedTrace(trace_fn(workload, tile), acc, trace)

        return wrapper

    # -- spans -------------------------------------------------------------

    def _open_span(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._open_spans[-1] if self._open_spans else -1
        self.spans.append(Span(name, 0.0, 0.0, parent))
        self._open_spans.append(sid)
        return sid

    def _close_span(self, sid: int, start: float, end: float) -> None:
        self._open_spans.pop()
        self.spans[sid] = self.spans[sid]._replace(start_s=start, end_s=end)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a coarse span from the benchmark's own code (a cell,
        a chip build); no-op while paused or not installed."""
        if not self.active:
            yield
            return
        sid = self._open_span(name)
        t0 = _perf()
        try:
            yield
        finally:
            self._close_span(sid, t0, _perf())

    # -- readout -------------------------------------------------------------

    def reset(self) -> None:
        """Zero every accumulator (spans are kept for the whole run)."""
        for acc in self._acc.values():
            acc.calls = 0
            acc.busy_s = acc.self_s = 0.0

    def snapshot(self) -> Dict[str, Tuple[int, float, float]]:
        """``key -> (calls, busy_s, self_s)`` at this moment."""
        return {k: (a.calls, a.busy_s, a.self_s) for k, a in self._acc.items()}

