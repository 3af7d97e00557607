"""Discrete-event simulation engine.

A small, deterministic event queue: events are ``(time, sequence,
callback)`` tuples ordered by time with the insertion sequence breaking
ties, so two events scheduled for the same cycle always fire in the
order they were scheduled.  This determinism matters: every benchmark
and test in this repository must produce bit-identical statistics for a
given seed.

The engine is deliberately minimal.  The coherence protocols commit
their state transitions atomically at transaction granularity (see
``DESIGN.md`` for the substitution rationale), so the event queue's job
is only to interleave the per-core request streams and any delayed
callbacks (retries, unlock events).
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "LivelockError",
    "ProgressWatchdog",
    "SimulationError",
    "StuckError",
    "Simulator",
    "WATCHDOG_WINDOW",
]


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class LivelockError(SimulationError):
    """The event loop is spinning without retiring any operation.

    Raised by the :class:`ProgressWatchdog` instead of letting a
    livelocked run (cores re-issuing into a block that never frees,
    a protocol bug cycling messages) spin silently until its window
    ends, or forever when it has none.  ``stalled`` carries the
    diagnostic collected at trip time — typically ``{"tiles": [...],
    "blocks": [...]}`` naming the cores stuck on a pending op and the
    blocks still marked busy.
    """

    def __init__(self, message: str, stalled: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.stalled: Dict[str, Any] = stalled or {}


class StuckError(SimulationError):
    """A single operation can make no forward progress.

    The per-op complement of :class:`LivelockError`: the watchdog spots
    a whole chip spinning inside the event loop, while this is raised
    by drivers that issue accesses directly (the verification harness)
    when one access either exceeds its retry bound or is handed a
    ``retry_at`` that never advances — a deadlocked or dropped
    transaction rather than a livelocked chip.  ``detail`` carries the
    diagnostic, typically ``{"tile": ..., "block": ..., "now": ...,
    "retries": ...}``.
    """

    def __init__(self, message: str, detail: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.detail: Dict[str, Any] = detail or {}


#: events between two progress samples of a :class:`ProgressWatchdog`
#: built without an explicit window (every chip's watchdog)
WATCHDOG_WINDOW = 200_000


class ProgressWatchdog:
    """Detects no-forward-progress across a window of engine events.

    Every ``window_events`` processed events (default
    :data:`WATCHDOG_WINDOW`, read at construction) the watchdog samples
    ``progress_fn()`` (a monotonically non-decreasing count of retired
    operations, supplied by the chip).  Two consecutive samples with
    no movement mean the queue is churning — retries, re-issues —
    while no core completes anything: a livelock.  ``diagnose_fn``
    (optional) is then asked for a ``{"tiles": ..., "blocks": ...}``
    style diagnostic to embed in the :class:`LivelockError`.  Without
    a ``progress_fn`` the watchdog never trips.

    The watchdog never perturbs results: it only counts events and
    raises, so statistics do not depend on its window.
    """

    __slots__ = ("window_events", "_progress_fn", "_diagnose_fn", "_last")

    def __init__(
        self,
        window_events: Optional[int] = None,
        progress_fn: Optional[Callable[[], int]] = None,
        diagnose_fn: Optional[Callable[[], Dict[str, Any]]] = None,
    ) -> None:
        if window_events is None:
            window_events = WATCHDOG_WINDOW
        if window_events < 1:
            raise ValueError(
                f"window_events must be >= 1, got {window_events}"
            )
        self.window_events = window_events
        self._progress_fn = progress_fn
        self._diagnose_fn = diagnose_fn
        self._last: Optional[int] = None

    def reset(self) -> None:
        """Forget the last sample (a new run starts fresh)."""
        self._last = None

    def check(self, now: int) -> None:
        """Sample progress; raise :class:`LivelockError` when stuck."""
        if self._progress_fn is None:
            return
        current = self._progress_fn()
        last, self._last = self._last, current
        if last is None or current > last:
            return
        stalled = self._diagnose_fn() if self._diagnose_fn is not None else {}
        detail = ", ".join(
            f"{key}={value}" for key, value in sorted(stalled.items())
        )
        raise LivelockError(
            f"no operation retired across {self.window_events} events "
            f"(cycle {now}, {current} ops total"
            + (f"; stalled {detail}" if detail else "")
            + ")",
            stalled=stalled,
        )


class Simulator:
    """A deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(10, lambda: fired.append(sim.now))
    >>> sim.schedule(5, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [5, 10]
    """

    __slots__ = ("_queue", "_seq", "_now", "_watchdog")

    def __init__(self, watchdog: Optional[ProgressWatchdog] = None) -> None:
        self._queue: List[Tuple[int, int, Callable[[], None]]] = []
        self._seq = 0
        self._now = 0
        #: livelock detector sampled by :meth:`run`; the default one has
        #: no progress source, so it never trips
        self._watchdog = watchdog if watchdog is not None else ProgressWatchdog()

    @property
    def watchdog(self) -> ProgressWatchdog:
        """The attached :class:`ProgressWatchdog`."""
        return self._watchdog

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._queue, (self._now + int(delay), self._seq, callback))
        self._seq += 1

    def schedule_at(self, time: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute cycle ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {self._now}"
            )
        heapq.heappush(self._queue, (int(time), self._seq, callback))
        self._seq += 1

    def run(self, until: Optional[int] = None) -> int:
        """Run events until the queue drains or ``until`` cycles elapse.

        Returns the final simulation time.  When ``until`` is given,
        events scheduled beyond it remain queued and ``now`` is advanced
        to exactly ``until``.  No callback can see ``until``, so
        splitting one run into several bounded ones (as
        ``Chip.run_cycles_windowed`` does) fires the same events in the
        same order.  Every ``window_events`` events the watchdog
        samples progress and raises :class:`LivelockError` when nothing
        retired since the previous sample.
        """
        # one Python frame per event is measurable at millions of
        # events, so the pop/dispatch is inlined here
        queue = self._queue
        pop = heapq.heappop
        bound = math.inf if until is None else until
        watchdog = self._watchdog
        window = watchdog.window_events
        since_check = 0
        watchdog.reset()
        while queue and queue[0][0] <= bound:
            time, _, callback = pop(queue)
            if time < self._now:
                raise SimulationError("event queue went backwards in time")
            self._now = time
            callback()
            since_check += 1
            if since_check >= window:
                watchdog.check(self._now)
                since_check = 0
        if until is not None and until > self._now:
            self._now = until
        return self._now
