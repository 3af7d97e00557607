"""Trace sinks: where emitted events go.

A sink is anything with ``emit(event)`` and ``close()`` — the
structural :class:`TraceSink` protocol.  The stock sinks:

* :class:`RingBufferSink` — keeps the last ``capacity`` events in
  memory (or every event with ``capacity=None``); iterate it to read.
* :class:`JsonlFileSink`  — one JSON object per line, append-only.
* :class:`FilterSink`     — forwards the subset matching address /
  tile / event / layer allow-lists to an inner sink.
* :class:`CountingSink`   — counts events and discards them (overhead
  measurement: pays the emission cost without the storage).
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import (
    Collection,
    Deque,
    Iterator,
    Optional,
    Protocol,
    Union,
    runtime_checkable,
)

from .events import TraceEvent

__all__ = [
    "TraceSink",
    "RingBufferSink",
    "JsonlFileSink",
    "FilterSink",
    "CountingSink",
]


@runtime_checkable
class TraceSink(Protocol):
    """Structural protocol every sink satisfies."""

    def emit(self, event: TraceEvent) -> None:
        """Record one event."""
        ...

    def close(self) -> None:
        """Flush and release any resources.  Idempotent."""
        ...


class RingBufferSink:
    """Keeps the most recent ``capacity`` events (all if ``None``)."""

    def __init__(self, capacity: Optional[int] = 65536) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        #: total emitted, including events the ring has since dropped
        self.emitted = 0

    def emit(self, event: TraceEvent) -> None:
        self.emitted += 1
        self._events.append(event)

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def dropped(self) -> int:
        """Events that no longer fit in the ring."""
        return self.emitted - len(self._events)


class CountingSink:
    """Counts emissions and drops the events."""

    def __init__(self) -> None:
        self.count = 0

    def emit(self, event: TraceEvent) -> None:
        self.count += 1

    def close(self) -> None:
        pass


class JsonlFileSink:
    """One JSON object per line; flattened fields (see ``TraceEvent``)."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fh = open(self.path, "w", encoding="utf-8")
        self._write = self._fh.write
        self.emitted = 0

    def emit(self, event: TraceEvent) -> None:
        self.emitted += 1
        self._write(json.dumps(event.to_dict(), separators=(",", ":")))
        self._write("\n")

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JsonlFileSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class FilterSink:
    """Forwards events matching every configured allow-list.

    ``None`` disables a dimension; an empty collection matches nothing.
    Address and tile filters compare the event's own ``addr``/``tile``
    fields; events carrying ``None`` there only pass when the
    corresponding filter is disabled.  The forwarded stream is always a
    subset of the unfiltered stream (property-tested).
    """

    def __init__(
        self,
        inner: TraceSink,
        addrs: Optional[Collection[int]] = None,
        tiles: Optional[Collection[int]] = None,
        events: Optional[Collection[str]] = None,
        layers: Optional[Collection[str]] = None,
    ) -> None:
        self.inner = inner
        self.addrs = None if addrs is None else frozenset(addrs)
        self.tiles = None if tiles is None else frozenset(tiles)
        self.events = None if events is None else frozenset(events)
        self.layers = None if layers is None else frozenset(layers)
        self.seen = 0
        self.forwarded = 0

    def matches(self, event: TraceEvent) -> bool:
        if self.layers is not None and event.layer not in self.layers:
            return False
        if self.events is not None and event.event not in self.events:
            return False
        if self.addrs is not None and event.addr not in self.addrs:
            return False
        if self.tiles is not None and event.tile not in self.tiles:
            return False
        return True

    def emit(self, event: TraceEvent) -> None:
        self.seen += 1
        if self.matches(event):
            self.forwarded += 1
            self.inner.emit(event)

    def close(self) -> None:
        self.inner.close()
