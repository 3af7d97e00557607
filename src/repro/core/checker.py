"""Global coherence-invariant checker.

Used by the test suite (and optionally enabled in simulations) to
verify that a protocol run never violates the fundamental coherence
invariants, independent of which protocol produced the state:

* **SWMR** — at any commit point a block has at most one owner on the
  chip (an L1 in ``E/M/O`` or the home L2), and if an L1 holds ``E`` or
  ``M`` no other L1 holds any copy;
* **value propagation** — every readable copy carries the version
  number of the last committed write to that block, so a read can never
  observe stale data;
* **directory consistency** — protocol-specific callbacks let each
  protocol assert that its sharing codes cover all actual copies
  (precise protocols) or at least never miss an owner.

Blocks carry monotonically increasing version numbers instead of data:
a write commits ``version + 1``; any copy handed to a reader must equal
the current global version.

A checker can be *bound* to a protocol (:meth:`CoherenceChecker.bind`)
so that violations carry the protocol name and a snapshot of the live
copies of the offending block; the verification harness also attaches a
commit sink (:meth:`CoherenceChecker.record_commits`) to learn which
blocks committed between two audit points.  Both hooks cost one
``is not None`` test when unused, keeping the checker-off and plain
checker-on hot paths unchanged.
"""

from __future__ import annotations

import inspect
import weakref
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["CoherenceViolation", "CoherenceChecker"]

#: a live copy as reported by ``live_copies``: (holder, state_name, version)
Copy = Tuple[str, str, int]


class CoherenceViolation(AssertionError):
    """A coherence invariant was broken.

    Beyond the human-readable message, the exception carries structured
    context so a fuzzer repro bundle is debuggable without rerunning:
    which protocol raised, at which cycle, on behalf of which tile, for
    which block, and a snapshot of every live copy of that block at the
    moment of the violation.  Fields are ``None`` when the raising site
    had no such context (e.g. a bare checker used in a unit test).
    """

    def __init__(
        self,
        message: str,
        *,
        protocol: Optional[str] = None,
        cycle: Optional[int] = None,
        tile: Optional[int] = None,
        block: Optional[int] = None,
        snapshot: Optional[List[Copy]] = None,
    ) -> None:
        detail = []
        if protocol is not None:
            detail.append(f"protocol={protocol}")
        if cycle is not None:
            detail.append(f"cycle={cycle}")
        if tile is not None:
            detail.append(f"tile={tile}")
        if snapshot is not None:
            copies = ", ".join(f"{h}:{s}@v{v}" for h, s, v in snapshot)
            detail.append(f"copies=[{copies}]")
        if detail:
            message = f"{message} [{' '.join(detail)}]"
        super().__init__(message)
        self.protocol = protocol
        self.cycle = cycle
        self.tile = tile
        self.block = block
        self.snapshot = list(snapshot) if snapshot is not None else None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form for repro bundles and reports."""
        return {
            "type": type(self).__name__,
            "message": str(self),
            "protocol": self.protocol,
            "cycle": self.cycle,
            "tile": self.tile,
            "block": self.block,
            "snapshot": self.snapshot,
        }


class CoherenceChecker:
    """Tracks committed writes and validates reads/copies."""

    def __init__(self) -> None:
        self._version: Dict[int, int] = defaultdict(int)
        self.reads_checked = 0
        self.writes_committed = 0
        self._protocol: Optional[str] = None
        self._snapshot_fn: Optional[
            Callable[[int], List[Copy]] | weakref.WeakMethod
        ] = None
        self._commit_log: Optional[List[int]] = None

    def bind(self, protocol: str, snapshot_fn: Callable[[int], List[Copy]]) -> None:
        """Attach protocol identity and a live-copy snapshot callback.

        Called by the protocol constructor so any violation this checker
        raises can name the protocol and capture the copy set of the
        offending block.  ``snapshot_fn`` must be side-effect free (the
        protocols pass ``live_copies``, which only peeks).  A checker
        shared between several protocol instances keeps the last
        binding.  A bound method is held weakly: the protocol owns its
        checker, and a strong reference back would make every protocol
        a reference cycle.
        """
        self._protocol = protocol
        self._snapshot_fn = (
            weakref.WeakMethod(snapshot_fn)
            if inspect.ismethod(snapshot_fn)
            else snapshot_fn
        )

    def record_commits(self, sink: Optional[List[int]]) -> None:
        """Append every committed block number to ``sink``.

        The verification harness drains the sink after each operation to
        learn which blocks need a directory audit; pass ``None`` to
        detach.  Off by default — the commit hot path pays only a single
        ``is not None`` test.
        """
        self._commit_log = sink

    def fail(
        self,
        message: str,
        *,
        block: Optional[int] = None,
        cycle: Optional[int] = None,
        tile: Optional[int] = None,
    ) -> None:
        """Raise a :class:`CoherenceViolation` enriched with bound context."""
        snapshot = None
        snapshot_fn = self._snapshot_fn
        if isinstance(snapshot_fn, weakref.WeakMethod):
            snapshot_fn = snapshot_fn()
        if block is not None and snapshot_fn is not None:
            try:
                snapshot = snapshot_fn(block)
            except Exception:  # the snapshot must never mask the violation
                snapshot = None
        raise CoherenceViolation(
            message,
            protocol=self._protocol,
            cycle=cycle,
            tile=tile,
            block=block,
            snapshot=snapshot,
        )

    def current_version(self, block: int) -> int:
        return self._version[block]

    def commit_write(self, block: int) -> int:
        """A write to ``block`` became globally visible; returns the
        new version the writer's copy must carry."""
        self._version[block] += 1
        self.writes_committed += 1
        if self._commit_log is not None:
            self._commit_log.append(block)
        return self._version[block]

    def check_read(
        self,
        block: int,
        version_seen: int,
        where: str = "",
        now: Optional[int] = None,
        tile: Optional[int] = None,
    ) -> None:
        """A reader observed ``version_seen``; must be the latest."""
        self.reads_checked += 1
        expect = self._version[block]
        if version_seen != expect:
            self.fail(
                f"stale read of block {block:#x}{' at ' + where if where else ''}: "
                f"saw version {version_seen}, current is {expect}",
                block=block,
                cycle=now,
                tile=tile,
            )

    def check_copy_set(
        self,
        block: int,
        copies: Iterable[Copy],
        now: Optional[int] = None,
    ) -> None:
        """Validate the set of live copies of one block.

        ``copies`` yields ``(holder, state_name, version)`` for every
        cached copy (L1s and the home L2).  State names follow
        :class:`repro.core.states.L1State` plus ``"L2"``/``"L2_OWNER"``
        for the home bank.
        """
        owners: List[str] = []
        exclusive: List[str] = []
        holders: List[str] = []
        copies = list(copies)
        expect = self._version[block]
        for holder, state, version in copies:
            holders.append(holder)
            if state in ("E", "M", "O", "L2_OWNER"):
                owners.append(holder)
            if state in ("E", "M"):
                exclusive.append(holder)
            if version != expect:
                raise CoherenceViolation(
                    f"block {block:#x}: copy at {holder} ({state}) has stale "
                    f"version {version}, current is {expect}",
                    protocol=self._protocol,
                    cycle=now,
                    block=block,
                    snapshot=copies,
                )
        if len(owners) > 1:
            raise CoherenceViolation(
                f"block {block:#x}: multiple owners {owners}",
                protocol=self._protocol,
                cycle=now,
                block=block,
                snapshot=copies,
            )
        if exclusive and len(holders) > 1:
            raise CoherenceViolation(
                f"block {block:#x}: exclusive copy at {exclusive[0]} "
                f"coexists with {sorted(set(holders) - set(exclusive))}",
                protocol=self._protocol,
                cycle=now,
                block=block,
                snapshot=copies,
            )
