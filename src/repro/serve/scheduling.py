"""Admission control and fair scheduling for the experiment daemon.

Three cooperating pieces keep a multi-tenant daemon healthy under
load:

* :class:`TokenBucket` — per-tenant submission rate limiting.  Tokens
  refill continuously at ``rate`` per second up to ``burst``; a
  submission of *k* points costs *k* tokens, and a bucket that cannot
  pay reports exactly how long until it can
  (:meth:`TokenBucket.seconds_until`), which becomes the response's
  ``Retry-After``.
* :class:`AdmissionController` — bounded queues with explicit
  backpressure.  Every pending point (queued or running) is counted
  against both a global bound and the submitting tenant's quota; a
  submission that would exceed either raises :class:`AdmissionError`
  instead of growing memory without bound.  The HTTP layer translates
  that into ``429`` + ``Retry-After``.
* :class:`FairWorkerPool` — weighted round-robin over worker slots.
  Tenants waiting for a slot are granted them in smooth-WRR order by
  their configured weights, so one tenant flooding the queue cannot
  starve the others; a tenant with weight 3 gets ~3x the slots of a
  weight-1 tenant *when both are waiting*, and full capacity when
  alone.

All three are deliberately free of HTTP and simulation concerns, and
take an injectable clock, so the fairness and backpressure properties
are pinned by fast deterministic unit tests.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import AsyncIterator, Callable, Deque, Dict, Optional

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "FairWorkerPool",
    "TenantQuota",
    "TokenBucket",
]


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant limits and scheduling weight."""

    #: queued + running points this tenant may have at once
    max_pending: int = 512
    #: weighted-round-robin share of worker slots
    weight: int = 1
    #: sustained submission rate in points/second (0 = unlimited)
    rate: float = 0.0
    #: token-bucket capacity; defaults to ``max(rate, 1)`` when rated
    burst: float = 0.0

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        if self.weight < 1:
            raise ValueError(f"weight must be >= 1, got {self.weight}")
        if self.rate < 0 or self.burst < 0:
            raise ValueError("rate/burst must be >= 0")

    @property
    def effective_burst(self) -> float:
        if self.rate <= 0:
            return math.inf
        return self.burst if self.burst > 0 else max(self.rate, 1.0)

    def to_dict(self) -> Dict[str, float]:
        return {
            "max_pending": self.max_pending,
            "weight": self.weight,
            "rate": self.rate,
            "burst": self.burst,
        }


class AdmissionError(Exception):
    """A submission was refused; ``retry_after_s`` says when to retry."""

    def __init__(self, reason: str, message: str, retry_after_s: float) -> None:
        #: ``queue-full`` | ``tenant-quota`` | ``rate-limited``
        self.reason = reason
        self.retry_after_s = max(0.0, retry_after_s)
        super().__init__(message)


class TokenBucket:
    """Continuous-refill token bucket with an injectable clock."""

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._tokens = burst
        self._updated = clock()

    def _refill(self) -> None:
        now = self._clock()
        if self.rate > 0:
            self._tokens = min(
                self.burst, self._tokens + (now - self._updated) * self.rate
            )
        self._updated = now

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens

    def try_take(self, n: float) -> bool:
        if self.rate <= 0:  # unlimited
            return True
        self._refill()
        if self._tokens >= n:
            self._tokens -= n
            return True
        return False

    def seconds_until(self, n: float) -> float:
        """How long until ``n`` tokens will be available (0 when now)."""
        if self.rate <= 0:
            return 0.0
        self._refill()
        deficit = n - self._tokens
        if deficit <= 0:
            return 0.0
        if n > self.burst:  # can never afford it; cap the advice
            deficit = self.burst - self._tokens
        return max(0.0, deficit / self.rate)


class AdmissionController:
    """Counts pending points against global and per-tenant bounds."""

    def __init__(
        self,
        max_queue_points: int,
        default_quota: TenantQuota,
        quotas: Optional[Dict[str, TenantQuota]] = None,
        clock: Callable[[], float] = time.monotonic,
        retry_after_s: float = 1.0,
    ) -> None:
        if max_queue_points < 1:
            raise ValueError(
                f"max_queue_points must be >= 1, got {max_queue_points}"
            )
        self.max_queue_points = max_queue_points
        self.default_quota = default_quota
        self.quotas = dict(quotas or {})
        self._clock = clock
        #: generic backpressure advice when the bound is occupancy, not
        #: rate (occupancy drains at an unknowable speed; the client
        #: should poll, and this is the poll interval we suggest)
        self.retry_after_s = retry_after_s
        self._pending: Dict[str, int] = {}
        self._buckets: Dict[str, TokenBucket] = {}
        self.rejected: Dict[str, int] = {
            "queue-full": 0, "tenant-quota": 0, "rate-limited": 0,
        }

    def quota_for(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)

    def _bucket_for(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            quota = self.quota_for(tenant)
            bucket = TokenBucket(
                quota.rate, quota.effective_burst, self._clock
            )
            self._buckets[tenant] = bucket
        return bucket

    @property
    def total_pending(self) -> int:
        return sum(self._pending.values())

    def pending(self, tenant: str) -> int:
        return self._pending.get(tenant, 0)

    def admit(self, tenant: str, n_points: int, *, force: bool = False) -> None:
        """Reserve ``n_points`` pending slots for ``tenant`` or raise.

        ``force=True`` records the points without enforcing any bound —
        the restart/resume path uses it, because work that was admitted
        before a daemon restart must never be bounced by its own
        recovery.
        """
        if n_points < 1:
            raise ValueError(f"n_points must be >= 1, got {n_points}")
        if not force:
            quota = self.quota_for(tenant)
            if self.total_pending + n_points > self.max_queue_points:
                self.rejected["queue-full"] += 1
                raise AdmissionError(
                    "queue-full",
                    f"queue full: {self.total_pending} of "
                    f"{self.max_queue_points} points pending",
                    self.retry_after_s,
                )
            if self.pending(tenant) + n_points > quota.max_pending:
                self.rejected["tenant-quota"] += 1
                raise AdmissionError(
                    "tenant-quota",
                    f"tenant {tenant!r} quota exceeded: "
                    f"{self.pending(tenant)} of {quota.max_pending} "
                    "points pending",
                    self.retry_after_s,
                )
            bucket = self._bucket_for(tenant)
            if not bucket.try_take(n_points):
                self.rejected["rate-limited"] += 1
                raise AdmissionError(
                    "rate-limited",
                    f"tenant {tenant!r} over submission rate "
                    f"({quota.rate:g} points/s)",
                    bucket.seconds_until(n_points),
                )
        self._pending[tenant] = self.pending(tenant) + n_points

    def release(self, tenant: str, n_points: int = 1) -> None:
        """A point reached a terminal state; free its pending slot."""
        left = self.pending(tenant) - n_points
        if left < 0:  # pragma: no cover - accounting bug guard
            raise RuntimeError(
                f"admission underflow for tenant {tenant!r}"
            )
        if left == 0:
            self._pending.pop(tenant, None)
        else:
            self._pending[tenant] = left

    def snapshot(self) -> Dict[str, object]:
        return {
            "max_queue_points": self.max_queue_points,
            "total_pending": self.total_pending,
            "pending_by_tenant": dict(sorted(self._pending.items())),
            "rejected": dict(self.rejected),
        }


class FairWorkerPool:
    """Asyncio worker-slot pool granted in weighted round-robin order.

    ``await acquire(tenant)`` blocks until a slot is granted;
    ``release(tenant)`` hands the slot to the next waiter chosen by
    smooth weighted round-robin across tenants that are actually
    waiting.  Crucially, a holder that needs to back off between
    retries releases its slot and re-acquires later — backoff must
    never park a slot (see ``docs/SIMULATOR.md`` § Service).
    """

    def __init__(
        self,
        slots: int,
        weight_of: Optional[Callable[[str], int]] = None,
    ) -> None:
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        self.slots = slots
        self._free = slots
        self._weight_of = weight_of or (lambda tenant: 1)
        # insertion-ordered for deterministic tie-breaking
        self._waiters: "OrderedDict[str, Deque[asyncio.Future]]" = OrderedDict()
        self._credit: Dict[str, float] = {}
        self._active: Dict[str, int] = {}

    # ------------------------------------------------------------------

    def _grant(self, tenant: str, fut: asyncio.Future) -> None:
        self._active[tenant] = self._active.get(tenant, 0) + 1
        fut.set_result(None)

    def _next_waiter(self) -> Optional[str]:
        """Smooth-WRR pick among tenants with live waiters."""
        live = [t for t, q in self._waiters.items() if q]
        for tenant in [t for t in self._waiters if not self._waiters[t]]:
            del self._waiters[tenant]
            self._credit.pop(tenant, None)
        if not live:
            return None
        total = 0
        best: Optional[str] = None
        for tenant in live:
            weight = max(1, self._weight_of(tenant))
            total += weight
            self._credit[tenant] = self._credit.get(tenant, 0.0) + weight
            if best is None or self._credit[tenant] > self._credit[best]:
                best = tenant
        assert best is not None
        self._credit[best] -= total
        return best

    def _dispatch(self) -> None:
        """Hand free slots to waiters until one side runs out."""
        while self._free > 0:
            tenant = self._next_waiter()
            if tenant is None:
                return
            queue = self._waiters[tenant]
            while queue:
                fut = queue.popleft()
                if not fut.done():  # skip waiters cancelled in line
                    self._free -= 1
                    self._grant(tenant, fut)
                    break

    # ------------------------------------------------------------------

    async def acquire(self, tenant: str) -> None:
        # always enqueue then dispatch — one code path keeps the
        # invariant "free slots and live waiters never coexist" even
        # when cancelled futures linger in a queue
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._waiters.setdefault(tenant, deque()).append(fut)
        if self._free > 0:
            self._dispatch()
        try:
            await fut
        except asyncio.CancelledError:
            if fut.done() and not fut.cancelled():
                # granted in the same tick we were cancelled: pass the
                # slot on instead of leaking it
                self.release(tenant)
            raise

    @contextlib.asynccontextmanager
    async def slot(self, tenant: str) -> AsyncIterator[None]:
        """Hold one of ``tenant``'s slots for the ``async with`` body."""
        await self.acquire(tenant)
        try:
            yield
        finally:
            self.release(tenant)

    def release(self, tenant: str) -> None:
        held = self._active.get(tenant, 0)
        if held <= 0:  # pragma: no cover - accounting bug guard
            raise RuntimeError(f"release without acquire for {tenant!r}")
        if held == 1:
            self._active.pop(tenant, None)
        else:
            self._active[tenant] = held - 1
        self._free += 1
        self._dispatch()

    # ------------------------------------------------------------------

    @property
    def busy(self) -> int:
        return self.slots - self._free

    def snapshot(self) -> Dict[str, object]:
        return {
            "slots": self.slots,
            "busy": self.busy,
            "active_by_tenant": dict(sorted(self._active.items())),
            "waiting_by_tenant": {
                t: len(q) for t, q in sorted(self._waiters.items()) if q
            },
        }
