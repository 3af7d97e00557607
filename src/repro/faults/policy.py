"""Failure handling policy for sweep execution, and its records.

:class:`FaultPolicy` tells the sweep runner what to do when a grid
point does not come back clean: how long one attempt may run
(``timeout_s``), how many times to retry (``max_retries``) with seeded
exponential backoff, and whether an exhausted point aborts the sweep
(``on_failure="raise"``, the default — today's behavior) or is
recorded and skipped (``on_failure="skip"``, producing partial results
plus per-point :class:`FailureRecord` entries).

Backoff is deterministic: the delay before retry *n* of a spec is
``BACKOFF_BASE_S * 2**(n-1)`` scaled by a jitter factor in
``[0.5, 1.0)`` drawn from ``Random(sha256(BACKOFF_SEED:fingerprint:n))``
and capped at ``BACKOFF_MAX_S`` — the same spec retries on the same
schedule in every run, which keeps chaos runs reproducible.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Mapping, Optional

from ..sim.config import ConfigError, check_document
from .plan import _check_type

__all__ = ["FailureRecord", "FaultPolicy", "backoff_delay", "failure_summary"]

#: how a failed attempt ended
FAILURE_KINDS = ("exception", "timeout", "crash", "interrupted")

#: base of the exponential backoff between attempts, in seconds
BACKOFF_BASE_S = 0.05
#: hard cap on a single backoff delay, in seconds
BACKOFF_MAX_S = 5.0
#: seed of the deterministic backoff jitter
BACKOFF_SEED = 0

#: policy keys of job records written while the backoff settings were
#: fields; :meth:`FaultPolicy.from_dict` drops them
_RETIRED_KEYS = ("backoff_base_s", "backoff_max_s", "backoff_seed")


@dataclass
class FailureRecord:
    """Structured description of why one grid point failed."""

    kind: str  # one of FAILURE_KINDS
    exc_type: str = ""
    message: str = ""
    #: last few lines of the worker traceback (empty for crash/timeout)
    traceback_tail: str = ""
    attempts: int = 1
    elapsed_s: float = 0.0
    #: content fingerprint of the failed spec
    fingerprint: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAILURE_KINDS:
            raise ValueError(
                f"unknown failure kind {self.kind!r}; options: {FAILURE_KINDS}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "exc_type": self.exc_type,
            "message": self.message,
            "traceback_tail": self.traceback_tail,
            "attempts": self.attempts,
            "elapsed_s": self.elapsed_s,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "FailureRecord":
        return cls(
            kind=doc["kind"],
            exc_type=doc.get("exc_type", ""),
            message=doc.get("message", ""),
            traceback_tail=doc.get("traceback_tail", ""),
            attempts=int(doc.get("attempts", 1)),
            elapsed_s=float(doc.get("elapsed_s", 0.0)),
            fingerprint=doc.get("fingerprint", ""),
        )

    def describe(self) -> str:
        what = self.exc_type or self.kind
        return (
            f"{self.kind}: {what}"
            + (f": {self.message}" if self.message else "")
            + f" (after {self.attempts} attempt(s), {self.elapsed_s:.2f}s)"
        )


@dataclass(frozen=True)
class FaultPolicy:
    """How the sweep runner treats failing grid points."""

    #: wall-clock budget for one attempt of one spec; ``None`` = no
    #: limit
    timeout_s: Optional[float] = None
    #: additional attempts after the first failure
    max_retries: int = 0
    #: ``"raise"`` — an exhausted point aborts the sweep (default);
    #: ``"skip"`` — it is recorded as a failed :class:`SweepResult`
    on_failure: str = "raise"

    def __post_init__(self) -> None:
        _check_type("max_retries", self.max_retries, "int")
        if self.timeout_s is not None:
            _check_type("timeout_s", self.timeout_s, "int or float")
        if self.on_failure not in ("raise", "skip"):
            raise ConfigError(
                "on_failure",
                f"on_failure must be 'raise' or 'skip', got {self.on_failure!r}",
            )
        if self.max_retries < 0:
            raise ConfigError(
                "max_retries",
                f"max_retries must be >= 0, got {self.max_retries}",
            )
        # NaN fails too: it would time out every attempt at once
        if self.timeout_s is not None and not 0 < self.timeout_s < math.inf:
            raise ConfigError(
                "timeout_s",
                f"timeout_s must be finite and > 0, got {self.timeout_s}",
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (inverse of :meth:`from_dict`); the serve
        daemon persists per-job policies through this."""
        return {
            "timeout_s": self.timeout_s,
            "max_retries": self.max_retries,
            "on_failure": self.on_failure,
        }

    @classmethod
    def from_dict(cls, doc: Any) -> "FaultPolicy":
        """Inverse of :meth:`to_dict`; an omitted key takes its field's
        default.  An unknown key is a :class:`ConfigError` naming the
        valid ones, except the three retired backoff keys, which are
        dropped so a job record written by an older version still
        resumes."""
        if isinstance(doc, Mapping):
            doc = {k: v for k, v in doc.items() if k not in _RETIRED_KEYS}
        check_document("policy", "policy", doc, [f.name for f in fields(cls)])
        return cls(**doc)


def backoff_delay(fingerprint: str, retry: int) -> float:
    """Seconds to wait before retry ``retry`` (1-based) of a spec."""
    if retry < 1:
        raise ValueError(f"retry must be >= 1, got {retry}")
    digest = hashlib.sha256(
        f"{BACKOFF_SEED}:{fingerprint}:{retry}".encode()
    ).digest()
    jitter = 0.5 + random.Random(
        int.from_bytes(digest[:8], "big")
    ).random() / 2.0
    return min(BACKOFF_MAX_S, BACKOFF_BASE_S * (2 ** (retry - 1)) * jitter)


def failure_summary(results: Any) -> Dict[str, Any]:
    """Aggregate failure report over a sweep's results.

    Accepts any iterable of objects with ``.spec``, ``.failure`` and
    ``.cached`` attributes (:class:`~repro.sweep.runner.SweepResult`).
    """
    total = ok = cached = 0
    failures: List[Dict[str, Any]] = []
    for res in results:
        total += 1
        if getattr(res, "failure", None) is None:
            ok += 1
            cached += 1 if getattr(res, "cached", False) else 0
        else:
            failures.append(
                {
                    "spec": res.spec.to_dict(),
                    "label": res.spec.label,
                    "failure": res.failure.to_dict(),
                }
            )
    return {
        "total": total,
        "ok": ok,
        "cached": cached,
        "failed": len(failures),
        "failures": failures,
    }
