"""Seeded, deterministic fault-injection plans.

A :class:`FaultPlan` decides — purely from ``(plan seed, spec
fingerprint, attempt)`` — whether a fault is injected into one
execution attempt of one sweep point.  Determinism is the whole point:
a chaos run in CI is reproducible bit-for-bit, a failing seed can be
replayed locally, and the Hypothesis properties in
``tests/sweep/test_faults.py`` can assert exact outcomes.

Four fault kinds are understood:

* ``crash``          — the worker process dies hard (``os._exit``), as
  if OOM-killed.
* ``hang``           — the worker stops making progress (sleeps) until
  the runner's per-spec timeout kills it; a hang that outlives
  ``hang_s`` ends in :class:`InjectedFault`.
* ``corrupt-result`` — the worker returns a mangled stats document
  that fails to decode in the parent.
* ``corrupt-cache``  — the parent flips bytes in the freshly written
  result-cache entry (exercises checksum quarantine on the next read).

A plan is a list of :class:`FaultRule` entries.  Each rule matches
either an explicit fingerprint prefix (``match``) or a seeded fraction
of all specs (``rate``): the spec is selected when
``sha256(seed:kind:fingerprint)`` maps below ``rate`` on the unit
interval, so selection is independent of grid order and stable across
processes.  ``times`` bounds injection to the first N attempts, which
is how retry tests arrange "fails twice, then succeeds".

A sweep resolves its plan once, from its argument or from the
``REPRO_FAULT_PLAN`` environment variable (a path to a JSON plan, or
the JSON document itself), and embeds it in every attempt's payload.
Only the worker process of :mod:`repro.sweep.executor` reads it, so a
sweep with a plan always runs its points out of process.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "plan_from_env",
]

FAULT_KINDS = ("crash", "hang", "corrupt-result", "corrupt-cache")

#: environment knob: path to a plan JSON file, or inline JSON
PLAN_ENV = "REPRO_FAULT_PLAN"


class InjectedFault(RuntimeError):
    """An injected failure that ends an attempt with an exception."""


@dataclass(frozen=True)
class FaultRule:
    """One injection rule of a :class:`FaultPlan`."""

    kind: str
    #: inject into this seeded fraction of specs (0.0 .. 1.0)
    rate: float = 0.0
    #: or: inject into specs whose fingerprint starts with this prefix
    match: Optional[str] = None
    #: inject only on the first ``times`` attempts of a spec
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; options: {FAULT_KINDS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")

    def selects(self, seed: int, fingerprint: str) -> bool:
        """Deterministically decide whether this rule hits ``fingerprint``."""
        if self.match is not None:
            return fingerprint.startswith(self.match)
        if self.rate <= 0.0:
            return False
        digest = hashlib.sha256(
            f"{seed}:{self.kind}:{fingerprint}".encode()
        ).digest()
        u = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return u < self.rate

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"kind": self.kind, "times": self.times}
        if self.match is not None:
            doc["match"] = self.match
        else:
            doc["rate"] = self.rate
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "FaultRule":
        return cls(
            kind=doc["kind"],
            rate=float(doc.get("rate", 0.0)),
            match=doc.get("match"),
            times=int(doc.get("times", 1)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of injection rules, keyed by spec fingerprint."""

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()
    #: how long a ``hang`` fault sleeps; far beyond any sane per-spec
    #: timeout, small enough that an unguarded test eventually frees up
    hang_s: float = 3600.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    # ------------------------------------------------------------------

    def faults_for(self, fingerprint: str, attempt: int) -> List[str]:
        """Fault kinds injected into ``attempt`` (1-based) of a spec."""
        out = []
        for rule in self.rules:
            if attempt <= rule.times and rule.selects(self.seed, fingerprint):
                out.append(rule.kind)
        return out

    def first_fault(
        self, fingerprint: str, attempt: int, kinds: Sequence[str]
    ) -> Optional[str]:
        """The first injected kind among ``kinds``, or ``None``."""
        for kind in self.faults_for(fingerprint, attempt):
            if kind in kinds:
                return kind
        return None

    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "hang_s": self.hang_s,
            "rules": [r.to_dict() for r in self.rules],
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "FaultPlan":
        return cls(
            seed=int(doc.get("seed", 0)),
            rules=tuple(
                FaultRule.from_dict(r) for r in doc.get("rules", ())
            ),
            hang_s=float(doc.get("hang_s", 3600.0)),
        )

    def dump(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True))
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        return cls.from_dict(json.loads(Path(path).read_text()))


def plan_from_env(environ: Optional[Mapping[str, str]] = None) -> Optional[FaultPlan]:
    """The plan named by ``REPRO_FAULT_PLAN``, or ``None``.

    The value is either a path to a plan JSON file or the JSON document
    itself (anything starting with ``{``).  A malformed value raises —
    a chaos run silently running fault-free would defeat its purpose.
    """
    raw = (environ if environ is not None else os.environ).get(PLAN_ENV)
    if not raw:
        return None
    raw = raw.strip()
    if raw.startswith("{"):
        return FaultPlan.from_dict(json.loads(raw))
    return FaultPlan.load(raw)
