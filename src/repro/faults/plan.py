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

A sweep takes its plan as an argument (``repro sweep --fault-plan``,
``SweepRunner(fault_plan=)``) and embeds it in every attempt's
payload.  Only the worker process of :mod:`repro.sweep.executor` reads
it, so a sweep with a plan always runs its points out of process.
:meth:`FaultPlan.from_dict` rejects a malformed document — a wrong
shape, an unknown key, a mistyped value — with a
:class:`~repro.sim.config.ConfigError` naming the field, and
:meth:`FaultPlan.load` a missing file or bad JSON too: a chaos run
that silently ran fault-free, or with coerced values, would defeat its
purpose.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..sim.config import ConfigError, check_document, is_int

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
]

FAULT_KINDS = ("crash", "hang", "corrupt-result", "corrupt-cache")


#: the value kinds of a plan or policy document and their tests; a
#: ``bool`` is no ``int``
_KIND_OK = {
    "int": is_int,
    "int or float": lambda v: is_int(v) or isinstance(v, float),
    "str": lambda v: isinstance(v, str),
}


def _check_type(name: str, value: Any, kind: str) -> None:
    """A :class:`ConfigError` naming ``name`` unless ``value`` is a
    ``kind`` (a key of ``_KIND_OK``)."""
    if not _KIND_OK[kind](value):
        raise ConfigError(name, f"{name} must be {kind}, got {value!r}")


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
            raise ConfigError(
                "kind",
                f"unknown fault kind {self.kind!r}; options: {FAULT_KINDS}",
            )
        _check_type("rate", self.rate, "int or float")
        _check_type("times", self.times, "int")
        if self.match is not None:
            _check_type("match", self.match, "str")
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError("rate", f"rate must be in [0, 1], got {self.rate}")
        if self.times < 1:
            raise ConfigError("times", f"times must be >= 1, got {self.times}")

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
        check_document("", "fault rule", doc, ("kind", "rate", "match", "times"))
        if "kind" not in doc:
            raise ConfigError("kind", "a fault rule needs a 'kind'")
        return cls(
            kind=doc["kind"],
            rate=doc.get("rate", 0.0),
            match=doc.get("match"),
            times=doc.get("times", 1),
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
        _check_type("seed", self.seed, "int")
        _check_type("hang_s", self.hang_s, "int or float")
        if not 0 <= self.hang_s < math.inf:  # NaN fails too
            raise ConfigError(
                "hang_s", f"hang_s must be finite and >= 0, got {self.hang_s}"
            )
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
        check_document("", "fault plan", doc, ("seed", "rules", "hang_s"))
        raw_rules = doc.get("rules", [])
        if not isinstance(raw_rules, list):
            raise ConfigError(
                "rules",
                f"rules must be a list, got {type(raw_rules).__name__}",
            )
        rules = []
        for i, raw in enumerate(raw_rules):
            try:
                rules.append(FaultRule.from_dict(raw))
            except ConfigError as exc:
                raise ConfigError(f"rules[{i}]", str(exc)) from None
        return cls(
            seed=doc.get("seed", 0),
            rules=tuple(rules),
            hang_s=doc.get("hang_s", 3600.0),
        )

    def dump(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True))
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        """Read and parse a plan file; a missing or unreadable file,
        bad JSON and a malformed document are each a
        :class:`ConfigError` naming the file."""
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except (OSError, ValueError) as exc:  # ConfigError is a ValueError
            raise ConfigError(
                "", f"bad fault plan {str(path)!r}: {exc}"
            ) from None

