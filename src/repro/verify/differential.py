"""Differential execution of one fuzz trace across protocols.

Each protocol executes the same serial op sequence under a
:class:`~repro.core.checker.CoherenceChecker`.  Because the harness
issues ops strictly one at a time (retrying until each completes), the
global version of a block after op *i* must equal the number of write
ops to that block in ``ops[:i+1]`` — a protocol-independent oracle.
Three layers of detection stack on top of each other:

1. the checker's own invariants (SWMR, value propagation) plus the
   per-protocol directory audit (:meth:`audit_block`) after every op —
   catches corrupted sharing codes and stale copies;
2. the **write-count oracle** — catches lost or double commits, which a
   self-consistent checker cannot see (the versions agree with each
   other, just not with the program);
3. cross-protocol comparison of the committed-version streams — a
   defensive net in case both of the above are blind to a divergence.

A hung op (retry bound exceeded, or ``retry_at`` that stops advancing)
raises :class:`~repro.sim.engine.StuckError` and is reported as a
``stuck`` violation — the per-op complement of the engine's livelock
watchdog.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.checker import CoherenceChecker, CoherenceViolation
from ..sim.chip import make_protocol
from ..sim.config import ChipConfig, small_test_chip
from ..sim.engine import StuckError
from .fuzzer import Op

__all__ = [
    "Violation",
    "TraceResult",
    "run_trace",
    "run_differential",
]

#: give-up bound on retries of a single op; the transaction protocols
#: resolve any conflict in a handful of retries, so hundreds means a
#: block stuck busy forever
MAX_RETRIES = 500

#: ops between full audits of every block touched so far (each op also
#: audits the blocks it committed or accessed)
FULL_AUDIT_EVERY = 8


def default_config() -> ChipConfig:
    """The fuzzing chip: tiny caches so evictions happen constantly."""
    return small_test_chip(4, 4, 4, l1_kb=1, l2_kb=4)


@dataclass
class Violation:
    """One detected failure, serializable into a repro bundle."""

    kind: str  #: ``coherence`` | ``oracle`` | ``stuck`` | ``divergence``
    protocol: str
    op_index: int
    message: str
    details: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "protocol": self.protocol,
            "op_index": self.op_index,
            "message": self.message,
            "details": self.details,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "Violation":
        return cls(
            kind=doc["kind"],
            protocol=doc["protocol"],
            op_index=doc["op_index"],
            message=doc["message"],
            details=dict(doc.get("details") or {}),
        )

    def same_failure(self, other: "Violation") -> bool:
        """Same bug class: kind and protocol match (op index and
        message legitimately move while a sequence is being shrunk)."""
        return self.kind == other.kind and self.protocol == other.protocol


@dataclass
class TraceResult:
    """Outcome of one protocol executing one trace."""

    protocol: str
    #: global version of ``ops[i].block`` after op ``i`` completed
    versions: List[int]
    violation: Optional[Violation]
    ops_executed: int


ProtocolFactory = Callable[..., Any]


def run_trace(
    protocol: str,
    ops: Sequence[Op],
    config: Optional[ChipConfig] = None,
    seed: int = 0,
    factory: Optional[ProtocolFactory] = None,
    full_audit_every: int = FULL_AUDIT_EVERY,
) -> TraceResult:
    """Execute ``ops`` serially on one protocol under the checker."""
    if config is None:
        config = default_config()
    checker = CoherenceChecker()
    commits: List[int] = []
    checker.record_commits(commits)
    build = factory if factory is not None else make_protocol
    proto = build(protocol, config, seed=seed, checker=checker)

    # ops carry *block numbers*; the protocol interface takes addresses
    addr_shift = (config.block_bytes - 1).bit_length()
    expected: Dict[int, int] = defaultdict(int)
    seen_blocks: set = set()
    versions: List[int] = []
    now = 0
    for i, op in enumerate(ops):
        try:
            if op.event is not None:
                # consolidation action: no commit, no oracle bump — but
                # audit *everything* seen so far, because migration,
                # drain and shootdown have whole-cache side effects
                now = _apply_event_op(proto, op, now)
                touched = set(commits)
                commits.clear()
                touched |= seen_blocks
            elif op.tile in getattr(proto, "_inactive_tiles", ()):
                # ddmin can delete the migrate that would have
                # reactivated this tile; skip the op (identically in
                # every protocol) so any subset of an event
                # trace stays well-formed and shrinking never
                # manufactures a failure the full sequence did not have
                versions.append(checker.current_version(op.block))
                continue
            else:
                seen_blocks.add(op.block)
                now = _issue(proto, op, now, addr_shift)
                if op.is_write:
                    expected[op.block] += 1
                got = checker.current_version(op.block)
                if got != expected[op.block]:
                    raise CoherenceViolation(
                        f"commit-count oracle: block {op.block:#x} should "
                        f"be at version {expected[op.block]} after op {i}, "
                        f"checker says {got}",
                        protocol=protocol,
                        cycle=now,
                        tile=op.tile,
                        block=op.block,
                    )
                # audit everything this op touched, plus a periodic
                # sweep of every block seen so far (evictions can
                # corrupt bystanders)
                touched = set(commits)
                commits.clear()
                touched.add(op.block)
                if full_audit_every and i % full_audit_every == 0:
                    touched |= seen_blocks
            for block in sorted(touched):
                proto.audit_block(block, now=now)
        except CoherenceViolation as exc:
            kind = "oracle" if "oracle" in str(exc) else "coherence"
            return TraceResult(
                protocol, versions, _from_exc(kind, protocol, i, exc), i
            )
        except StuckError as exc:
            v = Violation(
                "stuck", protocol, i, str(exc), dict(exc.detail)
            )
            return TraceResult(protocol, versions, v, i)
        except AssertionError as exc:
            v = Violation("coherence", protocol, i, f"assertion failed: {exc}")
            return TraceResult(protocol, versions, v, i)
        versions.append(checker.current_version(op.block))

    # final sweep: anything a silent eviction corrupted near the end
    try:
        for block in sorted(seen_blocks):
            proto.audit_block(block, now=now)
    except CoherenceViolation as exc:
        return TraceResult(
            protocol,
            versions,
            _from_exc("coherence", protocol, len(ops) - 1, exc),
            len(ops),
        )
    return TraceResult(protocol, versions, None, len(ops))


def _issue(proto: Any, op: Op, now: int, addr_shift: int) -> int:
    """Drive one op to completion, retrying while the block is busy."""
    addr = op.block << addr_shift
    r = proto.access(op.tile, addr, op.is_write, now)
    retries = 0
    while r.needs_retry:
        retries += 1
        if retries > MAX_RETRIES or r.retry_at <= now:
            raise StuckError(
                f"op (tile={op.tile}, block={op.block:#x}, "
                f"{'W' if op.is_write else 'R'}) stuck after {retries} "
                f"retries at cycle {now}",
                detail={
                    "tile": op.tile,
                    "block": op.block,
                    "now": now,
                    "retries": retries,
                },
            )
        now = max(now + 1, r.retry_at)
        r = proto.access(op.tile, addr, op.is_write, now)
    return now + max(1, r.latency) + 1


def _apply_event_op(proto: Any, op: Op, now: int) -> int:
    """Execute one consolidation event op against the protocol."""
    if op.event == "migrate":
        proto.migrate_tile_state(op.tile, op.arg, now)
    elif op.event == "drain":
        proto.drain_tile(op.tile, now, deactivate=True)
    elif op.event == "shootdown":
        proto.shootdown_block(op.block, now)
    else:
        raise ValueError(f"unknown event op {op.event!r}")
    return now + 1


def _from_exc(
    kind: str, protocol: str, op_index: int, exc: CoherenceViolation
) -> Violation:
    details = exc.to_dict() if hasattr(exc, "to_dict") else {}
    return Violation(kind, protocol, op_index, str(exc), details)


def run_differential(
    ops: Sequence[Op],
    protocols: Sequence[str],
    config: Optional[ChipConfig] = None,
    seed: int = 0,
    factories: Optional[Dict[str, ProtocolFactory]] = None,
) -> Tuple[List[TraceResult], List[Violation]]:
    """Run one trace through every protocol and cross-check.

    ``factories`` optionally overrides protocol construction by name —
    the mutation tests inject broken variants this way.  Returns the
    per-protocol results plus all violations (per-protocol ones first,
    then any cross-protocol version-stream divergence).
    """
    if config is None:
        config = default_config()
    results = [
        run_trace(
            name,
            ops,
            config,
            seed=seed,
            factory=(factories or {}).get(name),
        )
        for name in protocols
    ]
    violations: List[Violation] = [
        r.violation for r in results if r.violation is not None
    ]

    clean = [r for r in results if r.violation is None]
    if len(clean) >= 2:
        ref = clean[0]
        for other in clean[1:]:
            if other.versions != ref.versions:
                idx = _first_diff(ref.versions, other.versions)
                violations.append(
                    Violation(
                        "divergence",
                        other.protocol,
                        idx,
                        f"committed-version stream diverges from "
                        f"{ref.protocol} at op {idx}: "
                        f"{ref.protocol} saw v{ref.versions[idx] if idx < len(ref.versions) else '?'}, "
                        f"{other.protocol} saw v{other.versions[idx] if idx < len(other.versions) else '?'}",
                        {"reference": ref.protocol},
                    )
                )
    return results, violations


def _first_diff(a: List[int], b: List[int]) -> int:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))
