"""Self-contained repro bundles for verification failures.

A bundle is one JSON file carrying everything a deterministic replay
needs: the schema tag, the chip-config document, the protocol, the
seed, the (shrunk) op list, the violation that was observed, the
mutation in effect (if the failure came from a deliberately broken
variant), and the git revision that produced it.  ``python -m repro
verify --replay bundle.json`` re-executes the trace and checks that
the same failure recurs at the same op.  :func:`parse_bundle` checks a
bundle document before anything runs: a malformed one is a
:class:`~repro.sim.config.ConfigError` naming its key.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from ..core.protocols.registry import REGISTRY
from ..sweep.spec import config_from_dict, config_to_dict
from ..sim.config import ChipConfig, ConfigError, check_document, is_int
from ..trace.manifest import git_rev
from .differential import Violation, run_trace
from .fuzzer import Op
from .mutations import make_mutated_factory

__all__ = [
    "BUNDLE_SCHEMA",
    "Bundle",
    "ReplayResult",
    "load_bundle",
    "parse_bundle",
    "replay_bundle",
    "write_bundle",
]

BUNDLE_SCHEMA = "repro-verify-bundle/v1"

#: the keys :func:`write_bundle` writes; the first six are required
_BUNDLE_KEYS = (
    "schema", "protocol", "seed", "config", "ops", "violation",
    "git_rev", "created_unix", "scenario", "mutation",
)
_VIOLATION_KEYS = ("kind", "protocol", "op_index", "message", "details")
_VIOLATION_KINDS = ("coherence", "oracle", "stuck", "divergence")


def write_bundle(
    directory: Union[str, Path],
    *,
    protocol: str,
    ops: List[Op],
    violation: Violation,
    config: ChipConfig,
    seed: int,
    scenario: Optional[str] = None,
    mutation: Optional[str] = None,
) -> Path:
    """Write a repro bundle; returns the created file's path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    doc: Dict[str, Any] = {
        "schema": BUNDLE_SCHEMA,
        "git_rev": git_rev(),
        "created_unix": int(time.time()),
        "protocol": protocol,
        "seed": seed,
        "scenario": scenario,
        "mutation": mutation,
        "config": config_to_dict(config),
        "ops": [op.to_list() for op in ops],
        "violation": violation.to_dict(),
    }
    name = f"bundle-{protocol}-{violation.kind}-seed{seed}-{len(ops)}ops.json"
    path = directory / name
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


@dataclass(frozen=True)
class Bundle:
    """A checked bundle document: everything a replay runs."""

    protocol: str
    seed: int
    config: ChipConfig
    ops: Tuple[Op, ...]
    violation: Violation
    #: ``make_protocol``-compatible factory of the bundle's mutation
    factory: Optional[Callable[..., Any]]


def _parse_ops(items: Any, n_tiles: int) -> Tuple[Op, ...]:
    """The bundle's ops, each read by :meth:`Op.from_list`, on tiles of
    an ``n_tiles``-tile chip."""
    if not isinstance(items, list):
        raise ConfigError("ops", f"expected a list, got {type(items).__name__}")
    ops = []
    for i, item in enumerate(items):
        try:
            op = Op.from_list(item)
            if op.tile >= n_tiles or op.event == "migrate" and op.arg >= n_tiles:
                raise ConfigError(
                    "", f"{item!r} names a tile outside the {n_tiles}-tile chip"
                )
        except ConfigError as exc:
            raise ConfigError("ops", f"ops[{i}]: {exc}") from None
        ops.append(op)
    return tuple(ops)


def _parse_violation(doc: Any) -> Violation:
    check_document("violation", "violation", doc, _VIOLATION_KEYS)
    details = doc.get("details", {})
    if (
        doc.get("kind") not in _VIOLATION_KINDS
        or not isinstance(doc.get("protocol"), str)
        or not (is_int(doc.get("op_index")) and doc["op_index"] >= 0)
        or not isinstance(doc.get("message"), str)
        or not isinstance(details, Mapping)
    ):
        raise ConfigError(
            "violation",
            f"expected kind ({'|'.join(_VIOLATION_KINDS)}), protocol, "
            f"op_index >= 0, message and a details object, got {dict(doc)!r}",
        )
    return Violation.from_dict(doc)


def parse_bundle(doc: Any) -> Bundle:
    """Check a bundle document and build what its replay runs.

    A document of the wrong shape or schema, a missing or unknown key,
    an unregistered protocol or mutation, a bad chip config, an op that
    does not fit the chip or a malformed violation is a
    :class:`ConfigError` naming its key.
    """
    schema = doc.get("schema") if isinstance(doc, Mapping) else None
    if schema != BUNDLE_SCHEMA:
        raise ConfigError(
            "schema",
            f"not a verify bundle (schema {schema!r}, "
            f"expected {BUNDLE_SCHEMA!r})",
        )
    check_document("", "verify bundle", doc, _BUNDLE_KEYS)
    for key in _BUNDLE_KEYS[1:6]:
        if key not in doc:
            raise ConfigError(key, f"bundle is missing {key!r}")
    if not isinstance(doc["protocol"], str):
        raise ConfigError(
            "protocol", f"expected a name, got {doc['protocol']!r}"
        )
    if not is_int(doc["seed"]):
        raise ConfigError("seed", f"expected an integer, got {doc['seed']!r}")
    config = config_from_dict(doc["config"])
    mutation = doc.get("mutation")
    return Bundle(
        protocol=REGISTRY.resolve(doc["protocol"]),
        seed=doc["seed"],
        config=config,
        ops=_parse_ops(doc["ops"], config.n_tiles),
        violation=_parse_violation(doc["violation"]),
        factory=None if mutation is None else make_mutated_factory(mutation),
    )


def _read_bundle(path: Union[str, Path]) -> Tuple[Dict[str, Any], Bundle]:
    """A bundle file's document and its :func:`parse_bundle` result; a
    missing or unreadable file, bad JSON or a malformed document is a
    :class:`ConfigError` naming the file."""
    try:
        doc = json.loads(Path(path).read_text())
        return doc, parse_bundle(doc)
    except (OSError, ValueError) as exc:  # ConfigError is a ValueError
        raise ConfigError("", f"bad verify bundle {str(path)!r}: {exc}") from None


def load_bundle(path: Union[str, Path]) -> Dict[str, Any]:
    """A bundle file's document once :func:`parse_bundle` accepts it; a
    bad file is a :class:`ConfigError` naming it."""
    return _read_bundle(path)[0]


@dataclass
class ReplayResult:
    """Outcome of re-executing a bundle."""

    matched: bool
    expected: Violation
    observed: Optional[Violation]
    message: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "matched": self.matched,
            "expected": self.expected.to_dict(),
            "observed": self.observed.to_dict() if self.observed else None,
            "message": self.message,
        }


def replay_bundle(path: Union[str, Path]) -> ReplayResult:
    """Re-run a bundle's trace and compare against its recorded failure.

    The replay is deterministic, so a healthy bundle reproduces the same
    violation kind at the same op index.  A bundle that no longer fails
    means the bug was fixed (or the protocol changed) since capture.
    """
    bundle = _read_bundle(path)[1]
    ops, expected = bundle.ops, bundle.violation
    result = run_trace(
        bundle.protocol,
        ops,
        bundle.config,
        seed=bundle.seed,
        factory=bundle.factory,
    )
    observed = result.violation
    if observed is None:
        return ReplayResult(
            False,
            expected,
            None,
            f"trace no longer fails ({len(ops)} ops ran clean) — the "
            "recorded bug appears fixed",
        )
    if observed.same_failure(expected) and observed.op_index == expected.op_index:
        return ReplayResult(
            True,
            expected,
            observed,
            f"reproduced: {observed.kind} violation on {observed.protocol} "
            f"at op {observed.op_index}",
        )
    return ReplayResult(
        False,
        expected,
        observed,
        f"failure changed: expected {expected.kind}@op{expected.op_index}, "
        f"observed {observed.kind}@op{observed.op_index}",
    )
