"""The fuzz-loop orchestrator behind ``python -m repro verify``.

Each round draws one adversarial scenario from the catalogue (rotating
so a default run covers them all), executes it through every protocol
under test via the differential harness, and — on failure — shrinks
the sequence with ``ddmin`` and writes a repro bundle.  The result is
a :class:`VerifyReport` with a machine-readable ``pass``/``fail``
verdict, serialized next to the bundles so CI can upload both.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..core.protocols.registry import expand_selection, protocol_names
from ..sim.config import ChipConfig, ConfigError, is_int
from ..trace.manifest import git_rev
from .bundle import write_bundle
from .differential import Violation, default_config, run_differential, run_trace
from .fuzzer import EVENT_SCENARIOS, SCENARIOS, generate_ops
from .mutations import make_mutated_factory
from .shrinker import ddmin

__all__ = ["VerifyReport", "run_verification", "DEFAULT_PROTOCOLS"]

#: every registered protocol — the registry is the source of truth, so
#: newly registered families are fuzzed from day one
DEFAULT_PROTOCOLS = protocol_names()

#: per-round op-sequence length; long enough to reach eviction and
#: ownership-migration paths on the tiny fuzz chip, short enough that a
#: full default budget stays in CI-smoke territory
DEFAULT_OPS = 400


@dataclass
class VerifyReport:
    """Machine-readable outcome of one verification run."""

    verdict: str  #: ``"pass"`` or ``"fail"``
    protocols: List[str]
    rounds_requested: int
    rounds_run: int
    ops_per_round: int
    seed: int
    mutation: Optional[str]
    violations: List[Dict[str, Any]] = field(default_factory=list)
    bundles: List[str] = field(default_factory=list)
    scenarios_run: List[str] = field(default_factory=list)
    ops_executed: int = 0
    elapsed_seconds: float = 0.0
    git_rev: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": "repro-verify-report/v1",
            "verdict": self.verdict,
            "protocols": list(self.protocols),
            "rounds_requested": self.rounds_requested,
            "rounds_run": self.rounds_run,
            "ops_per_round": self.ops_per_round,
            "seed": self.seed,
            "mutation": self.mutation,
            "violations": list(self.violations),
            "bundles": list(self.bundles),
            "scenarios_run": list(self.scenarios_run),
            "ops_executed": self.ops_executed,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "git_rev": self.git_rev,
        }

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path


def run_verification(
    protocols: Optional[Sequence[str]] = None,
    rounds: int = 4,
    budget_seconds: Optional[float] = None,
    seed: int = 0,
    n_ops: int = DEFAULT_OPS,
    config: Optional[ChipConfig] = None,
    mutation: Optional[str] = None,
    bundle_dir: Union[str, Path] = "verify-bundles",
    shrink: bool = True,
    max_shrink_tests: int = 400,
    fail_fast: bool = True,
    scenarios: Optional[Sequence[str]] = None,
) -> VerifyReport:
    """Fuzz ``protocols`` for ``rounds`` rounds (or until the budget).

    Every round covers *all* requested protocols with one generated
    sequence; rounds rotate through the scenario catalogue.  With
    ``mutation`` set, the named deliberately-broken variant replaces
    its target protocol — the run is then *expected* to fail, which is
    how CI proves the harness has teeth.

    ``scenarios`` restricts the rotation to the named scenarios; this
    is also the only way rounds reach the consolidation-event
    scenarios (``migrate-race``, ``depart-dirty-owner``,
    ``shootdown-upgrade``), which the default rotation deliberately
    excludes to keep its long-standing baselines stable.

    An unknown protocol, scenario or mutation name, a count below 1 or
    a budget that is not positive is a :class:`ConfigError`, so a run
    can never pass on zero rounds or zero ops.
    """
    protocols = list(
        DEFAULT_PROTOCOLS if protocols is None else expand_selection(protocols)
    )
    for key, count in (("rounds", rounds), ("n_ops", n_ops)):
        if not is_int(count) or count < 1:
            raise ConfigError(key, f"{key} must be an integer >= 1, got {count!r}")
    if budget_seconds is not None and not budget_seconds > 0:
        raise ConfigError(
            "budget_seconds",
            f"budget_seconds must be > 0, got {budget_seconds!r}",
        )
    if scenarios is not None:
        catalogue = {**SCENARIOS, **EVENT_SCENARIOS}
        unknown = [
            s for s in scenarios if not isinstance(s, str) or s not in catalogue
        ]
        if unknown or not scenarios:
            raise ConfigError(
                "scenarios",
                f"unknown fuzz scenario(s) {unknown}; options: "
                f"{sorted(catalogue)}",
            )
    factories = None
    if mutation is not None:
        f = make_mutated_factory(mutation)
        factories = {name: f for name in protocols}
    if config is None:
        config = default_config()
    started = time.monotonic()
    deadline = None if budget_seconds is None else started + budget_seconds
    report = VerifyReport(
        verdict="pass",
        protocols=protocols,
        rounds_requested=rounds,
        rounds_run=0,
        ops_per_round=n_ops,
        seed=seed,
        mutation=mutation,
        git_rev=git_rev(),
    )
    scenario_names = (
        list(scenarios) if scenarios is not None else sorted(SCENARIOS)
    )
    for r in range(rounds):
        if deadline is not None and time.monotonic() >= deadline:
            break
        round_seed = seed * 1_000_003 + r
        scenario, ops = generate_ops(
            round_seed,
            n_ops,
            config.n_tiles,
            scenario=scenario_names[r % len(scenario_names)],
        )
        report.scenarios_run.append(scenario)
        results, violations = run_differential(
            ops, protocols, config, seed=round_seed, factories=factories,
        )
        report.rounds_run += 1
        report.ops_executed += sum(res.ops_executed for res in results)
        if not violations:
            continue
        report.verdict = "fail"
        for violation in violations:
            doc = violation.to_dict()
            doc["round"] = r
            doc["scenario"] = scenario
            # a divergence has no single-protocol reproducer to shrink
            # against; bundle the full sequence as-is
            if violation.kind != "divergence":
                shrunk, final = _shrink_and_confirm(
                    ops,
                    violation,
                    config,
                    round_seed,
                    (factories or {}).get(violation.protocol),
                    shrink=shrink,
                    max_tests=max_shrink_tests,
                    deadline=deadline,
                )
                doc["shrunk_ops"] = len(shrunk)
                doc["original_ops"] = len(ops)
                bundle_violation = final if final is not None else violation
                path = write_bundle(
                    bundle_dir,
                    protocol=violation.protocol,
                    ops=shrunk,
                    violation=bundle_violation,
                    config=config,
                    seed=round_seed,
                    scenario=scenario,
                    mutation=mutation,
                )
            else:
                path = write_bundle(
                    bundle_dir,
                    protocol=violation.protocol,
                    ops=list(ops),
                    violation=violation,
                    config=config,
                    seed=round_seed,
                    scenario=scenario,
                    mutation=mutation,
                )
            report.bundles.append(str(path))
            report.violations.append(doc)
        if fail_fast:
            break
    report.elapsed_seconds = time.monotonic() - started
    return report


def _shrink_and_confirm(
    ops,
    violation: Violation,
    config: ChipConfig,
    seed: int,
    factory,
    *,
    shrink: bool,
    max_tests: int,
    deadline: Optional[float],
):
    """ddmin the sequence, then re-run the minimum to capture the final
    violation record (its op index moved during shrinking)."""
    if not shrink:
        return list(ops), violation

    def still_fails(subset) -> bool:
        res = run_trace(
            violation.protocol, subset, config, seed=seed, factory=factory,
        )
        return res.violation is not None and res.violation.same_failure(violation)

    shrunk = ddmin(list(ops), still_fails, max_tests=max_tests, deadline=deadline)
    final = run_trace(
        violation.protocol, shrunk, config, seed=seed, factory=factory,
    ).violation
    return shrunk, final
