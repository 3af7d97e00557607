"""One attempt as the daemon runs it: outcomes, deadlines, registry.

The daemon and ``repro sweep`` share :mod:`repro.sweep.executor`;
these cases drive its :func:`run_attempt` and :class:`AttemptRegistry`
directly, with the same tiny specs and fault plans as the sweep
resilience suite.
"""

import asyncio

from repro.faults import FaultPlan, FaultRule
from repro.sweep.executor import AttemptRegistry
from repro.sweep.executor import run_attempt as _run_attempt
from repro.sim.config import small_test_chip
from repro.stats.io import stats_from_dict
from repro.sweep.spec import RunSpec, config_to_dict

TINY = config_to_dict(small_test_chip())


def run_attempt(payload, timeout_s, registry=None):
    return asyncio.run(_run_attempt(payload, timeout_s, registry))


def tiny_payload(attempt=1, plan=None, seed=1):
    spec = RunSpec(
        protocol="dico",
        workload="radix",
        seed=seed,
        cycles=1_500,
        warmup=500,
        config=TINY,
    )
    payload = spec.to_dict()
    payload["__attempt__"] = attempt
    if plan is not None:
        payload["__fault_plan__"] = plan.to_dict()
    return spec, payload


def test_ok_attempt_returns_stats_doc():
    spec, payload = tiny_payload()
    kind, doc, elapsed = run_attempt(payload, timeout_s=60.0)
    assert kind == "ok"
    stats = stats_from_dict(doc)
    assert stats.operations > 0
    assert elapsed > 0


def test_injected_crash_is_contained():
    plan = FaultPlan(seed=3, rules=(FaultRule(kind="crash", rate=1.0),))
    spec, payload = tiny_payload(plan=plan)
    kind, message, _elapsed = run_attempt(payload, timeout_s=60.0)
    assert kind == "crash"
    assert "died" in message


def test_injected_hang_hits_the_deadline():
    plan = FaultPlan(
        seed=3, rules=(FaultRule(kind="hang", rate=1.0),), hang_s=30.0
    )
    spec, payload = tiny_payload(plan=plan)
    kind, message, elapsed = run_attempt(payload, timeout_s=1.0)
    assert kind == "timeout"
    assert elapsed < 15.0  # killed at the deadline, not after hang_s


def test_bad_spec_is_an_exception_outcome():
    _spec, payload = tiny_payload()
    payload["protocol"] = "no-such-protocol"
    kind, failure, _elapsed = run_attempt(payload, timeout_s=60.0)
    assert kind == "exception"
    assert failure["exc_type"]
    assert failure["message"]


def test_fault_only_on_matched_attempt():
    plan = FaultPlan(
        seed=3, rules=(FaultRule(kind="crash", rate=1.0, times=1),)
    )
    _spec, payload = tiny_payload(attempt=2, plan=plan)
    kind, _doc, _elapsed = run_attempt(payload, timeout_s=60.0)
    assert kind == "ok"  # times=1 leaves attempt 2 alone


def test_registry_refuses_work_while_draining():
    registry = AttemptRegistry()
    assert registry.kill_all() == 0
    _spec, payload = tiny_payload()
    kind, message, elapsed = run_attempt(
        payload, timeout_s=60.0, registry=registry
    )
    assert kind == "crash"
    assert "shutting down" in message


def test_registry_tracks_and_discards():
    registry = AttemptRegistry()
    _spec, payload = tiny_payload()
    kind, _doc, _elapsed = run_attempt(
        payload, timeout_s=60.0, registry=registry
    )
    assert kind == "ok"
    assert len(registry) == 0  # discarded after completion
