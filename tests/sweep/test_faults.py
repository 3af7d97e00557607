"""Resilience tests: fault injection, retry/backoff, timeout, resume.

The central invariant (pinned here property-style with Hypothesis):
under ANY seeded fault plan, every sweep entry is either bit-identical
to its fault-free result or carries a structured ``FailureRecord`` —
faults never silently perturb statistics.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    FailureRecord,
    FaultPlan,
    FaultPolicy,
    FaultRule,
    failure_summary,
)
from repro.faults import policy as policy_module
from repro.faults.policy import BACKOFF_BASE_S, BACKOFF_MAX_S, backoff_delay
from repro.sim.config import small_test_chip
from repro.stats.io import stats_to_dict
from repro.sweep import (
    RunSpec,
    SweepExecutionError,
    SweepRunner,
)
from repro.sweep.spec import config_to_dict

TINY = config_to_dict(small_test_chip())


def tiny_grid(protocols=("directory", "dico", "dico-providers")):
    return [
        RunSpec(
            protocol=p,
            workload="radix",
            seed=1,
            cycles=1_500,
            warmup=500,
            config=TINY,
        )
        for p in protocols
    ]


@pytest.fixture(scope="module")
def baseline():
    """Fault-free reference stats, keyed by spec fingerprint."""
    results = SweepRunner(jobs=1).run(tiny_grid())
    return {
        r.spec.fingerprint(): stats_to_dict(r.stats) for r in results
    }


# ---------------------------------------------------------------- plan


def test_rule_selection_is_deterministic():
    rule = FaultRule(kind="crash", rate=0.5)
    fps = [f"{i:064x}" for i in range(200)]
    picks = [rule.selects(seed=7, fingerprint=fp) for fp in fps]
    assert picks == [rule.selects(seed=7, fingerprint=fp) for fp in fps]
    # a 0.5 rate hits roughly half, never all or none
    assert 40 < sum(picks) < 160
    # a different seed picks a different subset
    other = [rule.selects(seed=8, fingerprint=fp) for fp in fps]
    assert other != picks


def test_rule_match_prefix_overrides_rate():
    rule = FaultRule(kind="hang", match="abcd")
    assert rule.selects(seed=0, fingerprint="abcd" + "0" * 60)
    assert not rule.selects(seed=0, fingerprint="dcba" + "0" * 60)


def test_rule_times_bounds_attempts():
    plan = FaultPlan(seed=0, rules=(FaultRule(kind="crash", rate=1.0),))
    fp = "0" * 64
    assert plan.first_fault(fp, 1, ("crash",)) is not None
    assert plan.first_fault(fp, 2, ("crash",)) is None  # times=1 default
    twice = FaultPlan(
        seed=0, rules=(FaultRule(kind="crash", rate=1.0, times=2),)
    )
    assert twice.first_fault(fp, 2, ("crash",)) is not None
    assert twice.first_fault(fp, 3, ("crash",)) is None


def test_plan_round_trip(tmp_path):
    plan = FaultPlan(
        seed=3,
        rules=(
            FaultRule(kind="crash", rate=0.25),
            FaultRule(kind="corrupt-cache", match="ff"),
        ),
        hang_s=12.5,
    )
    path = tmp_path / "plan.json"
    plan.dump(path)
    assert FaultPlan.load(path) == plan
    assert FaultPlan.from_dict(plan.to_dict()) == plan


def test_plan_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        FaultRule(kind="meteor-strike", rate=1.0)


@pytest.mark.parametrize(
    "doc, field",
    [
        ([], "fault plan must be a mapping"),
        ({"rules": 5}, "rules must be a list"),
        ({"rules": {"kind": "crash"}}, "rules must be a list"),
        ({"rules": [5]}, r"rules\[0\]: fault rule must be a mapping"),
        ({"rule": [{"kind": "crash", "rate": 1.0}]}, "unknown fault plan key"),
        ({"rules": [{"kind": "crash", "rates": 1.0}]}, "unknown fault rule key"),
        ({"rules": [{"rate": 1.0}]}, "needs a 'kind'"),
        ({"seed": 1.7}, "seed must be int"),
        ({"seed": True}, "seed must be int"),
        ({"hang_s": "60"}, "hang_s must be int or float"),
        ({"hang_s": False}, "hang_s must be int or float"),
        ({"rules": [{"kind": "crash", "rate": True}]}, r"rules\[0\]: rate"),
        ({"rules": [{"kind": "crash", "rate": "0.5"}]}, "rate must be"),
        ({"rules": [{"kind": "crash", "times": 2.9}]}, "times must be int"),
        ({"rules": [{"kind": "crash", "match": 12}]}, "match must be str"),
        ({"hang_s": float("nan")}, "hang_s must be finite and >= 0"),
        ({"hang_s": float("inf")}, "hang_s must be finite and >= 0"),
        ({"hang_s": -1.0}, "hang_s must be finite and >= 0"),
    ],
)
def test_malformed_plan_is_a_value_error_naming_the_field(doc, field):
    with pytest.raises(ValueError, match=field):
        FaultPlan.from_dict(doc)


def test_sweep_with_a_malformed_plan_exits_2(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"rules": [5]}))
    code = main([
        "sweep", "--protocols", "dico", "--workloads", "radix",
        "--cycles", "1500", "--warmup", "500", "--no-cache",
        "--fault-plan", str(path),
    ])
    assert code == 2
    assert "error: bad fault plan" in capsys.readouterr().err


# -------------------------------------------------------------- policy


def test_backoff_is_seeded_and_bounded():
    retries = range(1, 11)
    fp = "a" * 64
    delays = [backoff_delay(fp, n) for n in retries]
    assert delays == [backoff_delay(fp, n) for n in retries]  # deterministic
    for n, delay in zip(retries, delays):
        # jittered exponential within [base * 2^(n-1) * 0.5, cap]
        low = BACKOFF_BASE_S * 2 ** (n - 1) / 2
        assert min(low, BACKOFF_MAX_S) <= delay <= min(2 * low, BACKOFF_MAX_S)
    assert delays[-1] == BACKOFF_MAX_S  # the cap binds by retry 10
    assert [backoff_delay("b" * 64, n) for n in retries] != delays  # per-point jitter
    with pytest.raises(ValueError, match="retry"):
        backoff_delay(fp, 0)


def test_policy_validation():
    with pytest.raises(ValueError):
        FaultPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        FaultPolicy(timeout_s=0.0)
    with pytest.raises(ValueError):
        FaultPolicy(on_failure="explode")
    # a mistyped value is rejected, not coerced, whichever way it comes
    for field, value in (
        ("timeout_s", True),
        ("timeout_s", "5"),
        ("max_retries", 2.9),
        ("max_retries", False),
        ("max_retries", None),
        ("timeout_s", float("nan")),  # timed every attempt out at once
        ("timeout_s", float("inf")),
    ):
        with pytest.raises(ValueError, match=field):
            FaultPolicy(**{field: value})
        with pytest.raises(ValueError, match=field):
            FaultPolicy.from_dict({field: value})
    # a job record's policy that is not a mapping is a ValueError too
    for doc in ([1], "skip", 5):
        with pytest.raises(ValueError, match="policy must be a mapping"):
            FaultPolicy.from_dict(doc)
    assert FaultPolicy(timeout_s=5).timeout_s == 5


def test_policy_document_rejects_unknown_keys_but_drops_retired_ones():
    from repro.sim.config import ConfigError

    # used to run as the default policy
    with pytest.raises(ConfigError, match="unknown policy key.s. retries; "
                       "valid keys: timeout_s, max_retries, on_failure"):
        FaultPolicy.from_dict({"retries": -1})
    old = {"max_retries": 2, "backoff_base_s": 0.05, "backoff_max_s": 5.0,
           "backoff_seed": 0}
    assert FaultPolicy.from_dict(old) == FaultPolicy(max_retries=2)


@pytest.mark.parametrize(
    "text, message", [(None, "No such file"), ("{", "Expecting"),
                      ("[1]", "fault plan must be a mapping")],
)
def test_plan_file_errors_are_config_errors_naming_the_file(
    tmp_path, text, message
):
    from repro.sim.config import ConfigError

    path = tmp_path / "plan.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ConfigError, match=f"bad fault plan .*plan.json.*{message}"):
        FaultPlan.load(path)


def test_failure_record_round_trip():
    rec = FailureRecord(
        kind="timeout",
        exc_type="",
        message="exceeded 0.5s",
        traceback_tail="",
        attempts=2,
        elapsed_s=1.0,
        fingerprint="c" * 64,
    )
    assert FailureRecord.from_dict(rec.to_dict()) == rec
    assert "timeout" in rec.describe()


# ----------------------------------------------------- runner behavior


def test_crash_skip_yields_failure_records(baseline):
    plan = FaultPlan(seed=1, rules=(FaultRule(kind="crash", rate=1.0),))
    runner = SweepRunner(
        jobs=1,
        policy=FaultPolicy(on_failure="skip"),
        fault_plan=plan,
    )
    results = runner.run(tiny_grid())
    assert all(not r.ok for r in results)
    assert all(r.failure.kind == "crash" for r in results)
    assert all(r.stats is None for r in results)
    assert runner.failed == len(results)
    summary = failure_summary(results)
    assert summary["failed"] == len(results) and summary["ok"] == 0


def test_crash_raise_aborts_with_context():
    plan = FaultPlan(seed=1, rules=(FaultRule(kind="crash", rate=1.0),))
    runner = SweepRunner(jobs=1, fault_plan=plan)
    with pytest.raises(SweepExecutionError) as exc_info:
        runner.run(tiny_grid()[:1])
    assert exc_info.value.record.kind == "crash"
    assert exc_info.value.spec.protocol == "directory"


def test_retry_recovers_bit_identically(baseline):
    # every point crashes on attempt 1 (times=1), retry succeeds
    plan = FaultPlan(seed=1, rules=(FaultRule(kind="crash", rate=1.0),))
    runner = SweepRunner(
        jobs=1, policy=FaultPolicy(max_retries=1), fault_plan=plan
    )
    results = runner.run(tiny_grid())
    assert all(r.ok for r in results)
    assert all(r.attempts == 2 for r in results)
    for r in results:
        assert stats_to_dict(r.stats) == baseline[r.spec.fingerprint()]


def test_retries_exhaust_with_attempt_count():
    plan = FaultPlan(
        seed=1, rules=(FaultRule(kind="crash", rate=1.0, times=99),)
    )
    runner = SweepRunner(
        jobs=1,
        policy=FaultPolicy(max_retries=2, on_failure="skip"),
        fault_plan=plan,
    )
    results = runner.run(tiny_grid()[:1])
    assert not results[0].ok
    assert results[0].failure.attempts == 3  # 1 try + 2 retries
    assert results[0].attempts == 3


def test_backoff_does_not_block_a_scheduler_slot(baseline, monkeypatch):
    """A spec waiting out its retry backoff must not occupy a worker.

    Grid of two specs through ONE slot: the first crashes on attempt 1
    and backs off for ~0.5-1 s, the second runs clean in ~0.1 s.  With
    a free slot during the backoff the clean spec finishes first; a
    blocking backoff would serialize the retry ahead of it.
    """
    grid = tiny_grid(("directory", "dico"))
    crashy, clean = grid
    plan = FaultPlan(
        seed=0,
        rules=(
            FaultRule(
                kind="crash", match=crashy.fingerprint()[:16], times=1
            ),
        ),
    )
    monkeypatch.setattr(policy_module, "BACKOFF_BASE_S", 1.0)
    monkeypatch.setattr(policy_module, "BACKOFF_MAX_S", 1.5)
    completed = []
    runner = SweepRunner(
        jobs=1,
        policy=FaultPolicy(max_retries=1, on_failure="skip"),
        fault_plan=plan,
        progress=completed.append,
    )
    results = runner.run(grid)
    assert all(r.ok for r in results)
    assert results[0].attempts == 2 and results[1].attempts == 1
    for r in results:
        assert stats_to_dict(r.stats) == baseline[r.spec.fingerprint()]
    # completion order: the clean spec landed while the crashed one
    # was still backing off
    assert clean.label in completed[0]
    assert crashy.label in completed[1]


def test_timeout_kills_hung_worker():
    plan = FaultPlan(
        seed=1, rules=(FaultRule(kind="hang", rate=1.0),), hang_s=60.0
    )
    runner = SweepRunner(
        jobs=1,
        policy=FaultPolicy(timeout_s=0.5, on_failure="skip"),
        fault_plan=plan,
    )
    results = runner.run(tiny_grid()[:1])
    assert not results[0].ok
    assert results[0].failure.kind == "timeout"
    # the worker was killed near the deadline, not after hang_s
    assert results[0].elapsed_s < 30.0


def test_corrupt_result_is_an_attempt_failure():
    plan = FaultPlan(
        seed=1, rules=(FaultRule(kind="corrupt-result", rate=1.0),)
    )
    runner = SweepRunner(
        jobs=1, policy=FaultPolicy(on_failure="skip"), fault_plan=plan
    )
    results = runner.run(tiny_grid()[:1])
    assert not results[0].ok
    assert results[0].failure.kind == "exception"


def test_isolated_fault_free_matches_serial(baseline):
    # a non-default policy forces the isolated-process executor; with
    # no faults injected its stats must stay bit-identical
    runner = SweepRunner(jobs=2, policy=FaultPolicy(timeout_s=120.0))
    results = runner.run(tiny_grid())
    assert all(r.ok and r.attempts == 1 for r in results)
    for r in results:
        assert stats_to_dict(r.stats) == baseline[r.spec.fingerprint()]


@settings(max_examples=5, deadline=None)
@given(
    plan_seed=st.integers(min_value=0, max_value=2**16),
    crash_rate=st.floats(min_value=0.0, max_value=1.0),
    corrupt_rate=st.floats(min_value=0.0, max_value=1.0),
)
def test_property_faults_never_perturb_stats(
    baseline, plan_seed, crash_rate, corrupt_rate
):
    """Any plan → every entry bit-identical to fault-free OR failed."""
    plan = FaultPlan(
        seed=plan_seed,
        rules=(
            FaultRule(kind="crash", rate=crash_rate),
            FaultRule(kind="corrupt-result", rate=corrupt_rate),
        ),
    )
    runner = SweepRunner(
        jobs=1, policy=FaultPolicy(on_failure="skip"), fault_plan=plan
    )
    results = runner.run(tiny_grid())
    for r in results:
        if r.ok:
            assert stats_to_dict(r.stats) == baseline[r.spec.fingerprint()]
        else:
            assert isinstance(r.failure, FailureRecord)
            assert r.failure.kind in ("crash", "exception")


# -------------------------------------------------------------- resume


def test_resume_re_executes_exactly_the_failed_set(tmp_path, baseline):
    grid = tiny_grid()
    fps = [s.fingerprint() for s in grid]
    # fail exactly the middle point, by fingerprint prefix
    plan = FaultPlan(
        seed=0, rules=(FaultRule(kind="crash", match=fps[1][:16]),)
    )
    chaos = SweepRunner(
        jobs=1,
        cache_dir=str(tmp_path),
        policy=FaultPolicy(on_failure="skip"),
        fault_plan=plan,
    )
    first = chaos.run(grid)
    assert [r.ok for r in first] == [True, False, True]

    # re-run without the plan: the cache serves the ok points, only the
    # failed one re-executes
    resume = SweepRunner(jobs=1, cache_dir=str(tmp_path))
    second = resume.run(grid)
    assert resume.executed == 1
    assert resume.cache_hits == 2
    assert all(r.ok for r in second)
    for r in second:
        assert stats_to_dict(r.stats) == baseline[r.spec.fingerprint()]


def test_corrupt_cache_entry_quarantined_on_next_read(tmp_path, baseline):
    grid = tiny_grid()[:1]
    plan = FaultPlan(
        seed=0, rules=(FaultRule(kind="corrupt-cache", rate=1.0),)
    )
    chaos = SweepRunner(jobs=1, cache_dir=str(tmp_path), fault_plan=plan)
    first = chaos.run(grid)
    assert first[0].ok  # the run itself succeeded; only the cache lied
    entry = chaos.cache.path_for(grid[0])
    with pytest.raises(json.JSONDecodeError):
        json.loads(entry.read_text())

    clean = SweepRunner(jobs=1, cache_dir=str(tmp_path))
    second = clean.run(grid)
    assert clean.executed == 1 and clean.cache_hits == 0
    assert stats_to_dict(second[0].stats) == baseline[grid[0].fingerprint()]
    assert entry.with_name(entry.name + ".corrupt").exists()

