"""Integration tests for the experiment daemon.

A real :class:`ExperimentServer` runs on a background thread with its
own event loop; tests talk to it over actual HTTP through
:class:`ServeClient` — the same path production clients use.  Specs
are tiny (~0.1 s of simulation), so the whole module stays fast.
"""

import asyncio
import json
import multiprocessing
import os
import socket
import threading
import time

import pytest

from repro.cli import main
from repro.faults import FaultPlan, FaultPolicy, FaultRule
from repro.serve import (
    Backpressure,
    ExperimentServer,
    JobStore,
    ServeClient,
    ServeConfig,
    ServeError,
)
from repro.serve.http import Request
from repro.sim.config import small_test_chip
from repro.sweep import SweepRunner
from repro.sweep.cache import ResultCache
from repro.sweep.spec import RunSpec, config_to_dict, snapshot_workload
from repro.stats.io import stats_digest

TINY = config_to_dict(small_test_chip())


def tiny_docs(n, seed0=1):
    return [
        RunSpec(
            protocol="dico",
            workload="radix",
            seed=seed0 + i,
            cycles=1_500,
            warmup=500,
            config=TINY,
        ).to_dict()
        for i in range(n)
    ]


class ServerThread:
    """Run an ExperimentServer on its own thread + loop."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.server = None
        self._ready = threading.Event()
        self._thread = None

    def start(self) -> ServeClient:
        def run():
            async def main():
                self.server = ExperimentServer(self.config)
                await self.server.start()
                self._ready.set()
                await self.server._closing.wait()
                await self.server.shutdown(
                    drain=self.server._shutdown_drain
                )

            asyncio.run(main())

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()
        assert self._ready.wait(15), "server did not start"
        return ServeClient("127.0.0.1", self.server.port, timeout_s=60.0)

    def stop(self, client: ServeClient) -> None:
        try:
            client.shutdown(drain=True)
        except (ServeError, OSError):
            pass
        self._thread.join(timeout=30)
        assert not self._thread.is_alive(), "server thread hung"


def make_config(tmp_path, **kwargs):
    defaults = dict(
        cache_dir=str(tmp_path / "cache"),
        port=0,
        workers=2,
        default_policy=FaultPolicy(
            timeout_s=60.0, max_retries=1, on_failure="skip"
        ),
        drain_s=5.0,
    )
    defaults.update(kwargs)
    return ServeConfig(**defaults)


@pytest.fixture
def server(tmp_path):
    st = ServerThread(make_config(tmp_path))
    client = st.start()
    yield client, st
    st.stop(client)


# ------------------------------------------------------------------ basics


def test_submit_execute_stream(server, tmp_path):
    client, st = server
    docs = tiny_docs(2)
    sub = client.submit(docs)
    assert sub["points"] == 2
    events = client.wait_job(sub["job_id"])
    assert [e["index"] for e in events] == [0, 1]
    assert all(e["status"] == "ok" for e in events)
    assert all(len(e["stats_sha256"]) == 64 for e in events)
    assert all(e["summary"]["operations"] > 0 for e in events)
    job = client.job(sub["job_id"])
    assert job["status"] == "done"
    assert job["counts"]["ok"] == 2
    # terminal job record persisted as done
    record = json.loads(
        (tmp_path / "cache" / "serve" / "jobs"
         / f"{sub['job_id']}.json").read_text()
    )
    assert record["status"] == "done"


def test_results_are_bit_identical_to_direct_execution(server):
    client, _ = server
    doc = tiny_docs(1)[0]
    events = client.wait_job(client.submit([doc])["job_id"])
    want = stats_digest(RunSpec.from_dict(doc).execute())
    assert events[0]["stats_sha256"] == want


def test_served_digest_is_the_stats_digest_fresh_and_cached(server):
    # one stats_sha256: a served point reports the digest the golden
    # file and the repo benchmark record, whether it ran or was cached
    client, _ = server
    doc = tiny_docs(1, seed0=40)[0]
    want = stats_digest(RunSpec.from_dict(doc).execute())
    for cached in (False, True):
        events = client.wait_job(client.submit([doc])["job_id"])
        assert events[0]["cached"] is cached
        assert events[0]["stats_sha256"] == want


def test_cache_hit_on_resubmission(server):
    client, st = server
    docs = tiny_docs(1, seed0=50)
    client.wait_job(client.submit(docs)["job_id"])
    events = client.wait_job(client.submit(docs)["job_id"])
    assert events[0]["status"] == "ok"
    assert events[0]["cached"] is True
    stats = client.stats()
    assert stats["points"]["executed"] == 1
    assert stats["points"]["cache_hits"] >= 1


def test_concurrent_identical_submissions_dedupe(server):
    client, st = server
    docs = tiny_docs(1, seed0=60)
    subs = [client.submit(docs) for _ in range(3)]
    for sub in subs:
        events = client.wait_job(sub["job_id"])
        assert events[0]["status"] == "ok"
    # one simulation total: the rest were in-flight dedup or cache hits
    points = client.stats()["points"]
    assert points["executed"] == 1
    assert points["dedup"] + points["cache_hits"] == 2


def test_health_stats_and_listing(server):
    client, _ = server
    assert client.health()["status"] == "ok"
    sub = client.submit(tiny_docs(1, seed0=70))
    client.wait_job(sub["job_id"])
    assert any(j["job_id"] == sub["job_id"] for j in client.jobs())
    stats = client.stats()
    assert stats["workers"]["slots"] == 2
    assert "rejected" in stats["admission"]
    assert "quarantined" in stats["cache"]


# ------------------------------------------------------------- validation


def test_malformed_submissions_rejected(server):
    client, _ = server
    with pytest.raises(ServeError) as err:
        client.submit([])
    assert err.value.status == 400
    with pytest.raises(ServeError) as err:
        client.submit([{"workload": "radix"}])  # no protocol
    assert err.value.status == 400
    with pytest.raises(ServeError) as err:
        client.submit(tiny_docs(1), policy={"no_such_knob": 1})
    assert err.value.status == 400
    # an override value that is only invalid once applied
    bad = dict(tiny_docs(1)[0], overrides=[["l1.assoc", 3]])
    with pytest.raises(ServeError) as err:
        client.submit([bad])
    assert err.value.status == 400
    # a protocol option the protocol's constructor does not take
    bad = dict(tiny_docs(1)[0], protocol_kwargs={"bogus": 1})
    with pytest.raises(ServeError) as err:
        client.submit([bad])
    assert err.value.status == 400
    assert "protocol_kwargs: dico takes no option bogus" in str(err.value)
    assert client.stats()["points"]["executed"] == 0


@pytest.mark.parametrize(
    "policy",
    [
        {"timeout_s": True},
        {"max_retries": 2.9},
        {"timeout_s": "x"},
        {"timeout_s": float("nan")},
        {"timeout_s": float("inf")},
    ],
)
def test_mistyped_policy_values_rejected(server, policy):
    client, _ = server
    with pytest.raises(ServeError) as err:
        client.submit(tiny_docs(1), policy=policy)
    assert err.value.status == 400
    assert next(iter(policy)) in str(err.value)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"plan": {"events": [{"kind": "vm_depart"}]}},
         "malformed plan: missing key plan.events[0].cycle"),
        ({"seed": "x"}, "seed: expected an integer"),
        ({"seed": True}, "seed: expected an integer"),
        ({"overrides": 5}, "overrides: expected a list of pairs"),
        ({"overrides": [[1]]}, "overrides[0]: expected a pair"),
        ({"workload_specs": [1]}, "workload_specs[0]: expected a pair"),
        ({"plan": {"events": "x"}}, "plan.events must be a list"),
        ({"config": {"mesh_width": 4}}, "missing key config.mesh_height"),
    ],
)
def test_spec_from_doc_names_the_bad_key(change, message):
    """Only a missing top-level key is reported as one; a key missing
    inside the plan is a malformed plan with its path."""
    from repro.serve.daemon import spec_from_doc
    from repro.serve.http import HttpError

    doc = {"protocol": "dico", "workload": "radix", **change}
    with pytest.raises(HttpError) as err:
        spec_from_doc(doc)
    assert err.value.status == 400
    assert message in str(err.value)
    assert "missing required key" not in str(err.value)
    with pytest.raises(HttpError, match="missing required key 'workload'"):
        spec_from_doc({"protocol": "dico"})


@pytest.mark.parametrize(
    "change, message",
    [
        ({"workload": "nope"}, "workload: unknown workload 'nope'"),
        ({"protocol": ["dico"]}, "protocol: expected a name"),
        ({"overrides": [["l1.assoc", "x"]]}, "overrides: l1.assoc='x'"),
        ({"n_vms": 1000}, "placement: 'aligned' placement of 1000 VMs"),
        ({"placement": "alt", "n_vms": 3}, "placement: 'alt' placement"),
        # mistyped config values: each used to be admitted (and to run
        # 1-cycle links, a 1-way L1, or fail every attempt)
        ({"overrides": [["l1c_entries", 1.5]]}, "overrides: l1c_entries=1.5"),
        ({"config": dict(TINY, noc=dict(TINY["noc"], link_cycles=True))},
         "config.noc.link_cycles: expected an integer, got True"),
        ({"config": dict(TINY, l1=dict(TINY["l1"], assoc=True))},
         "config.l1.assoc: expected an integer, got True"),
        ({"config": dict(TINY, noc=dict(TINY["noc"], model_contention="yes"))},
         "config.noc.model_contention: expected bool, got 'yes'"),
        ({"config": dict(TINY, l1=dict(TINY["l1"], assoc=2.0))},
         "config.l1.assoc: expected an integer, got 2.0"),
        # one workload document per VM: the fingerprint used to stall
        # the event loop for seconds before admitting the job
        ({"placement": {"0": [0]}, "n_vms": 100_000},
         "n_vms: 100000 VMs do not fit the chip's 16 tiles"),
    ],
)
def test_bad_spec_value_is_400_before_any_attempt(server, change, message):
    client, _ = server
    with pytest.raises(ServeError) as err:
        client.submit([dict(tiny_docs(1)[0], **change)])
    assert err.value.status == 400
    assert message in str(err.value)
    assert client.stats()["points"]["executed"] == 0


def test_bad_workload_document_is_400(server):
    client, _ = server
    doc = tiny_docs(1)[0]
    specs = [[vm, dict(d)] for vm, d in snapshot_workload("radix", 4)]
    specs[0][1]["reuse_window"] = 0
    with pytest.raises(ServeError) as err:
        client.submit([dict(doc, workload_specs=specs)])
    assert err.value.status == 400
    assert "workload_specs" in str(err.value)


def test_oversized_header_line_is_400(server):
    client, _ = server
    request = (
        b"GET /healthz HTTP/1.1\r\nX-Big: " + b"x" * 70_000 + b"\r\n\r\n"
    )
    reply = b""
    with socket.create_connection(
        (client.host, client.port), timeout=30
    ) as sock:
        sock.sendall(request)
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                reply += chunk
        except ConnectionResetError:
            # the daemon closes with the rest of the header unread
            pass
    assert reply.startswith(b"HTTP/1.1 400 "), reply[:80]
    assert b"header line too long" in reply


@pytest.mark.parametrize("body", [[1], "x"])
def test_shutdown_with_non_object_body_is_400(server, body):
    client, _ = server
    with pytest.raises(ServeError) as err:
        client._request("POST", "/shutdown", body)
    assert err.value.status == 400
    assert client.health()["status"] == "ok"


@pytest.mark.parametrize(
    "flag, field",
    [("--workers", "workers"), ("--max-queue", "max_queue_points")],
)
def test_zero_workers_or_queue_fail_at_start(
    tmp_path, capsys, monkeypatch, flag, field
):
    # a zero-slot semaphore would accept jobs and never run them
    with pytest.raises(ValueError, match=field):
        make_config(tmp_path, **{field: 0})
    monkeypatch.setattr(
        "repro.serve.daemon.serve",
        lambda config: pytest.fail("the daemon started"),
    )
    rc = main(["serve", "--cache-dir", str(tmp_path), flag, "0"])
    assert rc == 2
    assert f"error: {field} must be >= 1, got 0" in capsys.readouterr().err


def test_port_out_of_range_fails_at_start(tmp_path, capsys, monkeypatch):
    # used to end in an OverflowError traceback from bind()
    monkeypatch.setattr(
        "repro.serve.daemon.serve",
        lambda config: pytest.fail("the daemon started"),
    )
    rc = main(["serve", "--cache-dir", str(tmp_path), "--port", "99999"])
    assert rc == 2
    assert "error: port must be in [0, 65535], got 99999" in (
        capsys.readouterr().err
    )


def test_unknown_routes_and_jobs_are_404(server):
    client, _ = server
    with pytest.raises(ServeError) as err:
        client.job("0000-deadbeef")
    assert err.value.status == 404
    with pytest.raises(ServeError) as err:
        client._request("GET", "/nope")
    assert err.value.status == 404


# ----------------------------------------------------------- backpressure


def test_queue_full_gives_429_with_retry_after(tmp_path):
    st = ServerThread(make_config(
        tmp_path, workers=1, max_queue_points=2,
    ))
    client = st.start()
    try:
        accepted = client.submit(tiny_docs(2, seed0=80))
        with pytest.raises(Backpressure) as err:
            client.submit(tiny_docs(1, seed0=90))
        assert err.value.status == 429
        assert err.value.reason == "queue-full"
        assert err.value.retry_after_s > 0
        # the refused submission reserved nothing: after the queue
        # drains the client can come back
        client.wait_job(accepted["job_id"])
        again = client.submit(tiny_docs(1, seed0=90))
        client.wait_job(again["job_id"])
    finally:
        st.stop(client)


def test_bad_placement_is_400_and_holds_no_queue_capacity(tmp_path):
    st = ServerThread(make_config(
        tmp_path, workers=1, max_queue_points=2,
    ))
    client = st.start()
    try:
        # two refused one-point jobs would fill the queue if they held
        # their point
        bad = dict(tiny_docs(1)[0], placement={"0": 5}, n_vms=1)
        for _ in range(2):
            with pytest.raises(ServeError) as err:
                client.submit([bad])
            assert err.value.status == 400
            assert "placement" in str(err.value)
        accepted = client.submit(tiny_docs(2, seed0=70))
        events = client.wait_job(accepted["job_id"])
        assert [e["status"] for e in events] == ["ok", "ok"]
    finally:
        st.stop(client)


def test_submit_with_retry_waits_out_a_full_queue(tmp_path):
    st = ServerThread(make_config(tmp_path, workers=1, max_queue_points=1))
    client = st.start()
    try:
        # a longer first point keeps the one queue place taken while
        # the second submission knocks
        longer = dict(tiny_docs(1, seed0=100)[0], cycles=20_000)
        first = client.submit([longer])
        slept = []

        def sleep(delay):
            slept.append(delay)
            time.sleep(0.05)

        second = client.submit_with_retry(
            tiny_docs(1, seed0=101), sleep=sleep
        )
        assert second["submit_retries"] == len(slept) >= 1
        assert set(slept) == {1.0}  # the daemon's Retry-After
        for sub in (first, second):
            assert client.wait_job(sub["job_id"])[0]["status"] == "ok"
        assert client.stats()["admission"]["rejected"] == len(slept)
    finally:
        st.stop(client)


# ----------------------------------------------------------------- faults


def test_failing_point_gets_structured_record(tmp_path):
    plan = FaultPlan(seed=5, rules=(FaultRule(kind="crash", rate=1.0,
                                              times=99),))
    st = ServerThread(make_config(tmp_path, fault_plan=plan))
    client = st.start()
    try:
        events = client.wait_job(
            client.submit(
                tiny_docs(1, seed0=120),
                policy={"max_retries": 1},
            )["job_id"]
        )
        assert events[0]["status"] == "failed"
        assert events[0]["attempts"] == 2
        failure = events[0]["failure"]
        assert failure["kind"] == "crash"
        assert failure["fingerprint"]
        job = client.job(client.jobs()[0]["job_id"])
        assert job["status"] == "partial"
    finally:
        st.stop(client)


def test_transient_crash_retries_to_success(tmp_path):
    plan = FaultPlan(seed=5, rules=(FaultRule(kind="crash", rate=1.0,
                                              times=1),))
    st = ServerThread(make_config(tmp_path, fault_plan=plan))
    client = st.start()
    try:
        doc = tiny_docs(1, seed0=130)[0]
        events = client.wait_job(
            client.submit(
                [doc], policy={"max_retries": 2}
            )["job_id"]
        )
        assert events[0]["status"] == "ok"
        assert events[0]["attempts"] == 2
        want = stats_digest(RunSpec.from_dict(doc).execute())
        assert events[0]["stats_sha256"] == want  # retry didn't perturb
        assert client.stats()["points"]["retries"] == 1
    finally:
        st.stop(client)


def test_retried_points_report_as_a_sweep_does(tmp_path):
    docs = tiny_docs(2, seed0=135)
    specs = [RunSpec.from_dict(d) for d in docs]
    flaky, broken = specs
    plan = FaultPlan(
        seed=0,
        rules=(
            FaultRule(kind="crash", match=flaky.fingerprint()[:16], times=1),
            FaultRule(kind="crash", match=broken.fingerprint()[:16], times=9),
        ),
    )
    overlay = {"max_retries": 1}
    runner = SweepRunner(
        jobs=2,
        cache_dir=str(tmp_path / "sweep-cache"),
        policy=FaultPolicy(on_failure="skip", **overlay),
        fault_plan=plan,
    )
    swept = runner.run(specs)
    st = ServerThread(make_config(tmp_path, fault_plan=plan))
    client = st.start()
    try:
        events = client.wait_job(
            client.submit(docs, policy=overlay)["job_id"]
        )
    finally:
        st.stop(client)
    served = sorted(events, key=lambda e: e["index"])
    serve_cache = ResultCache(tmp_path / "cache")
    assert [r.ok for r in swept] == [True, False]
    for r, e in zip(swept, served):
        assert e["status"] == ("ok" if r.ok else "failed")
        assert e["attempts"] == r.attempts == 2
        if not r.ok:
            assert e["failure"]["kind"] == r.failure.kind == "crash"
            continue
        assert e["stats_sha256"] == stats_digest(r.stats)
        # an ok point's elapsed_s is its successful attempt's simulation
        # seconds: the figure its cache entry stores
        entry = json.loads(runner.cache.path_for(r.spec).read_text())
        assert round(r.elapsed_s, 6) == entry["elapsed_s"]
        entry = json.loads(serve_cache.path_for(r.spec).read_text())
        assert e["elapsed_s"] == entry["elapsed_s"]


# ----------------------------------------------------------------- cancel


def test_cancel_queued_points(tmp_path):
    # one worker slot: the cancel lands while at most one point runs,
    # and every other execution still waits on the semaphore
    st = ServerThread(make_config(tmp_path, workers=1))
    client = st.start()
    try:
        sub = client.submit(tiny_docs(6, seed0=140))
        client.cancel(sub["job_id"])
        events = client.wait_job(sub["job_id"])
        assert len(events) == 6
        statuses = {e["status"] for e in events}
        assert statuses <= {"ok", "cancelled"}
        assert "cancelled" in statuses
        cancelled = [e for e in events if e["status"] == "cancelled"]
        assert all(
            e["failure"]["kind"] == "interrupted" for e in cancelled
        )
        assert client.job(sub["job_id"])["status"] == "cancelled"
        # the cancel stopped the work: a fresh job gets the slot, and
        # of the cancelled job's points at most one ever ran
        fresh = client.submit(tiny_docs(1, seed0=170))
        assert client.wait_job(fresh["job_id"])[0]["status"] == "ok"
        stats = client.stats()
        assert stats["points"]["executed"] <= 2
        assert stats["admission"]["total_pending"] == 0
        assert stats["workers"]["busy"] == 0
    finally:
        st.stop(client)


def in_loop(tmp_path, scenario):
    """Run ``scenario(server, call)`` against a daemon on this thread's
    loop, so a test decides which requests land in one loop step;
    ``call(method, path, doc)`` dispatches one request."""

    async def main():
        server = ExperimentServer(make_config(tmp_path, workers=1))
        await server.start()

        async def call(method, path, doc=None):
            body = b"" if doc is None else json.dumps(doc).encode()
            resp = await server._dispatch(Request(method, path, {}, {}, body))
            return json.loads(resp.body)

        try:
            return await scenario(server, call)
        finally:
            await server.shutdown(drain=False)

    return asyncio.run(main())


async def statuses_when_terminal(job, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while not job.terminal and time.monotonic() < deadline:
        await asyncio.sleep(0.02)
    return [p.status for p in job.points]


def test_resubmission_does_not_join_a_cancelled_execution(tmp_path):
    async def scenario(server, call):
        docs = tiny_docs(1, seed0=180)
        first = await call("POST", "/jobs", {"specs": docs})
        await asyncio.sleep(0)  # its point starts the execution
        # cancel and resubmit in one loop step: the new point looks its
        # spec up before the cancelled execution has ended
        await call("DELETE", f"/jobs/{first['job_id']}")
        again = await call("POST", "/jobs", {"specs": docs})
        return await statuses_when_terminal(server.jobs[again["job_id"]])

    assert in_loop(tmp_path, scenario) == ["ok"]


def test_cancel_keeps_an_execution_another_job_waits_on(tmp_path):
    async def scenario(server, call):
        docs = tiny_docs(1, seed0=185)
        first = await call("POST", "/jobs", {"specs": docs})
        second = await call("POST", "/jobs", {"specs": docs})
        await asyncio.sleep(0)  # both points wait on one execution
        await call("DELETE", f"/jobs/{first['job_id']}")
        statuses = await statuses_when_terminal(
            server.jobs[second["job_id"]]
        )
        return statuses, server.counters["executed"]

    assert in_loop(tmp_path, scenario) == (["ok"], 1)


# ----------------------------------------------------------------- resume


def test_restart_resumes_active_job(tmp_path):
    config = make_config(tmp_path)
    st = ServerThread(config)
    client = st.start()
    docs = tiny_docs(3, seed0=150)
    # a plan changes what runs, so it must reach the served spec, its
    # fingerprint and cache key, and the job record a restart reads
    docs[2]["plan"] = {"seed": 9, "events": [
        {"cycle": 400, "kind": "vm_depart", "vm": 3},
    ]}
    specs = [RunSpec.from_dict(d) for d in docs]
    sub = client.submit(docs)
    events = client.wait_job(sub["job_id"])
    assert all(e["status"] == "ok" for e in events)
    assert [e["fingerprint"] for e in events] == [
        spec.fingerprint() for spec in specs
    ]
    st.stop(client)

    # simulate dying before the final record write: flip the job back
    # to active and lose one cache entry (as if quarantined)
    record_path = (
        tmp_path / "cache" / "serve" / "jobs" / f"{sub['job_id']}.json"
    )
    record = json.loads(record_path.read_text())
    record["status"] = "active"
    # records written while the daemon had tenants still resume
    record["tenant"] = "r"
    record_path.write_text(json.dumps(record))
    cache = ResultCache(tmp_path / "cache")
    lost_fp = events[1]["fingerprint"]
    cache.path_for(specs[1]).unlink()

    st2 = ServerThread(make_config(tmp_path))
    client2 = st2.start()
    try:
        events2 = client2.wait_job(sub["job_id"])
        assert [e["index"] for e in events2] == [0, 1, 2]
        assert all(e["status"] == "ok" for e in events2)
        by_index = {e["index"]: e for e in events2}
        # cache intact -> served without re-execution
        assert by_index[0].get("resumed") is True
        assert by_index[2].get("resumed") is True
        # the lost entry re-executed, bit-identical
        assert by_index[1].get("resumed") is None
        assert by_index[1]["fingerprint"] == lost_fp
        assert by_index[1]["stats_sha256"] == events[1]["stats_sha256"]
        points = client2.stats()["points"]
        assert points["points_resumed"] == 2
        assert points["executed"] == 1
        assert client2.job(sub["job_id"])["status"] == "done"
        assert st2.server.jobs[sub["job_id"]].specs == specs
    finally:
        st2.stop(client2)
    # the cache is the only checkpoint
    assert not (tmp_path / "cache" / "journals").exists()


def test_resumed_job_is_admitted_past_the_queue_cap(tmp_path):
    # work admitted before a restart is never bounced by the cap of
    # the daemon that resumes it
    config = make_config(tmp_path, max_queue_points=1)
    docs = tiny_docs(3, seed0=175)
    JobStore(config.cache_dir).save({
        "job_id": "0001-resume",
        "created_unix": 1.0,
        "status": "active",
        "policy": config.default_policy.to_dict(),
        "specs": docs,
    })
    st = ServerThread(config)
    client = st.start()
    try:
        events = client.wait_job("0001-resume")
        assert [e["status"] for e in events] == ["ok"] * 3
        assert client.stats()["admission"]["total_pending"] == 0
    finally:
        st.stop(client)


def test_corrupt_job_record_does_not_stop_start(tmp_path):
    # a record whose policy is not a mapping is skipped with a warning
    # and left on disk; the daemon starts and serves
    config = make_config(tmp_path)
    record = {
        "job_id": "0001-corrupt",
        "created_unix": 1.0,
        "status": "active",
        "policy": [1],
        "specs": tiny_docs(1, seed0=176),
    }
    JobStore(config.cache_dir).save(record)
    st = ServerThread(config)
    client = st.start()
    try:
        assert "0001-corrupt" not in st.server.jobs
        sub = client.submit(tiny_docs(1, seed0=177))
        assert client.wait_job(sub["job_id"])[0]["status"] == "ok"
    finally:
        st.stop(client)
    path = JobStore(config.cache_dir).path_for("0001-corrupt")
    assert json.loads(path.read_text())["policy"] == [1]


def test_record_with_retired_backoff_keys_still_resumes(tmp_path):
    # job records written before the backoff settings became constants
    # carry three more policy keys; they resume and complete
    config = make_config(tmp_path)
    JobStore(config.cache_dir).save({
        "job_id": "0001-old",
        "created_unix": 1.0,
        "status": "active",
        "policy": {
            "timeout_s": 60.0,
            "max_retries": 1,
            "on_failure": "skip",
            "backoff_base_s": 0.05,
            "backoff_max_s": 5.0,
            "backoff_seed": 0,
        },
        "specs": tiny_docs(2, seed0=178),
    })
    st = ServerThread(config)
    client = st.start()
    try:
        events = client.wait_job("0001-old")
        assert [e["status"] for e in events] == ["ok", "ok"]
        assert client.job("0001-old")["status"] == "done"
        assert st.server.jobs["0001-old"].policy == FaultPolicy(
            timeout_s=60.0, max_retries=1, on_failure="skip"
        )
    finally:
        st.stop(client)


# ---------------------------------------------------------- worker reuse


def test_jobs_share_a_worker_and_shutdown_ends_it(tmp_path, monkeypatch):
    real_fork = os.fork
    forks = []

    def fork():
        forks.append(threading.get_ident())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    st = ServerThread(make_config(tmp_path))
    client = st.start()
    try:
        for seed in (300, 301, 302):
            sub = client.submit(tiny_docs(1, seed0=seed))
            assert client.wait_job(sub["job_id"])[0]["status"] == "ok"
        # one after another, the three jobs ran in one worker
        assert len(forks) == 1
        assert len(multiprocessing.active_children()) == 1
    finally:
        st.stop(client)
    assert multiprocessing.active_children() == []


def test_result_stream_reaches_eof_while_an_idle_worker_lives(tmp_path):
    # a worker forked while a client connection is open must not keep
    # it open once it idles: the daemon's close must reach the client
    async def main():
        server = ExperimentServer(make_config(tmp_path, workers=1))
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"GET ")
            while not server._conns:  # accepted before the worker forks
                await asyncio.sleep(0.01)
            body = json.dumps({"specs": tiny_docs(1, seed0=310)}).encode()
            resp = await server._dispatch(
                Request("POST", "/jobs", {}, {}, body)
            )
            job_id = json.loads(resp.body)["job_id"]
            writer.write(
                f"/jobs/{job_id}/results?wait=1 HTTP/1.1\r\n\r\n".encode()
            )
            stream = await asyncio.wait_for(reader.read(), 20)
            writer.close()
            return stream, [p.is_alive() for p, _ in server._attempts.idle]
        finally:
            await server.shutdown(drain=False)

    stream, idle_alive = asyncio.run(main())
    head, _, body = stream.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200")
    assert json.loads(body)["status"] == "ok"
    assert idle_alive == [True]
    assert multiprocessing.active_children() == []


# --------------------------------------------------------------- shutdown


def test_shutdown_ends_an_open_result_stream(tmp_path):
    # from CPython 3.12.1 Server.wait_closed waits for every client
    # connection, so a stream of an unfinished job awaited first would
    # keep SIGTERM from ever draining or checkpointing
    async def main():
        server = ExperimentServer(
            make_config(tmp_path, workers=1, drain_s=0.5)
        )
        await server.start()
        # far too long to finish within the drain
        doc = dict(tiny_docs(1, seed0=190)[0], cycles=2_000_000)
        body = json.dumps({"specs": [doc]}).encode()
        resp = await server._dispatch(Request("POST", "/jobs", {}, {}, body))
        job_id = json.loads(resp.body)["job_id"]
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        writer.write(
            f"GET /jobs/{job_id}/results?wait=1 HTTP/1.1\r\n\r\n".encode()
        )
        head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 10)
        started = time.monotonic()
        await asyncio.wait_for(server.shutdown(drain=True), 15)
        took = time.monotonic() - started
        rest = await asyncio.wait_for(reader.read(), 5)
        writer.close()
        return job_id, head, took, rest

    job_id, head, took, rest = asyncio.run(main())
    assert head.startswith(b"HTTP/1.1 200")
    assert took < 5.0
    assert rest == b""  # the stream ended, with no event for the point
    active = JobStore(str(tmp_path / "cache")).load_active()
    assert [doc["job_id"] for doc in active] == [job_id]


def test_idle_shutdown_does_not_wait_out_the_drain(tmp_path):
    # a drain waits only for unfinished points, so an idle daemon must
    # not sit out all of drain_s
    async def main():
        server = ExperimentServer(make_config(tmp_path, drain_s=10.0))
        await server.start()
        started = time.monotonic()
        await server.shutdown(drain=True)
        return time.monotonic() - started

    assert asyncio.run(main()) < 5.0
