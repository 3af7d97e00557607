"""``python -m repro serve-bench`` — load/chaos harness for the daemon.

Drives a real ``repro serve`` subprocess through its HTTP API and
writes a machine-readable report (``BENCH_SERVE.json``).  Three phases:

* **load** — 16 client threads fire J jobs of P points each, drawn
  from D distinct tiny specs, against a cold cache.  Submissions honour
  429 backpressure; the report records wall time, submit latency
  percentiles, retry counts, and how few actual simulations the
  content-addressed dedup let through.
* **warm** — the same offered load again, same daemon: every point
  should now be a cache hit.
* **chaos** — a seeded :class:`~repro.faults.FaultPlan` (worker
  crashes + cache corruption, plus a few permanently-failing specs)
  runs under the daemon, which is then **SIGKILLed mid-run** and
  restarted on the same cache directory with the same plan.  The
  acceptance check: after resume, every point's event is either
  bit-identical to the fault-free reference (``stats_sha256``) or a
  structured failure record — and no point is lost or duplicated.

All specs are tiny (``small_test_chip``) so the whole bench runs in a
couple of minutes on a laptop; scale knobs are CLI flags.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..faults import FaultPlan, FaultRule
from ..sim.config import small_test_chip
from ..stats.io import stats_digest
from ..sweep.spec import RunSpec, config_to_dict
from ..trace.manifest import git_rev
from .client import ServeClient, ServeError

__all__ = ["DaemonProc", "main", "tiny_spec_docs"]

_TINY = config_to_dict(small_test_chip())

_PROTOCOLS = ("directory", "dico", "dico-providers")


def tiny_spec_docs(n: int, *, tag_seed: int = 0) -> List[Dict[str, Any]]:
    """``n`` distinct tiny spec documents (~0.1 s of simulation each)."""
    docs = []
    for i in range(n):
        spec = RunSpec(
            protocol=_PROTOCOLS[i % len(_PROTOCOLS)],
            workload="radix",
            seed=tag_seed * 1000 + i // len(_PROTOCOLS) + 1,
            cycles=1_500,
            warmup=500,
            config=_TINY,
        )
        docs.append(spec.to_dict())
    return docs


def _percentile(values: Sequence[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    k = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[k]


def _latency_stats(values: Sequence[float]) -> Dict[str, float]:
    return {
        "count": len(values),
        "mean_ms": round(
            (sum(values) / len(values) * 1000) if values else 0.0, 3
        ),
        "p50_ms": round(_percentile(values, 0.50) * 1000, 3),
        "p95_ms": round(_percentile(values, 0.95) * 1000, 3),
        "max_ms": round((max(values) * 1000) if values else 0.0, 3),
    }


class DaemonProc:
    """A ``repro serve`` subprocess plus the client to reach it."""

    def __init__(
        self,
        cache_dir: str,
        *,
        workers: int = 2,
        max_queue: int = 512,
        fault_plan: Optional[str] = None,
    ) -> None:
        self.cache_dir = cache_dir
        self.port_file = os.path.join(cache_dir, "serve.port")
        self.cmd = [
            sys.executable, "-m", "repro", "serve",
            "--cache-dir", cache_dir,
            "--port", "0",
            "--port-file", self.port_file,
            "--workers", str(workers),
            "--max-queue", str(max_queue),
            "--drain-s", "5",
        ]
        if fault_plan:
            self.cmd += ["--fault-plan", fault_plan]
        self.proc: Optional[subprocess.Popen] = None

    def start(self, timeout_s: float = 30.0) -> ServeClient:
        try:
            os.unlink(self.port_file)
        except FileNotFoundError:
            pass
        env = dict(os.environ)
        root = Path(__file__).resolve().parents[2]
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root), env.get("PYTHONPATH")) if p
        )
        self.proc = subprocess.Popen(self.cmd, env=env)
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited early (rc={self.proc.returncode})"
                )
            try:
                port = int(Path(self.port_file).read_text().strip())
            except (FileNotFoundError, ValueError):
                time.sleep(0.05)
                continue
            client = ServeClient("127.0.0.1", port)
            try:
                client.health()
                return client
            except OSError:
                time.sleep(0.05)
        raise RuntimeError("daemon did not come up in time")

    def kill_hard(self) -> None:
        """SIGKILL — the chaos 'power loss'.  No drain, no checkpoint."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait(timeout=10)

    def stop(self, timeout_s: float = 30.0) -> int:
        if self.proc is None:
            return 0
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        return self.proc.returncode or 0


# ----------------------------------------------------------------------
# phases


def _run_load(
    client: ServeClient,
    *,
    jobs: int,
    points: int,
    distinct: int,
    label: str,
) -> Dict[str, Any]:
    spec_pool = tiny_spec_docs(distinct)
    submit_latency: List[float] = []
    retries_429 = 0
    events: List[Dict[str, Any]] = []
    policy = {"timeout_s": 120.0, "max_retries": 1}

    def one_job(k: int) -> List[Dict[str, Any]]:
        nonlocal retries_429
        picked = [
            spec_pool[(k * points + j) % len(spec_pool)]
            for j in range(points)
        ]
        t0 = time.monotonic()
        doc = client.submit_with_retry(
            picked, policy=policy, max_wait_s=600.0
        )
        submit_latency.append(time.monotonic() - t0)
        retries_429 += doc.get("submit_retries", 0)
        return client.wait_job(doc["job_id"], timeout_s=600.0)

    t0 = time.monotonic()
    with ThreadPoolExecutor(max_workers=16) as pool:
        for result in pool.map(one_job, range(jobs)):
            events.extend(result)
    wall = time.monotonic() - t0

    by_status: Dict[str, int] = {}
    for event in events:
        by_status[event["status"]] = by_status.get(event["status"], 0) + 1
    stats = client.stats()
    return {
        "label": label,
        "jobs": jobs,
        "points_submitted": jobs * points,
        "distinct_specs": distinct,
        "wall_s": round(wall, 3),
        "points_per_s": round(jobs * points / wall, 1),
        "submit_latency": _latency_stats(submit_latency),
        "submit_429_retries": retries_429,
        "events_by_status": by_status,
        "daemon_points": stats["points"],
        "daemon_admission_rejected": stats["admission"]["rejected"],
    }


def _run_chaos(
    cache_dir: str, *, points_per_job: int, kill_after_s: float
) -> Dict[str, Any]:
    """Faults + mid-run SIGKILL + resume; verify bit-identity."""
    plan = FaultPlan(
        seed=11,
        rules=(
            FaultRule(kind="crash", rate=0.5, times=1),
            FaultRule(kind="corrupt-cache", rate=0.4, times=1),
            # a slice of specs that fails every attempt: these must end
            # as structured failure records, not hangs or losses
            FaultRule(kind="crash", rate=0.12, times=99),
        ),
    )
    os.makedirs(cache_dir, exist_ok=True)
    plan_path = os.path.join(cache_dir, "fault-plan.json")
    plan.dump(plan_path)

    docs_a = tiny_spec_docs(points_per_job, tag_seed=21)
    docs_b = tiny_spec_docs(points_per_job, tag_seed=22)
    policy = {"timeout_s": 60.0, "max_retries": 2}

    # fault-free reference, computed in-process
    reference: Dict[str, str] = {}
    for doc in docs_a + docs_b:
        spec = RunSpec.from_dict(doc)
        reference[spec.fingerprint()] = stats_digest(spec.execute())

    daemon = DaemonProc(cache_dir, workers=2, fault_plan=plan_path)
    client = daemon.start()
    job_a = client.submit(docs_a, policy=policy)["job_id"]
    job_b = client.submit(docs_b, policy=policy)["job_id"]
    # kill mid-run: wait until at least a couple of points completed
    # (tiny specs finish fast — a fixed sleep can land after the whole
    # grid is done, which would leave nothing to resume)
    pre_kill = {}
    deadline = time.monotonic() + max(kill_after_s, 60.0)
    while time.monotonic() < deadline:
        pre_kill = {j["job_id"]: j["counts"] for j in client.jobs()}
        terminal = sum(
            c["ok"] + c["failed"] for c in pre_kill.values()
        )
        if terminal >= 2:
            break
        time.sleep(0.05)
    daemon.kill_hard()

    # restart on the same cache dir, same fault plan still active
    daemon2 = DaemonProc(cache_dir, workers=2, fault_plan=plan_path)
    client2 = daemon2.start()
    try:
        def events_for(job_id: str, docs: List[Dict[str, Any]]):
            try:
                return client2.wait_job(job_id, timeout_s=600.0), True
            except ServeError:
                # the job went terminal before the kill, so the restart
                # had nothing to resume; re-submit — every completed
                # point must come back from the shared cache
                resub = client2.submit(docs, policy=policy)
                return client2.wait_job(
                    resub["job_id"], timeout_s=600.0
                ), False

        events_a, resumed_a = events_for(job_a, docs_a)
        events_b, resumed_b = events_for(job_b, docs_b)
        checks = {
            "no_lost_or_duplicated_points": True,
            "ok_bit_identical_to_fault_free": True,
            "failed_are_structured": True,
        }
        mismatches: List[Dict[str, Any]] = []
        for name, docs, events in (
            ("a", docs_a, events_a), ("b", docs_b, events_b)
        ):
            indexes = sorted(e["index"] for e in events)
            if indexes != list(range(len(docs))):
                checks["no_lost_or_duplicated_points"] = False
                mismatches.append({"job": name, "indexes": indexes})
            for event in events:
                if event["status"] == "ok":
                    want = reference[event["fingerprint"]]
                    if event.get("stats_sha256") != want:
                        checks["ok_bit_identical_to_fault_free"] = False
                        mismatches.append({
                            "job": name,
                            "index": event["index"],
                            "got": event.get("stats_sha256"),
                            "want": want,
                        })
                elif event["status"] == "failed":
                    failure = event.get("failure") or {}
                    if failure.get("kind") not in (
                        "exception", "timeout", "crash", "interrupted"
                    ):
                        checks["failed_are_structured"] = False
                        mismatches.append({
                            "job": name,
                            "index": event["index"],
                            "failure": failure,
                        })
                else:
                    checks["no_lost_or_duplicated_points"] = False
                    mismatches.append({
                        "job": name, "index": event["index"],
                        "status": event["status"],
                    })
        stats = client2.stats()
        all_events = events_a + events_b
        return {
            "points_total": len(docs_a) + len(docs_b),
            "kill_after_s": kill_after_s,
            "jobs_resumed_in_place": [resumed_a, resumed_b],
            "completed_before_kill": {
                job: counts.get("ok", 0) + counts.get("failed", 0)
                for job, counts in pre_kill.items()
            },
            "resumed_points": stats["points"]["points_resumed"],
            "ok": sum(1 for e in all_events if e["status"] == "ok"),
            "failed": sum(
                1 for e in all_events if e["status"] == "failed"
            ),
            "failed_kinds": sorted({
                (e.get("failure") or {}).get("kind", "")
                for e in all_events if e["status"] == "failed"
            }),
            "checks": checks,
            "passed": all(checks.values()),
            "mismatches": mismatches[:10],
        }
    finally:
        daemon2.stop()


# ----------------------------------------------------------------------


def main(args) -> int:
    t_start = time.time()
    report: Dict[str, Any] = {
        "schema": "bench-serve/2",
        "git_rev": git_rev(),
        "python": sys.version.split()[0],
        "config": {
            "jobs": args.jobs,
            "points_per_job": args.points,
            "distinct_specs": args.distinct,
            "workers": args.workers,
            "modes": args.mode,
        },
    }
    modes = ("load", "chaos") if args.mode == "all" else (args.mode,)

    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        if "load" in modes:
            daemon = DaemonProc(
                os.path.join(tmp, "load"),
                workers=args.workers,
                max_queue=args.max_queue,
            )
            client = daemon.start()
            try:
                print("bench: load (cold cache) ...", file=sys.stderr)
                report["load_cold"] = _run_load(
                    client,
                    jobs=args.jobs,
                    points=args.points, distinct=args.distinct,
                    label="cold",
                )
                print("bench: load (warm cache) ...", file=sys.stderr)
                report["load_warm"] = _run_load(
                    client,
                    jobs=args.jobs,
                    points=args.points, distinct=args.distinct,
                    label="warm",
                )
            finally:
                daemon.stop()
        if "chaos" in modes:
            print("bench: chaos (faults + kill + resume) ...",
                  file=sys.stderr)
            report["chaos"] = _run_chaos(
                os.path.join(tmp, "chaos"),
                points_per_job=args.chaos_points,
                kill_after_s=args.kill_after_s,
            )

    report["bench_wall_s"] = round(time.time() - t_start, 1)
    out = Path(args.out)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"bench: report written to {out}", file=sys.stderr)
    if "chaos" in modes and not report["chaos"]["passed"]:
        print("bench: CHAOS CHECKS FAILED", file=sys.stderr)
        return 1
    return 0
