"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``      — simulate one (protocol, workload) pair and print stats
* ``trace``    — traced run: JSONL event stream + run manifest, with
  ``--filter addr=..,tile=..,events=..`` server-side filtering
* ``compare``  — the paper's four protocols on one workload
  (Figs. 7/9 style)
* ``sweep``    — fan a (protocol × workload × seed) grid across worker
  processes with an on-disk result cache (``--trace-dir`` adds a
  trace + manifest per executed spec)
* ``serve``    — run the experiment daemon: an asyncio HTTP job queue
  in front of the same sweep machinery (a queue cap with ``429``
  backpressure, cancellation, restart-resume; see docs/SIMULATOR.md)
* ``serve-bench`` — load/chaos harness against a real daemon
  subprocess (``BENCH_SERVE.json`` report)
* ``verify``   — differentially fuzz the coherence protocols under the
  invariant checker; failures shrink to minimal repro bundles that
  ``--replay`` re-executes deterministically
* ``storage``  — Tables V and VII (analytic)
* ``leakage``  — Table VI (calibrated CACTI-like model)
* ``workloads``— list the Table IV benchmark models
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import (
    BENCHMARKS,
    DEFAULT_CHIP,
    MIXES,
    PROTOCOLS,
    leakage_table,
    overhead_table,
    spec_names,
    storage_breakdown,
)
from .analysis import fig7_rows, fig9a_performance, fig9b_miss_breakdown
from .api import RunSpec, TraceOptions, simulate
from .core.protocols import REGISTRY, expand_selection
from .sim.config import ConfigError
from .sweep.spec import valid_override_keys

PROTOCOL_ORDER = ("directory", "dico", "dico-providers", "dico-arin")


def _protocol_arg(name: str) -> str:
    """argparse type for a single protocol: resolves aliases, and unknown
    names fail at the parser with the full option list."""
    try:
        return REGISTRY.resolve(name)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown protocol {name!r}; options: "
            + ", ".join(sorted(PROTOCOLS))
        )


def _expand_protocols(selection: str):
    """Registry-backed ``--protocols`` expansion for list-taking commands.

    Accepts canonical names, aliases, ``family:*`` globs and the keyword
    ``all``; raises :class:`ValueError` with the sorted options on any
    unknown entry.
    """
    return list(expand_selection(selection))


def _parse_override(text: str):
    """``key=value`` with value parsed as JSON when possible.

    Unknown keys are rejected here, at the CLI boundary, with the full
    list of valid dotted paths — not deep inside a worker process.
    """
    key, sep, raw = text.partition("=")
    if not sep:
        raise ValueError(f"override {text!r} is not of the form key=value")
    valid = valid_override_keys()
    if key not in valid:
        raise ValueError(
            f"unknown config override key {key!r}; valid keys: "
            + ", ".join(valid)
        )
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _seed_arg(text: str) -> int:
    """One ``--seeds`` item; anything but a decimal integer is a
    ``ValueError`` naming it."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"--seeds: {text!r} is not an integer") from None


def _spec_for(args, protocol: str) -> RunSpec:
    """The one construction path: CLI args -> RunSpec -> api.simulate."""
    return RunSpec(
        protocol=protocol,
        workload=args.workload,
        seed=args.seed,
        placement=args.placement,
        cycles=args.cycles,
        warmup=args.warmup,
    )


def cmd_run(args) -> int:
    result = simulate(
        _spec_for(args, args.protocol),
        checker=args.checker,
    )
    out = result.stats.summary()
    out["miss_categories"] = result.stats.miss_categories
    print(json.dumps(out, indent=2))
    return 0


def cmd_compare(args) -> int:
    results = {}
    for protocol in PROTOCOL_ORDER:
        results[protocol] = simulate(
            _spec_for(args, protocol), checker=True
        ).stats
    perf = fig9a_performance(results)
    power = fig7_rows(results, DEFAULT_CHIP)
    misses = fig9b_miss_breakdown(results)
    print(f"{'protocol':16s} {'perf':>7} {'power':>7} {'cache':>7} "
          f"{'links':>7} {'pred%':>7}")
    for protocol in PROTOCOL_ORDER:
        predicted = (
            misses[protocol]["pred_owner_hit"]
            + misses[protocol]["pred_provider_hit"]
        )
        row = power[protocol]
        print(
            f"{protocol:16s} {perf[protocol]:7.3f} {row['total']:7.3f} "
            f"{row['cache']:7.3f} {row['links']:7.3f} {100 * predicted:6.1f}%"
        )
    return 0


_FILTER_KEYS = {
    "addr": "addrs",
    "addrs": "addrs",
    "tile": "tiles",
    "tiles": "tiles",
    "event": "events",
    "events": "events",
    "layer": "layers",
    "layers": "layers",
}


def _parse_trace_filters(filters):
    """``addr=0x2f+0x30,tile=5,events=send+deliver`` -> TraceOptions kwargs.

    Comma separates dimensions, ``+`` separates values within one;
    addresses and tiles accept any ``int(x, 0)`` literal (hex included).
    """
    out = {"addrs": None, "tiles": None, "events": None, "layers": None}
    for spec in filters or ():
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, raw = part.partition("=")
            field = _FILTER_KEYS.get(key.strip())
            if not sep or field is None:
                raise ValueError(
                    f"bad trace filter {part!r} (expected "
                    f"{'|'.join(sorted(set(_FILTER_KEYS)))}=v1+v2,...)"
                )
            values = [v for v in raw.split("+") if v]
            if field in ("addrs", "tiles"):
                values = [int(v, 0) for v in values]
            existing = out[field] or []
            out[field] = existing + values
    return out


def cmd_trace(args) -> int:
    try:
        filters = _parse_trace_filters(args.filter)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spec = RunSpec(
        protocol=args.protocol,
        workload=args.workload,
        seed=args.seed,
        placement=args.placement,
        cycles=args.cycles,
        warmup=args.warmup,
    )
    result = simulate(
        spec,
        trace=TraceOptions(path=args.output, **filters),
        checker=args.checker,
    )
    with open(args.output) as fh:
        n_events = sum(1 for line in fh if line.strip())
    summary = {
        "spec": spec.to_dict(),
        "events": n_events,
        "trace": str(result.trace_path),
        "manifest": str(result.manifest_path),
        "operations": result.stats.operations,
        "wall_s": round(result.wall_time_s, 3),
    }
    print(json.dumps(summary, indent=2))
    return 0


def _emit_sweep_results(args, runner, results, specs, elapsed) -> None:
    """Write the sweep's stdout lines, summary and output/failure files."""
    from .faults import failure_summary
    from .stats.io import stats_to_dict
    from .sweep import merge_by_point

    # stdout carries one canonical JSON line per spec (progress goes to
    # stderr), so two sweeps are comparable with a plain `diff`
    for res in results:
        if res.ok:
            line = {"spec": res.spec.to_dict(), "summary": res.stats.summary()}
        else:
            line = {"spec": res.spec.to_dict(), "failure": res.failure.to_dict()}
        print(json.dumps(line, sort_keys=True))
    if len({spec.seed for spec in specs}) > 1:
        merged = merge_by_point(
            (res.spec, res.stats) for res in results if res.ok
        )
        for (protocol, workload), stats in sorted(merged.items()):
            print(
                json.dumps(
                    {
                        "merged": {"protocol": protocol, "workload": workload},
                        "summary": stats.summary(),
                    },
                    sort_keys=True,
                )
            )
    summary = failure_summary(results)
    cache_counters = (
        runner.cache.counters() if runner.cache is not None else {}
    )
    if not args.quiet:
        quarantined = cache_counters.get("quarantined", 0)
        extra = f", {quarantined} quarantined" if quarantined else ""
        print(
            f"sweep: {len(specs)} specs, {runner.executed} simulated, "
            f"{runner.cache_hits} cached{extra}, {summary['failed']} failed, "
            f"{elapsed:.1f}s wall ({runner.jobs} jobs)",
            file=sys.stderr,
        )
        for entry in summary["failures"]:
            failure = entry["failure"]
            print(
                f"sweep: FAILED {entry['label']}: {failure['kind']} "
                f"{failure['exc_type']} {failure['message']}".rstrip(),
                file=sys.stderr,
            )
    if args.failures:
        # structured cache-health counters ride along with the failure
        # summary so chaos jobs can assert on quarantine behavior
        summary["cache"] = cache_counters
        with open(args.failures, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
    if args.output:
        doc = [
            {
                "spec": res.spec.to_dict(),
                "cached": res.cached,
                "attempts": res.attempts,
                "elapsed_s": round(res.elapsed_s, 6),
                "stats": None if res.stats is None else stats_to_dict(res.stats),
                "failure": None if res.ok else res.failure.to_dict(),
            }
            for res in results
        ]
        with open(args.output, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)


def cmd_sweep(args) -> int:
    from .faults import FaultPlan, FaultPolicy
    from .sweep import (
        SweepExecutionError,
        SweepInterrupted,
        SweepRunner,
        figure_grid,
    )

    try:
        overrides = tuple(_parse_override(o) for o in args.set or ())
        protocols = _expand_protocols(args.protocols)
        seeds = tuple(_seed_arg(s) for s in args.seeds.split(","))
        if args.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    specs = figure_grid(
        protocols=protocols,
        workloads=args.workloads.split(","),
        seeds=seeds,
        placement=args.placement,
        cycles=args.cycles,
        warmup=args.warmup,
        overrides=overrides,
    )
    try:
        policy = FaultPolicy(
            timeout_s=args.timeout,
            max_retries=args.retries,
            on_failure=args.on_failure,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fault_plan = None
    if args.fault_plan:
        try:
            fault_plan = FaultPlan.load(args.fault_plan)
        except (OSError, ValueError) as exc:
            print(f"error: bad fault plan {args.fault_plan!r}: {exc}",
                  file=sys.stderr)
            return 2
    runner = SweepRunner(
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        progress=not args.quiet,
        trace_dir=args.trace_dir,
        policy=policy,
        fault_plan=fault_plan,
    )
    start = time.perf_counter()
    try:
        results = runner.run(specs)
    except SweepInterrupted as exc:
        # the completed points are already cached; flush them so the
        # interrupted sweep is still usable
        elapsed = time.perf_counter() - start
        print(
            f"sweep: interrupted after {len(exc.results)}/{len(specs)} "
            "points; writing partial results (re-run the same command "
            "to finish)",
            file=sys.stderr,
        )
        _emit_sweep_results(args, runner, exc.results, specs, elapsed)
        return 130
    except SweepExecutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - start
    _emit_sweep_results(args, runner, results, specs, elapsed)
    # partial completion is visible in the exit code so CI chaos jobs
    # can assert on it without parsing stderr
    return 3 if any(not res.ok for res in results) else 0


def cmd_serve(args) -> int:
    import logging

    from .faults import FaultPlan, FaultPolicy
    from .serve import ServeConfig
    from .serve.daemon import serve

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
        stream=sys.stderr,
    )
    fault_plan = None
    if args.fault_plan:
        try:
            fault_plan = FaultPlan.load(args.fault_plan)
        except (OSError, ValueError) as exc:
            print(f"error: bad fault plan {args.fault_plan!r}: {exc}",
                  file=sys.stderr)
            return 2
    try:
        config = ServeConfig(
            cache_dir=args.cache_dir,
            host=args.host,
            port=args.port,
            workers=args.workers,
            max_queue_points=args.max_queue,
            default_policy=FaultPolicy(
                timeout_s=args.timeout,
                max_retries=args.retries,
                on_failure="skip",
            ),
            fault_plan=fault_plan,
            drain_s=args.drain_s,
            port_file=args.port_file,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return serve(config)


def cmd_serve_bench(args) -> int:
    from .serve import bench

    return bench.main(args)


def cmd_verify(args) -> int:
    from .api import replay_bundle, verify

    if args.replay:
        result = replay_bundle(args.replay)
        print(json.dumps(result.to_dict(), indent=2))
        if result.matched:
            return 0
        print(
            "error: bundle did not reproduce its recorded violation",
            file=sys.stderr,
        )
        return 1

    protocols = None
    if args.protocols:
        try:
            protocols = _expand_protocols(args.protocols)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.mutate:
        from .verify.mutations import MUTATIONS

        if args.mutate not in MUTATIONS:
            print(
                f"error: unknown mutation {args.mutate!r}; options: "
                + ", ".join(sorted(MUTATIONS)),
                file=sys.stderr,
            )
            return 2
    if args.scenario:
        from .verify.fuzzer import EVENT_SCENARIOS, SCENARIOS

        catalogue = {**SCENARIOS, **EVENT_SCENARIOS}
        unknown = [s for s in args.scenario if s not in catalogue]
        if unknown:
            print(
                f"error: unknown fuzz scenario(s) {unknown}; options: "
                + ", ".join(sorted(catalogue)),
                file=sys.stderr,
            )
            return 2
    report = verify(
        protocols,
        rounds=args.rounds,
        budget_seconds=args.budget_seconds,
        seed=args.seed,
        n_ops=args.ops,
        mutation=args.mutate,
        bundle_dir=args.bundle_dir,
        report_path=args.output or None,
        scenarios=args.scenario or None,
    )
    print(json.dumps(report.to_dict(), indent=2))
    return 0 if report.passed else 1


def cmd_storage(args) -> int:
    print("Table V (64 tiles, 4 areas):")
    for protocol in PROTOCOL_ORDER:
        b = storage_breakdown(protocol)
        print(f"  {protocol:16s} {b.coherence_kb:8.2f} KB "
              f"({100 * b.overhead:5.2f}%)")
    print("\nTable VII (overhead % by cores x areas):")
    table = overhead_table()
    for cores, per_area in table.items():
        areas = sorted(per_area)
        print(f"  {cores} cores" + "".join(f"{a:>8}" for a in areas))
        for protocol in PROTOCOL_ORDER:
            print(
                f"  {protocol:12s}"
                + "".join(f"{per_area[a][protocol]:8.1f}" for a in areas)
            )
    return 0


def cmd_leakage(args) -> int:
    table = leakage_table()
    base = table["directory"]
    print("Table VI (per tile):")
    for protocol, rep in table.items():
        rel = rep.vs(base)
        print(
            f"  {protocol:16s} total={rep.total_mw:6.1f} mW "
            f"({rel['total_pct']:+5.1f}%)  tags={rep.tag_mw:5.1f} mW "
            f"({rel['tag_pct']:+6.1f}%)"
        )
    return 0


def cmd_workloads(args) -> int:
    print(f"{'name':12s} {'pages/VM':>9} {'dedup%':>7} {'metric':>13}")
    for name, spec in BENCHMARKS.items():
        saving = spec.expected_dedup_saving(16, 4)
        print(
            f"{name:12s} {spec.logical_pages(16):>9} {100 * saving:6.1f}% "
            f"{spec.metric:>13}"
        )
    for name, vms in MIXES.items():
        print(f"{name:12s} {'(' + ', '.join(vms) + ')'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ICPP 2011 energy-efficient coherence reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--workload", default="apache", choices=spec_names())
    common.add_argument("--cycles", type=int, default=60_000)
    common.add_argument("--warmup", type=int, default=60_000)
    common.add_argument("--seed", type=int, default=1)
    common.add_argument(
        "--placement", default="aligned", choices=("aligned", "alt")
    )

    p_run = sub.add_parser("run", parents=[common], help="one protocol run")
    p_run.add_argument(
        "--protocol", default="dico-providers", type=_protocol_arg,
        help="protocol to simulate (canonical name or alias; "
        "see `repro verify --protocols all` for the lab roster)",
    )
    p_run.add_argument(
        "--checker", action=argparse.BooleanOptionalAction, default=True,
        help="run the post-run coherence invariant sweep (default: on)",
    )
    p_run.set_defaults(func=cmd_run)

    p_trace = sub.add_parser(
        "trace", help="traced run: JSONL event stream + run manifest"
    )
    p_trace.add_argument("protocol", type=_protocol_arg)
    p_trace.add_argument("workload", choices=spec_names())
    p_trace.add_argument("--cycles", type=int, default=20_000)
    p_trace.add_argument("--warmup", type=int, default=5_000)
    p_trace.add_argument("--seed", type=int, default=1)
    p_trace.add_argument(
        "--placement", default="aligned", choices=("aligned", "alt")
    )
    p_trace.add_argument(
        "--output", default="trace.jsonl",
        help="JSONL trace path; the manifest lands next to it "
        "(default: trace.jsonl)",
    )
    p_trace.add_argument(
        "--filter", action="append", metavar="DIM=V1+V2,...",
        help="keep only matching events, e.g. "
        "--filter addr=0x2f,tile=5+12,events=send+transition "
        "(dims: addr, tile, events, layer; repeatable)",
    )
    p_trace.add_argument(
        "--checker", action=argparse.BooleanOptionalAction, default=False,
        help="also run the post-run coherence invariant sweep",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_cmp = sub.add_parser("compare", parents=[common],
                           help="compare the paper's four protocols")
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser(
        "sweep", help="fan a grid of runs across processes, with caching"
    )
    p_sweep.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes; 1 runs the points one after another "
        "in one worker (for a run in this process, use `repro run`)",
    )
    p_sweep.add_argument(
        "--cache-dir", default=".repro-cache",
        help="result cache directory (default: .repro-cache)",
    )
    p_sweep.add_argument(
        "--no-cache", action="store_true",
        help="always simulate; neither read nor write the cache",
    )
    p_sweep.add_argument(
        "--protocols", default=",".join(PROTOCOL_ORDER),
        help="protocol selection: comma-separated names/aliases, "
        "'all', or family globs like snoop:*",
    )
    p_sweep.add_argument(
        "--workloads",
        default="apache,jbb,radix,lu,volrend,tomcatv,mixed-com,mixed-sci",
        help="comma-separated workload list",
    )
    p_sweep.add_argument(
        "--seeds", default="1",
        help="comma-separated seeds; >1 seed also prints merged points",
    )
    p_sweep.add_argument(
        "--cycles", type=int, default=None,
        help="measurement window (default: per-workload figure windows)",
    )
    p_sweep.add_argument(
        "--warmup", type=int, default=None,
        help="warmup cycles (default: per-workload figure windows)",
    )
    p_sweep.add_argument(
        "--placement", default="aligned", choices=("aligned", "alt")
    )
    p_sweep.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="chip-config override, dotted paths allowed "
        "(e.g. --set l1c_entries=256 --set noc.model_contention=true)",
    )
    p_sweep.add_argument(
        "--output", default=None, help="write full stats JSON to this file"
    )
    p_sweep.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="write a JSONL trace + manifest per executed spec into DIR "
        "(cache hits skip simulation and leave no trace)",
    )
    p_sweep.add_argument(
        "--quiet", action="store_true", help="suppress progress on stderr"
    )
    p_sweep.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="kill any single point that runs longer than this",
    )
    p_sweep.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="re-execute a failed point up to N times with seeded "
        "exponential backoff (default: 0)",
    )
    p_sweep.add_argument(
        "--on-failure", choices=("raise", "skip"), default="raise",
        help="'raise' aborts the sweep on the first exhausted point; "
        "'skip' records a failure and keeps going (default: raise)",
    )
    p_sweep.add_argument(
        "--fault-plan", default=None, metavar="PATH",
        help="inject faults from this JSON plan (testing/chaos runs; "
        "see docs/SIMULATOR.md)",
    )
    p_sweep.add_argument(
        "--failures", default=None, metavar="PATH",
        help="write a JSON failure summary to this file",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_serve = sub.add_parser(
        "serve",
        help="run the experiment daemon (HTTP job queue over the sweep "
        "machinery; see docs/SIMULATOR.md § Service)",
    )
    p_serve.add_argument(
        "--cache-dir", default=".repro-cache",
        help="result cache / job-store root "
        "(default: .repro-cache)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8047,
        help="listen port; 0 picks a free port (default: 8047)",
    )
    p_serve.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write the bound port here once listening (for --port 0)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2,
        help="concurrent simulation worker slots (default: 2)",
    )
    p_serve.add_argument(
        "--max-queue", type=int, default=1024,
        help="global bound on pending points; beyond it submissions get "
        "429 + Retry-After (default: 1024)",
    )
    p_serve.add_argument(
        "--timeout", type=float, default=300.0, metavar="SECONDS",
        help="default per-attempt timeout; jobs may lower/raise via "
        "their policy (default: 300)",
    )
    p_serve.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="default retries per failing point (default: 1)",
    )
    p_serve.add_argument(
        "--fault-plan", default=None, metavar="PATH",
        help="inject faults from this JSON plan (chaos testing)",
    )
    p_serve.add_argument(
        "--drain-s", type=float, default=10.0,
        help="graceful-shutdown drain budget before checkpointing "
        "(default: 10)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_sbench = sub.add_parser(
        "serve-bench",
        help="drive a real serve daemon through load and chaos "
        "phases and write BENCH_SERVE.json",
    )
    p_sbench.add_argument(
        "--mode", default="all", choices=("all", "load", "chaos"),
    )
    p_sbench.add_argument(
        "--jobs", type=int, default=100,
        help="jobs in the load phase (default: 100)",
    )
    p_sbench.add_argument(
        "--points", type=int, default=4,
        help="points per job (default: 4)",
    )
    p_sbench.add_argument(
        "--distinct", type=int, default=16,
        help="distinct specs the load draws from — everything else "
        "dedupes (default: 16)",
    )
    p_sbench.add_argument(
        "--workers", type=int, default=4,
        help="daemon worker slots during load (default: 4)",
    )
    p_sbench.add_argument(
        "--max-queue", type=int, default=512,
        help="daemon queue bound during load (default: 512)",
    )
    p_sbench.add_argument(
        "--chaos-points", type=int, default=10,
        help="points per job in the chaos phase (default: 10)",
    )
    p_sbench.add_argument(
        "--kill-after-s", type=float, default=2.5,
        help="SIGKILL the daemon this long into the chaos run "
        "(default: 2.5)",
    )
    p_sbench.add_argument(
        "--out", default="BENCH_SERVE.json",
        help="report path (default: BENCH_SERVE.json)",
    )
    p_sbench.set_defaults(func=cmd_serve_bench)

    p_verify = sub.add_parser(
        "verify",
        help="differentially fuzz the coherence protocols; any failure "
        "is shrunk and captured as a replayable repro bundle",
    )
    p_verify.add_argument(
        "--protocols", default=None,
        help="protocol selection to fuzz: names/aliases, 'all', or "
        "family globs like snoop:* (default: every registered protocol)",
    )
    p_verify.add_argument(
        "--rounds", type=int, default=6,
        help="fuzz rounds; each runs one adversarial sequence through "
        "every protocol, rotating through the scenario catalogue",
    )
    p_verify.add_argument(
        "--budget-seconds", type=float, default=None,
        help="wall-clock budget; no new round starts once exhausted",
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--ops", type=int, default=400,
        help="operations per generated sequence",
    )
    p_verify.add_argument(
        "--bundle-dir", default="verify-bundles",
        help="directory for failing repro bundles",
    )
    p_verify.add_argument(
        "--output", default="", metavar="PATH",
        help="also write the machine-readable verdict report here",
    )
    p_verify.add_argument(
        "--mutate", default=None, metavar="NAME",
        help="inject a named protocol bug (see repro.verify.mutations); "
        "the run is then expected to fail — proves the harness bites",
    )
    p_verify.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="restrict rounds to the named scenario (repeatable); the "
        "only way to reach the consolidation-event scenarios "
        "(migrate-race, depart-dirty-owner, shootdown-upgrade), which "
        "the default rotation excludes",
    )
    p_verify.add_argument(
        "--replay", default=None, metavar="BUNDLE",
        help="re-execute a captured repro bundle instead of fuzzing "
        "(exit 0 iff the recorded violation reproduces)",
    )
    p_verify.set_defaults(func=cmd_verify)

    sub.add_parser("storage", help="Tables V and VII").set_defaults(
        func=cmd_storage
    )
    sub.add_parser("leakage", help="Table VI").set_defaults(func=cmd_leakage)
    sub.add_parser("workloads", help="Table IV models").set_defaults(
        func=cmd_workloads
    )

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        # exc's message leads with the offending key ("cycles: ...")
        print(f"error: invalid configuration — {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
