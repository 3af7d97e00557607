#!/usr/bin/env python3
"""Repo benchmark: host throughput of the coherence simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload miss-heavy --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split (see ``perfbench/README.md``).  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only when every output check passed; a tree without
the simulator's sources exits 2 without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("miss-heavy", "hit-heavy", "vm-churn", "sweep-short")


def _pin_environment() -> None:
    """Clear every ``REPRO_*`` knob, so the default engine, issue path,
    watchdog and sweep executor are what gets timed."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]


def _import_simulator() -> None:
    """Import the checkout's simulator, never an installed copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        print(f"perfbench: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        raise SystemExit(2)


def _print_outcome(outcome, args) -> None:
    from layertrace import span_summary
    from repro.perf.harness import git_rev
    from repro.sweep.cache import code_fingerprint

    print(
        f"perfbench: workload={outcome.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace} passes={outcome.passes}"
    )
    print(
        f"perfbench: git_rev={git_rev()} code={code_fingerprint()[:12]} "
        f"engine={outcome.engine} python={platform.python_version()} "
        f"nproc={os.cpu_count()}"
    )
    for label, (ops, digest) in sorted(outcome.digests.items()):
        print(f"cell {label}: ops={ops} stats_sha256={digest}")
    for name, (count, total, own) in span_summary(outcome.spans).items():
        print(f"span {name}: count={count} total_s={total:.4f} self_s={own:.4f}")
    for name, (value, unit) in {**outcome.metrics, **outcome.extras}.items():
        print(f"metric {name} = {value!r} {unit}")
    for error in outcome.errors:
        print(f"FAILED {error}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _pin_environment()
    _import_simulator()
    import bench

    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=work_root)
    try:
        outcome = bench.measure(
            args.workload, args.seed, args.seconds, bool(args.trace), work_dir,
        )
        _print_outcome(outcome, args)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
