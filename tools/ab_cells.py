"""In-process A/B of two source trees on one perfbench workload's cells.

    python3 tools/ab_cells.py --parent ../parent-checkout \\
        --workload hit-heavy --seed 1 --reps 4 [--protocols mesi-snoop,dls]

Two sequential ``perfbench/run.py`` processes drift apart on a shared
host by more than a few-percent change, so this alternates one worker
process per tree cell by cell, the side that runs first alternating by
rep and cell.  Each rep starts a new pair of workers, each warmed on
the first cell, because one process can run a few percent faster than
another on the same tree for its whole life.  A worker imports only
its tree's ``src/`` and simulates the spec documents it reads on stdin;
the specs
come from this checkout's ``perfbench/grid.py`` (``sweep-short`` points
run in process).  A paired ratio is the parent's seconds over the
change's for the same work, so above 1 the change is faster.  Per
protocol it prints the median seconds per side (its cells summed per
rep) and the median and quartiles of the per-rep paired ratios; over
all paired cell runs it prints the same beside the change's wins.  It
exits 1 if a cell's digests differ.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def worker() -> None:
    """Simulate each spec document read from stdin; the tree is the one
    on ``PYTHONPATH``."""
    import repro
    from repro.stats.io import stats_digest
    from repro.sweep.spec import RunSpec

    print(json.dumps({"repro": repro.__file__}), flush=True)
    for line in sys.stdin:
        spec = RunSpec.from_dict(json.loads(line))
        t0 = time.perf_counter()
        stats = spec.build_chip().run_cycles(spec.cycles, warmup=spec.warmup)
        elapsed = time.perf_counter() - t0
        print(json.dumps({"s": elapsed, "sha": stats_digest(stats)}), flush=True)


def start(tree: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.Popen(
        [sys.executable, __file__, "--worker"], env=env, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    loaded = Path(json.loads(proc.stdout.readline())["repro"]).resolve()
    if not loaded.is_relative_to((tree / "src").resolve()):
        sys.exit(f"ab_cells: a worker for {tree} imported {loaded}")
    return proc


def run(proc: subprocess.Popen, doc: dict) -> dict:
    proc.stdin.write(json.dumps(doc) + "\n")
    proc.stdin.flush()
    return json.loads(proc.stdout.readline())


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--protocols", default="")
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import grid

    names = tuple(p for p in args.protocols.split(",") if p)
    if args.workload == "sweep-short":
        specs = grid.sweep_specs(args.seed, names=names)
    else:
        specs = grid.sim_cells(args.workload, args.seed, names=names)
    docs = [spec.to_dict() for spec in specs]
    trees = {"parent": args.parent, "change": ROOT}
    # seconds[side][rep][cell], and every digest each cell returned
    seconds = {side: [[0.0] * len(docs) for _ in range(args.reps)] for side in trees}
    digests = [set() for _ in docs]
    for rep in range(args.reps):
        sides = {side: start(trees[side]) for side in trees}
        for proc in sides.values():
            run(proc, docs[0])  # warm-up, not timed
        for k, doc in enumerate(docs):
            order = ("parent", "change") if (rep + k) % 2 == 0 else ("change", "parent")
            for side in order:
                out = run(sides[side], doc)
                seconds[side][rep][k] = out["s"]
                digests[k].add(out["sha"])
        for proc in sides.values():
            proc.stdin.close()
            proc.wait()
    bad = [spec.label for spec, seen in zip(specs, digests) if len(seen) > 1]
    if bad:
        print(f"ab_cells: digests differ on {', '.join(bad)}", file=sys.stderr)
        return 1

    print(f"ab_cells: {args.workload} seed {args.seed}, {len(docs)} cells x "
          f"{args.reps} reps; parent {args.parent}")
    print(f"{'protocol':<16}{'parent_s':>10}{'change_s':>10}"
          f"{'q1':>8}{'median':>8}{'q3':>8}{'wins':>8}")
    wins = 0
    for proto in dict.fromkeys(spec.protocol for spec in specs):
        cells = [k for k, spec in enumerate(specs) if spec.protocol == proto]
        summed = {side: [sum(seconds[side][r][k] for k in cells)
                         for r in range(args.reps)] for side in trees}
        q1, median, q3 = quartiles([
            p / c for p, c in zip(summed["parent"], summed["change"])
        ])
        won = sum(seconds["change"][r][k] < seconds["parent"][r][k]
                  for r in range(args.reps) for k in cells)
        wins += won
        print(f"{proto:<16}{statistics.median(summed['parent']):>10.4f}"
              f"{statistics.median(summed['change']):>10.4f}"
              f"{q1:>7.3f}x{median:>7.3f}x{q3:>7.3f}x"
              f"{won:>4}/{args.reps * len(cells)}")
    ratios = [seconds["parent"][r][k] / seconds["change"][r][k]
              for r in range(args.reps) for k in range(len(docs))]
    q1, median, q3 = quartiles(ratios)
    print(f"all paired runs: median ratio {median:.3f}x (quartiles "
          f"{q1:.3f}-{q3:.3f}x); change faster in {wins} of {len(ratios)}; "
          "digests equal")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--worker"]:
        worker()
    else:
        sys.exit(main())
