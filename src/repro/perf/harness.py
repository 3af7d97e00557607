"""Simulator-throughput benchmark: the ``repro perf`` harness.

The unit of measurement is one *cell* — a fully pinned
:class:`~repro.sweep.spec.RunSpec` — timed end to end (chip build,
warmup, measurement window) with ``verify=False`` so the coherence
audit does not pollute the timing.  Throughput is committed memory
operations per wall-clock second; the per-cell operation count is
recorded alongside so that two reports are comparable only when they
simulated the same work (a changed op count means the simulation
changed, not just its speed).

The reference subset is deliberately small and fixed: all four
protocols on one commercial (``apache``) and one scientific
(``radix``) workload, 100k measured cycles each.  ``--quick`` shrinks
the window for CI smoke runs; the cell grid stays the same so the
per-cell numbers remain comparable in shape, just noisier.

Report schema (``BENCH_PERF.json``)::

    {
      "schema": 2,
      "git_rev": "<rev or 'unknown'>",
      "config_fingerprint": "<sha256 over the cells' canonical JSON>",
      "quick": false,
      "repeat": 3,
      "total_wall_s": 12.3,
      "cells": [
        {"protocol": ..., "workload": ..., "cycles": ..., "warmup": ...,
         "seed": ..., "operations": ..., "wall_s": ..., "ops_per_s": ...,
         "l1_miss_rate": ...},
        ...
      ],
      "baseline": {...}           # optional: a prior report, embedded
    }

Schema history — ``load_report`` upgrades older reports in memory, so
consumers only ever see the current shape:

* 1 → 2: per-cell ``l1_miss_rate`` (L1 misses over L1 references for
  the measured window).  Upgraded v1 cells carry ``None`` — the rate
  was not recorded, not zero.  The field attributes a speedup shift to
  hit-path vs miss-path work: a cell whose miss rate moved is not
  measuring the same mix of work, whatever its ops/s says.

Wall time per cell is the *median* over ``repeat`` runs (operation
counts are asserted identical across repeats — the simulator is
deterministic, only the clock varies).  Each cell also records the
sha256 of its full statistics document, so two reports double as a
bit-identity witness: equal digests mean the runs computed the same
result, whatever their speed.  The report's ``engine`` field is always
``"object"``; it is kept so older readers still find it.
"""

from __future__ import annotations

import cProfile
import hashlib
import io
import json
import pstats
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..sweep.spec import RunSpec

__all__ = [
    "BENCH_PERF_SCHEMA_VERSION",
    "QUICK_CELLS",
    "REFERENCE_CELLS",
    "CellResult",
    "Comparison",
    "compare_reports",
    "format_comparison",
    "config_fingerprint",
    "geomean",
    "git_rev",
    "git_rev_in_repo",
    "load_report",
    "run_cells",
    "upgrade_report",
    "write_report",
]

BENCH_PERF_SCHEMA_VERSION = 2

_PROTOCOLS = ("directory", "dico", "dico-providers", "dico-arin")
_WORKLOADS = ("apache", "radix")


def _grid(
    cycles: int, warmup: int, protocols: Sequence[str] = _PROTOCOLS
) -> Tuple[RunSpec, ...]:
    return tuple(
        RunSpec(
            protocol=p,
            workload=w,
            seed=1,
            cycles=cycles,
            warmup=warmup,
        )
        for p in protocols
        for w in _WORKLOADS
    )


#: the pinned reference subset — change it and historical reports stop
#: being comparable (the config fingerprint will say so)
REFERENCE_CELLS: Tuple[RunSpec, ...] = _grid(cycles=100_000, warmup=10_000)

#: same grid, CI-smoke sized
QUICK_CELLS: Tuple[RunSpec, ...] = _grid(cycles=10_000, warmup=2_000)


@dataclass(frozen=True)
class CellResult:
    """Timing outcome of one reference cell."""

    spec: RunSpec
    operations: int
    wall_s: float
    #: sha256 over the run's canonical statistics JSON — the cell's
    #: result identity (equal digests = bit-identical runs)
    stats_sha256: str = ""
    #: L1 misses / L1 references over the measured window (``None``
    #: when loaded from a pre-v2 report that did not record it)
    l1_miss_rate: Optional[float] = None

    @property
    def ops_per_s(self) -> float:
        return self.operations / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "protocol": self.spec.protocol,
            "workload": self.spec.workload,
            "cycles": self.spec.cycles,
            "warmup": self.spec.warmup,
            "seed": self.spec.seed,
            "operations": self.operations,
            "wall_s": round(self.wall_s, 6),
            "ops_per_s": round(self.ops_per_s, 1),
            "stats_sha256": self.stats_sha256,
            "l1_miss_rate": (
                round(self.l1_miss_rate, 6)
                if self.l1_miss_rate is not None
                else None
            ),
        }


def git_rev() -> str:
    """Short git revision of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def git_rev_in_repo(rev: str) -> Optional[bool]:
    """Whether ``rev`` names a commit in this repository.

    ``None`` when the question cannot be answered (no git, no
    checkout, or the recorded rev is the ``"unknown"`` placeholder) —
    callers should treat that as "cannot vouch", not as a failure.
    A ``False`` answer means the baseline was produced on a tree this
    repository has never seen, so its numbers describe different code.
    """
    if not rev or rev == "unknown":
        return None
    try:
        out = subprocess.run(
            ["git", "cat-file", "-e", f"{rev}^{{commit}}"],
            capture_output=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode == 0:
        return True
    # distinguish "not a commit here" from "not a git checkout at all"
    try:
        inside = subprocess.run(
            ["git", "rev-parse", "--is-inside-work-tree"],
            capture_output=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return False if inside.returncode == 0 else None


def config_fingerprint(cells: Sequence[RunSpec]) -> str:
    """sha256 over the cells' canonical JSON — the grid's identity.

    Two reports with different fingerprints timed different work and
    must not be compared cell-by-cell.
    """
    digest = hashlib.sha256()
    for spec in cells:
        digest.update(spec.canonical_json().encode())
        digest.update(b"\n")
    return digest.hexdigest()


def geomean(values: Sequence[float]) -> float:
    """Geometric mean; the right average for per-cell speedup ratios.

    An empty input has no geometric mean — it raises instead of
    returning a fabricated 0.0 that would read as "infinitely slow" in
    a report.  Callers with possibly-empty inputs must guard.
    """
    if not values:
        raise ValueError("geomean of an empty sequence is undefined")
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


def stats_digest(stats) -> str:
    """sha256 over the canonical JSON of a run's full statistics."""
    from ..stats.io import stats_to_dict

    doc = json.dumps(stats_to_dict(stats), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def _time_cell(
    spec: RunSpec,
    repeat: int,
    trace: bool = False,
) -> CellResult:
    """Median-of-``repeat`` wall time for one cell.

    Repeats must commit identical operation counts — the simulator is
    deterministic — so a mismatch is raised, not averaged away.

    ``trace=True`` attaches a counting sink (events generated and
    consumed, never stored), which isolates the cost of the
    instrumentation itself — the number ``--trace`` reports.

    The first repeat's statistics are hashed into the result, so two
    reports show whether their runs computed the same result.
    """
    walls: List[float] = []
    operations: Optional[int] = None
    digest = ""
    miss_rate: Optional[float] = None
    for _ in range(repeat):
        options = None
        if trace:
            from ..api import TraceOptions
            from ..trace import CountingSink

            options = TraceOptions(sink=CountingSink())
        start = time.perf_counter()
        stats = spec.execute(verify=False, trace=options)
        wall = time.perf_counter() - start
        walls.append(wall)
        if operations is None:
            operations = stats.operations
            digest = stats_digest(stats)
            refs = stats.l1_hits + stats.l1_misses
            miss_rate = stats.l1_misses / refs if refs else None
        elif operations != stats.operations:
            raise RuntimeError(
                f"{spec.label}: nondeterministic op count "
                f"({operations} vs {stats.operations})"
            )
    walls.sort()
    median = walls[len(walls) // 2]
    if len(walls) % 2 == 0:
        median = (median + walls[len(walls) // 2 - 1]) / 2.0
    assert operations is not None
    return CellResult(
        spec=spec, operations=operations, wall_s=median, stats_sha256=digest,
        l1_miss_rate=miss_rate,
    )


def run_cells(
    cells: Sequence[RunSpec],
    repeat: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    trace: bool = False,
) -> List[CellResult]:
    """Time every cell; results come back in cell order."""
    results: List[CellResult] = []
    for i, spec in enumerate(cells):
        result = _time_cell(spec, repeat, trace=trace)
        results.append(result)
        if progress is not None:
            progress(
                f"[{i + 1}/{len(cells)}] "
                f"{spec.protocol}/{spec.workload:<10s}"
                f" {result.operations:>8d} ops  {result.wall_s:7.3f}s"
                f"  {result.ops_per_s:>10,.0f} ops/s"
            )
    return results


def build_report(
    cells: Sequence[RunSpec],
    results: Sequence[CellResult],
    quick: bool,
    repeat: int,
    baseline: Optional[Dict[str, Any]] = None,
    trace: bool = False,
) -> Dict[str, Any]:
    report: Dict[str, Any] = {
        "schema": BENCH_PERF_SCHEMA_VERSION,
        "git_rev": git_rev(),
        "config_fingerprint": config_fingerprint(cells),
        "engine": "object",
        "quick": quick,
        "repeat": repeat,
        "trace_enabled": trace,
        "total_wall_s": round(sum(r.wall_s for r in results), 6),
        "cells": [r.to_dict() for r in results],
    }
    if baseline is not None:
        report["baseline"] = baseline
    return report


def write_report(report: Dict[str, Any], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")


def upgrade_report(report: Dict[str, Any], origin: str = "report") -> Dict[str, Any]:
    """Upgrade an older-schema report to the current shape, in place.

    Every 1→N step is applied in sequence (an embedded baseline is
    upgraded recursively — it is a full report).  Reports from a future
    schema are refused: fields this code does not know about could
    change the meaning of the ones it does.
    """
    schema = report.get("schema")
    if not isinstance(schema, int) or not 1 <= schema <= BENCH_PERF_SCHEMA_VERSION:
        raise ValueError(
            f"{origin}: unsupported BENCH_PERF schema {schema!r} "
            f"(this build reads 1..{BENCH_PERF_SCHEMA_VERSION})"
        )
    if schema < 2:
        # v1 did not record the per-cell L1 miss rate; None marks it
        # as unrecorded (a real rate of 0.0 is possible)
        for cell in report.get("cells", ()):
            cell.setdefault("l1_miss_rate", None)
    report["schema"] = BENCH_PERF_SCHEMA_VERSION
    baseline = report.get("baseline")
    if isinstance(baseline, dict):
        upgrade_report(baseline, origin=f"{origin} (embedded baseline)")
    return report


def load_report(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        report = json.load(fh)
    return upgrade_report(report, origin=path)


def _cell_key(cell: Dict[str, Any]) -> Tuple[Any, ...]:
    return (
        cell["protocol"],
        cell["workload"],
        cell["cycles"],
        cell["warmup"],
        cell["seed"],
    )


def _cell_label(cell: Dict[str, Any]) -> str:
    return f"{cell['protocol']}/{cell['workload']}"


@dataclass
class Comparison:
    """Outcome of matching one report against a baseline.

    ``rows`` holds ``(label, baseline ops/s, current ops/s, speedup)``
    for every matched cell.  Cells present on only one side are not
    silently dropped — they are listed in ``unmatched_report`` /
    ``unmatched_baseline`` so a regression cannot hide behind a renamed
    or removed cell.
    """

    rows: List[Tuple[str, float, float, float]] = field(default_factory=list)
    #: labels of current-report cells with no baseline counterpart
    unmatched_report: List[str] = field(default_factory=list)
    #: labels of baseline cells missing from the current report
    unmatched_baseline: List[str] = field(default_factory=list)

    @property
    def geomean_speedup(self) -> Optional[float]:
        """Geomean over the matched cells; ``None`` when none matched."""
        if not self.rows:
            return None
        return geomean([r[3] for r in self.rows])

    @property
    def complete(self) -> bool:
        """True when every cell on both sides found its counterpart."""
        return not self.unmatched_report and not self.unmatched_baseline


def compare_reports(
    report: Dict[str, Any], baseline: Dict[str, Any]
) -> Comparison:
    """Match cells by (protocol, workload, cycles, warmup, seed).

    A baseline cell without a usable throughput (``ops_per_s`` of 0 or
    absent) cannot anchor a speedup; the current cell it would have
    matched is listed as unmatched.  A fingerprint mismatch degrades the comparison to
    matched cells only — the caller should surface it alongside the
    unmatched lists.
    """
    base_by_key = {_cell_key(c): c for c in baseline.get("cells", ())}
    comparison = Comparison()
    for cell in report["cells"]:
        base = base_by_key.pop(_cell_key(cell), None)
        if base is None or not base.get("ops_per_s"):
            comparison.unmatched_report.append(_cell_label(cell))
            continue
        comparison.rows.append(
            (
                _cell_label(cell),
                float(base["ops_per_s"]),
                float(cell["ops_per_s"]),
                float(cell["ops_per_s"]) / float(base["ops_per_s"]),
            )
        )
    comparison.unmatched_baseline = [
        _cell_label(c) for c in base_by_key.values()
    ]
    return comparison


def profile_cells(cells: Sequence[RunSpec], top: int) -> str:
    """cProfile the whole cell set; returns the top-``top`` report.

    Profiling roughly halves throughput, so the profiled run is never
    used for the timing numbers — it only attributes where the cycles
    go (sorted by cumulative time, which surfaces the hot call trees).
    """
    profiler = cProfile.Profile()
    profiler.enable()
    for spec in cells:
        spec.execute(verify=False)
    profiler.disable()
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats("cumulative").print_stats(top)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# CLI entry point (wired up by repro.cli)

def format_comparison(comparison: Comparison) -> str:
    """Render the per-cell speedup table (also the CI artifact body)."""
    lines = [
        f"{'cell':<26s} {'base ops/s':>12s} {'now ops/s':>12s}"
        f" {'speedup':>8s}"
    ]
    for label, base_ops, now_ops, speedup in comparison.rows:
        lines.append(
            f"{label:<26s} {base_ops:>12,.0f} {now_ops:>12,.0f}"
            f" {speedup:>7.2f}×"
        )
    for label in comparison.unmatched_report:
        lines.append(f"{label:<26s} {'— not in baseline —':>34s}")
    for label in comparison.unmatched_baseline:
        lines.append(f"{label:<26s} {'— baseline only, not timed now —':>34s}")
    gm = comparison.geomean_speedup
    if gm is not None:
        lines.append(f"{'geomean':<26s} {'':>12s} {'':>12s} {gm:>7.2f}×")
    return "\n".join(lines)


def _print_comparison(
    report: Dict[str, Any], baseline: Dict[str, Any]
) -> Optional[Comparison]:
    comparison = compare_reports(report, baseline)
    if baseline.get("config_fingerprint") != report["config_fingerprint"]:
        print(
            "\nwarning: baseline fingerprint differs — comparing "
            "matched cells only", file=sys.stderr,
        )
    base_rev = baseline.get("git_rev", "")
    if git_rev_in_repo(base_rev) is False:
        print(
            f"\nwarning: baseline git_rev {base_rev!r} is not a commit in "
            "this repository — the baseline was measured on different "
            "code; regenerate it here before trusting the speedups",
            file=sys.stderr,
        )
    if comparison.rows or not comparison.complete:
        print()
        print(format_comparison(comparison))
        return comparison
    print("\nno comparable cells in baseline", file=sys.stderr)
    return None


def main(args) -> int:
    selection = getattr(args, "protocols", None)
    if selection:
        from ..core.protocols import expand_selection

        try:
            protocols = expand_selection(selection)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        cells = _grid(
            cycles=10_000 if args.quick else 100_000,
            warmup=2_000 if args.quick else 10_000,
            protocols=protocols,
        )
    else:
        cells = QUICK_CELLS if args.quick else REFERENCE_CELLS

    def progress(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    trace = bool(getattr(args, "trace", False))

    baseline: Optional[Dict[str, Any]] = None
    if args.baseline:
        baseline = load_report(args.baseline)

    results = run_cells(
        cells, repeat=args.repeat, progress=progress, trace=trace,
    )
    report = build_report(
        cells, results, quick=args.quick, repeat=args.repeat,
        baseline=baseline, trace=trace,
    )

    if trace:
        print("tracing            enabled (counting sink)")
    print(f"git rev            {report['git_rev']}")
    print(f"config fingerprint {report['config_fingerprint'][:16]}…")
    print(f"total wall         {report['total_wall_s']:.3f}s "
          f"(median of {args.repeat} per cell)")
    print()
    print(f"{'cell':<26s} {'ops':>9s} {'wall s':>8s} {'ops/s':>12s}"
          f" {'L1 miss':>8s}")
    for r in results:
        miss = (
            f"{100 * r.l1_miss_rate:>7.2f}%"
            if r.l1_miss_rate is not None else f"{'—':>8s}"
        )
        print(
            f"{r.spec.protocol + '/' + r.spec.workload:<26s}"
            f" {r.operations:>9,d} {r.wall_s:>8.3f} {r.ops_per_s:>12,.0f}"
            f" {miss}"
        )

    comparison: Optional[Comparison] = None
    if baseline is not None:
        comparison = _print_comparison(report, baseline)

    comparison_output = getattr(args, "comparison_output", None)
    if comparison_output:
        if comparison is None:
            print(
                f"warning: no comparison to write to {comparison_output} "
                "(no baseline, or no comparable cells)", file=sys.stderr,
            )
        else:
            with open(comparison_output, "w") as fh:
                fh.write(format_comparison(comparison))
                fh.write("\n")
            print(f"wrote {comparison_output}", file=sys.stderr)

    if args.output:
        write_report(report, args.output)
        print(f"\nwrote {args.output}", file=sys.stderr)

    if args.profile:
        print(
            f"\n--- cProfile top {args.profile} (separate profiled pass, "
            f"excluded from timings) ---"
        )
        print(profile_cells(cells, args.profile))

    min_geomean = getattr(args, "min_geomean", None)
    if min_geomean is not None:
        gm = comparison.geomean_speedup if comparison is not None else None
        if gm is None:
            print(
                "error: --min-geomean needs a speedup to gate on — run "
                "with --baseline", file=sys.stderr,
            )
            return 2
        if gm < min_geomean:
            print(
                f"error: geomean speedup {gm:.3f}× is below the gate "
                f"{min_geomean:.3f}×", file=sys.stderr,
            )
            return 1
        print(
            f"geomean gate       {gm:.2f}× >= {min_geomean:.2f}× — ok",
            file=sys.stderr,
        )
    return 0
