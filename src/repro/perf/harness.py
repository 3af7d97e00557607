"""The three helpers the repo benchmark (``perfbench/``) imports.

``perfbench/bench.py`` imports :func:`geomean` and :func:`stats_digest`
from here, and ``perfbench/run.py`` imports :func:`git_rev`.  The two
re-exports are defined in :mod:`repro.stats.io` and
:mod:`repro.trace.manifest`; this module keeps their old import path
working for the benchmark.
"""

from __future__ import annotations

from typing import Sequence

from ..stats.io import stats_digest
from ..trace.manifest import git_rev

__all__ = ["geomean", "git_rev", "stats_digest"]


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
