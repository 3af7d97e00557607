"""The settable surface: every environment knob and failure-policy field.

Each settable value is a mode someone has to keep working.  This pins
the count, so adding one is a visible decision: the ``REPRO_*``
environment knobs the code reads, the ones the docs describe, and the
fields of :class:`~repro.faults.FaultPolicy`.
"""

import dataclasses
import re
from pathlib import Path

from repro.faults import FaultPolicy

ROOT = Path(__file__).resolve().parents[1]

KNOBS = {"REPRO_SWEEP_JOBS", "REPRO_SWEEP_CACHE", "REPRO_TRACE_DIR"}


def test_settable_surface_is_three_knobs_and_three_policy_fields():
    quoted = re.compile(r"""["'](REPRO_[A-Z0-9_]+)["']""")
    found = set()
    for tree in ("src", "benchmarks"):
        for path in (ROOT / tree).rglob("*.py"):
            found.update(quoted.findall(path.read_text(encoding="utf-8")))
    assert found == KNOBS
    documented = set(
        re.findall(
            r"REPRO_[A-Z0-9_]*[A-Z0-9]",
            (ROOT / "docs" / "SIMULATOR.md").read_text(encoding="utf-8"),
        )
    )
    assert documented <= KNOBS
    names = [f.name for f in dataclasses.fields(FaultPolicy)]
    assert names == ["timeout_s", "max_retries", "on_failure"]
