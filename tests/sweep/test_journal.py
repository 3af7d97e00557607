"""Unit tests for the sweep checkpoint journal."""

import json

import pytest

from repro.sim.config import small_test_chip
from repro.sweep import RunSpec, SweepJournal, grid_fingerprint
from repro.sweep.spec import config_to_dict

TINY = config_to_dict(small_test_chip())


def specs(n=3):
    return [
        RunSpec(
            protocol="dico",
            workload="radix",
            seed=s,
            cycles=1_000,
            warmup=100,
            config=TINY,
        )
        for s in range(1, n + 1)
    ]


def test_grid_fingerprint_is_order_independent():
    grid = [s.fingerprint() for s in specs()]
    assert grid_fingerprint(grid) == grid_fingerprint(list(reversed(grid)))
    assert grid_fingerprint(grid) != grid_fingerprint(grid[:2])


def test_record_and_load_last_wins(tmp_path):
    journal = SweepJournal(tmp_path / "j.jsonl")
    journal.record("a" * 64, "failed", attempts=1, detail="boom")
    journal.record("b" * 64, "ok", attempts=1, elapsed_s=0.5)
    journal.record("a" * 64, "ok", attempts=2)  # retry recovered
    records = journal.load()
    assert records["a" * 64]["status"] == "ok"
    assert records["a" * 64]["attempts"] == 2
    assert records["b" * 64]["elapsed_s"] == 0.5
    # three physical lines: append-only, superseded not rewritten
    assert len(journal.path.read_text().splitlines()) == 3


def test_invalid_status_rejected(tmp_path):
    journal = SweepJournal(tmp_path / "j.jsonl")
    with pytest.raises(ValueError, match="status"):
        journal.record("a" * 64, "meh")


def test_torn_final_line_is_ignored(tmp_path):
    journal = SweepJournal(tmp_path / "j.jsonl")
    journal.record("a" * 64, "ok")
    with open(journal.path, "a") as fh:
        fh.write('{"fingerprint": "bbbb", "stat')  # torn write
    records = journal.load()
    assert list(records) == ["a" * 64]


def test_summarize_partitions_the_grid(tmp_path):
    fps = [s.fingerprint() for s in specs()]
    journal = SweepJournal.for_grid(tmp_path, fps)
    journal.record(fps[0], "ok")
    journal.record(fps[2], "failed", detail="crash")
    standing = journal.summarize(fps)
    assert standing["ok"] == [fps[0]]
    assert standing["failed"] == [fps[2]]
    assert standing["missing"] == [fps[1]]


def test_for_grid_path_is_stable_per_grid(tmp_path):
    grid = [s.fingerprint() for s in specs()]
    a = SweepJournal.for_grid(tmp_path, grid)
    b = SweepJournal.for_grid(tmp_path, list(reversed(grid)))
    assert a.path == b.path
    other = SweepJournal.for_grid(tmp_path, grid[:2])
    assert other.path != a.path
    assert a.path.parent == tmp_path / "journals"


def test_touch_creates_empty_journal(tmp_path):
    journal = SweepJournal(tmp_path / "journals" / "j.jsonl")
    assert not journal.exists()
    journal.touch()
    assert journal.exists()
    assert journal.load() == {}
    # touching again never truncates
    journal.record("a" * 64, "ok")
    journal.touch()
    assert len(journal.load()) == 1


def test_records_are_single_json_lines(tmp_path):
    journal = SweepJournal(tmp_path / "j.jsonl")
    journal.record("a" * 64, "ok", attempts=1, elapsed_s=1.25, detail="")
    line = journal.path.read_text()
    assert line.endswith("\n") and line.count("\n") == 1
    doc = json.loads(line)
    assert doc == {
        "fingerprint": "a" * 64,
        "status": "ok",
        "attempts": 1,
        "elapsed_s": 1.25,
        "detail": "",
    }


# -------------------------------------------------------- completion + GC


def test_mark_complete_and_is_complete(tmp_path):
    journal = SweepJournal(tmp_path / "j.jsonl")
    journal.record("a" * 64, "ok")
    assert not journal.is_complete()
    journal.mark_complete(points=1)
    assert journal.is_complete()
    # the marker is invisible to load()/summarize() readers
    assert list(journal.load()) == ["a" * 64]


def test_gc_prunes_only_old_completed_journals(tmp_path):
    import os

    from repro.sweep import gc_journals

    root = tmp_path / "journals"
    done_old = SweepJournal(root / "done-old.jsonl")
    done_old.record("a" * 64, "ok")
    done_old.mark_complete(1)
    done_new = SweepJournal(root / "done-new.jsonl")
    done_new.record("b" * 64, "ok")
    done_new.mark_complete(1)
    inflight_old = SweepJournal(root / "inflight-old.jsonl")
    inflight_old.record("c" * 64, "failed", detail="boom")

    old = 1_000_000.0
    os.utime(done_old.path, (old, old))
    os.utime(inflight_old.path, (old, old))

    pruned = gc_journals(tmp_path, keep_s=7 * 86400.0)
    assert [p.name for p in pruned] == ["done-old.jsonl"]
    assert not done_old.path.exists()
    # recent completed journals stay within the keep window
    assert done_new.path.exists()
    # incomplete journals are resume state: never pruned, however old
    assert inflight_old.path.exists()


def test_gc_injectable_now_and_missing_dir(tmp_path):
    from repro.sweep import gc_journals

    assert gc_journals(tmp_path / "nowhere") == []
    journal = SweepJournal(tmp_path / "journals" / "j.jsonl")
    journal.record("a" * 64, "ok")
    journal.mark_complete(1)
    mtime = journal.path.stat().st_mtime
    assert gc_journals(tmp_path, keep_s=60.0, now=mtime + 30.0) == []
    pruned = gc_journals(tmp_path, keep_s=60.0, now=mtime + 61.0)
    assert [p.name for p in pruned] == ["j.jsonl"]


def test_runner_marks_fully_ok_grid_complete(tmp_path):
    from repro.sweep import SweepRunner

    grid = specs(2)
    grid = [
        RunSpec(
            protocol=s.protocol, workload=s.workload, seed=s.seed,
            cycles=1_500, warmup=500, config=TINY,
        )
        for s in grid
    ]
    SweepRunner(jobs=1, cache_dir=tmp_path, progress=False).run(grid)
    journal = SweepJournal.for_grid(tmp_path, [s.fingerprint() for s in grid])
    assert journal.is_complete()
