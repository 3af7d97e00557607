"""Unit tests for the durable job store."""

import json

import pytest

from repro.serve.store import JobStore


def doc(job_id="0001-abcd", status="active", created=100.0):
    return {
        "job_id": job_id,
        "status": status,
        "created_unix": created,
        "specs": [],
        "policy": {},
    }


def test_save_load_roundtrip(tmp_path):
    store = JobStore(tmp_path)
    store.save(doc())
    [got] = store.load_all()
    assert got["status"] == "active"
    assert got["schema"] == 1


def test_save_overwrites_atomically(tmp_path):
    store = JobStore(tmp_path)
    store.save(doc(status="active"))
    store.save(doc(status="done"))
    assert [d["status"] for d in store.load_all()] == ["done"]
    # no temp droppings left behind
    leftovers = [
        p.name for p in store.root.iterdir()
        if p.name.startswith(".tmp-")
    ]
    assert leftovers == []


def test_load_all_sorted_and_skips_garbage(tmp_path):
    store = JobStore(tmp_path)
    store.save(doc("b", created=2.0))
    store.save(doc("a", created=1.0))
    (store.root / "junk.json").write_text("{ not json")
    # a record of the wrong shape is skipped, not a crash of the sort
    store.save(dict(doc("c"), created_unix="x"))
    store.save(dict(doc("d"), specs=5))
    docs = store.load_all()
    assert [d["job_id"] for d in docs] == ["a", "b"]


def test_load_active_filters_status(tmp_path):
    store = JobStore(tmp_path)
    store.save(doc("x", status="active"))
    store.save(doc("y", status="done"))
    store.save(doc("z", status="partial"))
    assert [d["job_id"] for d in store.load_active()] == ["x"]


def test_bad_job_ids_rejected(tmp_path):
    store = JobStore(tmp_path)
    for bad in ("", "../escape", "a/b", ".hidden"):
        with pytest.raises(ValueError):
            store.path_for(bad)


def test_empty_store_dir(tmp_path):
    store = JobStore(tmp_path)
    assert store.load_all() == []
    assert store.load_active() == []
