"""Durable job records: ``<cache-dir>/serve/jobs/<job-id>.json``.

The store is the daemon's restart memory.  One small JSON document per
job records the submission itself — the full spec documents and the
retry policy — plus a coarse ``status``: ``active`` while any
point is outstanding, then ``done``/``partial``/``cancelled``.

Per-*point* progress is deliberately **not** duplicated here: each
completed point's result lives in the content-addressed
:class:`~repro.sweep.cache.ResultCache`, which is the checkpoint.  On
restart the daemon loads every ``active`` record, serves the points
the cache holds, and re-enqueues the rest — the same resume a re-run
of ``repro sweep`` gets.

Writes are atomic (temp file + ``os.replace``), so a crash mid-update
leaves the previous consistent record, never a torn one.  The daemon
ignores record keys it does not read, so records written by older
daemons, which carry more keys, still resume under the same
``SCHEMA``.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Union

__all__ = ["JobStore"]

_log = logging.getLogger("repro.serve.store")

#: job-record schema version
SCHEMA = 1


class JobStore:
    """Directory of per-job JSON records with atomic writes."""

    def __init__(self, cache_dir: Union[str, Path]) -> None:
        self.root = Path(cache_dir) / "serve" / "jobs"

    def path_for(self, job_id: str) -> Path:
        if not job_id or "/" in job_id or job_id.startswith("."):
            raise ValueError(f"bad job id {job_id!r}")
        return self.root / f"{job_id}.json"

    # ------------------------------------------------------------------

    def save(self, doc: Dict[str, Any]) -> None:
        doc = dict(doc)
        doc["schema"] = SCHEMA
        path = self.path_for(doc["job_id"])
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(doc, sort_keys=True))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def load_all(self) -> List[Dict[str, Any]]:
        """Every readable job record, oldest submission first."""
        if not self.root.is_dir():
            return []
        docs = []
        for path in sorted(self.root.glob("*.json")):
            try:
                doc = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                _log.warning("skipping unreadable job record %s (%s)",
                             path.name, exc)
                continue
            if isinstance(doc, dict) and "job_id" in doc:
                docs.append(doc)
        docs.sort(key=lambda d: d.get("created_unix", 0.0))
        return docs

    def load_active(self) -> List[Dict[str, Any]]:
        return [d for d in self.load_all() if d.get("status") == "active"]
