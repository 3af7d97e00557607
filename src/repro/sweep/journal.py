"""Checkpoint journal: which grid points of a sweep already finished.

The journal is the sweep's crash-safe progress log.  One JSONL file
per *grid* (keyed by a fingerprint over the sorted spec fingerprints)
lives under ``<cache_dir>/journals/``; the runner appends one record
per completed or failed point as it happens, so a sweep killed halfway
— Ctrl-C, OOM, a pulled plug — leaves an accurate account of what ran.
The journal knows points only by their
:meth:`~repro.sweep.spec.RunSpec.fingerprint`, which its callers
compute once per point and pass in.

``python -m repro sweep --resume`` reads it back: completed points are
served from the result cache (their stats live there), and only the
failed/missing remainder is re-executed.

Appends are atomic in the only sense that matters here: each record is
a single short ``write()`` of one newline-terminated line to a file
opened in append mode, so concurrent writers (two sweeps sharing a
cache dir) interleave whole lines, never fragments.  Records for the
same fingerprint supersede each other — last one wins — which is how a
retried-and-recovered point overwrites its earlier failure.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

__all__ = ["SweepJournal", "gc_journals", "grid_fingerprint"]

_log = logging.getLogger("repro.sweep.journal")


def grid_fingerprint(fingerprints: Iterable[str]) -> str:
    """Order-independent identity of a whole grid, from its specs'
    fingerprints."""
    digest = hashlib.sha256()
    for fp in sorted(fingerprints):
        digest.update(fp.encode())
        digest.update(b"\n")
    return digest.hexdigest()


class SweepJournal:
    """Append-only per-grid completion log (one JSON object per line)."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    @classmethod
    def for_grid(
        cls, cache_dir: Union[str, Path], fingerprints: Iterable[str]
    ) -> "SweepJournal":
        """The journal of the grid whose specs have ``fingerprints``."""
        grid = grid_fingerprint(fingerprints)
        return cls(Path(cache_dir) / "journals" / f"{grid[:32]}.jsonl")

    # ------------------------------------------------------------------

    def record(
        self,
        fingerprint: str,
        status: str,
        *,
        attempts: int = 1,
        elapsed_s: float = 0.0,
        detail: str = "",
    ) -> None:
        """Append one completion record (``status`` is ``ok``/``failed``)."""
        if status not in ("ok", "failed"):
            raise ValueError(f"status must be 'ok' or 'failed', got {status!r}")
        line = (
            json.dumps(
                {
                    "fingerprint": fingerprint,
                    "status": status,
                    "attempts": attempts,
                    "elapsed_s": round(elapsed_s, 6),
                    "detail": detail,
                },
                sort_keys=True,
            )
            + "\n"
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # one write() of one line in O_APPEND mode: concurrent sweeps
        # interleave whole records, never fragments
        with open(self.path, "a") as fh:
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())

    def mark_complete(self, points: int) -> None:
        """Append a grid-complete marker: every one of ``points`` grid
        points finished ``ok``.

        The marker is what journal garbage collection keys on — a
        journal without one still describes work in flight (or failed)
        and is never pruned.  :meth:`load` skips marker lines (they
        carry no ``fingerprint``), so old readers are unaffected.
        """
        line = (
            json.dumps(
                {"grid_complete": True, "points": points}, sort_keys=True
            )
            + "\n"
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as fh:
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())

    def finish(self, ok: Sequence[bool]) -> None:
        """Mark the grid complete when every one of its points finished
        ok (one flag per point).

        The one rule both the sweep runner and the daemon apply when a
        grid ends: a fully-ok grid is done for good, so GC may prune it
        once the keep window passes; a grid with a failed or missing
        point stays unmarked, as resume state.
        """
        if ok and all(ok) and not self.is_complete():
            self.mark_complete(len(ok))

    def is_complete(self) -> bool:
        """True when a grid-complete marker has been recorded."""
        if not self.path.is_file():
            return False
        with open(self.path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(doc, dict) and doc.get("grid_complete"):
                    return True
        return False

    def touch(self) -> None:
        """Ensure the journal file exists (so ``--resume`` works even
        after a sweep interrupted before its first point completed)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a"):
            pass

    # ------------------------------------------------------------------

    def exists(self) -> bool:
        return self.path.is_file()

    def load(self) -> Dict[str, Dict[str, Any]]:
        """Latest record per fingerprint (empty when no journal yet).

        A torn final line (the writer died mid-append despite the
        single-write discipline, e.g. on a full disk) is ignored.
        """
        out: Dict[str, Dict[str, Any]] = {}
        if not self.path.is_file():
            return out
        with open(self.path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                    fp = doc["fingerprint"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    continue
                out[fp] = doc
        return out

    def summarize(self, fingerprints: Iterable[str]) -> Dict[str, Any]:
        """How a grid, given by its specs' fingerprints, stands against
        this journal.

        Returns ``{"ok": [...], "failed": [...], "missing": [...]}``
        fingerprint lists, in grid order.
        """
        records = self.load()
        ok, failed, missing = [], [], []
        for fp in fingerprints:
            rec: Optional[Mapping[str, Any]] = records.get(fp)
            if rec is None:
                missing.append(fp)
            elif rec.get("status") == "ok":
                ok.append(fp)
            else:
                failed.append(fp)
        return {"ok": ok, "failed": failed, "missing": missing}


def gc_journals(
    cache_dir: Union[str, Path],
    keep_s: float = 7 * 86400.0,
    now: Optional[float] = None,
) -> List[Path]:
    """Prune completed-grid journals older than the keep window.

    Journals accumulate forever otherwise — one file per distinct grid
    under ``<cache_dir>/journals/``.  Only journals carrying a
    grid-complete marker (see :meth:`SweepJournal.mark_complete`) are
    candidates: an incomplete journal is the resume state of a sweep
    that may still be finished.  Within the candidates, anything whose
    mtime is older than ``keep_s`` seconds is deleted.  Returns the
    pruned paths.
    """
    root = Path(cache_dir) / "journals"
    if not root.is_dir():
        return []
    cutoff = (time.time() if now is None else now) - keep_s
    pruned: List[Path] = []
    for path in sorted(root.glob("*.jsonl")):
        try:
            if path.stat().st_mtime > cutoff:
                continue
            if not SweepJournal(path).is_complete():
                continue
            path.unlink()
        except OSError:  # pragma: no cover - raced with another pruner
            continue
        pruned.append(path)
    if pruned:
        _log.info("journal gc: pruned %d completed-grid journal(s)",
                  len(pruned))
    return pruned
