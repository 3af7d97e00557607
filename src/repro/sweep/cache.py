"""Content-keyed on-disk cache of simulation results.

Every grid point of a sweep is deterministic: the same
:class:`~repro.sweep.spec.RunSpec` always produces the same
:class:`~repro.stats.counters.RunStats`, bit for bit.  That makes
results cacheable by content — the key is a SHA-256 over the spec's
fingerprint (:meth:`~repro.sweep.spec.RunSpec.fingerprint`, the
SHA-256 of its canonical JSON) plus a fingerprint of the simulator's
own source code, so editing *any* module under ``repro`` invalidates
the whole cache (cheap insurance against stale results; simulations
are expensive, hashing ~50 source files is not).

Every method takes the spec and, optionally, that fingerprint: the
sweep runner and the serve daemon compute it once per point and pass
it, because building a spec's canonical JSON costs more than the rest
of a cache hit.  Without it the cache computes the same value, so both
forms reach the same entry.

Cache entries are small JSON documents written atomically (temp file +
``os.replace``), so concurrent sweeps sharing one cache directory
never observe torn writes.  Every entry embeds its stats document's
``stats_sha256`` (:func:`~repro.stats.io.stats_digest`) as a checksum;
a read validates it, and an entry that fails to parse or verify is
*quarantined* — renamed to ``<name>.corrupt`` with a logged warning,
never silently deleted — and reported as a miss, so a flipped bit on
disk costs one re-simulation and leaves the evidence behind.  Only
codec and OS errors are treated this way;
``KeyboardInterrupt``/``SystemExit`` always propagate.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

from ..stats.counters import RunStats
from ..stats.io import stats_digest, stats_from_dict, stats_to_dict
from .spec import RunSpec

__all__ = ["ResultCache", "code_fingerprint"]

_log = logging.getLogger("repro.sweep.cache")

_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over the ``repro`` package sources (memoized per process).

    Hashes ``(relative path, file bytes)`` of every ``*.py`` under the
    package root in sorted order, so renames and edits both change it.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


class ResultCache:
    """Directory of ``{spec, stats}`` JSON documents keyed by content."""

    def __init__(
        self, root: str | Path, code_version: Optional[str] = None
    ) -> None:
        self.root = Path(root)
        self.code_version = (
            code_fingerprint() if code_version is None else code_version
        )
        self.hits = 0
        self.misses = 0
        #: corrupt entries moved aside by this process — silent corruption
        #: under load must show up in summaries, not just a log line
        self.quarantined = 0

    def counters(self) -> Dict[str, int]:
        """Structured cache health counters for sweep/serve summaries."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "quarantined": self.quarantined,
        }

    # ------------------------------------------------------------------

    def key_for(self, spec: RunSpec, fingerprint: Optional[str] = None) -> str:
        """Entry key of ``spec``; ``fingerprint`` is its
        :meth:`~repro.sweep.spec.RunSpec.fingerprint`, when known."""
        if fingerprint is None:
            fingerprint = spec.fingerprint()
        payload = fingerprint + "\n" + self.code_version
        return hashlib.sha256(payload.encode()).hexdigest()

    def path_for(self, spec: RunSpec, fingerprint: Optional[str] = None) -> Path:
        key = self.key_for(spec, fingerprint)
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------

    def get(
        self, spec: RunSpec, fingerprint: Optional[str] = None
    ) -> Optional[RunStats]:
        """Cached stats for ``spec``, or ``None``.

        A missing entry is a plain miss.  An entry that exists but is
        unreadable — malformed JSON, missing keys, a checksum mismatch
        — is quarantined (renamed to ``<name>.corrupt``) with a warning
        and reported as a miss.  Only specific codec/OS errors are
        caught; interrupts and exits propagate untouched.
        """
        path = self.path_for(spec, fingerprint)
        try:
            raw = path.read_text()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError as exc:
            _log.warning("cache entry %s unreadable (%s); treating as miss",
                         path, exc)
            self.misses += 1
            return None
        try:
            doc = json.loads(raw)
            recorded = doc["checksum"]
            stats_doc = doc["stats"]
            if stats_digest(stats_doc) != recorded:
                raise ValueError(
                    f"checksum mismatch (recorded {recorded[:12]}…)"
                )
            stats = stats_from_dict(stats_doc)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            self._quarantine(path, exc)
            self.misses += 1
            return None
        self.hits += 1
        return stats

    def _quarantine(self, path: Path, reason: BaseException) -> None:
        """Move a corrupt entry aside (keep the evidence, free the key)."""
        target = path.with_suffix(path.suffix + ".corrupt")
        try:
            os.replace(path, target)
        except OSError:  # pragma: no cover - raced with another reader
            target = path
        self.quarantined += 1
        _log.warning(
            "quarantined corrupt cache entry %s -> %s (%s: %s)",
            path.name, target.name, type(reason).__name__, reason,
        )

    def put(
        self,
        spec: RunSpec,
        stats: RunStats,
        elapsed_s: float,
        fingerprint: Optional[str] = None,
    ) -> None:
        path = self.path_for(spec, fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        stats_doc = stats_to_dict(stats)
        doc: Dict[str, Any] = {
            "spec": spec.to_dict(),
            "code_version": self.code_version,
            "elapsed_s": round(elapsed_s, 6),
            "stats": stats_doc,
            "checksum": stats_digest(stats_doc),
        }
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(doc, sort_keys=True))
            os.replace(tmp, path)
        finally:
            # plain cleanup, not an exception handler: nothing is ever
            # caught or swallowed here (a successful os.replace already
            # consumed the temp file)
            if os.path.exists(tmp):
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every cached entry; returns how many were removed."""
        removed = 0
        for path in self.root.glob("*/*.json"):
            path.unlink()
            removed += 1
        return removed
