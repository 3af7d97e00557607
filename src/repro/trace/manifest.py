"""Per-run provenance manifests.

A :class:`RunManifest` is the "what exactly produced these numbers"
document written alongside a run's results: the canonical-config
fingerprint and full spec document, the seed, the git revision of the
simulator tree, both schema versions (manifest + stats), the measured
wall time, and which instruments (tracer, checker, watchdog) were
attached.  Two runs with equal fingerprints and seeds are bit-identical
by the determinism suite, so the manifest is sufficient to reproduce or
cache a result.
"""

from __future__ import annotations

import functools
import json
import subprocess
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

__all__ = ["MANIFEST_SCHEMA_VERSION", "RunManifest", "git_rev"]

#: bump when the manifest document shape changes
MANIFEST_SCHEMA_VERSION = 3

#: loadable document versions (2 added the ``watchdog`` verdict, so a
#: version-1 document simply has no verdict recorded; 3 dropped the
#: ``fast_path`` and ``engine`` fields, which older documents carry and
#: loading ignores)
_LOADABLE_SCHEMAS = (1, 2, 3)


@functools.lru_cache(maxsize=None)
def git_rev(repo_dir: Optional[Union[str, Path]] = None) -> str:
    """Git revision of the checkout at ``repo_dir``, by default the one
    this module was loaded from (``unknown`` outside a checkout).

    Read once per process and ``repo_dir``: a traced sweep asks once per
    point, and a long-lived worker or daemon reports the revision of
    the code it loaded, not of whatever is checked out since.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo_dir or Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


@dataclass
class RunManifest:
    """Provenance for one simulated run."""

    protocol: str
    workload: str
    seed: int
    cycles: int
    warmup: int
    #: sha256 over the spec's canonical JSON (``RunSpec.fingerprint``)
    config_fingerprint: str
    git_rev: str
    stats_schema: int
    wall_time_s: float
    created_unix: float
    #: attached instruments, e.g. ``["tracer", "checker"]``
    instruments: List[str] = field(default_factory=list)
    #: progress-watchdog verdict: ``"ok"``, or
    #: ``"livelock: <diagnostic>"`` when the run was aborted stuck
    #: (manifests written while the watchdog could be disabled may
    #: also read ``"off"``)
    watchdog: Optional[str] = None
    trace_path: Optional[str] = None
    #: the full ``RunSpec`` document (``RunSpec.to_dict()``)
    spec: Dict[str, Any] = field(default_factory=dict)
    schema: int = MANIFEST_SCHEMA_VERSION

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "RunManifest":
        if doc.get("schema") not in _LOADABLE_SCHEMAS:
            raise ValueError(
                f"unsupported manifest schema {doc.get('schema')!r} "
                f"(expected one of {_LOADABLE_SCHEMAS})"
            )
        return cls(
            protocol=doc["protocol"],
            workload=doc["workload"],
            seed=doc["seed"],
            cycles=doc["cycles"],
            warmup=doc["warmup"],
            config_fingerprint=doc["config_fingerprint"],
            git_rev=doc["git_rev"],
            stats_schema=doc["stats_schema"],
            wall_time_s=doc["wall_time_s"],
            created_unix=doc["created_unix"],
            instruments=list(doc.get("instruments", [])),
            watchdog=doc.get("watchdog"),
            trace_path=doc.get("trace_path"),
            spec=dict(doc.get("spec", {})),
            schema=doc["schema"],
        )

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True))
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunManifest":
        return cls.from_dict(json.loads(Path(path).read_text()))
