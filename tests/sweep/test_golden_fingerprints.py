"""Committed golden fingerprints: each spec's content identity pinned
across commits.

:meth:`RunSpec.fingerprint` is the sha256 of a spec's canonical JSON.
Fault-plan rules, the daemon's single-flight map and every
result-cache key are derived from it, so a change that moves a
fingerprint orphans all of them.  ``golden_fingerprints.json`` holds the
fingerprints of reference specs that between them take every branch of
:meth:`RunSpec.to_dict` and :meth:`RunSpec.canonical_json`: aligned,
``alt`` and explicit placements, the paper-scaled chip and a ``config``
document, ``overrides``, ``protocol_kwargs``, registry-resolved and
pinned ``workload_specs`` (one a mix), a plan-armed spec, and protocol
aliases.  After an intentional change to the identity, regenerate the
file with::

    PYTHONPATH=src python -m tests.sweep.test_golden_fingerprints
"""

import json
from pathlib import Path
from typing import Dict

import pytest

from repro.sim.config import small_test_chip
from repro.sweep.spec import RunSpec, config_to_dict, snapshot_workload

GOLDEN = Path(__file__).with_name("golden_fingerprints.json")

#: a legal storyline for the 4x4 small test chip with 4 VMs
PLAN = {
    "seed": 9,
    "events": [
        {"cycle": 900, "kind": "vm_migrate", "vm": 0,
         "tiles": [10, 11, 14, 15]},
        {"cycle": 400, "kind": "vm_depart", "vm": 3},
        {"cycle": 1_200, "kind": "dedup_break", "vm": 1, "pages": 2},
    ],
}


def _pinned_workload():
    # registry content for three VMs, hand-edited content for the fourth
    specs = [(vm, dict(doc)) for vm, doc in snapshot_workload("mixed-sci", 4)]
    specs[3][1].update(zipf_s=1.25, think=[2, 6])
    return tuple(specs)


def reference_specs() -> Dict[str, RunSpec]:
    small = config_to_dict(small_test_chip())
    tiny = dict(cycles=2_000, warmup=500, config=small)
    return {
        "paper-chip-aligned": RunSpec("directory", "apache"),
        "alt-placement": RunSpec("vh", "jbb", seed=3, placement="alt"),
        "explicit-placement": RunSpec(
            "dls", "tomcatv", n_vms=2,
            placement={0: [0, 1, 4, 5], 1: [10, 11, 14, 15]}, **tiny,
        ),
        "config-doc-mix": RunSpec("dico", "mixed-com", seed=2, **tiny),
        "overrides": RunSpec(
            "dico-arin", "radix",
            overrides=(("l1c_entries", 64), ("noc.model_contention", True)),
            **tiny,
        ),
        "protocol-kwargs": RunSpec(
            "dico-arin", "lu",
            protocol_kwargs={"provider_on_read": False}, **tiny,
        ),
        "pinned-workload": RunSpec(
            "moesi-snoop", "mixed-sci", workload_specs=_pinned_workload(),
            **tiny,
        ),
        "plan-armed": RunSpec("dico", "radix", seed=2, plan=PLAN, **tiny),
        "alias-providers": RunSpec("providers", "volrend", **tiny),
        "alias-mesi": RunSpec("mesi", "apache", seed=7),
    }


def fingerprints() -> Dict[str, str]:
    return {name: spec.fingerprint() for name, spec in reference_specs().items()}


def test_golden_names_match_the_reference_specs():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(reference_specs())


@pytest.mark.parametrize("name", sorted(reference_specs()))
def test_spec_matches_its_golden_fingerprint(name):
    spec = reference_specs()[name]
    assert spec.fingerprint() == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(fingerprints(), indent=2, sort_keys=True) + "\n")
