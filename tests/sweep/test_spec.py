"""Unit tests for RunSpec serialization, keys and config overrides."""

import json

import pytest

from repro.sim.config import DEFAULT_CHIP, ConfigError, small_test_chip
from repro.sweep.spec import (
    RunSpec,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    placement_spec,
    snapshot_workload,
)
from repro.workloads.placement import VMPlacement


def tiny_spec(**kwargs) -> RunSpec:
    defaults = dict(
        protocol="dico",
        workload="radix",
        seed=2,
        cycles=2_000,
        warmup=500,
        config=config_to_dict(small_test_chip()),
    )
    defaults.update(kwargs)
    return RunSpec(**defaults)


def test_config_round_trip():
    for cfg in (DEFAULT_CHIP, small_test_chip()):
        assert config_from_dict(config_to_dict(cfg)) == cfg
    # survives JSON text too
    doc = json.loads(json.dumps(config_to_dict(DEFAULT_CHIP)))
    assert config_from_dict(doc) == DEFAULT_CHIP


def test_apply_overrides_flat_and_nested():
    cfg = apply_overrides(
        DEFAULT_CHIP,
        (("l1c_entries", 256), ("noc.model_contention", True)),
    )
    assert cfg.l1c_entries == 256
    assert cfg.noc.model_contention is True
    # base untouched (frozen dataclasses)
    assert DEFAULT_CHIP.l1c_entries == 2048
    assert DEFAULT_CHIP.noc.model_contention is False


def test_spec_round_trip_through_json():
    spec = tiny_spec(
        protocol="dico-arin",
        overrides=(("l1c_entries", 64),),
        protocol_kwargs={"provider_on_read": False},
        workload_specs=snapshot_workload("radix", 4),
    )
    doc = json.loads(json.dumps(spec.to_dict()))
    assert RunSpec.from_dict(doc) == spec


def test_from_dict_defaults_omitted_keys():
    # hand-written documents (a served curl body) name only the
    # required keys; everything else takes the field default
    from repro.sim.config import ConfigError

    sparse = RunSpec.from_dict({"protocol": "dico", "workload": "radix"})
    assert sparse == RunSpec(protocol="dico", workload="radix")
    with pytest.raises(ConfigError, match="workload: missing required key"):
        RunSpec.from_dict({"protocol": "dico"})


@pytest.mark.parametrize(
    "change, key, message",
    [
        ({"overrides": 5}, "overrides", "expected a list of pairs"),
        ({"overrides": [[1]]}, "overrides", r"overrides\[0\]: expected a pair"),
        ({"overrides": [["bogus", 1]]}, "overrides", "unknown config override"),
        ({"workload_specs": [1]}, "workload_specs",
         r"workload_specs\[0\]: expected a pair"),
        ({"plan": {"events": "x"}}, "plan", "plan.events must be a list"),
        ({"plan": {"events": [5]}}, "plan", r"plan\.events\[0\] must be an"),
        ({"plan": {"events": [{"cycle": "x", "kind": "vm_depart", "vm": 0}]}},
         "plan", r"plan\.events\[0\]: invalid literal"),
        ({"config": {"mesh_width": 4}}, "config",
         "missing key config.mesh_height"),
        ({"config": dict(config_to_dict(small_test_chip()), l1=5)}, "config",
         "config.l1: "),
        ({"config": dict(config_to_dict(small_test_chip()), mesh_width="4")},
         "config", "config.mesh_width: expected an integer"),
        ({"plan": {"seed": "x", "events": []}}, "plan", "plan.seed: "),
    ],
)
def test_malformed_document_is_a_config_error_naming_its_key(
    change, key, message
):
    from repro.sim.config import ConfigError

    doc = dict(tiny_spec().to_dict(), **change)
    with pytest.raises(ConfigError, match=message) as exc:
        RunSpec.from_dict(doc)
    assert exc.value.key == key


@pytest.mark.parametrize(
    "change, key, message",
    [
        ({"protocol": ["dico"]}, "protocol", "expected a name"),
        ({"workload": 5}, "workload", "expected a name"),
        ({"workload": "nope"}, "workload", "unknown workload 'nope'"),
        ({"overrides": [["l1.assoc", "x"]]}, "overrides", "l1.assoc='x'"),
        ({"overrides": [["l1c_entries", "x"]]}, "overrides",
         "l1c_entries='x'"),
        ({"n_vms": 1000}, "placement", "'aligned' placement of 1000 VMs"),
        ({"placement": "alt", "n_vms": 3}, "placement",
         "'alt' placement of 3 VMs"),
    ],
)
def test_bad_value_is_a_config_error_where_the_spec_is_built(
    change, key, message
):
    # each used to build a spec (or raise TypeError/KeyError) and fail
    # only when a worker built the chip or the cache hashed the spec
    doc = dict(tiny_spec().to_dict(), **change)
    with pytest.raises(ConfigError, match=message) as exc:
        RunSpec.from_dict(doc)
    assert exc.value.key == key


def test_pinned_workload_content_needs_no_registered_name():
    specs = snapshot_workload("radix", 4)
    spec = tiny_spec(workload="radix-copy", workload_specs=specs)
    assert spec.fingerprint() != tiny_spec().fingerprint()


def test_canonical_json_is_stable_and_content_sensitive():
    a, b = tiny_spec(), tiny_spec()
    assert a.canonical_json() == b.canonical_json()
    assert a.canonical_json() != tiny_spec(seed=3).canonical_json()
    assert (
        a.canonical_json()
        != tiny_spec(overrides=(("l1c_entries", 64),)).canonical_json()
    )


def test_canonical_json_resolves_workload_content():
    """A spec without embedded workload specs keys by resolved content,
    so registry edits change the key."""
    from repro.workloads import spec as spec_module

    plain = tiny_spec()
    before = plain.canonical_json()
    original = spec_module.BENCHMARKS["radix"]
    import dataclasses

    spec_module.BENCHMARKS["radix"] = dataclasses.replace(
        original, reuse_prob=0.123
    )
    try:
        assert plain.canonical_json() != before
    finally:
        spec_module.BENCHMARKS["radix"] = original
    assert plain.canonical_json() == before


def test_placement_spec_round_trip():
    placement = VMPlacement.alternative(4, 4, 2)
    doc = placement_spec(placement)
    rebuilt = VMPlacement(
        {int(vm): tuple(tiles) for vm, tiles in doc.items()}
    )
    assert rebuilt.tiles_used == placement.tiles_used
    for vm in range(2):
        assert rebuilt.tiles_of(vm) == placement.tiles_of(vm)


@pytest.mark.parametrize(
    "placement",
    [
        {"0": 5},
        {"x": [1]},
        {"0": []},
        {"0": [0, 1], "1": [1, 2]},
        {"0": [999]},
        {"0": ["a"]},
        {"0": [0.5]},
        {"0": [True]},
        {"0": [-1]},
        {},
        {-1: [0]},
        {0: [0], "0": [1]},
    ],
)
def test_bad_explicit_placement_is_a_config_error(placement):
    # each used to build a spec whose chip then failed (or ran on the
    # wrong tiles) in whichever worker built it
    with pytest.raises(ConfigError) as err:
        tiny_spec(placement=placement, n_vms=2)
    assert err.value.key == "placement"


def test_explicit_placement_keeps_its_document_and_builds_its_chip():
    placement = {"1": [9, 10], 0: (0, 3, 5)}
    spec = tiny_spec(placement=placement, n_vms=2)
    assert spec.to_dict()["placement"] == {"1": [9, 10], "0": [0, 3, 5]}
    chip = spec.build_chip()
    assert chip.placement.tiles_of(0) == (0, 3, 5)
    assert chip.placement.tiles_of(1) == (9, 10)


def test_build_chip_rejects_unknown_placement_name():
    with pytest.raises(ValueError):
        tiny_spec(placement="diagonal").build_chip()


def test_execute_is_deterministic():
    spec = tiny_spec()
    assert spec.execute().summary() == spec.execute().summary()


def test_specs_are_hashable():
    a = tiny_spec(protocol="dico-arin", protocol_kwargs={"provider_on_read": True})
    b = tiny_spec(protocol="dico-arin", protocol_kwargs={"provider_on_read": True})
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_alias_canonicalizes_to_a_stable_fingerprint():
    # the registry resolves aliases in __post_init__, so the sweep
    # result cache never depends on which spelling the caller typed
    a = tiny_spec(protocol="providers")
    b = tiny_spec(protocol="dico-providers")
    assert a.protocol == "dico-providers"
    assert a.fingerprint() == b.fingerprint()
    assert tiny_spec(protocol="mesi").protocol == "mesi-snoop"


def test_unknown_protocol_rejected_via_registry():
    from repro.sim.config import ConfigError

    with pytest.raises(ConfigError, match="unknown protocol"):
        tiny_spec(protocol="mosi")


def test_unknown_protocol_kwarg_rejected_at_construction():
    """A key the protocol's constructor does not take is a ConfigError
    naming the protocol's options, not a TypeError in every attempt."""
    from repro.sim.config import ConfigError

    with pytest.raises(
        ConfigError, match="protocol_kwargs: dico takes no option bogus"
    ):
        tiny_spec(protocol_kwargs={"bogus": 1})
    with pytest.raises(ConfigError, match="options: provider_on_read"):
        tiny_spec(protocol="dico-arin", protocol_kwargs={"bogus": 1})
    # one protocol's option is unknown to another
    with pytest.raises(ConfigError, match="its options: none"):
        tiny_spec(
            protocol="dico-providers",
            protocol_kwargs={"provider_on_read": False},
        )
    with pytest.raises(ConfigError, match="expected a mapping"):
        tiny_spec(protocol_kwargs=[("bogus", 1)])
    spec = tiny_spec(
        protocol="dico-arin", protocol_kwargs={"provider_on_read": False}
    )
    assert spec.build_chip().protocol.provider_on_read is False


def test_unknown_override_key_rejected():
    from repro.sweep.spec import valid_override_keys

    with pytest.raises(ValueError, match="l1c_entries"):
        apply_overrides(DEFAULT_CHIP, (("l1c_entres", 256),))
    with pytest.raises(ValueError, match="noc.model_contention"):
        apply_overrides(DEFAULT_CHIP, (("noc.contention", True),))
    # the error names every valid dotted path
    keys = valid_override_keys()
    assert "l1.size_bytes" in keys
    assert "memory.latency_cycles" in keys
    assert "mesh_width" in keys
    assert keys == tuple(sorted(keys))
    # every advertised key really is replaceable
    cfg = apply_overrides(
        DEFAULT_CHIP,
        tuple((k, getattr_path(DEFAULT_CHIP, k)) for k in keys),
    )
    assert cfg == DEFAULT_CHIP


def getattr_path(obj, dotted):
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


# ---------------------------------------------------------------------------
# consolidation plans on specs

#: a legal storyline for the 4x4 small test chip with 4 VMs: VM 3
#: vacates, then VM 0 migrates onto its area
PLAN_DOC = {
    "seed": 9,
    "events": [
        {"cycle": 400, "kind": "vm_depart", "vm": 3},
        {"cycle": 900, "kind": "vm_migrate", "vm": 0,
         "tiles": [10, 11, 14, 15]},
        {"cycle": 1_200, "kind": "dedup_break", "vm": 1, "pages": 2},
    ],
}


def test_plan_round_trips_and_hashes():
    spec = tiny_spec(plan=PLAN_DOC)
    doc = json.loads(json.dumps(spec.to_dict()))
    assert doc["plan"]["events"][0]["kind"] == "vm_depart"
    rebuilt = RunSpec.from_dict(doc)
    assert rebuilt == spec
    assert hash(rebuilt) == hash(spec)


def test_static_spec_emits_no_plan_key():
    # pre-plan documents and fingerprints must stay byte-identical:
    # the key only appears when a non-empty plan is armed
    assert "plan" not in tiny_spec().to_dict()
    assert "plan" not in tiny_spec(plan=None).to_dict()


def test_empty_plan_normalizes_to_static():
    empty = tiny_spec(plan={"seed": 5, "events": []})
    static = tiny_spec()
    assert empty.plan is None
    assert empty.fingerprint() == static.fingerprint()
    assert empty.canonical_json() == static.canonical_json()


def test_plan_changes_the_fingerprint():
    assert tiny_spec(plan=PLAN_DOC).fingerprint() != tiny_spec().fingerprint()


def test_plan_events_canonically_cycle_sorted():
    shuffled = dict(PLAN_DOC, events=list(reversed(PLAN_DOC["events"])))
    spec = tiny_spec(plan=shuffled)
    cycles = [ev["cycle"] for ev in spec.to_dict()["plan"]["events"]]
    assert cycles == sorted(cycles)
    assert spec.fingerprint() == tiny_spec(plan=PLAN_DOC).fingerprint()


def test_non_mapping_plan_rejected_at_construction():
    from repro.sim.config import ConfigError

    with pytest.raises(ConfigError, match="plan"):
        tiny_spec(plan=[1, 2])


@pytest.mark.parametrize(
    "field, value",
    [
        ("reuse_window", 0),
        ("reuse_prob", 1.5),
        ("dedup_scan_frac", 2.0),
        ("dedup_scan_pages", -3),
        ("no_such_field", 1),
    ],
)
def test_bad_workload_document_rejected_at_construction(field, value):
    """A pinned workload document is parsed when the spec is built, so
    ``reuse_window=0`` is a ConfigError naming ``workload_specs``, not
    an IndexError from the reference stream mid-run."""
    from repro.sim.config import ConfigError

    docs = [(vm, dict(doc)) for vm, doc in snapshot_workload("apache", 4)]
    docs[1][1][field] = value
    with pytest.raises(ConfigError, match=field) as exc:
        tiny_spec(workload="apache", workload_specs=tuple(docs))
    assert exc.value.key == "workload_specs"


def test_plan_event_missing_a_key_names_its_path():
    from repro.sim.config import ConfigError

    plan = {"events": [{"kind": "vm_depart"}]}
    with pytest.raises(ConfigError, match=r"plan\.events\[0\]\.cycle"):
        tiny_spec(plan=plan)


def test_plan_label_mentions_event_count():
    assert "plan[3]" in tiny_spec(plan=PLAN_DOC).label


def test_bad_config_rejected_at_construction():
    from repro.sim.config import ConfigError

    # the override is a valid key whose value only fails once applied
    # (1 KiB L1 is not a multiple of 3 ways x 64 B): it must fail when
    # the spec is built, not later in whichever worker builds the chip
    with pytest.raises(ConfigError, match="size_bytes"):
        tiny_spec(overrides=(("l1.assoc", 3),))
    config = config_to_dict(small_test_chip())
    config["l1"] = dict(config["l1"], assoc=3)
    with pytest.raises(ConfigError, match="size_bytes"):
        tiny_spec(config=config)


def test_plan_validated_at_construction_names_event():
    from repro.sim.config import ConfigError

    late = {"seed": 0, "events": [
        {"cycle": 99_999, "kind": "dedup_break", "vm": 0, "pages": 1},
    ]}
    with pytest.raises(ConfigError, match=r"event 0 \(dedup_break, vm 0\)"):
        tiny_spec(plan=late)
    overlap = {"seed": 0, "events": [
        {"cycle": 100, "kind": "vm_migrate", "vm": 0,
         "tiles": [2, 3, 6, 7]},
    ]}
    with pytest.raises(ConfigError, match=r"overlaps tiles of VM\(s\) \[1\]"):
        tiny_spec(plan=overlap)


def test_plan_validates_against_custom_placement():
    from repro.sim.config import ConfigError

    placement = {"0": [0, 3, 5], "1": [9, 10, 12]}
    ok = tiny_spec(placement=placement, n_vms=2, plan={"seed": 0, "events": [
        {"cycle": 100, "kind": "vm_migrate", "vm": 0, "tiles": [1, 2, 4]},
    ]})
    assert ok.plan is not None
    with pytest.raises(ConfigError, match="overlaps"):
        tiny_spec(placement=placement, n_vms=2, plan={"seed": 0, "events": [
            {"cycle": 100, "kind": "vm_migrate", "vm": 0,
             "tiles": [9, 2, 4]},
        ]})


def test_build_chip_arms_the_plan():
    chip = tiny_spec(plan=PLAN_DOC).build_chip()
    assert chip.plan is not None
    assert len(chip.plan) == 3
    assert tiny_spec().build_chip().plan is None


def test_execute_with_plan_reports_consolidation():
    stats = tiny_spec(plan=PLAN_DOC).execute()
    assert stats.consolidation["vm_depart"] == 1
    assert stats.consolidation["vm_migrate"] == 1
    assert stats.consolidation["pages_broken"] == 2
