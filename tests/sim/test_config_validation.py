"""Input-validation hardening: structured ConfigError diagnostics."""

import dataclasses

import pytest

from repro.sim.config import (
    CacheGeometry,
    ConfigError,
    MemoryConfig,
    NocConfig,
    small_test_chip,
)
from repro.sweep.spec import RunSpec
from repro.workloads.spec import WorkloadSpec


def test_config_error_is_a_value_error_and_names_the_key():
    with pytest.raises(ConfigError) as exc:
        CacheGeometry(size_bytes=1 << 10, assoc=2, block_bytes=48)
    assert isinstance(exc.value, ValueError)
    assert exc.value.key == "block_bytes"
    assert "block_bytes" in str(exc.value)


@pytest.mark.parametrize(
    "kwargs, key",
    [
        (dict(size_bytes=1 << 10, assoc=2, block_bytes=48), "block_bytes"),
        (dict(size_bytes=1 << 10, assoc=0), "assoc"),
        (dict(size_bytes=100, assoc=4), "size_bytes"),
        (dict(size_bytes=(1 << 10) + 64, assoc=1), "size_bytes"),
        (dict(size_bytes=1 << 10, assoc=2, tag_latency=-1), "tag_latency"),
        (dict(size_bytes=1 << 10, assoc=2, data_latency=-2), "data_latency"),
    ],
)
def test_cache_geometry_rejections(kwargs, key):
    with pytest.raises(ConfigError) as exc:
        CacheGeometry(**kwargs)
    assert exc.value.key == key


def test_noc_rejects_negative_stage_latency():
    with pytest.raises(ConfigError):
        NocConfig(link_cycles=-1)
    with pytest.raises(ConfigError) as exc:
        NocConfig(flit_bytes=0)
    assert exc.value.key == "flit_bytes"


def test_memory_rejects_bad_page_size():
    with pytest.raises(ConfigError) as exc:
        MemoryConfig(page_bytes=3000)
    assert exc.value.key == "page_bytes"
    with pytest.raises(ConfigError):
        MemoryConfig(latency_cycles=-5)


def test_chip_rejects_areas_not_dividing_tiles():
    with pytest.raises(ConfigError) as exc:
        small_test_chip(mesh_width=4, mesh_height=4, n_areas=3)
    assert exc.value.key == "n_areas"


def test_chip_rejects_mismatched_block_sizes():
    good = small_test_chip()
    with pytest.raises(ConfigError) as exc:
        dataclasses.replace(
            good,
            l2=dataclasses.replace(good.l2, block_bytes=good.l1.block_bytes * 2),
        )
    assert exc.value.key == "l2.block_bytes"


def test_chip_rejects_too_few_address_bits():
    with pytest.raises(ConfigError) as exc:
        dataclasses.replace(small_test_chip(), phys_addr_bits=10)
    assert exc.value.key == "phys_addr_bits"


# ---------------------------------------------------------------------------
# RunSpec

def test_runspec_defaults_validate():
    RunSpec(protocol="dico", workload="apache")  # no raise


@pytest.mark.parametrize(
    "kwargs, key",
    [
        (dict(protocol="nope"), "protocol"),
        (dict(cycles=0), "cycles"),
        (dict(warmup=-1), "warmup"),
        (dict(n_vms=0), "n_vms"),
        (dict(placement="diagonal"), "placement"),
        (dict(placement=3.14), "placement"),
    ],
)
def test_runspec_rejections(kwargs, key):
    base = dict(protocol="dico", workload="apache")
    base.update(kwargs)
    with pytest.raises(ConfigError) as exc:
        RunSpec(**base)
    assert exc.value.key == key
    assert key in str(exc.value)


@pytest.mark.parametrize(
    "key, value",
    [
        ("seed", "x"),
        ("seed", 1.5),
        ("seed", None),
        ("seed", -1),
        ("seed", True),
        ("cycles", True),
        ("cycles", 2_000.0),
        ("warmup", 1.0),
        ("n_vms", 2.0),
        ("n_vms", True),
    ],
)
def test_runspec_rejects_non_integer_counts_and_seeds(key, value):
    """A bool or float seed, window or VM count is a ConfigError naming
    its field; a seed must also be >= 0 (numpy rejects negatives)."""
    with pytest.raises(ConfigError) as exc:
        RunSpec(protocol="dico", workload="apache", **{key: value})
    assert exc.value.key == key


def test_runspec_explicit_placement_mapping_accepted():
    RunSpec(protocol="dico", workload="apache", placement={0: (0, 1)})


# ---------------------------------------------------------------------------
# WorkloadSpec

def _spec(**kw):
    base = dict(
        name="t",
        private_pages=4,
        vm_shared_pages=4,
        dedup_pages=4,
        frac_private=0.5,
        frac_vm_shared=0.3,
        frac_dedup=0.2,
        write_private=0.1,
        write_vm_shared=0.1,
        write_dedup=0.0,
        zipf_s=0.8,
    )
    base.update(kw)
    return WorkloadSpec(**base)


def test_workload_rejects_zero_length_address_space():
    with pytest.raises(ValueError, match="zero-length"):
        _spec(private_pages=0, vm_shared_pages=0, dedup_pages=0)


def test_workload_rejects_negative_pages():
    with pytest.raises(ValueError, match="private_pages"):
        _spec(private_pages=-1)


@pytest.mark.parametrize(
    "field, value",
    [
        ("reuse_window", 0),
        ("reuse_prob", 1.5),
        ("reuse_prob", -0.1),
        ("dedup_scan_frac", 2.0),
        ("dedup_scan_pages", -3),
    ],
)
def test_workload_rejects_bad_reuse_and_scan_fields(field, value):
    with pytest.raises(ValueError, match=field):
        _spec(**{field: value})


def test_workload_rejects_inverted_think_range():
    with pytest.raises(ValueError, match="think"):
        _spec(think=(5, 2))
