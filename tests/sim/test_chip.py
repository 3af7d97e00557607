"""Unit tests for the full-chip driver."""

import gc
import weakref

import pytest

from repro.sim.chip import Chip, Core, PROTOCOLS, make_protocol, paper_scaled_chip
from repro.sim.config import ConfigError, small_test_chip
from repro.workloads.generator import ConsolidatedWorkload
from repro.workloads.placement import VMPlacement
from tests.conftest import tiny_chip
from tests.sim.test_dynamics_chip import dynamic_chip, storyline


def test_protocols_registry_complete():
    assert set(PROTOCOLS) == {
        "directory",
        "dico",
        "dico-providers",
        "dico-arin",
        "vh",  # the Sec. II related-work comparator
        "mesi-snoop",  # the classic-SMP bus family
        "moesi-snoop",
        "dls",  # directoryless shared-LLC
    }


def test_make_protocol_by_name():
    cfg = small_test_chip()
    for name, cls in PROTOCOLS.items():
        proto = make_protocol(name, cfg)
        assert isinstance(proto, cls)
        assert proto.name == name


def test_make_protocol_unknown():
    with pytest.raises(ValueError, match="unknown protocol"):
        make_protocol("snoop", small_test_chip())


def test_chip_accepts_protocol_instance():
    cfg = small_test_chip()
    proto = make_protocol("dico", cfg)
    chip = Chip(proto, "radix", seed=0)
    assert chip.protocol is proto
    stats = chip.run_cycles(2_000)
    assert stats.protocol == "dico"


def test_chip_accepts_workload_instance():
    cfg = small_test_chip()
    proto = make_protocol("directory", cfg)
    placement = VMPlacement.area_aligned(proto.areas, 4)
    wl = ConsolidatedWorkload("lu", placement, proto.addr, seed=0)
    chip = Chip(proto, wl)
    stats = chip.run_cycles(2_000)
    assert stats.workload == "lu"


def test_cores_only_on_placed_tiles():
    cfg = small_test_chip()
    proto = make_protocol("dico", cfg)
    placement = VMPlacement({0: proto.areas.tiles_of(0)})  # one VM only
    chip = Chip(proto, "radix", placement=placement)
    assert len(chip.cores) == 4
    stats = chip.run_cycles(3_000)
    assert stats.operations == sum(c.ops_done for c in chip.cores)


def test_run_cycles_respects_deadline():
    chip = Chip("directory", "radix", config=small_test_chip(), seed=1)
    stats = chip.run_cycles(1_000)
    assert stats.cycles == 1_000
    assert chip.sim.now <= 1_000


def test_run_ops_completes_every_core():
    chip = Chip("dico-arin", "tomcatv", config=small_test_chip(), seed=1)
    chip.run_ops(20)
    assert all(c.done for c in chip.cores)
    assert all(c.ops_done == 20 for c in chip.cores)


def test_operations_monotone_in_window():
    short = Chip("dico", "apache", config=small_test_chip(), seed=1)
    long = Chip("dico", "apache", config=small_test_chip(), seed=1)
    s1 = short.run_cycles(2_000)
    s2 = long.run_cycles(6_000)
    assert s2.operations > s1.operations


def test_paper_scaled_chip_runs_all_protocols():
    cfg = paper_scaled_chip()
    for name in PROTOCOLS:
        chip = Chip(name, "radix", config=cfg, seed=0)
        stats = chip.run_cycles(2_000)
        assert stats.operations > 0


def test_per_vm_operations_fairness():
    chip = Chip("dico-providers", "radix", config=small_test_chip(), seed=3)
    chip.run_cycles(8_000)
    per_vm = chip.per_vm_operations()
    assert set(per_vm) == {0, 1, 2, 3}
    assert sum(per_vm.values()) == sum(c.ops_done for c in chip.cores)
    # homogeneous VMs progress within 2x of each other
    assert max(per_vm.values()) < 2 * max(1, min(per_vm.values()))


def test_core_finished_guard_never_underflows():
    chip = Chip("directory", "mixed-sci", config=small_test_chip(), seed=3)
    chip._cores_running = 1
    chip._core_finished(10)
    assert chip._cores_running == 0
    # a stray extra notification (e.g. a core finishing after the
    # window closed) must not drive the count negative
    chip._core_finished(11)
    assert chip._cores_running == 0
    assert chip._finish_time == 11


def test_run_cycles_initialises_running_count():
    chip = Chip("directory", "mixed-sci", config=small_test_chip(), seed=3)
    chip.cores[0].done = True  # e.g. pinned ops_target already met
    chip.run_cycles(200, warmup=100)
    # only the not-done cores were counted at the start of the window
    assert chip._cores_running <= len(chip.cores) - 1
    assert chip._cores_running >= 0


@pytest.mark.parametrize("value, fast", [(None, True), ("1", True), ("0", False)])
def test_fast_path_env_selects_issue_path(monkeypatch, value, fast):
    if value is None:
        monkeypatch.delenv("REPRO_FAST_PATH", raising=False)
    else:
        monkeypatch.setenv("REPRO_FAST_PATH", value)
    chip = Chip("dico", "radix", config=small_test_chip())
    assert chip.fast_path is fast
    issue = chip.cores[0]._issue
    assert issue.__func__ is (Core._issue_fast if fast else Core._issue_slow)


@pytest.mark.parametrize("value", ["false", "true", "", "off", "2", " 1"])
def test_fast_path_env_rejects_other_values(monkeypatch, value):
    # a value read as "on" by mistake would make a reference-path
    # cross-check compare the fast path with itself
    monkeypatch.setenv("REPRO_FAST_PATH", value)
    with pytest.raises(ConfigError) as exc_info:
        Chip("dico", "radix", config=small_test_chip())
    assert exc_info.value.key == "REPRO_FAST_PATH"
    assert "'0' or '1'" in str(exc_info.value)


@pytest.mark.parametrize("armed", (False, True), ids=("static", "plan"))
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_finished_chip_is_freed_without_the_cyclic_gc(protocol, armed):
    """A chip holds no reference cycle: once dropped after a run, it is
    freed with its protocol and workload by reference counting alone,
    so no full collection has to find it."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        if armed:
            chip = dynamic_chip(protocol, plan=storyline())
            chip.run_cycles(4_000, warmup=1_000)
        else:
            chip = Chip(protocol, "apache", config=tiny_chip())
            chip.run_cycles(2_000, warmup=500)
        refs = {
            "chip": weakref.ref(chip),
            "protocol": weakref.ref(chip.protocol),
            "workload": weakref.ref(chip.workload),
        }
        del chip
        assert [name for name, ref in refs.items() if ref() is not None] == []
    finally:
        if was_enabled:
            gc.enable()
