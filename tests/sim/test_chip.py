"""Unit tests for the full-chip driver."""

import gc
import weakref

import pytest

from repro.sim.chip import Chip, PROTOCOLS, make_protocol, paper_scaled_chip
from repro.sim.config import small_test_chip
from repro.sim.engine import SimulationError
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


def test_windowed_run_rejects_a_window_under_one_cycle():
    chip = Chip("directory", "apache", config=tiny_chip())
    for window in (0, -400):
        with pytest.raises(ValueError, match="window must be >= 1"):
            chip.run_cycles_windowed(3_000, 1_000, window, lambda t: None)
    # a rejected window does not use up the chip's run
    assert chip.run_cycles(3_000, warmup=1_000).operations > 0


def test_a_chip_runs_once():
    chip = Chip("directory", "apache", config=tiny_chip())
    assert chip.run_cycles(3_000, warmup=1_000).operations > 0
    ops_done = [c.ops_done for c in chip.cores]
    reruns = (
        lambda: chip.run_cycles(3_000, warmup=1_000),
        lambda: chip.run_cycles_windowed(3_000, 1_000, 400, lambda t: None),
        lambda: chip.run_ops(10),
    )
    for rerun in reruns:
        with pytest.raises(SimulationError, match="already run"):
            rerun()
    # the refused runs left the first run's counts alone
    assert [c.ops_done for c in chip.cores] == ops_done


def test_core_finished_guard_never_underflows():
    chip = Chip("directory", "mixed-sci", config=small_test_chip(), seed=3)
    chip._core_finished(10)
    # a stray extra notification (e.g. a core finishing after the
    # window closed) keeps the latest finish time
    chip._core_finished(11)
    chip._core_finished(7)
    assert chip._finish_time == 11


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
