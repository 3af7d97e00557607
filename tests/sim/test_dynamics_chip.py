"""Chip-level dynamic consolidation: mid-run events across all eight
protocols, coherence audits under churned placements, per-event
statistics, and the empty-plan bit-identity contract."""

import pytest

from repro.sim.chip import PROTOCOLS, Chip
from repro.sim.config import ConfigError
from repro.stats.io import stats_to_dict
from repro.workloads.dynamics import ConsolidationEvent, ConsolidationPlan
from repro.workloads.placement import VMPlacement
from tests.conftest import tiny_chip

#: 4x4 chip, 2x2 areas: a0=(0,1,4,5) a1=(2,3,6,7) a2=(8,9,12,13)
#: a3=(10,11,14,15).  Three VMs leave area 3 free.
FREE_AREA = (10, 11, 14, 15)

#: families whose ``_migrate_block_state`` transfers lines instead of
#: flushing them (the protocols with location-independent metadata)
TRANSFER_FAMILIES = ("directory", "dico")


def storyline() -> ConsolidationPlan:
    """The five-kind storyline used throughout: migrate, dedup churn,
    depart, arrive — all within a 4000-cycle measurement window."""
    return ConsolidationPlan(seed=1, events=(
        ConsolidationEvent(800, "vm_migrate", 1, tiles=FREE_AREA),
        ConsolidationEvent(1_600, "dedup_break", 0, pages=4),
        ConsolidationEvent(2_400, "dedup_merge", 0, pages=4),
        ConsolidationEvent(3_200, "vm_depart", 2),
        ConsolidationEvent(3_600, "vm_arrive", 3, tiles=(8, 9, 12, 13)),
    ))


def dynamic_chip(protocol, plan=None, **kwargs):
    defaults = dict(config=tiny_chip(), n_vms=3, seed=2)
    defaults.update(kwargs)
    return Chip(protocol, "mixed-com", plan=plan, **defaults)


# ---------------------------------------------------------------------------
# the full storyline on every protocol, audited mid-run


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_storyline_keeps_every_protocol_coherent(protocol):
    """Events fire mid-run and the full invariant audit (copy-set
    checker + the protocol's own directory audit) passes at every
    window boundary — including the windows right after each event."""
    chip = dynamic_chip(protocol, plan=storyline())
    stats = chip.run_cycles_windowed(
        4_000, warmup=1_000, window=400,
        observe=lambda t: chip.verify_coherence(),
    )
    st = stats.consolidation
    assert st["vm_migrate"] == 1
    assert st["vm_depart"] == 1
    assert st["vm_arrive"] == 1
    assert st["pages_broken"] == 4
    assert st["pages_merged"] == 4
    assert stats.operations > 0


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_migration_handoff_matches_protocol_family(protocol):
    """Directory and DiCo transfer lines on migration; the area-keyed
    and bus/LLC families flush — the handoff mode is observable in the
    effect counters and is the degradation benchmark's contrast."""
    plan = ConsolidationPlan(seed=1, events=(
        ConsolidationEvent(2_000, "vm_migrate", 1, tiles=FREE_AREA),
    ))
    chip = dynamic_chip(protocol, plan=plan)
    stats = chip.run_cycles(4_000, warmup=1_000)
    st = stats.consolidation
    if protocol in TRANSFER_FAMILIES:
        # blocks busy mid-transaction at the fire cycle still flush;
        # the overwhelming majority must transfer
        assert st.get("blocks_migrated", 0) > st.get("blocks_flushed", 0)
    else:
        assert st.get("blocks_migrated", 0) == 0
        assert st.get("blocks_flushed", 0) > 0
    chip.verify_coherence()


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_audit_passes_under_non_contiguous_custom_placement(protocol):
    """A scattered (non-area-aligned, non-contiguous) placement plus a
    migration onto an equally scattered region keeps every protocol's
    directory audit clean."""
    placement = VMPlacement({0: (0, 3, 5, 6), 1: (9, 10, 12, 15)})
    plan = ConsolidationPlan(seed=1, events=(
        ConsolidationEvent(1_500, "vm_migrate", 0, tiles=(1, 2, 7, 13)),
    ))
    chip = Chip(
        protocol, "mixed-com", config=tiny_chip(), placement=placement,
        seed=3, plan=plan,
    )
    stats = chip.run_cycles(3_000, warmup=500)
    assert chip.placement.tiles_of(0) == (1, 2, 7, 13)
    assert stats.consolidation["vm_migrate"] == 1
    chip.verify_coherence()


# ---------------------------------------------------------------------------
# apply_event unit semantics (no run needed)


def test_apply_migrate_remaps_placement_and_cores():
    chip = dynamic_chip("directory")
    old = chip.placement.tiles_of(1)
    cores_before = {c.tile for c in chip.cores}
    chip.apply_event(ConsolidationEvent(1, "vm_migrate", 1, tiles=FREE_AREA))
    assert chip.placement.tiles_of(1) == FREE_AREA
    expected = (cores_before - set(old)) | set(FREE_AREA)
    assert {c.tile for c in chip.cores} == expected
    assert chip.protocol.stats.consolidation == {"vm_migrate": 1}
    # vacated tiles are inactive until something moves back in
    assert set(old) <= chip.protocol._inactive_tiles


def test_apply_depart_stops_cores_and_frees_tiles():
    chip = dynamic_chip("dico")
    tiles = chip.placement.tiles_of(2)
    chip.apply_event(ConsolidationEvent(1, "vm_depart", 2))
    assert 2 not in chip.placement.vms
    for core in chip.cores:
        if core.tile in tiles:
            assert core.done
    assert set(tiles) <= chip.protocol._inactive_tiles


def test_apply_arrive_starts_new_cores():
    chip = dynamic_chip("vh")
    n_before = len(chip.cores)
    chip.apply_event(ConsolidationEvent(1, "vm_arrive", 3, tiles=FREE_AREA))
    assert chip.placement.tiles_of(3) == FREE_AREA
    assert len(chip.cores) == n_before + len(FREE_AREA)
    assert not (set(FREE_AREA) & chip.protocol._inactive_tiles)


def test_apply_unknown_kind_raises():
    chip = dynamic_chip("directory")
    with pytest.raises(ValueError, match="unknown consolidation"):
        chip.apply_event(ConsolidationEvent(1, "vm_implode", 0))


def test_per_vm_operations_keeps_departed_vm_of_record():
    """Ops committed by a VM that later departed still attribute to it
    (the fairness table must not lose transactions mid-table)."""
    chip = dynamic_chip("directory", plan=storyline())
    chip.run_cycles(4_000, warmup=1_000)
    totals = chip.per_vm_operations()
    assert set(totals) == {0, 1, 2, 3}
    assert totals[2] > 0  # departed at 3200 but ran 3200 cycles
    assert all(v >= 0 for v in totals.values())


# ---------------------------------------------------------------------------
# the bit-identity contract: no plan == empty plan


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_empty_plan_is_bit_identical_on_both_engines(protocol):
    spec = dict(config=tiny_chip(), n_vms=3, seed=2)
    reference = Chip(protocol, "mixed-com", **spec).run_cycles(
        3_000, warmup=500
    )
    empty = Chip(
        protocol, "mixed-com", plan=ConsolidationPlan(), **spec
    ).run_cycles(3_000, warmup=500)
    assert stats_to_dict(empty) == stats_to_dict(reference)


def test_invalid_plan_rejected_at_run_time():
    plan = ConsolidationPlan(seed=0, events=(
        ConsolidationEvent(9_999, "dedup_break", 0, pages=1),
    ))
    chip = dynamic_chip("directory", plan=plan)
    with pytest.raises(ConfigError, match="outside the measurement"):
        chip.run_cycles(4_000, warmup=1_000)


def test_run_ops_rejects_an_armed_plan():
    """A plan fires within a cycle window, which ``run_ops`` has none
    of: the chip refuses it instead of running without its events."""
    chip = dynamic_chip("directory", plan=storyline())
    with pytest.raises(ConfigError, match="cycle window") as exc_info:
        chip.run_ops(300)
    assert exc_info.value.key == "plan"
    # the refusal used up nothing: the chip still runs its window
    stats = chip.run_cycles(4_000, warmup=1_000)
    assert stats.consolidation["vm_arrive"] == 1
    # an empty plan is no plan, so run_ops accepts it
    empty = dynamic_chip("directory", plan=ConsolidationPlan())
    assert empty.run_ops(50).operations == 50 * len(empty.cores)
