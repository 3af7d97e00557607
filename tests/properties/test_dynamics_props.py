"""Property tests for dynamic-consolidation plans.

Two contracts: (1) *any* zero-event plan — whatever its seed — leaves
run statistics bit-identical to a plan-less run;
(2) every plan the seeded generator can produce validates and keeps
the chip coherent end-to-end."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.chip import PROTOCOLS, Chip
from repro.stats.io import stats_to_dict
from repro.workloads.dynamics import ConsolidationPlan
from tests.conftest import tiny_chip

TILES_BY_VM = {
    0: (0, 1, 4, 5),
    1: (2, 3, 6, 7),
    2: (8, 9, 12, 13),
}


@settings(max_examples=8, deadline=None)
@given(
    plan_seed=st.integers(min_value=0, max_value=2**31),
    run_seed=st.integers(min_value=0, max_value=7),
    protocol=st.sampled_from(sorted(PROTOCOLS)),
)
def test_zero_event_plan_is_bit_identical_on_both_engines(
    plan_seed, run_seed, protocol
):
    plan = ConsolidationPlan(seed=plan_seed)
    spec = dict(config=tiny_chip(), n_vms=3, seed=run_seed)
    reference = Chip(protocol, "mixed-com", **spec).run_cycles(
        2_000, warmup=500
    )
    with_plan = Chip(protocol, "mixed-com", plan=plan, **spec).run_cycles(
        2_000, warmup=500
    )
    assert stats_to_dict(with_plan) == stats_to_dict(reference)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n_events=st.integers(min_value=1, max_value=8),
)
def test_generated_plans_validate_against_their_window(seed, n_events):
    plan = ConsolidationPlan.generate(
        seed, 3_000, TILES_BY_VM, 16, n_events=n_events
    )
    # validate() raising would fail the test; also pin canonical order
    plan.validate(3_000, TILES_BY_VM, 16)
    cycles = [ev.cycle for ev in plan.events]
    assert cycles == sorted(cycles)
    doc = plan.to_dict()
    assert ConsolidationPlan.from_dict(doc) == plan


def run_generated_plan(seed, protocol):
    """Run one seeded 5-event plan to its end, then audit the chip."""
    plan = ConsolidationPlan.generate(
        seed, 2_000, TILES_BY_VM, 16, n_events=5
    )
    chip = Chip(
        protocol, "mixed-com", config=tiny_chip(), n_vms=3, seed=seed % 16,
        plan=plan,
    )
    stats = chip.run_cycles(2_000, warmup=500)
    chip.verify_coherence()
    fired = sum(
        stats.consolidation.get(k, 0)
        for k in ("vm_migrate", "vm_depart", "vm_arrive", "dedup_break",
                  "dedup_merge")
    )
    assert fired == len(plan)


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1_000),
    protocol=st.sampled_from(sorted(PROTOCOLS)),
)
def test_generated_plans_keep_the_chip_coherent(seed, protocol):
    run_generated_plan(seed, protocol)


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
@pytest.mark.parametrize("seed", [54, 106, 156, 187, 653])
def test_migration_after_a_departure_moves_the_live_core(seed, protocol):
    # each seed migrates a VM onto or off a tile that a departed VM's
    # retired core still names; moving the retired core instead of the
    # live one stranded the live core outside its VM (live L1 copies on
    # inactive tiles, or issuing against a released page table)
    run_generated_plan(seed, protocol)
