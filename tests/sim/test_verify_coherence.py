"""``Chip.verify_coherence`` audits every cached block from one walk of
the L1s; these tests pin it to the per-block audit it replaces,
``protocol.audit_block(block)`` over the same sorted blocks: the same
blocks with the same live copies on clean chips, and the same
violation on the same block on hand-corrupted ones."""

import pytest

from repro.core.checker import CoherenceViolation
from repro.core.states import L1State
from repro.sim.chip import PROTOCOLS, Chip
from tests.conftest import tiny_chip
from tests.sim.test_dynamics_chip import dynamic_chip, storyline


def cached_blocks(chip):
    """Every block held in any L1 or L2, in block order."""
    protocol = chip.protocol
    return sorted(
        {b for cache in (*protocol.l1s, *protocol.l2s) for b, _ in cache}
    )


def finished_chip(protocol, workload="apache"):
    chip = Chip(protocol, workload, config=tiny_chip(), seed=3)
    chip.run_cycles(2_000, warmup=500)
    return chip


def audited(chip, audit):
    """``(block, [(tile, id(line)), ...])`` for each directory audit
    ``audit`` runs, in order."""
    protocol = chip.protocol
    seen = []
    inner = protocol._directory_audit

    def record(block, holders, now=None):
        seen.append((block, [(t, id(line)) for t, line in holders]))
        inner(block, holders, now)

    protocol._directory_audit = record
    try:
        audit()
    finally:
        del protocol._directory_audit
    return seen


def per_block(chip):
    for block in cached_blocks(chip):
        chip.protocol.audit_block(block)


def violation(audit):
    try:
        audit()
    except CoherenceViolation as exc:
        return str(exc), exc.block
    return None


def assert_audits_agree(chip):
    one_pass = audited(chip, chip.verify_coherence)
    assert one_pass == audited(chip, lambda: per_block(chip))
    assert [b for b, _ in one_pass] == cached_blocks(chip)
    assert any(holders for _, holders in one_pass)
    return one_pass


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_one_pass_audit_matches_per_block_audit(protocol):
    # tomcatv read-shares blocks, so holder lists longer than one pin
    # the tile order too (DLS never caches a shared block in an L1)
    audits = assert_audits_agree(finished_chip(protocol, "tomcatv"))
    if protocol != "dls":
        assert any(len(holders) > 1 for _, holders in audits)


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_one_pass_audit_matches_under_the_storyline(protocol):
    """Mid-run too, where retired tiles are inactive and transactions
    are in flight."""
    chip = dynamic_chip(protocol, plan=storyline())
    chip.run_cycles_windowed(
        4_000, warmup=1_000, window=1_000,
        observe=lambda t: assert_audits_agree(chip),
    )
    assert chip.protocol._inactive_tiles
    assert_audits_agree(chip)


def _live_l1_line(chip, state=None):
    """The lowest cached block with a live L1 copy (in ``state``, if
    given): ``(block, tile, line)`` of its first holder."""
    for block in cached_blocks(chip):
        holders = chip.protocol._l1_copies(block)
        for tile, line in holders:
            if state is None or line.state is state:
                return block, tile, line
    raise AssertionError("no live L1 line to corrupt")


def assert_same_violation(chip, block):
    one_pass = violation(chip.verify_coherence)
    assert one_pass is not None
    assert one_pass == violation(lambda: per_block(chip))
    assert one_pass[1] == block


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_stale_l1_version_is_the_same_violation(protocol):
    chip = finished_chip(protocol)
    block, _, line = _live_l1_line(chip)
    line.version -= 1
    assert_same_violation(chip, block)
    assert "stale version" in violation(chip.verify_coherence)[0]


@pytest.mark.parametrize("protocol", ("directory", "mesi-snoop"))
def test_dropped_sharer_bit_is_the_same_violation(protocol):
    chip = finished_chip(protocol, "tomcatv")  # a read-shared workload
    proto = chip.protocol
    block, tile, _ = _live_l1_line(chip, L1State.S)
    if protocol == "directory":
        home = block & proto._home_mask
        info = proto.l2s[home].peek(block) or proto.dircaches[home].peek(block)
        info.sharers &= ~(1 << tile)
        expected = f"L1[{tile}] holds S outside the"
    else:
        proto._snoop[block].sharers &= ~(1 << tile)
        expected = "snoop record sharers"
    assert_same_violation(chip, block)
    assert expected in violation(chip.verify_coherence)[0]


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_live_line_on_an_inactive_tile_is_the_same_violation(protocol):
    chip = finished_chip(protocol)
    block, tile, _ = _live_l1_line(chip)
    chip.protocol._inactive_tiles.add(tile)
    assert_same_violation(chip, block)
    assert f"inactive tile {tile}" in violation(chip.verify_coherence)[0]
