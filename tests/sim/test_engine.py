"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(10, lambda: fired.append(("b", sim.now)))
    sim.schedule(5, lambda: fired.append(("a", sim.now)))
    sim.schedule(20, lambda: fired.append(("c", sim.now)))
    sim.run()
    assert fired == [("a", 5), ("b", 10), ("c", 20)]


def test_same_cycle_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(7, lambda i=i: fired.append(i))
    sim.run()
    assert fired == list(range(10))


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(42, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [42]


def test_schedule_in_past_raises():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_nested_scheduling_from_callback():
    sim = Simulator()
    fired = []

    def first():
        fired.append(sim.now)
        sim.schedule(3, lambda: fired.append(sim.now))

    sim.schedule(1, first)
    sim.run()
    assert fired == [1, 4]


def test_run_until_leaves_future_events_queued():
    sim = Simulator()
    fired = []
    sim.schedule(5, lambda: fired.append(5))
    sim.schedule(50, lambda: fired.append(50))
    end = sim.run(until=10)
    assert end == 10
    assert fired == [5]
    assert sim.pending == 1
    sim.run()
    assert fired == [5, 50]


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    sim.run(until=100)
    assert sim.now == 100


def test_zero_delay_event_fires_at_current_time():
    sim = Simulator()
    fired = []
    sim.schedule(5, lambda: sim.schedule(0, lambda: fired.append(sim.now)))
    sim.run()
    assert fired == [5]


def test_bounded_run_advances_to_until_and_keeps_future_events():
    sim = Simulator()
    fired = []
    sim.schedule(10, lambda: fired.append(sim.now))
    assert sim.run(until=4) == 4
    assert sim.now == 4 and fired == [] and sim.pending == 1
    sim.run(until=12)
    assert fired == [10] and sim.now == 12


def test_run_until_is_published_during_run_only():
    sim = Simulator()
    seen = []
    sim.schedule(1, lambda: seen.append(sim._run_until))
    sim.run(until=6)
    assert seen == [6]
    assert sim._run_until is None  # reset even on normal exit
