"""Unit tests for the DES kernel (events, timeouts, run loop)."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator, Timeout


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(1500)
    sim.run()
    assert sim.now == 1500


def test_run_until_time_stops_exactly():
    sim = Simulator()
    fired = []
    sim.call_in(100, lambda: fired.append(100))
    sim.call_in(300, lambda: fired.append(300))
    sim.run(until=200)
    assert sim.now == 200
    assert fired == [100]
    sim.run(until=400)
    assert fired == [100, 300]


def test_run_until_event_returns_value():
    sim = Simulator()
    ev = sim.event()
    sim.call_in(50, lambda: ev.succeed("done"))
    assert sim.run(until=ev) == "done"
    assert sim.now == 50


def test_run_until_untriggered_event_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        sim.run(until=ev)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.call_in(30, lambda: order.append("c"))
    sim.call_in(10, lambda: order.append("a"))
    sim.call_in(20, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_schedule_order():
    sim = Simulator()
    order = []
    for tag in ("first", "second", "third"):
        sim.call_in(10, lambda t=tag: order.append(t))
    sim.run()
    assert order == ["first", "second", "third"]


def test_priority_beats_sequence():
    # A process started at t is kicked at URGENT priority, ahead of NORMAL
    # work queued for t earlier (with a lower sequence number).
    sim = Simulator()
    order = []

    def proc():
        order.append("urgent")
        yield sim.timeout(0)

    def start():
        normal = Timeout(sim, 0)
        normal.callbacks.append(lambda _e: order.append("normal"))
        sim.process(proc())

    sim.call_in(10, start)
    sim.run()
    assert order == ["urgent", "normal"]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("x"))


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_failed_event_without_waiter_raises():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()


def test_defused_failure_passes_silently_by_request():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("boom"))
    ev.defuse()
    sim.run()  # must not raise


def test_callback_on_processed_event_fires_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(42)
    sim.run()
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    assert got == [42]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_call_at_past_rejected():
    sim = Simulator()
    sim.timeout(100)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(50, lambda: None)


def test_fail_requires_exception_instance():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() is None
    sim.timeout(70)
    assert sim.peek() == 70
