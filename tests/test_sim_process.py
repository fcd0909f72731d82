"""Unit tests for processes and the AllOf composite event."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_process_runs_and_returns_value():
    sim = Simulator()

    def worker():
        yield sim.timeout(100)
        yield sim.timeout(50)
        return "result"

    proc = sim.process(worker())
    assert sim.run(until=proc) == "result"
    assert sim.now == 150
    assert not proc.is_alive


def test_timeout_value_passed_into_generator():
    sim = Simulator()
    seen = []

    def worker():
        value = yield sim.timeout(10, value="payload")
        seen.append(value)

    sim.process(worker())
    sim.run()
    assert seen == ["payload"]


def test_process_waiting_on_event():
    sim = Simulator()
    gate = sim.event()
    log = []

    def waiter():
        value = yield gate
        log.append((sim.now, value))

    sim.process(waiter())
    sim.call_in(500, lambda: gate.succeed("open"))
    sim.run()
    assert log == [(500, "open")]


def test_many_processes_share_one_event():
    sim = Simulator()
    gate = sim.event()
    woke = []

    def waiter(tag):
        yield gate
        woke.append(tag)

    for tag in range(5):
        sim.process(waiter(tag))
    sim.call_in(10, lambda: gate.succeed())
    sim.run()
    assert woke == [0, 1, 2, 3, 4]


def test_failed_event_raises_inside_process():
    sim = Simulator()
    gate = sim.event()
    outcome = []

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            outcome.append(str(exc))

    sim.process(waiter())
    sim.call_in(10, lambda: gate.fail(RuntimeError("boom")))
    sim.run()
    assert outcome == ["boom"]


def test_uncaught_process_exception_fails_process_event():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise ValueError("broken")

    proc = sim.process(bad())
    with pytest.raises(ValueError, match="broken"):
        sim.run(until=proc)


def test_process_waiting_on_process():
    sim = Simulator()

    def child():
        yield sim.timeout(100)
        return 7

    def parent():
        result = yield sim.process(child())
        return result * 2

    proc = sim.process(parent())
    assert sim.run(until=proc) == 14


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def bad():
        yield 42

    proc = sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run(until=proc)


def test_all_of_waits_for_every_event():
    sim = Simulator()

    def worker():
        result = yield sim.all_of([sim.timeout(300, "a"), sim.timeout(100, "b")])
        return sorted(result.values())

    proc = sim.process(worker())
    assert sim.run(until=proc) == ["a", "b"]
    assert sim.now == 300


def test_empty_all_of_fires_immediately():
    sim = Simulator()

    def worker():
        yield sim.all_of([])
        return sim.now

    proc = sim.process(worker())
    assert sim.run(until=proc) == 0


def test_all_of_fails_on_first_failure_and_defuses_later_ones():
    sim = Simulator()
    first, second = sim.event(), sim.event()
    outcome = []

    def worker():
        try:
            yield sim.all_of([first, second, sim.timeout(500)])
        except RuntimeError as exc:
            outcome.append((sim.now, str(exc)))

    sim.process(worker())
    sim.call_in(100, lambda: first.fail(RuntimeError("first")))
    sim.call_in(200, lambda: second.fail(RuntimeError("second")))
    sim.run()                   # the later failure must not raise here
    assert outcome == [(100, "first")]
    assert second.processed and not second.ok
