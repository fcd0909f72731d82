"""Unit tests for the tracer as the simulator's clock drives it."""

import pytest

from repro.obs import Tracer, maybe_record
from repro.sim import Simulator
from repro.units import MS


def test_tracer_records_and_selects():
    sim = Simulator()
    tracer = Tracer(clock=lambda: sim.now)
    tracer.record("a", value=1)
    sim.run(until=5 * MS)
    tracer.record("b", value=2)
    assert tracer.count("a") == 1
    records = list(tracer.select("b"))
    assert records[0].time == 5 * MS
    assert records[0].value == 2
    with pytest.raises(AttributeError):
        _ = records[0].missing
    tracer.clear()
    assert tracer.records == []


def test_tracer_category_filter():
    tracer = Tracer(clock=lambda: 0, categories={"keep"})
    tracer.record("keep", x=1)
    tracer.record("drop", x=2)
    assert tracer.count("keep") == 1
    assert tracer.count("drop") == 0


def test_maybe_record_tolerates_none():
    maybe_record(None, "anything", x=1)   # must not raise
    tracer = Tracer(clock=lambda: 0)
    maybe_record(tracer, "cat", x=1)
    assert tracer.count("cat") == 1
