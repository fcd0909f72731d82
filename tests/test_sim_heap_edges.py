"""Edge cases of the two-lane event store the core rewrite must preserve.

The simulator keeps scheduled entries in two lanes — a monotone tail deque
plus a binary-heap overflow lane — with lazy tombstones for cancellation
and threshold compaction.  These tests pin the contracts that are easy to
break when rearranging that storage: cancellation near the head, ordering
across compaction, and tombstones interacting with run horizons.
"""

import pytest

from repro.errors import SimulationError
from repro.sim.core import Simulator
from repro.units import MS, SECOND


def test_mass_cancel_then_compact_keeps_survivors_ordered():
    sim = Simulator()
    fired = []
    handles = []
    # Interleave doomed and surviving calls across both lanes: monotone
    # appends land in the tail, the far-future batch goes out of order
    # into the heap once nearer work exists.
    for i in range(200):
        handles.append(sim.call_at(1 * SECOND + i, lambda i=i: fired.append(i)))
    survivors = [sim.call_at(2 * SECOND + i, lambda i=i: fired.append(1000 + i))
                 for i in range(20)]
    early = [sim.call_at(10 + i, lambda i=i: fired.append(-1 - i))
             for i in range(5)]
    for h in handles:
        h.cancel()                          # mass-cancel triggers compaction
    # Compaction swept the bulk of the tombstones; only a sub-threshold
    # residue may remain in either lane.
    assert sim._dead < Simulator.COMPACT_MIN
    assert (len(sim._heap) + len(sim._tail)
            == len(survivors) + len(early) + sim._dead)
    sim.run()
    assert fired == [-1 - i for i in range(5)] + \
        [1000 + i for i in range(20)]
    assert all(h.fn is None for h in survivors)


def test_cancel_at_top_below_run_horizon_does_not_advance_clock():
    sim = Simulator()
    fired = []
    # Tail-lane tombstone at the head of the store.
    doomed_tail = sim.call_at(1 * MS, lambda: fired.append("tail"))
    sim.call_at(5 * SECOND, lambda: fired.append("late"))
    doomed_tail.cancel()
    sim.run(until=1 * SECOND)
    assert fired == []
    assert sim.now == 1 * SECOND
    # Heap-lane tombstone at the head: schedule out of order so the
    # earlier entry lands in the heap lane, then cancel it.
    sim2 = Simulator()
    sim2.call_at(5 * SECOND, lambda: fired.append("late2"))
    doomed_heap = sim2.call_at(1 * MS, lambda: fired.append("heap"))
    assert len(sim2._heap) == 1             # the out-of-order entry
    doomed_heap.cancel()
    sim2.run(until=1 * SECOND)
    assert fired == []
    assert sim2.now == 1 * SECOND


def test_same_instant_priority_and_seq_order_survive_compaction():
    # A process started at t is kicked at URGENT priority, ahead of the
    # NORMAL calls already queued for t.  The kicks land in the heap lane
    # (the tail already holds a later entry) and a compaction rebuilds
    # that lane right after they arrive; the merge must still pop the
    # kicks first, then the NORMAL calls of both lanes in seq order.
    sim = Simulator()
    fired = []
    t = 1 * SECOND
    doomed = []

    def proc(tag):
        fired.append(tag)
        yield sim.timeout(0)

    def spawn():
        fired.append("spawn")
        sim.process(proc("u1"))
        sim.process(proc("u2"))
        assert len(sim._heap) == 3          # both kicks plus n3
        for h in doomed:
            h.cancel()                      # forces a compaction sweep
        assert sim._dead < Simulator.COMPACT_MIN

    sim.call_at(t, lambda: fired.append("n1"))
    sim.call_at(t, spawn)
    sim.call_at(t, lambda: fired.append("n2"))
    sim.call_at(t + 1, lambda: fired.append("late"))
    doomed.extend(sim.call_at(t + 1 + i, lambda: fired.append("dead"))
                  for i in range(1, 301))
    sim.call_at(t, lambda: fired.append("n3"))      # out of order: heap
    sim.run()
    assert fired == ["n1", "spawn", "u1", "u2", "n2", "n3", "late"]


def test_compaction_during_horizon_run_keeps_boundary_entry():
    # Cancel enough entries *behind* the horizon boundary that compaction
    # rewrites both lanes while the run loop is mid-flight.
    sim = Simulator()
    fired = []
    cancel_me = []

    def mass_cancel():
        fired.append("trigger")
        for h in cancel_me:
            h.cancel()

    sim.call_at(1 * MS, mass_cancel)
    cancel_me.extend(sim.call_at(2 * SECOND + i, lambda: fired.append("dead"))
                     for i in range(300))
    sim.call_at(3 * SECOND, lambda: fired.append("beyond"))
    sim.run(until=1 * SECOND)
    assert fired == ["trigger"]
    assert sim.now == 1 * SECOND
    sim.run()
    assert fired == ["trigger", "beyond"]


def test_two_lane_merge_pops_global_time_order():
    sim = Simulator()
    fired = []
    # Monotone schedule fills the tail...
    for i in range(10):
        sim.schedule_fn(100 * (i + 1), lambda i=i: fired.append(("t", i)))
    # ...then earlier entries force the heap lane.
    for i in range(10):
        sim.schedule_fn(50 + 100 * i, lambda i=i: fired.append(("h", i)))
    assert len(sim._tail) and len(sim._heap)
    sim.run()
    assert fired == [item for pair in
                     zip([("h", i) for i in range(10)],
                         [("t", i) for i in range(10)]) for item in pair]


def test_peek_purges_tombstones_from_both_lanes():
    sim = Simulator()
    late = sim.call_at(2 * SECOND, lambda: None)     # tail lane
    early = sim.call_at(1 * SECOND, lambda: None)    # heap lane (out of order)
    early.cancel()
    assert sim.peek() == 2 * SECOND
    late.cancel()
    assert sim.peek() is None
    assert len(sim._heap) == 0 and len(sim._tail) == 0


def test_event_target_run_with_tombstones_in_front():
    sim = Simulator()
    doomed = [sim.call_at(10 + i, lambda: None) for i in range(5)]
    for h in doomed:
        h.cancel()
    ev = sim.timeout(1 * SECOND, value="done")
    assert sim.run(until=ev) == "done"
    assert sim.now == 1 * SECOND


def test_run_until_event_exhaustion_raises():
    sim = Simulator()
    ev = sim.event()                        # never triggered
    sim.call_at(10, lambda: None)
    with pytest.raises(SimulationError):
        sim.run(until=ev)


def test_schedule_fn_cannot_schedule_in_past_from_either_lane():
    sim = Simulator()
    sim.schedule_fn(100, lambda: None)
    sim.run()
    assert sim.now == 100
    with pytest.raises(SimulationError):
        sim.schedule_fn(50, lambda: None)
    with pytest.raises(SimulationError):
        sim.call_at(50, lambda: None)
