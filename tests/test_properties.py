"""Property-based tests (hypothesis) on core data structures and invariants."""

import random

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis import percentile
from repro.guest.timer import VirtualTimerWheel
from repro.guest.vclock import VirtualClock
from repro.hw import CPU, Disk, DiskSpec
from repro.net import Packet, Pipe, PipeConfig
from repro.net.dummynet import payload_packets_in_flight
from repro.sim import Simulator
from repro.storage import Ext3Filesystem, Extent, LinearVolume, VolumeManager
from repro.units import GB, MB, MBPS, MS, US


# ------------------------------------------------------------------ sim kernel

@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1,
                max_size=60))
@settings(max_examples=60, deadline=None)
def test_events_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.call_in(d, lambda d=d: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.now == max(delays)


@given(st.lists(st.integers(min_value=1, max_value=10**8), min_size=1,
                max_size=12),
       st.lists(st.floats(min_value=0.1, max_value=8.0), min_size=1,
                max_size=12))
@settings(max_examples=40, deadline=None)
def test_cpu_conserves_work(works, weights):
    """Total busy time equals total work when the CPU is never idle."""
    sim = Simulator()
    cpu = CPU(sim)
    jobs = [cpu.execute(w, weight=weights[i % len(weights)])
            for i, w in enumerate(works)]
    sim.run(until=sim.all_of(jobs))
    total_work = sum(works)
    # The CPU was busy from 0 until the last completion with no idle gaps.
    assert cpu.total_busy_ns <= sim.now + 1
    assert abs(cpu.total_busy_ns - total_work) <= len(works) + 2
    # Every job takes at least its dedicated work time.
    assert sim.now + 1 >= max(works)


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=10**9),
                          st.integers(min_value=1, max_value=10**9)),
                min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_virtual_clock_invariant_under_freeze_thaw(segments):
    """now() == true_now - total_hidden after any freeze/thaw sequence."""
    sim = Simulator()
    vclock = VirtualClock(sim)
    for run_ns, freeze_ns in segments:
        sim.run(until=sim.now + run_ns)
        vclock.freeze()
        sim.run(until=sim.now + freeze_ns)
        vclock.thaw()
        assert vclock.now() == sim.now - vclock.total_hidden_ns
    assert vclock.total_hidden_ns == sum(f for _r, f in segments)


@given(st.lists(st.integers(min_value=0, max_value=500 * MS), min_size=1,
                max_size=20),
       st.integers(min_value=0, max_value=400 * MS))
@settings(max_examples=40, deadline=None)
def test_timer_wheel_fires_every_timer_exactly_once(delays, freeze_at):
    sim = Simulator()
    vclock = VirtualClock(sim)
    wheel = VirtualTimerWheel(sim, vclock, random.Random(0), max_slack_ns=0)
    fired = []
    for i, d in enumerate(delays):
        wheel.call_in(d, lambda i=i: fired.append(i))
    sim.run(until=freeze_at)
    wheel.freeze()
    vclock.freeze()
    sim.run(until=sim.now + 1_000 * MS)
    vclock.thaw()
    wheel.thaw()
    sim.run()
    assert sorted(fired) == list(range(len(delays)))
    # Relative virtual deadlines were preserved: i fired before j whenever
    # delay_i < delay_j.
    order = {i: pos for pos, i in enumerate(fired)}
    for i in range(len(delays)):
        for j in range(len(delays)):
            if delays[i] < delays[j]:
                assert order[i] < order[j]


# ------------------------------------------------------------------ dummynet

@given(st.lists(st.integers(min_value=64, max_value=1434), min_size=1,
                max_size=40),
       st.integers(min_value=0, max_value=30 * MS))
@settings(max_examples=40, deadline=None)
def test_pipe_conserves_and_orders_packets(sizes, freeze_at):
    sim = Simulator()
    out = []
    pipe = Pipe(sim, PipeConfig(bandwidth_bps=50 * MBPS, delay_ns=10 * MS,
                                queue_slots=100),
                lambda p: out.append(p.headers["n"]), random.Random(1))
    for n, size in enumerate(sizes):
        pipe.submit(Packet("a", "b", "t", size, headers={"n": n}))
    sim.run(until=freeze_at)
    pipe.freeze()
    captured = payload_packets_in_flight(pipe.serialize_state())
    assert captured + len(out) == len(sizes)
    sim.run(until=sim.now + 500 * MS)
    in_flight_before = pipe.packets_in_flight
    pipe.thaw()
    sim.run()
    assert out == list(range(len(sizes)))          # FIFO, nothing lost
    # Freezing holds packets: nothing moved while frozen.
    assert in_flight_before == captured
    assert pipe.packets_in_flight == 0


# ------------------------------------------------------------------ storage

@given(st.lists(st.tuples(st.integers(min_value=0, max_value=4999),
                          st.integers(min_value=1, max_value=64)),
                min_size=1, max_size=30))
@settings(max_examples=30, deadline=None)
def test_branch_write_read_levels_consistent(writes):
    sim = Simulator()
    disk = Disk(sim, DiskSpec(capacity_bytes=4 * GB))
    manager = VolumeManager(sim, disk)
    golden = manager.create_golden("img", 6000)
    branch = manager.create_branch("b", golden, log_blocks=200_000)
    written = set()
    for vba, count in writes:
        count = min(count, 6000 - vba)
        sim.run(until=branch.write(vba, count))
        written.update(range(vba, vba + count))
    assert branch.current_delta_blocks == len(written)
    for vba in range(0, 6000, 257):
        expected = "log" if vba in written else "base"
        assert branch._level_of(vba) == expected
    merged = branch.merge_into_aggregated()
    assert set(merged) == written
    offsets = [merged[v] for v in sorted(merged)]
    assert offsets == list(range(len(merged)))      # locality restored


@given(st.lists(st.tuples(st.booleans(),
                          st.integers(min_value=1, max_value=64)),
                min_size=1, max_size=40))
@settings(max_examples=30, deadline=None)
def test_ext3_space_accounting(ops):
    sim = Simulator()
    disk = Disk(sim, DiskSpec(capacity_bytes=4 * GB))
    vol = LinearVolume(Extent(disk, 0, 50_000))
    fs = Ext3Filesystem(sim, vol, reserved_blocks=16)
    capacity = fs.free_blocks
    live = {}
    counter = 0
    for is_write, blocks in ops:
        if is_write or not live:
            if blocks > fs.free_blocks:
                continue
            name = f"f{counter}"
            counter += 1
            sim.run(until=fs.write_file(name, blocks * 4096))
            live[name] = blocks
        else:
            name = next(iter(live))
            fs.delete(name)
            del live[name]
        assert fs.used_blocks == sum(live.values())
        assert fs.used_blocks + fs.free_blocks == capacity


# ------------------------------------------------------------------ analysis

@given(st.lists(st.floats(min_value=-1e9, max_value=1e9,
                          allow_nan=False), min_size=1, max_size=200),
       st.floats(min_value=0, max_value=100))
@settings(max_examples=60, deadline=None)
def test_percentile_matches_numpy(values, q):
    ours = percentile(values, q)
    theirs = float(np.percentile(np.array(values, dtype=float), q))
    assert ours == np.float64(theirs) or abs(ours - theirs) <= \
        max(1e-6, abs(theirs) * 1e-9)
