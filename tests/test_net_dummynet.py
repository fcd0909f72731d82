"""Unit tests for Dummynet pipes and delay nodes (shaping + live checkpoint)."""

import json
import random

import pytest

from repro.errors import CheckpointError, NetworkError
from repro.net import (DelayNode, Host, LinkShape, Packet, Pipe, PipeConfig,
                       install_shaped_link)
from repro.net.dummynet import payload_packets_in_flight
from repro.sim import Simulator
from repro.units import MBPS, MS, SECOND, US, transmission_time_ns


def make_pipe(sim, sink, **kw):
    cfg = PipeConfig(**kw)
    return Pipe(sim, cfg, sink, random.Random(1))


def pkt(n=0, size=1434):
    return Packet("src", "dst", "test", size, headers={"n": n})


def test_pipe_applies_bandwidth_and_delay():
    sim = Simulator()
    out = []
    pipe = make_pipe(sim, lambda p: out.append(sim.now),
                     bandwidth_bps=10 * MBPS, delay_ns=20 * MS)
    pipe.submit(pkt())
    sim.run()
    assert out == [transmission_time_ns(1500, 10 * MBPS) + 20 * MS]


def test_pipe_serializes_at_bandwidth():
    sim = Simulator()
    out = []
    pipe = make_pipe(sim, lambda p: out.append(sim.now),
                     bandwidth_bps=10 * MBPS, delay_ns=0)
    for n in range(3):
        pipe.submit(pkt(n))
    sim.run()
    tx = transmission_time_ns(1500, 10 * MBPS)
    assert out == [tx, 2 * tx, 3 * tx]


def test_pipe_queue_overflow_drops():
    sim = Simulator()
    out = []
    pipe = make_pipe(sim, out.append, bandwidth_bps=1 * MBPS, queue_slots=2)
    for n in range(6):
        pipe.submit(pkt(n))
    sim.run()
    # 1 transmitting + 2 queued accepted; the rest dropped.
    assert len(out) == 3
    assert pipe.dropped_queue == 3


def test_pipe_loss():
    sim = Simulator()
    out = []
    pipe = make_pipe(sim, out.append, bandwidth_bps=100 * MBPS,
                     loss_probability=0.5, queue_slots=300)
    for n in range(200):
        pipe.submit(pkt(n, size=100))
    sim.run()
    assert pipe.dropped_loss > 50
    assert len(out) == 200 - pipe.dropped_loss


def test_pipe_config_validation():
    with pytest.raises(NetworkError):
        PipeConfig(bandwidth_bps=0)
    with pytest.raises(NetworkError):
        PipeConfig(loss_probability=1.0)
    with pytest.raises(NetworkError):
        PipeConfig(queue_slots=0)


def test_pipe_freeze_preserves_remaining_delay():
    sim = Simulator()
    out = []
    pipe = make_pipe(sim, lambda p: out.append(sim.now),
                     bandwidth_bps=1000 * MBPS, delay_ns=100 * MS)
    pipe.submit(pkt())
    sim.run(until=50 * MS)           # halfway down the delay line
    pipe.freeze()
    sim.run(until=1050 * MS)         # one second of downtime
    assert out == []
    pipe.thaw()
    sim.run()
    # Remaining ~50 ms of delay is honoured after the thaw.
    tx = transmission_time_ns(1500, 1000 * MBPS)
    assert out[0] == pytest.approx(1100 * MS + tx, abs=2 * US)


def test_pipe_freeze_preserves_transmission_progress():
    sim = Simulator()
    out = []
    pipe = make_pipe(sim, lambda p: out.append(sim.now),
                     bandwidth_bps=1 * MBPS, delay_ns=0)
    pipe.submit(pkt())                      # 12 ms transmission at 1 Mbps
    sim.run(until=4 * MS)
    pipe.freeze()
    sim.run(until=104 * MS)
    pipe.thaw()
    sim.run()
    assert out[0] == 104 * MS + (12 * MS - 4 * MS)


def test_pipe_double_freeze_rejected():
    sim = Simulator()
    pipe = make_pipe(sim, lambda p: None)
    pipe.freeze()
    with pytest.raises(CheckpointError):
        pipe.freeze()
    pipe.thaw()
    with pytest.raises(CheckpointError):
        pipe.thaw()


def test_pipe_capture_requires_freeze():
    # A checkpoint capture is taken frozen: nothing armed.  A running
    # pipe's payload carries its armed advance call, and a payload that
    # claims to be frozen while carrying one is rejected.
    sim = Simulator()
    pipe = make_pipe(sim, lambda p: None)
    pipe.submit(pkt())
    running = pipe.serialize_state()
    assert running["advance"] is not None
    pipe.freeze()
    assert pipe.serialize_state()["advance"] is None
    forged = dict(running, frozen=True)
    with pytest.raises(CheckpointError):
        make_pipe(Simulator(), lambda p: None).restore_state(forged)


def test_pipe_capture_and_restore_roundtrip():
    sim = Simulator()
    out = []
    pipe = make_pipe(sim, lambda p: out.append(p.headers["n"]),
                     bandwidth_bps=10 * MBPS, delay_ns=30 * MS)
    for n in range(5):
        pipe.submit(pkt(n))
    sim.run(until=2 * MS)
    pipe.freeze()
    state = json.loads(json.dumps(pipe.serialize_state()))
    assert payload_packets_in_flight(state) == 5
    # Restore into a fresh pipe and let it drain: same packets, same order.
    sim2 = Simulator()
    out2 = []
    pipe2 = Pipe(sim2, pipe.config, lambda p: out2.append(p.headers["n"]),
                 random.Random(1))
    pipe2.restore_state(state)
    assert pipe2.frozen and pipe2.packets_in_flight == 5
    pipe2.thaw()
    sim2.run()
    assert out2 == [0, 1, 2, 3, 4]


def test_pipe_restore_rejects_config_mismatch():
    sim = Simulator()
    pipe = make_pipe(sim, lambda p: None, bandwidth_bps=10 * MBPS)
    pipe.freeze()
    state = pipe.serialize_state()
    other = make_pipe(sim, lambda p: None, bandwidth_bps=20 * MBPS)
    with pytest.raises(CheckpointError):
        other.restore_state(state)


def test_delay_node_captures_bandwidth_delay_product():
    sim = Simulator()
    ha, hb = Host(sim, "A"), Host(sim, "B")
    shape = LinkShape(bandwidth_bps=100 * MBPS, delay_ns=25 * MS)
    node = install_shaped_link(sim, ha, hb, shape, rng=random.Random(2))
    got = []
    hb.register_protocol("test", lambda p: got.append(sim.now))

    def sender():
        for n in range(100):
            ha.send(Packet("A", "B", "test", 1434, headers={"n": n}))
            yield sim.timeout(1 * MS)

    sim.process(sender())
    sim.run(until=30 * MS)
    # ~25 ms of packets at 1/ms are inside the delay node right now.
    assert node.packets_in_flight >= 20
    node.freeze()
    state = node.serialize_state()
    assert node.packets_in_flight == sum(
        payload_packets_in_flight(state[d]) for d in ("forward", "reverse"))
    node.thaw()
    sim.run()
    assert len(got) == 100


def test_delay_node_freeze_thaw_preserves_delivery_order():
    sim = Simulator()
    ha, hb = Host(sim, "A"), Host(sim, "B")
    shape = LinkShape(bandwidth_bps=100 * MBPS, delay_ns=10 * MS)
    node = install_shaped_link(sim, ha, hb, shape, rng=random.Random(3))
    got = []
    hb.register_protocol("test", lambda p: got.append(p.headers["n"]))
    for n in range(10):
        ha.send(Packet("A", "B", "test", 1434, headers={"n": n}))
    sim.run(until=5 * MS)
    node.freeze()
    sim.run(until=2 * SECOND)
    node.thaw()
    sim.run()
    assert got == list(range(10))


def test_shaped_link_roundtrip_traffic():
    sim = Simulator()
    ha, hb = Host(sim, "A"), Host(sim, "B")
    install_shaped_link(sim, ha, hb, LinkShape(bandwidth_bps=100 * MBPS))
    seen = {"A": [], "B": []}
    ha.register_protocol("test", seen["A"].append)
    hb.register_protocol("test", seen["B"].append)
    ha.send(Packet("A", "B", "test", 100))
    hb.send(Packet("B", "A", "test", 100))
    sim.run()
    assert len(seen["A"]) == 1 and len(seen["B"]) == 1


def test_pipe_saturation_matches_scheduler_golden():
    # 20000 packets through one saturated pipe, every delivery instant and
    # packet identity hashed: pins the merged-advance pipe driver.
    from repro.analysis.digest import golden_digest
    from repro.bench.scenarios import run_pipe_saturation

    assert run_pipe_saturation(Simulator(), packets=20_000) == \
        golden_digest("SCHEDULER", "pipe_saturation")
