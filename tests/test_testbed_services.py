"""Unit tests for testbed services: RPC, DNS, NFS, and the hypervisor's
run-state accounting."""

import dataclasses
import random

import pytest

from repro.errors import TestbedError
from repro.hw import Machine
from repro.sim import Simulator
from repro.testbed import (ControlNetwork, DNSServer, IdentityTransducer,
                           NFSClient, NFSServer, rpc)
from repro.units import MB, MS, SECOND, US
from repro.xen import Hypervisor, RunState


def make_net(sim, seed=1):
    ops = Machine(sim, "ops", rng=random.Random(seed))
    return ControlNetwork(sim, ops.clock, rng=random.Random(seed + 1))


def test_rpc_roundtrip_takes_two_path_delays():
    sim = Simulator()
    net = make_net(sim)
    proc = sim.process(rpc(sim, net, lambda: "pong"))
    result = sim.run(until=proc)
    assert result == "pong"
    assert 2 * net.path.base_ns <= sim.now < 5 * net.path.base_ns + \
        20 * net.path.jitter_ns


def test_dns_register_and_resolve():
    sim = Simulator()
    net = make_net(sim)
    dns = DNSServer(sim, net)
    dns.register("node0", "node0", ttl_s=300)
    record = sim.run(until=dns.resolve("node0"))
    assert record.address == "node0"
    assert record.ttl_s == 300
    assert dns.queries == 1


def test_dns_nxdomain():
    sim = Simulator()
    dns = DNSServer(sim, make_net(sim))
    with pytest.raises(TestbedError):
        sim.run(until=dns.resolve("missing"))


def test_nfs_write_getattr_roundtrip():
    sim = Simulator()
    net = make_net(sim)
    server = NFSServer(sim)
    client = NFSClient(sim, server, net)
    attrs = sim.run(until=client.write("exp/results", 4096))
    assert attrs.size_bytes == 4096
    sim.run(until=sim.now + 10 * MS)
    attrs2 = sim.run(until=client.getattr("exp/results"))
    assert attrs2.size_bytes == 4096
    assert attrs2.mtime_ns == attrs.mtime_ns
    assert server.calls == 2


def test_nfs_getattr_missing_file():
    sim = Simulator()
    client = NFSClient(sim, NFSServer(sim), make_net(sim))
    with pytest.raises(TestbedError):
        sim.run(until=client.getattr("nope"))


def test_nfs_setattr_roundtrips_through_identity_transducer():
    sim = Simulator()
    server = NFSServer(sim)
    client = NFSClient(sim, server, make_net(sim), IdentityTransducer())
    sim.run(until=client.write("f", 100))
    attrs = sim.run(until=client.setattr("f", 123_456_789))
    assert attrs.mtime_ns == 123_456_789
    assert server.files["f"].mtime_ns == 123_456_789


def test_nfs_bulk_channel_paces_large_writes():
    from repro.storage import ByteChannel

    sim = Simulator()
    chan = ByteChannel(sim, rate_bytes_per_s=10 * MB)
    client = NFSClient(sim, NFSServer(sim), make_net(sim),
                       bulk_channel=chan)
    start = sim.now
    sim.run(until=client.write("big", 20 * MB))
    assert sim.now - start >= 2 * SECOND


def test_runstate_accounting_tracks_transitions():
    sim = Simulator()
    machine = Machine(sim, "m0", rng=random.Random(4))
    hyp = Hypervisor(sim, machine)
    domain = hyp.create_domain("d0")
    sim.run(until=1 * SECOND)
    domain.set_runstate(RunState.BLOCKED)
    sim.run(until=3 * SECOND)
    domain.set_runstate(RunState.RUNNING)
    assert domain.runstate_ns[RunState.RUNNING] == pytest.approx(
        1 * SECOND, abs=1000)
    assert domain.runstate_ns[RunState.BLOCKED] == pytest.approx(
        2 * SECOND, abs=1000)


def test_runstate_accounting_suspended_during_checkpoint():
    """§4.2: run-time state statistics do not advance while frozen."""
    sim = Simulator()
    machine = Machine(sim, "m0", rng=random.Random(4))
    hyp = Hypervisor(sim, machine)
    domain = hyp.create_domain("d0")
    kernel = domain.kernel

    def suspend():
        yield from kernel.firewall.raise_sequence()
        yield sim.timeout(5 * SECOND)
        yield from kernel.firewall.lower_sequence()

    sim.run(until=1 * SECOND)
    sim.run(until=sim.process(suspend()))
    sim.run(until=sim.now + 1 * SECOND)
    domain._account_runstate()
    # ~2 s of visible RUNNING time; the 5 s suspension is not accounted.
    assert domain.runstate_ns[RunState.RUNNING] < 2100 * MS


def test_shared_info_page_updates_periodically_and_pauses_frozen():
    # The page is refreshed when read, at most once per update period, so
    # the hypervisor schedules nothing of its own.
    sim = Simulator()
    machine = Machine(sim, "m0", rng=random.Random(4))
    hyp = Hypervisor(sim, machine)
    pending = sim.pending_count
    domain = hyp.create_domain("d0")
    assert sim.pending_count == pending
    start = domain.page.updates
    for step in range(1, 101):              # a read every 10 ms for 1 s
        sim.run(until=step * 10 * MS)
        domain.time_source.system_time()
    assert 5 < domain.page.updates - start <= 21
    domain.page.frozen = True
    page = dataclasses.replace(domain.page)
    for step in range(101, 201):
        sim.run(until=step * 10 * MS)
        domain.time_source.system_time()
        domain.time_source.wall_time()
    assert domain.page == page
    domain.page.frozen = False
    domain.time_source.wall_time()
    assert domain.page.updates == page.updates + 1
    assert domain.page.updated_at_ns == sim.now
