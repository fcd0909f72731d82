"""Unit tests for the Xen layer and the local live checkpoint."""

import random

import pytest

from repro.errors import CheckpointError
from repro.hw import Machine
from repro.net import Interface, Link, Packet
from repro.sim import Simulator
from repro.units import MB, MS, SECOND, US
from repro.xen import (CheckpointConfig, Hypervisor, LocalCheckpointer,
                       VirtualBlockDevice)


def make_domain(sim, name="node0", memory=256 * MB, seed=3):
    machine = Machine(sim, name, rng=random.Random(seed))
    hyp = Hypervisor(sim, machine)
    domain = hyp.create_domain(name, memory_bytes=memory,
                               rng=random.Random(seed + 1))
    return machine, hyp, domain


def test_paravirt_time_source_tracks_virtual_clock():
    sim = Simulator()
    _m, hyp, domain = make_domain(sim)
    sim.run(until=5 * SECOND)
    pv = domain.time_source.system_time()
    logical = domain.kernel.vclock.now()
    # Interpolation error stays below one page-update period worth of TSC
    # drift — effectively microseconds here.
    assert abs(pv - logical) < 1 * MS


def test_paravirt_time_freezes_with_the_firewall():
    sim = Simulator()
    _m, hyp, domain = make_domain(sim)
    kernel = domain.kernel

    def suspend():
        yield from kernel.firewall.raise_sequence()
        yield sim.timeout(2 * SECOND)
        yield from kernel.firewall.lower_sequence()

    sim.run(until=1 * SECOND)
    sim.process(suspend())
    sim.run(until=2 * SECOND)               # firewall up, mid-downtime
    t1 = domain.time_source.system_time()
    sim.run(until=2500 * MS)
    t2 = domain.time_source.system_time()
    assert t1 == t2
    sim.run(until=10 * SECOND)
    # After resume the paravirt source advances again and agrees with the
    # logical clock.
    assert abs(domain.time_source.system_time()
               - domain.kernel.vclock.now()) < 1 * MS


def test_paravirt_time_frozen_after_long_unread_stretch():
    # The page is refreshed only when read, so one left unread since boot
    # holds its creation values.  Raising the firewall must take a last
    # update first: otherwise frozen reads interpolate 300 s of oscillator
    # drift (about 3.9 ms at this machine's -13.1 ppm) off stale values.
    sim = Simulator()
    machine, _hyp, domain = make_domain(sim)
    assert machine.oscillator.drift_ppm != 0
    kernel = domain.kernel

    def suspend():
        yield from kernel.firewall.raise_sequence()
        yield sim.timeout(2 * SECOND)
        yield from kernel.firewall.lower_sequence()

    sim.run(until=300 * SECOND)
    proc = sim.process(suspend())
    sim.run(until=301 * SECOND)             # firewall up, mid-downtime
    assert domain.page.frozen
    assert abs(domain.time_source.system_time()
               - kernel.vclock.now()) <= 1 * US
    sim.run(until=proc)
    assert not domain.page.frozen
    # The clock re-bases before the page thaws, so the thaw-time update
    # already records the resumed clock: no lag by the re-base leak.
    assert kernel.vclock.total_rebase_error_ns > 1 * US
    assert abs(domain.time_source.system_time()
               - kernel.vclock.now()) <= 1 * US
    sim.run(until=sim.now + Hypervisor.PAGE_UPDATE_PERIOD_NS)
    assert abs(domain.time_source.system_time()
               - kernel.vclock.now()) <= 1 * US


def test_checkpoint_conceals_downtime_from_guest():
    sim = Simulator()
    _m, hyp, domain = make_domain(sim)
    ckpt = LocalCheckpointer(domain)
    sim.run(until=1 * SECOND)
    proc = ckpt.checkpoint()
    result = sim.run(until=proc)
    assert result.downtime_ns > 0
    # Virtual time lost = true downtime, concealed by the clock up to the
    # resume re-base error (tens of microseconds leak back into the guest).
    assert domain.kernel.vclock.total_hidden_ns == pytest.approx(
        result.downtime_ns, abs=100 * US)
    assert domain.kernel.vclock.total_rebase_error_ns <= 45 * US
    assert result.freeze_window_ns < 100 * US


def test_checkpoint_nonlive_has_large_downtime():
    sim = Simulator()
    _m, hyp, domain = make_domain(sim)
    live = CheckpointConfig(live=True)
    nonlive = CheckpointConfig(live=False)
    r_live = sim.run(until=LocalCheckpointer(domain, live).checkpoint())
    r_nonlive = sim.run(until=LocalCheckpointer(domain, nonlive).checkpoint())
    # Stop-and-copy of all memory dwarfs the live dirty residue.
    assert r_nonlive.downtime_ns > 10 * r_live.downtime_ns


def test_checkpoint_replays_packets_that_arrive_during_downtime():
    sim = Simulator()
    _m, hyp, domain = make_domain(sim)
    kernel = domain.kernel
    iface = Interface(sim, "n0.exp", "node0")
    kernel.host.add_interface(iface)
    peer = Interface(sim, "peer", "peer")
    Link(sim, iface, peer)
    domain.attach_nic(iface)
    got = []
    kernel.host.register_protocol("test", lambda p: got.append(p))

    ckpt = LocalCheckpointer(domain)
    proc = ckpt.checkpoint()

    def sender():
        # Wait until the domain is suspended, then fire packets at it.
        while not domain.nics[0].suspended:
            yield sim.timeout(1 * MS)
        for n in range(3):
            peer.send(Packet("peer", "node0", "test", 100, headers={"n": n}))
            yield sim.timeout(100 * US)

    sim.process(sender())
    result = sim.run(until=proc)
    sim.run(until=sim.now + 10 * MS)
    assert result.replayed_packets == 3
    assert len(got) == 3


def test_checkpoint_drains_block_io_before_freezing():
    sim = Simulator()
    machine, hyp, domain = make_domain(sim)
    vbd = domain.attach_vbd(machine.disks[0])
    pending = vbd.write(0, 2048)            # a long write
    ckpt = LocalCheckpointer(domain)
    proc = ckpt.checkpoint()
    result = sim.run(until=proc)
    assert pending.processed                 # drained before suspend
    assert vbd.inflight == 0
    assert not vbd.suspended                 # resumed


def test_io_to_suspended_vbd_rejected():
    sim = Simulator()
    machine, hyp, domain = make_domain(sim)
    vbd = domain.attach_vbd(machine.disks[0])
    vbd.suspended = True
    with pytest.raises(CheckpointError):
        vbd.read(0, 1)


def test_concurrent_checkpoints_rejected():
    sim = Simulator()
    _m, hyp, domain = make_domain(sim)
    ckpt = LocalCheckpointer(domain)
    ckpt.checkpoint()
    second = ckpt.checkpoint()
    with pytest.raises(CheckpointError):
        sim.run(until=second)


def test_repeated_checkpoints_accumulate_results():
    sim = Simulator()
    _m, hyp, domain = make_domain(sim)
    ckpt = LocalCheckpointer(domain)
    for _ in range(3):
        sim.run(until=ckpt.checkpoint())
        sim.run(until=sim.now + 1 * SECOND)
    assert len(ckpt.results) == 3
    ids = [r.snapshot.snapshot_id for r in ckpt.results]
    assert len(set(ids)) == 3
    assert domain.kernel.vclock.freezes == 3


def test_duplicate_domain_rejected():
    sim = Simulator()
    machine = Machine(sim, "m0")
    hyp = Hypervisor(sim, machine)
    hyp.create_domain("d0")
    with pytest.raises(CheckpointError):
        hyp.create_domain("d0")


def test_xenbus_delivers_watch_events():
    sim = Simulator()
    _m, hyp, domain = make_domain(sim)
    got = []
    domain.xenbus.watch("control/shutdown", got.append)
    domain.xenbus.notify("control/shutdown", "suspend")
    sim.run(until=1 * MS)
    assert got == ["suspend"]
    assert domain.xenbus.events_delivered == 1


def test_xenbus_works_while_firewall_up():
    sim = Simulator()
    _m, hyp, domain = make_domain(sim)
    kernel = domain.kernel
    got = []
    domain.xenbus.watch("ckpt", got.append)

    def suspend():
        yield from kernel.firewall.raise_sequence()
        domain.xenbus.notify("ckpt", "hello")
        yield sim.timeout(10 * MS)
        yield from kernel.firewall.lower_sequence()

    sim.run(until=sim.process(suspend()))
    assert got == ["hello"]
