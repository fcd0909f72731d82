"""Edge-case tests: virtual devices, machine assembly, kernel tracing."""

import random

import pytest

from repro.errors import CheckpointError
from repro.guest import GuestKernel
from repro.hw import Machine, MachineSpec
from repro.net import Interface, Link
from repro.obs.trace import Tracer
from repro.sim import Simulator
from repro.units import GB, MS, SECOND
from repro.xen import Hypervisor, VirtualNIC


def test_machine_assembly_defaults():
    sim = Simulator()
    machine = Machine(sim, "pc0", rng=random.Random(1))
    assert len(machine.disks) == 2
    assert machine.system_disk is machine.disks[0]
    assert machine.scratch_disk is machine.disks[1]
    assert machine.system_disk is not machine.scratch_disk
    assert abs(machine.oscillator.drift_ppm) <= \
        machine.spec.max_drift_ppm
    assert "pc0" in repr(machine)


def test_machine_spec_customization():
    sim = Simulator()
    spec = MachineSpec(num_disks=1, memory_bytes=1 * GB)
    machine = Machine(sim, "pc1", spec, rng=random.Random(2))
    assert len(machine.disks) == 1
    assert machine.scratch_disk is machine.system_disk


def test_oscillator_tick_conversions_roundtrip():
    sim = Simulator()
    machine = Machine(sim, "pc0", rng=random.Random(3))
    osc = machine.oscillator
    ns = 123_456_789
    back = osc.ticks_to_ns(osc.ns_to_ticks(ns))
    assert back == pytest.approx(ns, abs=2)


def test_virtual_nic_double_suspend_and_resume_rejected():
    sim = Simulator()
    a = Interface(sim, "a", "A")
    b = Interface(sim, "b", "B")
    Link(sim, a, b)
    nic = VirtualNIC(sim, a)
    nic.suspend()
    with pytest.raises(CheckpointError):
        nic.suspend()
    assert nic.resume() == 0
    with pytest.raises(CheckpointError):
        nic.resume()


def test_virtual_nic_replay_counter_accumulates():
    sim = Simulator()
    a = Interface(sim, "a", "A")
    b = Interface(sim, "b", "B")
    Link(sim, a, b)
    received = []
    a.attach(received.append)
    nic = VirtualNIC(sim, a)
    from repro.net import Packet
    for round_no in range(2):
        nic.suspend()
        b.send(Packet("B", "A", "t", 100))
        sim.run(until=sim.now + 10 * MS)
        assert nic.resume() == 1
    assert nic.replayed_total == 2
    assert len(received) == 2


def test_kernel_trace_records_virtual_and_true_time():
    sim = Simulator()
    machine = Machine(sim, "pc0", rng=random.Random(4))
    tracer = Tracer(clock=lambda: sim.now)
    kernel = GuestKernel(sim, machine, "g0", rng=random.Random(5),
                         tracer=tracer)

    def suspend():
        yield from kernel.firewall.raise_sequence()
        yield sim.timeout(1 * SECOND)
        yield from kernel.firewall.lower_sequence()

    sim.run(until=2 * SECOND)
    sim.run(until=sim.process(suspend()))
    kernel.trace("app.mark", step=7)
    record = next(tracer.select("app.mark"))
    assert record.step == 7
    assert record.kernel == "g0"
    # Virtual time lags true time by the concealed second.
    assert record.true_time - record.vtime == pytest.approx(
        kernel.vclock.total_hidden_ns, abs=1000)


def test_hypervisor_domains_are_listed():
    sim = Simulator()
    machine = Machine(sim, "pc0", rng=random.Random(6))
    hyp = Hypervisor(sim, machine)
    d1 = hyp.create_domain("d1", memory_bytes=64_000_000)
    d2 = hyp.create_domain("d2", memory_bytes=64_000_000)
    assert set(hyp.domains) == {"d1", "d2"}
    assert "64 MB" in repr(d1)
    # Both share the machine oscillator but have independent guest TSCs.
    d1.guest_tsc.restrict()
    assert not d2.guest_tsc.restricted
    d1.guest_tsc.unrestrict()
