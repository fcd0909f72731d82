"""The hypervisor: domains, paravirtual time, run-state accounting.

Xen exposes time to guests through a shared-info page (wall clock + system
time + a TSC snapshot) that it updates periodically; guests interpolate
with RDTSC between updates (§4.2).  Here the page is refreshed when it is
read, and only once it is a full update period old, so a hypervisor
schedules no events and the page is never staler than a periodic update
would leave it.  During a checkpoint the hypervisor takes a last page
update, stops page updates, restricts the guest TSC, and suspends
run-state accounting — those are the hooks :class:`Domain` wires into the
guest kernel's ``on_time_frozen`` / ``on_time_thawed`` callbacks.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import CheckpointError
from repro.guest.kernel import GuestKernel
from repro.hw.machine import Machine
from repro.hw.tsc import GuestTSC
from repro.net.interface import Interface
from repro.sim.core import Simulator
from repro.sim.random import derived_rng
from repro.obs.trace import Tracer
from repro.units import MB, MS
from repro.xen.devices import VirtualBlockDevice, VirtualNIC
from repro.xen.xenbus import XenBus


class RunState(enum.Enum):
    RUNNING = "running"
    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    OFFLINE = "offline"


@dataclass
class SharedInfoPage:
    """The guest-visible time page.

    ``system_time_ns`` is the guest's virtual system time at the moment of
    the last update, paired with the TSC value then; the guest interpolates
    between updates by scaling TSC deltas.  ``updated_at_ns`` is the
    simulated time of that update, which decides when a read refreshes it.
    """

    system_time_ns: int = 0
    wall_time_ns: int = 0
    tsc_at_update: int = 0
    updated_at_ns: int = 0
    updates: int = 0
    frozen: bool = False


class ParavirtTimeSource:
    """How a guest actually computes time: page + TSC interpolation.

    Provided alongside the kernel's logical virtual clock to demonstrate
    that the paravirtual ABI and the model agree (tests assert they track
    each other within an update period, and that both freeze together).
    Each read first brings the page up to date if a periodic update would
    have refreshed it by now.
    """

    def __init__(self, domain: "Domain") -> None:
        self.domain = domain
        self.page = domain.page
        self.tsc = domain.guest_tsc
        self.tsc_hz = domain.hypervisor.machine.oscillator.freq_hz

    def _refresh(self) -> None:
        page = self.page
        if (not page.frozen and self.domain.sim.now - page.updated_at_ns
                >= Hypervisor.PAGE_UPDATE_PERIOD_NS):
            self.domain.hypervisor.update_page(self.domain)

    def system_time(self) -> int:
        self._refresh()
        delta_ticks = self.tsc.read() - self.page.tsc_at_update
        return self.page.system_time_ns + int(delta_ticks * 1e9 / self.tsc_hz)

    def wall_time(self) -> int:
        self._refresh()
        delta_ticks = self.tsc.read() - self.page.tsc_at_update
        return self.page.wall_time_ns + int(delta_ticks * 1e9 / self.tsc_hz)


class Domain:
    """One guest VM."""

    def __init__(self, hypervisor: "Hypervisor", name: str,
                 memory_bytes: int, kernel: GuestKernel) -> None:
        self.hypervisor = hypervisor
        self.sim = hypervisor.sim
        self.name = name
        self.memory_bytes = memory_bytes
        self.kernel = kernel
        self.guest_tsc = GuestTSC(hypervisor.machine.oscillator)
        self.page = SharedInfoPage()
        self.time_source = ParavirtTimeSource(self)
        self.xenbus = XenBus(self.sim, kernel)
        self.nics: list[VirtualNIC] = []
        self.vbds: list[VirtualBlockDevice] = []
        self.runstate = RunState.RUNNING
        self.runstate_ns: Dict[RunState, int] = {s: 0 for s in RunState}
        self._runstate_since = self.sim.now
        self._accounting_suspended = False
        kernel.on_time_frozen = self._freeze_time_sources
        kernel.on_time_thawed = self._thaw_time_sources

    # -- device management -------------------------------------------------------

    def attach_nic(self, iface: Interface) -> VirtualNIC:
        nic = VirtualNIC(self.sim, iface)
        self.nics.append(nic)
        return nic

    def attach_vbd(self, backend, name: str = "") -> VirtualBlockDevice:
        vbd = VirtualBlockDevice(self.sim, backend,
                                 name or f"{self.name}.vbd{len(self.vbds)}")
        self.vbds.append(vbd)
        return vbd

    # -- time virtualization --------------------------------------------------------

    def _freeze_time_sources(self) -> None:
        """§4.2: stop page updates, restrict TSC, suspend accounting.

        The page takes one last update first, so frozen reads hold the
        values of the freeze instant however long the page went unread.
        """
        self.hypervisor.update_page(self)
        self.page.frozen = True
        self.guest_tsc.restrict()
        self._account_runstate()
        self._accounting_suspended = True

    def _thaw_time_sources(self) -> None:
        self.guest_tsc.unrestrict()
        self.page.frozen = False
        self._accounting_suspended = False
        self._runstate_since = self.sim.now
        self.hypervisor.update_page(self)

    # -- run-state accounting ----------------------------------------------------------

    def _account_runstate(self) -> None:
        if self._accounting_suspended:
            return
        elapsed = self.sim.now - self._runstate_since
        self.runstate_ns[self.runstate] += elapsed
        self._runstate_since = self.sim.now

    def set_runstate(self, state: RunState) -> None:
        self._account_runstate()
        self.runstate = state

    def __repr__(self) -> str:
        return f"<Domain {self.name} {self.memory_bytes // MB} MB>"


class Hypervisor:
    """Xen on one machine: hosts domains, updates their time pages."""

    #: period of shared-info page updates: a read refreshes a page at least
    #: this old.  Guests interpolate between updates with the TSC, so the
    #: period bounds how much oscillator drift a reading can carry, not
    #: its resolution.
    PAGE_UPDATE_PERIOD_NS = 50 * MS

    def __init__(self, sim: Simulator, machine: Machine,
                 tracer: Optional[Tracer] = None) -> None:
        self.sim = sim
        self.machine = machine
        self.tracer = tracer
        self.domains: Dict[str, Domain] = {}

    def create_domain(self, name: str, memory_bytes: int = 256 * MB,
                      rng: Optional[random.Random] = None,
                      epoch_wall_ns: int = 0) -> Domain:
        """Boot a new paravirtualized guest.

        Without an explicit ``rng`` the domain draws from its own named
        substream, so co-hosted domains never share a draw sequence.
        """
        if name in self.domains:
            raise CheckpointError(f"domain {name} already exists")
        rng = rng or derived_rng(f"domain.{self.machine.name}.{name}")
        kernel = GuestKernel(self.sim, self.machine, name, rng=rng,
                             tracer=self.tracer, epoch_wall_ns=epoch_wall_ns)
        domain = Domain(self, name, memory_bytes, kernel)
        self.domains[name] = domain
        self.update_page(domain)
        return domain

    def update_page(self, domain: Domain) -> None:
        """Refresh one domain's shared-info page."""
        if domain.page.frozen:
            return
        domain.page.system_time_ns = domain.kernel.vclock.now()
        domain.page.wall_time_ns = domain.kernel.vclock.wall_time()
        domain.page.tsc_at_update = domain.guest_tsc.read()
        domain.page.updated_at_ns = self.sim.now
        domain.page.updates += 1
