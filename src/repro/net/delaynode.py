"""Delay nodes: transparent traffic-shaping middleboxes.

Emulab implements a shaped experiment link by interposing a FreeBSD machine
running Dummynet between the endpoints; the links from each endpoint to the
delay node are zero-delay, so all of the link's bandwidth-delay product
lives inside the delay node's pipes.  The paper checkpoints the *network
core* by freezing and serializing exactly this state (§4.4).

:class:`DelayNode` owns one :class:`~repro.net.dummynet.Pipe` per direction
and is otherwise invisible to the endpoints.  :func:`install_shaped_link`
wires two hosts together through a delay node, mirroring how the testbed
stitches VLANs.

Each directional pipe drives itself with a single merged advance call, so a
busy delay node keeps two armed event-store entries total — see
:mod:`repro.net.dummynet` for the advance rules and :meth:`DelayNode.freeze`
semantics (freezing cancels both pipes' armed calls).  The checkpoint state
is the :meth:`DelayNode.serialize_state` payload (§4.4's "serialize the
queued packets"): taken while frozen, it carries every queued,
transmitting and delay-line packet of both directions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.errors import CheckpointError
from repro.net.dummynet import Pipe, PipeConfig
from repro.net.host import Host
from repro.net.interface import Interface
from repro.net.link import Link
from repro.net.packet import Packet
from repro.sim.core import Simulator
from repro.sim.random import derived_rng
from repro.units import GBPS, US


@dataclass(frozen=True)
class LinkShape:
    """User-visible characteristics of a shaped experiment link."""

    bandwidth_bps: int
    delay_ns: int = 0
    loss_probability: float = 0.0
    queue_slots: int = 50

    def pipe_config(self) -> PipeConfig:
        return PipeConfig(self.bandwidth_bps, self.delay_ns,
                          self.loss_probability, self.queue_slots)


class DelayNode:
    """A two-port shaping middlebox (one shaped duplex link)."""

    def __init__(self, sim: Simulator, name: str, shape: LinkShape,
                 rng: Optional[random.Random] = None) -> None:
        self.sim = sim
        self.name = name
        self.shape = shape
        rng = rng or derived_rng(f"delaynode.{name}")
        self.port_a = Interface(sim, f"{name}.a", address=f"{name}.a")
        self.port_b = Interface(sim, f"{name}.b", address=f"{name}.b")
        config = shape.pipe_config()
        self._pipe_ab = Pipe(sim, config, self.port_b.send, rng,
                             name=f"{name}.ab")
        self._pipe_ba = Pipe(sim, config, self.port_a.send, rng,
                             name=f"{name}.ba")
        self.port_a.attach(self._pipe_ab.submit)
        self.port_b.attach(self._pipe_ba.submit)
        self._frozen = False

    # -- introspection ------------------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def packets_in_flight(self) -> int:
        """Bandwidth-delay-product packets currently inside the node."""
        return self._pipe_ab.packets_in_flight + self._pipe_ba.packets_in_flight

    @property
    def pipes(self):
        """The two directional shaping pipes (a->b, b->a) — e.g. for
        binding metrics probes to their counters."""
        return (self._pipe_ab, self._pipe_ba)

    # -- live checkpoint ------------------------------------------------------------

    def freeze(self) -> None:
        """Suspend Dummynet (both directions)."""
        if self._frozen:
            raise CheckpointError(f"delay node {self.name} already frozen")
        self._frozen = True
        self._pipe_ab.freeze()
        self._pipe_ba.freeze()

    def thaw(self) -> None:
        """Unblock Dummynet; time is virtualized so remaining delays resume."""
        if not self._frozen:
            raise CheckpointError(f"delay node {self.name} is not frozen")
        self._frozen = False
        self._pipe_ab.thaw()
        self._pipe_ba.thaw()

    # -- JSON serialize/restore ---------------------------------------------------

    def serialize_state(self) -> dict:
        """Both directional pipes as a JSON-serializable payload.

        The pipes share one derived RNG, so each pipe's payload carries an
        identical copy of its state — restoring either (both, in practice)
        leaves the shared stream exactly where the snapshot took it.
        """
        return {"name": self.name, "frozen": self._frozen,
                "forward": self._pipe_ab.serialize_state(),
                "reverse": self._pipe_ba.serialize_state()}

    def restore_state(self, state: dict) -> None:
        """Re-apply a :meth:`serialize_state` payload to this idle node."""
        expected = ("name", "frozen", "forward", "reverse")
        if not isinstance(state, dict) or set(state) != set(expected):
            raise CheckpointError(
                f"delay node {self.name}: malformed payload")
        if state["name"] != self.name:
            raise CheckpointError(
                f"delay node {self.name}: payload belongs to "
                f"{state['name']!r}")
        self._frozen = bool(state["frozen"])
        self._pipe_ab.restore_state(state["forward"])
        self._pipe_ba.restore_state(state["reverse"])


def install_shaped_link(sim: Simulator, host_a: Host, host_b: Host,
                        shape: LinkShape, name: str = "",
                        rng: Optional[random.Random] = None,
                        nic_rate_bps: int = GBPS) -> DelayNode:
    """Connect two hosts through a delay node, Emulab style.

    Creates one NIC on each host, wires each to the delay node with a
    zero-delay full-rate cable, and installs routes so traffic between the
    two hosts traverses the shaping pipes.  Returns the delay node.
    """
    name = name or f"delay.{host_a.name}-{host_b.name}"
    node = DelayNode(sim, name, shape, rng)
    if_a = Interface(sim, f"{host_a.name}.{name}", address=host_a.name,
                     tracer=host_a.tracer)
    if_b = Interface(sim, f"{host_b.name}.{name}", address=host_b.name,
                     tracer=host_b.tracer)
    host_a.add_interface(if_a)
    host_b.add_interface(if_b)
    # Endpoint cables run at NIC rate with negligible propagation: the
    # entire bandwidth-delay product lives inside the delay node.
    Link(sim, if_a, node.port_a, nic_rate_bps, propagation_ns=1 * US)
    Link(sim, if_b, node.port_b, nic_rate_bps, propagation_ns=1 * US)
    host_a.add_route(host_b.name, if_a)
    host_b.add_route(host_a.name, if_b)
    return node
