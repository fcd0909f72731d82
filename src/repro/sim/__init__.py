"""Deterministic discrete-event simulation kernel."""

from repro.sim.core import Event, ScheduledCall, Simulator, Timeout
from repro.sim.process import Process
from repro.sim.primitives import AllOf
from repro.sim.random import RandomStreams, derived_rng

__all__ = [
    "Event", "ScheduledCall", "Simulator", "Timeout", "Process", "AllOf",
    "RandomStreams", "derived_rng",
]
