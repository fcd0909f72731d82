"""The composite event: wait for all of a set of events."""

from __future__ import annotations

from typing import Sequence

from repro.errors import SimulationError
from repro.sim.core import Event, Simulator


class AllOf(Event):
    """Fires when every constituent has fired; fails on the first failure.

    The value is a dict mapping each constituent to its value.  Once the
    first failure has failed the ``AllOf``, later failures are defused.
    """

    __slots__ = ("events", "_pending")

    def __init__(self, sim: Simulator, events: Sequence[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("AllOf mixes simulators")
        self._pending = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if not event._ok:
            event._defused = True
            if not self.triggered:
                self.fail(event._value)
            return
        if self.triggered:
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed({ev: ev._value for ev in self.events})
