"""Generator-coroutine processes for the simulation kernel.

A process wraps a generator that ``yield``\\ s :class:`~repro.sim.core.Event`
objects.  Each yielded event suspends the process until the event is
processed; the event's value is sent back into the generator (or its failure
exception is thrown in).  The process itself is an event that triggers when
the generator returns, carrying the generator's return value.
"""

from __future__ import annotations

from typing import Generator

from repro.errors import SimulationError
from repro.sim.core import Event, Simulator, URGENT


class Process(Event):
    """A running generator coroutine; also an event for its completion."""

    __slots__ = ("name", "_generator", "_alive")

    def __init__(self, sim: Simulator, generator: Generator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"Process needs a generator, got {generator!r}")
        super().__init__(sim)
        self.name = getattr(generator, "__name__", "process")
        self._generator = generator
        self._alive = True
        # Kick off on the next simulation step so construction order does
        # not matter within a single timestamp.
        start = Event(sim)
        start._ok = True
        start._value = None
        sim._enqueue(start, 0, URGENT)
        start.callbacks.append(self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._alive

    def _resume(self, event: Event) -> None:
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                event._defused = True
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self._alive = False
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self._alive = False
            self.fail(exc)
            return

        if not isinstance(target, Event):
            self._alive = False
            err = SimulationError(
                f"process {self.name} yielded non-event {target!r}")
            self._generator.close()
            self.fail(err)
            return
        if target.sim is not self.sim:
            self._alive = False
            self.fail(SimulationError(
                f"process {self.name} yielded event from another simulator"))
            return
        target.add_callback(self._resume)

    def __repr__(self) -> str:
        return f"<Process {self.name} {'alive' if self._alive else 'done'}>"
