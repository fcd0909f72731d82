"""Bulk byte channels: serialized transfers over a shared link.

Swap-out/in traffic (memory images, disk deltas, golden images) moves over
the 100 Mbps Emulab control network to the file server.  At this
granularity a packet-level model adds nothing, so bulk transfers share a
:class:`ByteChannel`: requests are serialized FIFO at the channel rate,
which naturally models the control network being the §7.2 bottleneck.
Like :class:`~repro.hw.disk.Disk`, the channel keeps its queue as plain
data — a deque of ``(nbytes, done)`` whose head is on the wire — and arms
one completion call while busy.
"""

from __future__ import annotations

from collections import deque

from repro.errors import StorageError
from repro.sim.core import Event, Simulator
from repro.units import transfer_time_ns


class ByteChannel:
    """A shared, serialized bulk-transfer pipe."""

    def __init__(self, sim: Simulator, rate_bytes_per_s: int,
                 name: str = "channel") -> None:
        if rate_bytes_per_s <= 0:
            raise StorageError("channel rate must be positive")
        self.sim = sim
        self.rate_bytes_per_s = rate_bytes_per_s
        self.name = name
        #: queued transfers ``(nbytes, done)``; the head is on the wire
        self._queue: deque = deque()
        self.bytes_moved = 0
        self.transfers = 0

    def transfer(self, nbytes: int) -> Event:
        """Move ``nbytes`` through the channel; fires when done."""
        if nbytes < 0:
            raise StorageError("negative transfer size")
        done = Event(self.sim)
        queue = self._queue
        queue.append((nbytes, done))
        if len(queue) == 1:
            self._start(nbytes)
        return done

    def _start(self, nbytes: int) -> None:
        sim = self.sim
        sim.schedule_fn(sim.now + self.transfer_time_ns(nbytes),
                        self._complete)

    def _complete(self) -> None:
        queue = self._queue
        nbytes, done = queue.popleft()
        self.bytes_moved += nbytes
        self.transfers += 1
        done.succeed()
        if queue:
            self._start(queue[0][0])

    def transfer_time_ns(self, nbytes: int) -> int:
        """Unloaded transfer time for ``nbytes``."""
        return transfer_time_ns(max(1, nbytes), self.rate_bytes_per_s)
