"""Rotational disk model with seek, rotational latency, and transfer time.

The model charges:

* ``seek_ns`` whenever the head must move (the requested LBA does not
  immediately follow the previous request), plus half a rotation;
* transfer time at ``transfer_bps`` bytes/second.

Requests are serviced one at a time through a FIFO queue, which is all the
evaluation workloads need (Bonnie++-style sequential phases, COW redo logs
with deliberate extra metadata seeks, background mirror synchronization).
The queue is plain data: a deque of ``(lba, nblocks, write, done)`` whose
head is in service, plus exactly one armed completion call while the head
is busy — no process, resource grant or timeout per request.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import StorageError
from repro.sim.core import Event, Simulator
from repro.units import transfer_time_ns


@dataclass(frozen=True)
class DiskSpec:
    """Performance envelope of a disk (defaults: 10k RPM SCSI, pc3000)."""

    capacity_bytes: int = 146_000_000_000
    block_size: int = 4096
    seek_ns: int = 4_700_000            # average seek, 4.7 ms
    rotational_ns: int = 3_000_000      # half rotation at 10k RPM
    transfer_bps: int = 72_000_000      # sustained media rate, bytes/s

    def __post_init__(self) -> None:
        if self.block_size <= 0 or self.capacity_bytes <= 0:
            raise StorageError("disk geometry must be positive")


class Disk:
    """A single-spindle disk with a FIFO request queue."""

    def __init__(self, sim: Simulator, spec: Optional[DiskSpec] = None,
                 name: str = "disk") -> None:
        self.sim = sim
        self.spec = spec if spec is not None else DiskSpec()
        self.name = name
        #: queued requests ``(lba, nblocks, write, done)``; the head is in
        #: service and has its completion armed
        self._queue: deque = deque()
        #: service time of the request at the head of the queue
        self._service_ns = 0
        self._last_lba: int = -(10 ** 9)  # force an initial seek
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.seeks = 0
        self.busy_ns = 0

    @property
    def num_blocks(self) -> int:
        """Total addressable blocks."""
        return self.spec.capacity_bytes // self.spec.block_size

    def read(self, lba: int, nblocks: int = 1) -> Event:
        """Read ``nblocks`` starting at ``lba``; fires when data is in memory."""
        return self._submit(lba, nblocks, False)

    def write(self, lba: int, nblocks: int = 1) -> Event:
        """Write ``nblocks`` starting at ``lba``; fires when on the platter."""
        return self._submit(lba, nblocks, True)

    def service_time_ns(self, lba: int, nblocks: int) -> int:
        """Time this request would take given the current head position."""
        t = transfer_time_ns(nblocks * self.spec.block_size, self.spec.transfer_bps)
        if lba != self._last_lba:
            t += self.spec.seek_ns + self.spec.rotational_ns
        return t

    # -- snapshot/restore --------------------------------------------------------

    def serialize_state(self) -> dict:
        """Head position and counters, JSON-safe.

        The head position (``last_lba``) shapes every future request's
        service time, so restoring it is required for a restored world's
        I/O timings to match a replayed one's.  The disk must be idle:
        a queued request's completion event and armed call are live
        simulator objects, which a JSON payload cannot carry.
        """
        if self._queue:
            raise StorageError(
                f"disk {self.name}: cannot serialize with I/O in flight")
        return {"last_lba": self._last_lba, "reads": self.reads,
                "writes": self.writes, "bytes_read": self.bytes_read,
                "bytes_written": self.bytes_written, "seeks": self.seeks,
                "busy_ns": self.busy_ns}

    def restore_state(self, state: dict) -> None:
        """Re-apply a :meth:`serialize_state` payload to this idle disk."""
        expected = ("last_lba", "reads", "writes", "bytes_read",
                    "bytes_written", "seeks", "busy_ns")
        if not isinstance(state, dict) or set(state) != set(expected):
            raise StorageError(f"disk {self.name}: malformed payload")
        if self._queue:
            raise StorageError(
                f"disk {self.name}: cannot restore with I/O in flight")
        self._last_lba = state["last_lba"]
        self.reads = state["reads"]
        self.writes = state["writes"]
        self.bytes_read = state["bytes_read"]
        self.bytes_written = state["bytes_written"]
        self.seeks = state["seeks"]
        self.busy_ns = state["busy_ns"]

    # -- the request queue -------------------------------------------------------

    def _submit(self, lba: int, nblocks: int, write: bool) -> Event:
        if nblocks <= 0:
            raise StorageError(f"nblocks must be positive, got {nblocks}")
        if lba < 0 or lba + nblocks > self.num_blocks:
            raise StorageError(
                f"I/O beyond device: lba={lba} nblocks={nblocks} "
                f"device_blocks={self.num_blocks}")
        done = Event(self.sim)
        queue = self._queue
        queue.append((lba, nblocks, write, done))
        if len(queue) == 1:
            self._start(lba, nblocks)
        return done

    def _start(self, lba: int, nblocks: int) -> None:
        """Put the head request in service: charge it and arm completion."""
        duration = self.service_time_ns(lba, nblocks)
        if lba != self._last_lba:
            self.seeks += 1
        self._service_ns = duration
        sim = self.sim
        sim.schedule_fn(sim.now + duration, self._complete)

    def _complete(self) -> None:
        queue = self._queue
        lba, nblocks, write, done = queue.popleft()
        self.busy_ns += self._service_ns
        self._last_lba = lba + nblocks
        nbytes = nblocks * self.spec.block_size
        if write:
            self.writes += 1
            self.bytes_written += nbytes
        else:
            self.reads += 1
            self.bytes_read += nbytes
        done.succeed()
        if queue:
            head = queue[0]
            self._start(head[0], head[1])
