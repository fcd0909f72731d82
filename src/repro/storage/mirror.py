"""Background data transfer: eager copy-out and lazy copy-in (§5.1, §5.3).

The paper implements background transfer with LVM mirror volumes (half of a
RAID1 located across NFS) plus a rate-limiting function that slows
synchronization relative to normal system I/O.  Two modes matter for the
evaluation:

* **eager copy-out** (swap-out): the current delta is read from the local
  disk and pushed to the file server *before and while* the guest still
  runs; rate-limited, it costs the workload ~9% (Figure 9).
* **lazy copy-in** (swap-in): the VM resumes as soon as its memory image
  arrives; disk blocks are fetched on first reference, with a background
  prefetcher filling the rest.  Its more aggressive prefetch costs the
  workload ~19% runtime / 45% throughput (Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Set

from repro.errors import StorageError
from repro.sim.core import Event, Simulator
from repro.storage.channel import ByteChannel
from repro.units import MB, SECOND, transfer_time_ns


@dataclass(frozen=True)
class TransferConfig:
    """Background transfer tuning."""

    chunk_blocks: int = 256                  # 1 MB chunks
    block_size: int = 4096
    #: rate limit applied to background disk traffic (bytes/s); the paper's
    #: rate limiter trades sync speed for workload interference
    rate_limit_bytes_per_s: int = 6 * MB


class EagerCopyOut:
    """Pre-copy the current delta to the server while the guest runs."""

    def __init__(self, sim: Simulator, disk, blocks: List[int],
                 channel: ByteChannel,
                 config: Optional[TransferConfig] = None) -> None:
        self.sim = sim
        self.disk = disk
        self.blocks = list(blocks)
        self.channel = channel
        self.config = config if config is not None else TransferConfig()
        self.copied_blocks = 0
        self.resent_blocks = 0
        self._position = {b: i for i, b in enumerate(self.blocks)}
        self._dirty_since_copy: Set[int] = set()
        self.done: Optional[Event] = None

    def mark_dirty(self, blocks: Iterable[int]) -> None:
        """Blocks overwritten during pre-copy must be sent again (§7.2)."""
        copied_cutoff = self.copied_blocks
        for b in blocks:
            idx = self._position.get(b, -1)
            if 0 <= idx < copied_cutoff:
                self._dirty_since_copy.add(b)

    def start(self) -> Event:
        """Begin the background copy; the event fires when fully synced."""
        if self.done is not None:
            raise StorageError("copy-out already started")
        self.done = self.sim.process(self._run())
        return self.done

    def _run(self):
        cfg = self.config
        chunk_bytes = cfg.chunk_blocks * cfg.block_size
        i = 0
        while i < len(self.blocks):
            chunk = self.blocks[i:i + cfg.chunk_blocks]
            i += len(chunk)
            # Read from the local disk (competing with the workload)...
            yield self.disk.read(chunk[0], len(chunk))
            # ...then ship over the control network.
            yield self.channel.transfer(len(chunk) * cfg.block_size)
            self.copied_blocks += len(chunk)
            # Rate limiting: pace the next chunk.
            yield self.sim.timeout(self._pace_ns(chunk_bytes))
        # Second pass: one bounded round of re-sends for blocks dirtied
        # while copying.  Anything dirtied after this snapshot stays in
        # ``pending_dirty`` for the post-suspend stop-and-copy — chasing a
        # sustained writer here would never converge.
        snapshot = sorted(self._dirty_since_copy)
        i = 0
        while i < len(snapshot):
            chunk = snapshot[i:i + cfg.chunk_blocks]
            i += len(chunk)
            self._dirty_since_copy.difference_update(chunk)
            yield self.disk.read(chunk[0], len(chunk))
            yield self.channel.transfer(len(chunk) * cfg.block_size)
            self.resent_blocks += len(chunk)
            yield self.sim.timeout(self._pace_ns(len(chunk) * cfg.block_size))
        return self.copied_blocks + self.resent_blocks

    @property
    def pending_dirty(self) -> int:
        """Blocks still stale after the bounded resend round."""
        return len(self._dirty_since_copy)

    def _pace_ns(self, chunk_bytes: int) -> int:
        budget = transfer_time_ns(chunk_bytes,
                                  self.config.rate_limit_bytes_per_s)
        wire = self.channel.transfer_time_ns(chunk_bytes)
        return max(0, budget - wire)


class LazyCopyIn:
    """Demand paging plus background prefetch of an incoming disk image.

    Tracks the set of *missing* blocks: either every block of an image
    (``total_blocks``) or an explicit ``missing_blocks`` set — the latter
    is what swap-in uses, since only the aggregated delta must come over
    the network (the golden image is already cached locally).
    """

    def __init__(self, sim: Simulator, disk,
                 total_blocks: Optional[int] = None,
                 channel: Optional[ByteChannel] = None,
                 config: Optional[TransferConfig] = None,
                 extent_start_lba: int = 0,
                 missing_blocks: Optional[Iterable[int]] = None) -> None:
        if channel is None:
            raise StorageError("LazyCopyIn needs a transfer channel")
        if (total_blocks is None) == (missing_blocks is None):
            raise StorageError(
                "give exactly one of total_blocks / missing_blocks")
        self.sim = sim
        self.disk = disk
        self.channel = channel
        self.config = config if config is not None else TransferConfig(
            rate_limit_bytes_per_s=11 * MB)
        self.extent_start_lba = extent_start_lba
        self.missing: Set[int] = (set(range(total_blocks))
                                  if total_blocks is not None
                                  else set(missing_blocks))
        self.initial_missing = len(self.missing)
        self.demand_fetches = 0
        self.prefetched_blocks = 0
        self.done: Optional[Event] = None

    @property
    def complete(self) -> bool:
        return not self.missing

    @property
    def present(self) -> "_PresentView":
        return _PresentView(self)

    def ensure_present(self, vba: int, nblocks: int = 1) -> Event:
        """Fault in a block range on first reference.

        The missing blocks are claimed now, fetched from the server, then
        landed on the local disk; the event fires once they are written
        (at once when nothing was missing).
        """
        wanted = [b for b in range(vba, vba + nblocks) if b in self.missing]
        if not wanted:
            return Event(self.sim).succeed()
        self.demand_fetches += len(wanted)
        self.missing.difference_update(wanted)
        return _then(
            self.channel.transfer(len(wanted) * self.config.block_size),
            lambda: self.disk.write(self.extent_start_lba + wanted[0],
                                    len(wanted)))

    def mark_present(self, vba: int, nblocks: int = 1) -> None:
        """Blocks made present by other means (whole-block overwrite)."""
        for b in range(vba, vba + nblocks):
            self.missing.discard(b)

    def start(self) -> Event:
        """Start the background prefetcher; fires when nothing is missing."""
        if self.done is not None:
            raise StorageError("copy-in already started")
        self.done = self.sim.process(self._prefetch_loop())
        return self.done

    def _prefetch_loop(self):
        cfg = self.config
        while self.missing:
            start = min(self.missing)
            chunk = []
            while (len(chunk) < cfg.chunk_blocks and
                   (start + len(chunk)) in self.missing):
                chunk.append(start + len(chunk))
            self.missing.difference_update(chunk)
            yield self.channel.transfer(len(chunk) * cfg.block_size)
            yield self.disk.write(self.extent_start_lba + chunk[0], len(chunk))
            self.prefetched_blocks += len(chunk)
            yield self.sim.timeout(self._pace_ns(len(chunk) * cfg.block_size))
        return self.prefetched_blocks

    def _pace_ns(self, chunk_bytes: int) -> int:
        budget = transfer_time_ns(chunk_bytes,
                                  self.config.rate_limit_bytes_per_s)
        wire = self.channel.transfer_time_ns(chunk_bytes)
        return max(0, budget - wire)


class _PresentView:
    """Adapter so callers can say ``pager.present.update(range(...))``."""

    def __init__(self, pager: LazyCopyIn) -> None:
        self._pager = pager

    def update(self, blocks: Iterable[int]) -> None:
        self._pager.missing.difference_update(blocks)

    def __contains__(self, block: int) -> bool:
        return block not in self._pager.missing


class LazyVolume:
    """A volume whose backing blocks may still be in flight (swap-in).

    Wraps an inner volume; reads fault missing blocks through the
    :class:`LazyCopyIn` before hitting the local disk, writes make blocks
    present (a whole-block overwrite needs no fetch).
    """

    def __init__(self, sim: Simulator, inner, pager: LazyCopyIn) -> None:
        self.sim = sim
        self.inner = inner
        self.pager = pager

    @property
    def nblocks(self) -> int:
        return self.inner.nblocks

    def read(self, vba: int, nblocks: int = 1) -> Event:
        return _then(self.pager.ensure_present(vba, nblocks),
                     lambda: self.inner.read(vba, nblocks))

    def write(self, vba: int, nblocks: int = 1) -> Event:
        self.pager.present.update(range(vba, vba + nblocks))
        return self.inner.write(vba, nblocks)


def _then(first: Event, issue) -> Event:
    """Once ``first`` fires, start the next I/O with ``issue()``.

    The returned event settles like that I/O; an exception from ``issue``
    fails it.
    """
    done = Event(first.sim)

    def settle(event: Event) -> None:
        if event._ok:
            done.succeed()
        else:
            event._defused = True
            done.fail(event._value)

    def start(_first: Event) -> None:
        try:
            issue().add_callback(settle)
        except Exception as exc:
            done.fail(exc)

    first.add_callback(start)
    return done
