"""Three-level branching storage with copy-on-write (§5.1, §5.3, Figure 3).

The logical disk of a guest is stitched from three levels:

* **golden image** — immutable base filesystem, linear addressing
  (VBA == PBA), shared across experiments;
* **aggregated delta** — all changes from previous swap-ins, immutable,
  indexed by a hash;
* **current delta** — changes since this swap-in, implemented as a **redo
  log**: writes append to the log and update an in-memory hash index.

Two COW policies are provided:

* :attr:`CowMode.REDO_LOG` — the paper's optimized design: the filesystem
  block size is a multiple of the LVM block size, so a copy-on-write is
  always a complete overwrite and **never requires a read-before-write**;
  on-disk metadata regions (distributed over the whole disk) are updated
  periodically, costing extra seeks on a fresh disk that disappear as the
  regions fill up — Figure 8's 17% → 2% fresh-vs-aged write overhead.
* :attr:`CowMode.ORIGINAL_LVM` — stock LVM snapshots: every first write to
  a block reads the original data before writing (batched by the COW chunk
  size), the behaviour the paper measured as 74% slower block writes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import StorageError
from repro.sim.core import Event, Simulator
from repro.storage.blockdev import Extent, LinearVolume
from repro.units import KB, MB


class CowMode(enum.Enum):
    REDO_LOG = "redo-log"
    ORIGINAL_LVM = "original-lvm"


@dataclass(frozen=True)
class BranchPoint:
    """A branch's redo-log map frozen at a checkpoint (§4.5).

    Pure metadata — the log blocks themselves are immutable once
    appended, so capturing the index *is* capturing the disk state.  A
    point can later seed :meth:`BranchStore.rollback_to` (rewind the
    live branch) or :meth:`~repro.storage.lvm.VolumeManager.fork_branch`
    (open a sibling branch frozen at this instant).
    """

    branch_name: str
    log_head: int
    blocks_since_metadata: int
    #: the log index at capture, as ``(vba, log_offset)`` sorted by VBA
    index: Tuple[Tuple[int, int], ...]

    @property
    def delta_blocks(self) -> int:
        return len(self.index)


@dataclass(frozen=True)
class BranchConfig:
    """Tunables of the branching store."""

    cow_mode: CowMode = CowMode.REDO_LOG
    #: address-translation cost (hash lookups, request splitting) per block
    translation_ns_per_block: int = 1100
    #: data blocks appended to the log between on-disk metadata updates
    #: (calibrated to the paper's fresh-disk overhead, Figure 8)
    metadata_interval_blocks: int = 1500
    #: physical distance (blocks) of the metadata region from the log head,
    #: forcing a seek when metadata is written on a fresh disk
    metadata_region_stride: int = 1 << 20
    #: original-LVM read-before-write is batched at this many blocks
    rbw_batch_blocks: int = 1024
    #: whether the disk's metadata regions are already filled ("aged")
    aged: bool = False


@dataclass
class BranchStats:
    """Counters for the storage benchmarks."""

    log_appends: int = 0
    in_place_log_writes: int = 0
    metadata_writes: int = 0
    read_before_write_blocks: int = 0
    reads_from_current: int = 0
    reads_from_aggregated: int = 0
    reads_from_base: int = 0


class BranchStore:
    """A branch: golden image + aggregated delta + current redo log."""

    def __init__(self, sim: Simulator, base: LinearVolume,
                 aggregated_extent: Extent, log_extent: Extent,
                 config: Optional[BranchConfig] = None,
                 aggregated_index: Optional[Dict[int, int]] = None,
                 name: str = "branch", faults=None) -> None:
        self.sim = sim
        self.base = base
        self.aggregated_extent = aggregated_extent
        self.log_extent = log_extent
        self.config = config if config is not None else BranchConfig()
        self.name = name
        #: optional :class:`~repro.faults.injector.FaultInjector` whose
        #: ``disk_check`` may raise injected I/O errors
        self.faults = faults
        #: VBA -> offset in the aggregated-delta extent (immutable)
        self.aggregated_index: Dict[int, int] = dict(aggregated_index or {})
        #: VBA -> offset in the current log extent
        self.log_index: Dict[int, int] = {}
        self._log_head = 0
        self._blocks_since_metadata = 0
        self.stats = BranchStats()
        #: origin blocks already fetched by the read-before-write
        #: read-ahead (ORIGINAL_LVM mode only)
        self._rbw_covered: set = set()
        #: observers of logical writes (swap-out pre-copy dirty tracking)
        self.on_write_hooks: list = []
        #: demand pager (:class:`~repro.storage.mirror.LazyCopyIn`) of the
        #: aggregated delta after a lazy swap-in: :meth:`read` faults its
        #: missing blocks in first; ``None`` without lazy swap-in
        self.pager = None

    # ------------------------------------------------------------------ geometry

    @property
    def nblocks(self) -> int:
        """Size of the logical disk."""
        return self.base.nblocks

    @property
    def current_delta_blocks(self) -> int:
        """Blocks captured in the current delta (what swap-out must save)."""
        return len(self.log_index)

    @property
    def aggregated_delta_blocks(self) -> int:
        return len(self.aggregated_index)

    # ------------------------------------------------------------------ write path

    def write(self, vba: int, nblocks: int = 1) -> Event:
        """Write ``nblocks`` logical blocks starting at ``vba``.

        The returned event fails (rather than this call raising) when an
        injected ``disk_check`` fault fires or an inner I/O fails.
        """
        self._check(vba, nblocks)
        if self.faults is not None:
            try:
                self.faults.disk_check(self.name, "write")
            except StorageError as exc:
                return Event(self.sim).fail(exc)
        for hook in self.on_write_hooks:
            hook(range(vba, vba + nblocks))
        op = _WriteOp(self, vba, nblocks, self._write_runs(vba, nblocks))
        op.arm(nblocks * self.config.translation_ns_per_block,
               op.read_before_write)
        return op.done

    def _write_runs(self, vba: int, nblocks: int
                    ) -> Iterator[Tuple[bool, int, int]]:
        run_start, run_fresh = vba, vba not in self.log_index
        run_len = 0
        for b in range(vba, vba + nblocks):
            fresh = b not in self.log_index
            contiguous = (not fresh and run_len > 0 and
                          self.log_index.get(b) ==
                          self.log_index.get(b - 1, -2) + 1)
            if run_len > 0 and (fresh == run_fresh) and (fresh or contiguous):
                run_len += 1
            else:
                if run_len:
                    yield run_fresh, run_start, run_len
                run_start, run_fresh, run_len = b, fresh, 1
        if run_len:
            yield run_fresh, run_start, run_len

    # ------------------------------------------------------------------ read path

    def read(self, vba: int, nblocks: int = 1) -> Event:
        """Read ``nblocks`` logical blocks starting at ``vba``.

        Each run is served by the highest level holding it: current log,
        then aggregated delta, then the golden image (Figure 3's address
        translation: hash, hash, linear).  With a :attr:`pager` attached,
        aggregated-delta blocks still on the server are faulted in first,
        one at a time.
        """
        self._check(vba, nblocks)
        op = _ReadOp(self, vba, nblocks, self._read_runs(vba, nblocks))
        op.cursor = vba
        op.resume_with(op.fault_in if self.pager is not None
                       else op.translate)
        return op.done

    def _level_of(self, vba: int) -> str:
        if vba in self.log_index:
            return "log"
        if vba in self.aggregated_index:
            return "agg"
        return "base"

    def _read_runs(self, vba: int, nblocks: int
                   ) -> Iterator[Tuple[str, int, int]]:
        index = {"log": self.log_index, "agg": self.aggregated_index}
        run_start, run_level, run_len = vba, self._level_of(vba), 0
        for b in range(vba, vba + nblocks):
            level = self._level_of(b)
            if run_len > 0 and level == run_level:
                if level == "base":
                    run_len += 1
                    continue
                table = index[level]
                if table.get(b) == table.get(b - 1, -2) + 1:
                    run_len += 1
                    continue
            if run_len:
                yield run_level, run_start, run_len
            run_start, run_level, run_len = b, level, 1
        if run_len:
            yield run_level, run_start, run_len

    # ------------------------------------------------------------------ branching

    def merge_into_aggregated(self) -> Dict[int, int]:
        """Offline merge of the current delta into the aggregated delta.

        Performed after swap-out; blocks are **reordered by VBA** so that
        data locality in the aggregated delta is restored (§5.3).  Returns
        the new aggregated index (offsets assigned in VBA order).
        """
        merged_vbas = sorted(set(self.aggregated_index) | set(self.log_index))
        if len(merged_vbas) > self.aggregated_extent.nblocks:
            raise StorageError(f"{self.name}: aggregated delta extent full")
        return {vba: i for i, vba in enumerate(merged_vbas)}

    def take_checkpoint(self) -> BranchPoint:
        """Freeze the current redo-log map as a :class:`BranchPoint`.

        Zero simulated time: the log is append-only, so the metadata
        captured here stays valid no matter how the branch grows after
        the checkpoint.  Meant to run during the pipeline's ``branch``
        stage, while the domain writing to this branch is suspended.
        """
        if self.faults is not None:
            self.faults.disk_check(self.name, "take_checkpoint")
        return BranchPoint(
            branch_name=self.name,
            log_head=self._log_head,
            blocks_since_metadata=self._blocks_since_metadata,
            index=tuple(sorted(self.log_index.items())))

    def rollback_to(self, point: BranchPoint) -> int:
        """Rewind the live branch to a previously taken branch point.

        Log blocks appended after the point become dead space (the log
        head moves back over them); blocks written before it are intact
        because appends never overwrite.  Returns the number of delta
        blocks discarded.
        """
        if point.branch_name != self.name:
            raise StorageError(
                f"{self.name}: branch point belongs to {point.branch_name}")
        if point.log_head > self._log_head:
            raise StorageError(
                f"{self.name}: branch point is ahead of the log "
                f"({point.log_head} > {self._log_head})")
        discarded = len(self.log_index) - len(point.index)
        self.log_index = dict(point.index)
        self._log_head = point.log_head
        self._blocks_since_metadata = point.blocks_since_metadata
        return discarded

    def drop_current_delta(self) -> int:
        """Discard the redo log (rollback to the branch point).

        Returns the number of blocks discarded.
        """
        dropped = len(self.log_index)
        self.log_index.clear()
        self._log_head = 0
        self._blocks_since_metadata = 0
        return dropped

    # ------------------------------------------------------------------ snapshot

    def serialize_state(self) -> dict:
        """Full mutable state of the branch as a JSON-serializable dict.

        Extends :meth:`take_checkpoint` (log map only) with the I/O
        statistics and the read-before-write coverage set, so a restored
        branch is indistinguishable from the snapshotted one to every
        observer — including the benchmarks that digest ``stats``.  The
        golden image and aggregated delta are immutable and re-created by
        world construction; only their sizes are recorded, for
        validation.
        """
        stats = self.stats
        return {
            "name": self.name,
            "cow_mode": self.config.cow_mode.value,
            "nblocks": self.nblocks,
            "aggregated_blocks": len(self.aggregated_index),
            "log_head": self._log_head,
            "blocks_since_metadata": self._blocks_since_metadata,
            "log_index": [[vba, off] for vba, off
                          in sorted(self.log_index.items())],
            "rbw_covered": sorted(self._rbw_covered),
            "stats": {
                "log_appends": stats.log_appends,
                "in_place_log_writes": stats.in_place_log_writes,
                "metadata_writes": stats.metadata_writes,
                "read_before_write_blocks": stats.read_before_write_blocks,
                "reads_from_current": stats.reads_from_current,
                "reads_from_aggregated": stats.reads_from_aggregated,
                "reads_from_base": stats.reads_from_base,
            },
        }

    def restore_state(self, state: dict) -> None:
        """Re-apply a :meth:`serialize_state` payload to this branch.

        The branch must be structurally identical to the snapshotted one
        (same name, COW mode, and geometry) — restoring across different
        volumes would silently remap blocks, so that fails loudly.
        """
        expected = ("name", "cow_mode", "nblocks", "aggregated_blocks",
                    "log_head", "blocks_since_metadata", "log_index",
                    "rbw_covered", "stats")
        if not isinstance(state, dict) or set(state) != set(expected):
            raise StorageError(f"{self.name}: malformed branch payload")
        if state["name"] != self.name:
            raise StorageError(
                f"{self.name}: payload belongs to branch {state['name']!r}")
        if state["cow_mode"] != self.config.cow_mode.value:
            raise StorageError(
                f"{self.name}: COW mode mismatch ({state['cow_mode']!r} "
                f"vs {self.config.cow_mode.value!r})")
        if state["nblocks"] != self.nblocks or \
                state["aggregated_blocks"] != len(self.aggregated_index):
            raise StorageError(f"{self.name}: volume geometry mismatch")
        if state["log_head"] > self.log_extent.nblocks:
            raise StorageError(f"{self.name}: log head beyond extent")
        self.log_index = {vba: off for vba, off in state["log_index"]}
        self._log_head = state["log_head"]
        self._blocks_since_metadata = state["blocks_since_metadata"]
        self._rbw_covered = set(state["rbw_covered"])
        self.stats = BranchStats(**state["stats"])

    def _check(self, vba: int, nblocks: int) -> None:
        if nblocks <= 0 or vba < 0 or vba + nblocks > self.nblocks:
            raise StorageError(
                f"{self.name}: I/O [{vba}, +{nblocks}) outside logical disk "
                f"of {self.nblocks} blocks")


class _BranchOp:
    """One in-flight :class:`BranchStore` operation, held in plain fields.

    Each stage issues at most one inner I/O (or arms the translation
    delay) and names the stage that continues once it completes, so the
    op's progress lives in these slots rather than in a coroutine frame.
    ``runs`` is the branch's lazy run iterator, first advanced after the
    translation delay (and any read-before-write).  An exception raised
    by a stage, or a failed inner I/O, fails ``done``.
    """

    __slots__ = ("branch", "vba", "nblocks", "done", "runs", "cursor",
                 "stop", "count", "_then")

    def __init__(self, branch: BranchStore, vba: int, nblocks: int,
                 runs: Iterator) -> None:
        self.branch = branch
        self.vba = vba
        self.nblocks = nblocks
        self.done = Event(branch.sim)
        self.runs = runs
        self.cursor = 0
        self.stop = 0
        self.count = 0
        self._then = None

    def arm(self, delay_ns: int, then) -> None:
        """Continue with ``then()`` after ``delay_ns`` of simulated time."""
        self._then = then
        sim = self.branch.sim
        sim.schedule_fn(sim.now + delay_ns, self._resume)

    def wait(self, inner: Event, then) -> None:
        """Continue with ``then()`` once the inner I/O ``inner`` is done."""
        self._then = then
        inner.add_callback(self._on_inner)

    def resume_with(self, then) -> None:
        """Continue with ``then()`` now."""
        self._then = then
        self._resume()

    def _on_inner(self, event: Event) -> None:
        if not event._ok:
            event._defused = True
            self.done.fail(event._value)
            return
        self._resume()

    def _resume(self) -> None:
        try:
            self._then()
        except Exception as exc:
            self.done.fail(exc)


class _WriteOp(_BranchOp):
    """Translation, ORIGINAL_LVM read-before-write, then run-by-run writes."""

    __slots__ = ()

    def read_before_write(self) -> None:
        """Original LVM: fetch original data for not-yet-copied blocks.

        LVM reads the origin at COW-chunk granularity with read-ahead:
        one ``rbw_batch_blocks`` origin read covers the next batch of
        first-writes, so sequential writes pay roughly one extra read per
        batch rather than one per write.
        """
        branch = self.branch
        if branch.config.cow_mode is CowMode.ORIGINAL_LVM:
            log_index, covered = branch.log_index, branch._rbw_covered
            pending = [b for b in range(self.vba, self.vba + self.nblocks)
                       if b not in log_index and b not in covered]
            if pending:
                branch.stats.read_before_write_blocks += len(pending)
                self.cursor, self.stop = pending[0], pending[-1]
                self._read_batch()
                return
        self._next_run()

    def _read_batch(self) -> None:
        # ``cursor`` is the next origin block to fetch, ``stop`` the last
        # pending block the batches must reach, ``count`` the batch size.
        base = self.branch.base
        self.count = min(self.branch.config.rbw_batch_blocks,
                         base.nblocks - self.cursor)
        self.wait(base.read(self.cursor, self.count), self._batch_read)

    def _batch_read(self) -> None:
        branch = self.branch
        branch._rbw_covered.update(range(self.cursor,
                                         self.cursor + self.count))
        self.cursor += self.count
        if self.cursor <= self.stop:
            self._read_batch()
        else:
            self._next_run()

    def _next_run(self) -> None:
        # Split the range into runs of fresh blocks (appended to the log,
        # physically contiguous) and already-logged blocks (overwritten in
        # place at their existing log slots).
        run = next(self.runs, None)
        if run is None:
            self.done.succeed()
            return
        fresh, start, count = run
        branch = self.branch
        log = branch.log_extent
        if fresh:
            if branch._log_head + count > log.nblocks:
                raise StorageError(f"{branch.name}: redo log full")
            offset = branch._log_head
            log_index = branch.log_index
            for i in range(count):
                log_index[start + i] = offset + i
            branch._log_head += count
            branch.stats.log_appends += count
            self.count = count
            self.wait(log.disk.write(log.lba(offset), count), self._appended)
        else:
            branch.stats.in_place_log_writes += count
            self.wait(log.disk.write(log.lba(branch.log_index[start]), count),
                      self._next_run)

    def _appended(self) -> None:
        branch = self.branch
        if not branch.config.aged:
            branch._blocks_since_metadata += self.count
        self._metadata()

    def _metadata(self) -> None:
        """REDO_LOG: periodic on-disk metadata region update."""
        branch = self.branch
        config = branch.config
        if config.aged or \
                branch._blocks_since_metadata < config.metadata_interval_blocks:
            self._next_run()
            return
        branch._blocks_since_metadata -= config.metadata_interval_blocks
        disk = branch.log_extent.disk
        region_lba = min(
            disk.num_blocks - 2,
            branch.log_extent.start_lba + config.metadata_region_stride
            + (branch.stats.metadata_writes % 16) * 1024)
        branch.stats.metadata_writes += 1
        self.wait(disk.write(region_lba, 1), self._metadata)


class _ReadOp(_BranchOp):
    """Demand faults (with a pager), translation, then run-by-run reads."""

    __slots__ = ()

    def fault_in(self) -> None:
        # ``cursor`` is the next logical block to check against the pager.
        branch = self.branch
        pager = branch.pager
        aggregated = branch.aggregated_index
        for b in range(self.cursor, self.vba + self.nblocks):
            off = aggregated.get(b)
            if off is not None and off in pager.missing:
                self.cursor = b + 1
                self.wait(pager.ensure_present(off, 1), self.fault_in)
                return
        self.translate()

    def translate(self) -> None:
        self.arm(self.nblocks * self.branch.config.translation_ns_per_block,
                 self._next_run)

    def _next_run(self) -> None:
        run = next(self.runs, None)
        if run is None:
            self.done.succeed()
            return
        level, start, count = run
        branch = self.branch
        stats = branch.stats
        if level == "log":
            stats.reads_from_current += count
            log = branch.log_extent
            inner = log.disk.read(log.lba(branch.log_index[start]), count)
        elif level == "agg":
            stats.reads_from_aggregated += count
            agg = branch.aggregated_extent
            inner = agg.disk.read(agg.lba(branch.aggregated_index[start]),
                                  count)
        else:
            stats.reads_from_base += count
            inner = branch.base.read(start, count)
        self.wait(inner, self._next_run)
