"""Unit tests for extents, linear volumes, and the branching store."""

import pytest

from repro.errors import StorageError
from repro.faults import DiskFault, FaultInjector, FaultPlan
from repro.hw import Disk, DiskSpec
from repro.sim import Simulator
from repro.storage import (BranchConfig, BranchStore, ByteChannel, CowMode,
                           Extent, ExtentAllocator, LazyCopyIn, LinearVolume,
                           VolumeManager)
from repro.units import GB, MB, SECOND


def make_vm(sim, capacity=64 * GB):
    disk = Disk(sim, DiskSpec(capacity_bytes=capacity))
    return VolumeManager(sim, disk), disk


def make_branch(sim, golden_blocks=50_000, **cfg):
    vm, disk = make_vm(sim)
    golden = vm.create_golden("fc4", golden_blocks)
    branch = vm.create_branch("exp0", golden, config=BranchConfig(**cfg))
    return branch, disk


def test_extent_bounds_checked():
    sim = Simulator()
    disk = Disk(sim, DiskSpec(capacity_bytes=4096 * 1000))
    with pytest.raises(StorageError):
        Extent(disk, 900, 200)
    with pytest.raises(StorageError):
        Extent(disk, -1, 10)
    ext = Extent(disk, 0, 100)
    with pytest.raises(StorageError):
        ext.lba(100)


def test_allocator_hands_out_disjoint_extents():
    sim = Simulator()
    disk = Disk(sim, DiskSpec(capacity_bytes=4096 * 10_000))
    alloc = ExtentAllocator(disk)
    a = alloc.allocate(100)
    b = alloc.allocate(200)
    assert a.start_lba + a.nblocks <= b.start_lba
    assert alloc.used_blocks == 300


def test_linear_volume_out_of_range_rejected():
    sim = Simulator()
    disk = Disk(sim, DiskSpec(capacity_bytes=4096 * 1000))
    vol = LinearVolume(Extent(disk, 0, 100))
    with pytest.raises(StorageError):
        vol.read(90, 20)


def test_fresh_branch_reads_from_base():
    sim = Simulator()
    branch, disk = make_branch(sim)
    sim.run(until=branch.read(100, 8))
    assert branch.stats.reads_from_base == 8
    assert branch.stats.reads_from_current == 0


def test_writes_go_to_log_and_reads_come_back_from_it():
    sim = Simulator()
    branch, disk = make_branch(sim)
    sim.run(until=branch.write(100, 8))
    assert branch.current_delta_blocks == 8
    sim.run(until=branch.read(100, 8))
    assert branch.stats.reads_from_current == 8
    assert branch.stats.reads_from_base == 0


def test_aggregated_delta_serves_previous_cycle_blocks():
    sim = Simulator()
    vm, disk = make_vm(sim)
    golden = vm.create_golden("img", 50_000)
    branch = vm.create_branch("b0", golden,
                              aggregated_index={100: 0, 101: 1, 500: 2})
    sim.run(until=branch.read(100, 2))
    assert branch.stats.reads_from_aggregated == 2
    # A new write shadows the aggregated copy.
    sim.run(until=branch.write(100, 1))
    branch.stats.reads_from_aggregated = 0
    sim.run(until=branch.read(100, 1))
    assert branch.stats.reads_from_current == 1
    assert branch.stats.reads_from_aggregated == 0


def test_mixed_read_spans_all_three_levels():
    sim = Simulator()
    vm, disk = make_vm(sim)
    golden = vm.create_golden("img", 50_000)
    branch = vm.create_branch("b0", golden, aggregated_index={11: 0})
    sim.run(until=branch.write(10, 1))
    sim.run(until=branch.read(9, 4))     # base, log, agg, base
    assert branch.stats.reads_from_base == 2
    assert branch.stats.reads_from_current == 1
    assert branch.stats.reads_from_aggregated == 1


def test_rewrite_hits_log_in_place():
    sim = Simulator()
    branch, disk = make_branch(sim)
    sim.run(until=branch.write(0, 16))
    appends = branch.stats.log_appends
    sim.run(until=branch.write(0, 16))
    assert branch.stats.log_appends == appends          # no new allocations
    assert branch.stats.in_place_log_writes == 16
    assert branch.current_delta_blocks == 16


def test_redo_log_never_reads_before_write():
    sim = Simulator()
    branch, disk = make_branch(sim)
    sim.run(until=branch.write(0, 256))
    assert branch.stats.read_before_write_blocks == 0
    assert disk.reads == 0


def test_original_lvm_reads_before_first_write_only():
    sim = Simulator()
    branch, disk = make_branch(sim, cow_mode=CowMode.ORIGINAL_LVM)
    sim.run(until=branch.write(0, 256))
    assert branch.stats.read_before_write_blocks == 256
    sim.run(until=branch.write(0, 256))                 # rewrite: no COW
    assert branch.stats.read_before_write_blocks == 256


def test_fresh_disk_metadata_writes_happen_and_aged_skips_them():
    sim = Simulator()
    fresh, _ = make_branch(sim, aged=False)
    sim.run(until=fresh.write(0, 4000))
    assert fresh.stats.metadata_writes > 0
    sim2 = Simulator()
    aged, _ = make_branch(sim2, aged=True)
    sim2.run(until=aged.write(0, 4000))
    assert aged.stats.metadata_writes == 0


def test_fig8_shape_branch_overhead_fresh_vs_aged_vs_orig():
    """The Figure 8 ordering: base < aged-branch < fresh-branch << orig."""

    def timed_write(**cfg):
        sim = Simulator()
        branch, _ = make_branch(sim, **cfg)
        start = sim.now
        done = branch.write(0, 25_000)           # ~100 MB sequential
        sim.run(until=done)
        return sim.now - start

    def timed_raw():
        sim = Simulator()
        _, disk = make_branch(sim)
        start = sim.now
        sim.run(until=disk.write(0, 25_000))
        return sim.now - start

    t_raw = timed_raw()
    t_fresh = timed_write(aged=False)
    t_aged = timed_write(aged=True)
    t_orig = timed_write(cow_mode=CowMode.ORIGINAL_LVM)
    assert t_raw < t_aged < t_fresh < t_orig
    # Aged branch within a few % of raw; orig clearly slower than fresh.
    assert (t_aged - t_raw) / t_raw < 0.05
    assert t_orig / t_fresh > 1.4


def test_merge_into_aggregated_reorders_by_vba():
    sim = Simulator()
    vm, disk = make_vm(sim)
    golden = vm.create_golden("img", 50_000)
    branch = vm.create_branch("b0", golden, aggregated_index={500: 0, 10: 1})
    sim.run(until=branch.write(200, 2))
    merged = branch.merge_into_aggregated()
    assert sorted(merged) == [10, 200, 201, 500]
    # Offsets assigned in VBA order restore locality.
    assert [merged[v] for v in sorted(merged)] == [0, 1, 2, 3]


def test_drop_current_delta_rolls_back():
    sim = Simulator()
    branch, _ = make_branch(sim)
    sim.run(until=branch.write(0, 64))
    assert branch.drop_current_delta() == 64
    assert branch.current_delta_blocks == 0
    sim.run(until=branch.read(0, 4))
    assert branch.stats.reads_from_base == 4


def test_log_full_raises():
    sim = Simulator()
    vm, disk = make_vm(sim)
    golden = vm.create_golden("img", 10_000)
    branch = vm.create_branch("b0", golden, log_blocks=1024)
    with pytest.raises(StorageError):
        sim.run(until=branch.write(0, 2048))


def test_volume_manager_rejects_duplicates():
    sim = Simulator()
    vm, _ = make_vm(sim)
    golden = vm.create_golden("img", 1000)
    with pytest.raises(StorageError):
        vm.create_golden("img", 1000)
    vm.create_branch("b", golden)
    with pytest.raises(StorageError):
        vm.create_branch("b", golden)


def test_injected_write_fault_arrives_as_failed_event():
    sim = Simulator()
    disk = Disk(sim, DiskSpec(capacity_bytes=64 * GB))
    injector = FaultInjector(sim, FaultPlan(disk_faults=(
        DiskFault(store="b0", operation="write", max_failures=1),)))
    vm = VolumeManager(sim, disk, faults=injector)
    branch = vm.create_branch("b0", vm.create_golden("img", 10_000))
    seen = []
    branch.on_write_hooks.append(seen.append)
    failed = branch.write(0, 8)              # the call itself does not raise
    with pytest.raises(StorageError, match="injected I/O error"):
        sim.run(until=failed)
    assert seen == [] and branch.current_delta_blocks == 0
    assert disk.writes == 0
    sim.run(until=branch.write(0, 8))        # the fault burned out
    assert branch.current_delta_blocks == 8
    assert seen == [range(0, 8)]


def test_failing_inner_disk_io_fails_the_branch_op():
    sim = Simulator()
    branch, disk = make_branch(sim)
    sim.run(until=branch.write(0, 8))

    def failed_io(lba, nblocks):
        return sim.event().fail(StorageError("media error"))

    def raising_io(lba, nblocks):
        raise StorageError("controller reset")

    for broken, message in ((failed_io, "media error"),
                            (raising_io, "controller reset")):
        disk.read = broken
        with pytest.raises(StorageError, match=message):
            sim.run(until=branch.read(0, 8))
        disk.write = broken
        with pytest.raises(StorageError, match=message):
            sim.run(until=branch.write(100, 8))
        del disk.read, disk.write
    # The failures left nothing in flight: the next I/O runs normally.
    reads = disk.reads
    sim.run(until=branch.read(0, 8))
    assert disk.reads == reads + 1


def test_log_full_fails_the_write_event_not_the_call():
    sim = Simulator()
    vm, disk = make_vm(sim)
    branch = vm.create_branch("b0", vm.create_golden("img", 10_000),
                              log_blocks=1024)
    done = branch.write(0, 2048)
    with pytest.raises(StorageError, match="redo log full"):
        sim.run(until=done)
    assert not done.ok


def test_pager_faults_missing_aggregated_blocks_in_before_the_read():
    sim = Simulator()
    vm, disk = make_vm(sim)
    branch = vm.create_branch("b0", vm.create_golden("img", 50_000),
                              aggregated_index={100: 0, 101: 1, 102: 7})
    channel = ByteChannel(sim, rate_bytes_per_s=12 * MB)
    pager = LazyCopyIn(sim, disk, channel=channel,
                       extent_start_lba=branch.aggregated_extent.start_lba,
                       missing_blocks={0, 7})
    branch.pager = pager
    sim.run(until=branch.read(99, 5))        # base, agg x3, base
    # Offsets 0 and 7 came over the channel one at a time; offset 1 was
    # already local.
    assert pager.missing == set()
    assert pager.demand_fetches == 2 and channel.transfers == 2
    assert branch.stats.reads_from_aggregated == 3
    assert branch.stats.reads_from_base == 2
    transfers = channel.transfers
    sim.run(until=branch.read(99, 5))        # everything local now
    assert channel.transfers == transfers
