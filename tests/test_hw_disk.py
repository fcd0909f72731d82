"""Unit tests for the disk model."""

import pytest

from repro.errors import StorageError
from repro.hw.disk import Disk, DiskSpec
from repro.sim import Simulator
from repro.units import MB, MS, transfer_time_ns


def make_disk(sim, **kw):
    return Disk(sim, DiskSpec(**kw))


def test_first_access_pays_seek():
    sim = Simulator()
    disk = make_disk(sim)
    done = disk.read(100, 1)
    sim.run(until=done)
    expected = (disk.spec.seek_ns + disk.spec.rotational_ns +
                transfer_time_ns(disk.spec.block_size, disk.spec.transfer_bps))
    assert sim.now == expected
    assert disk.seeks == 1


def test_sequential_access_avoids_seek():
    sim = Simulator()
    disk = make_disk(sim)
    sim.run(until=disk.read(100, 4))
    t_after_first = sim.now
    sim.run(until=disk.read(104, 4))  # continues where the head stopped
    assert disk.seeks == 1
    assert (sim.now - t_after_first) == transfer_time_ns(
        4 * disk.spec.block_size, disk.spec.transfer_bps)


def test_random_access_pays_seek_each_time():
    sim = Simulator()
    disk = make_disk(sim)
    sim.run(until=disk.read(100, 1))
    sim.run(until=disk.read(5000, 1))
    sim.run(until=disk.read(100, 1))
    assert disk.seeks == 3


def test_requests_serialize_through_one_head():
    sim = Simulator()
    disk = make_disk(sim)
    a = disk.read(0, 100)
    b = disk.read(5000, 100)
    sim.run(until=sim.all_of([a, b]))
    per_req_transfer = transfer_time_ns(100 * disk.spec.block_size,
                                        disk.spec.transfer_bps)
    assert sim.now >= 2 * per_req_transfer


def test_stats_accounting():
    sim = Simulator()
    disk = make_disk(sim)
    sim.run(until=disk.write(0, 10))
    sim.run(until=disk.read(0, 5))
    assert disk.writes == 1 and disk.reads == 1
    assert disk.bytes_written == 10 * disk.spec.block_size
    assert disk.bytes_read == 5 * disk.spec.block_size
    assert disk.busy_ns > 0


def test_out_of_range_io_rejected():
    sim = Simulator()
    disk = make_disk(sim, capacity_bytes=4096 * 100, block_size=4096)
    with pytest.raises(StorageError):
        sim.run(until=disk.read(100, 1))
    with pytest.raises(StorageError):
        sim.run(until=disk.read(-1, 1))
    with pytest.raises(StorageError):
        sim.run(until=disk.write(0, 0))


def test_out_of_range_io_raises_at_call_time():
    # Like LinearVolume and BranchStore, the disk checks the range when
    # the request is made: nothing is queued and no event is scheduled.
    sim = Simulator()
    disk = make_disk(sim, capacity_bytes=4096 * 100, block_size=4096)
    for lba, nblocks in ((100, 1), (-1, 1), (0, 0), (99, 2)):
        with pytest.raises(StorageError):
            disk.write(lba, nblocks)
    assert sim.pending_count == 0
    assert (disk.reads, disk.writes, disk.seeks) == (0, 0, 0)


def test_queued_requests_complete_in_fifo_order_with_seek_accounting():
    sim = Simulator()
    disk = make_disk(sim)
    spec = disk.spec
    seek = spec.seek_ns + spec.rotational_ns

    def xfer(nblocks):
        return transfer_time_ns(nblocks * spec.block_size, spec.transfer_bps)

    finished = []
    requests = [(100, 8, False), (108, 8, True), (5000, 4, False),
                (5004, 2, True)]
    for i, (lba, nblocks, write) in enumerate(requests):
        op = disk.write if write else disk.read
        op(lba, nblocks).add_callback(
            lambda _ev, i=i: finished.append((i, sim.now)))
    sim.run()
    # One head: each request starts where the previous one ended, and
    # only the two jumps (the first access and 108+8 -> 5000) seek.
    t1 = seek + xfer(8)
    t2 = t1 + xfer(8)
    t3 = t2 + seek + xfer(4)
    t4 = t3 + xfer(2)
    assert finished == [(0, t1), (1, t2), (2, t3), (3, t4)]
    assert disk.seeks == 2
    assert disk.busy_ns == t4
    assert (disk.reads, disk.writes) == (2, 2)
    assert disk.bytes_read == 12 * spec.block_size
    assert disk.bytes_written == 10 * spec.block_size


def test_invalid_geometry_rejected():
    with pytest.raises(StorageError):
        DiskSpec(block_size=0)


def test_throughput_matches_media_rate_for_large_sequential_io():
    sim = Simulator()
    disk = make_disk(sim)
    nblocks = (64 * MB) // disk.spec.block_size
    done = disk.write(0, nblocks)
    sim.run(until=done)
    achieved = disk.bytes_written / (sim.now / 1e9)
    # One seek amortized over 64 MB: within 1% of the media rate.
    assert achieved == pytest.approx(disk.spec.transfer_bps, rel=0.01)


def test_snapshot_refuses_disk_with_queued_io():
    sim = Simulator()
    disk = make_disk(sim)
    sim.run(until=disk.read(100, 4))
    idle = disk.serialize_state()
    disk.read(5000, 4)
    disk.write(0, 4)
    with pytest.raises(StorageError, match="in flight"):
        disk.serialize_state()
    with pytest.raises(StorageError, match="in flight"):
        disk.restore_state(idle)
    sim.run()
    disk.restore_state(idle)                # idle again: accepted
    assert disk.serialize_state() == idle
