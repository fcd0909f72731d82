"""Scenario rigs: the paper's figure rigs and two kernel stress loads.

Every scenario builds its world through the public API on a caller-supplied
:class:`~repro.sim.core.Simulator`.  The figure scenarios return an
:func:`~repro.analysis.digest.experiment_digest` (or a hash over one plus
checkpoint timings), which the equivalence tests compare against the
stored goldens in ``benchmarks/results/`` (``PIPELINE_digests.json`` and
``SCHEDULER_digests.json``).
"""

from __future__ import annotations

import hashlib
from typing import Optional, Tuple

from repro.analysis.digest import (branch_digest, checkpoint_result_parts,
                                   coordinated_result_parts,
                                   experiment_digest, hash_parts)
from repro.sim import Simulator
from repro.sim.random import RandomStreams
from repro.sim.timers import SimTimerService
from repro.testbed.schedule import (periodic_coordinated_checkpoints,
                                    periodic_local_checkpoints)
from repro.units import GB, GBPS, MB, MBPS, MS, SECOND, US


# -- kernel stress loads ------------------------------------------------------


def run_timer_storm(sim: Simulator, rounds: int = 400,
                    timers: int = 250) -> Tuple[int, int, int]:
    """A TCP-RTO-style cancel/rearm storm.

    Each round arms ``timers`` long-deadline timers (60 s out, like
    retransmission timers) and immediately cancels all but one — the
    "ack arrived, rearm" pattern.  Without tombstone reclamation the
    store would grow by ``timers - 1`` dead entries per round; lazy
    deletion + compaction keep it within a small multiple of the
    ``rounds`` live timers.  Returns (timers armed, timers fired, peak
    ``sim.pending_count`` sampled after each round's cancels) — the peak
    is deterministic, so ``tests/test_sim_fastpath.py`` gates on it
    exactly.
    """
    svc = SimTimerService(sim)
    state = {"fired": 0}

    def on_fire() -> None:
        state["fired"] += 1

    armed = 0
    peak_pending = 0
    for _ in range(rounds):
        handles = [svc.call_in(60 * SECOND, on_fire) for _ in range(timers)]
        armed += len(handles)
        for handle in handles[:-1]:
            handle.cancel()
        peak_pending = max(peak_pending, sim.pending_count)
        sim.run(until=sim.now + 1 * MS)
    sim.run(until=sim.now + 61 * SECOND)
    return armed, state["fired"], peak_pending


def run_pipe_saturation(sim: Simulator, packets: int = 20_000,
                        bursts: int = 40) -> str:
    """A Dummynet pipe saturated between checkpoint epochs.

    Pumps ``packets`` packets through one shaped pipe (bandwidth + delay
    line) in ``bursts`` back-to-back bursts, refilling the router queue
    from the sink callback so the bandwidth server never idles — the
    steady-state load the pipe's merged advance call exists for.  Returns
    a digest over every delivery instant and packet identity, so any
    change to the pipe's scheduling changes the result (the stored golden
    is in ``benchmarks/results/SCHEDULER_digests.json``).
    """
    from repro.net.dummynet import Pipe, PipeConfig
    from repro.net.packet import Packet

    config = PipeConfig(bandwidth_bps=100 * MBPS, delay_ns=5 * MS,
                        queue_slots=200)
    state = {"sent": 0, "h": hashlib.sha256()}
    per_burst = max(1, packets // bursts)

    def sink(packet: Packet) -> None:
        state["h"].update(b"%d:%d;" % (sim.now, packet.headers["n"]))
        # Refill from the delivery callback: keeps the queue non-empty so
        # the server stays saturated (and exercises advance re-entrancy).
        if state["sent"] < packets:
            n = state["sent"]
            state["sent"] += 1
            pipe.submit(Packet("src", "dst", "bench", 1434,
                               headers={"n": n}))

    rng = RandomStreams(seed=11).stream("bench.pipe_saturation")
    pipe = Pipe(sim, config, sink, rng, name="saturation")
    for _ in range(bursts):
        if state["sent"] >= packets:
            break
        for _i in range(per_burst):
            if state["sent"] >= packets:
                break
            n = state["sent"]
            state["sent"] += 1
            pipe.submit(Packet("src", "dst", "bench", 1434,
                               headers={"n": n}))
        sim.run(until=sim.now + 50 * MS)
    sim.run()
    state["h"].update(b"delivered=%d" % pipe.delivered)
    return state["h"].hexdigest()


# -- figure rigs ----------------------------------------------------------------


def build_fig6_rig(sim: Simulator, seed: int = 6, memory: int = 64 * MB,
                   streams: Optional[RandomStreams] = None, tracer=None):
    """The Figure 6 topology: two guests joined by one shaped GigE link."""
    from repro.testbed import (Emulab, ExperimentSpec, LinkSpec, NodeSpec,
                              TestbedConfig)

    testbed = Emulab(sim, TestbedConfig(num_machines=4, seed=seed),
                     streams=streams, tracer=tracer)
    exp = testbed.define_experiment(ExperimentSpec(
        "bench",
        nodes=[NodeSpec("node0", memory_bytes=memory),
               NodeSpec("node1", memory_bytes=memory)],
        links=[LinkSpec("link0", "node0", "node1", bandwidth_bps=GBPS)]))
    sim.run(until=exp.swap_in())
    return testbed, exp


def build_fig7_rig(sim: Simulator, num_nodes: int = 4,
                   bandwidth_bps: int = 100 * MBPS, seed: int = 7,
                   memory: int = 64 * MB,
                   streams: Optional[RandomStreams] = None,
                   faults=None, reliability=None, tracer=None):
    """The Figure 7 topology: ``num_nodes`` guests on a shaped LAN."""
    from repro.testbed import (Emulab, ExperimentSpec, NodeSpec,
                              TestbedConfig)
    from repro.testbed.experiment import LanSpec

    testbed = Emulab(sim, TestbedConfig(num_machines=2 * num_nodes + 1,
                                        seed=seed,
                                        bus_reliability=reliability),
                     streams=streams, faults=faults, tracer=tracer)
    names = [f"node{i}" for i in range(num_nodes)]
    exp = testbed.define_experiment(ExperimentSpec(
        "bench",
        nodes=[NodeSpec(n, memory_bytes=memory) for n in names],
        lans=[LanSpec("lan0", tuple(names), bandwidth_bps=bandwidth_bps)]))
    sim.run(until=exp.swap_in())
    return testbed, exp


def run_fig6(sim: Simulator, run_seconds: int = 20, num_ckpts: int = 3,
             seed: int = 6,
             streams: Optional[RandomStreams] = None, tracer=None) -> str:
    """The Figure 6 scenario (iperf under coordinated checkpoints).

    Returns the experiment digest, which covers guest virtual time, TCP
    sequence state and counters, storage content maps, and delay-node
    occupancy — any scheduling change moves it.
    """
    from repro.workloads import IperfSession

    testbed, exp = build_fig6_rig(sim, seed=seed, streams=streams,
                                  tracer=tracer)
    sender, receiver = exp.kernel("node1"), exp.kernel("node0")
    session = IperfSession(sender, receiver)
    session.start()
    start = sim.now
    periodic_coordinated_checkpoints(sim, exp, period_ns=4 * SECOND,
                                     count=num_ckpts,
                                     start_at_ns=start + 3 * SECOND)
    sim.run(until=start + run_seconds * SECOND)
    session.stop()
    sim.run(until=sim.now + 200 * MS)
    return experiment_digest(exp)


def run_fig7(sim: Simulator, run_seconds: int = 25, num_ckpts: int = 3,
             seed: int = 7,
             streams: Optional[RandomStreams] = None, tracer=None) -> str:
    """The Figure 7 scenario (BitTorrent swarm under checkpoints)."""
    from repro.workloads import BitTorrentSwarm

    testbed, exp = build_fig7_rig(sim, seed=seed, streams=streams,
                                  tracer=tracer)
    kernels = [exp.kernel(f"node{i}") for i in range(4)]
    swarm = BitTorrentSwarm(kernels, seeder_index=0, file_bytes=3 * GB,
                            rng=testbed.streams.stream("bt"))
    swarm.start()
    start = sim.now
    periodic_coordinated_checkpoints(sim, exp, period_ns=5 * SECOND,
                                     count=num_ckpts,
                                     start_at_ns=start + 5 * SECOND)
    sim.run(until=start + run_seconds * SECOND)
    return experiment_digest(exp)


# -- checkpoint-pipeline equivalence scenarios ---------------------------------
#
# The fig4/fig5/fig8 digests below are the checkpoint-pipeline port gate:
# their values were captured on the pre-pipeline monolithic implementation
# and must stay bit-identical (see tests/test_pipeline_equivalence.py and
# benchmarks/results/PIPELINE_digests.json).


def build_single_node_rig(sim: Simulator, seed: int, memory: int = 128 * MB,
                          streams: Optional[RandomStreams] = None,
                          tracer=None):
    """One checkpointable guest, swapped in (fig4/fig5 topology)."""
    from repro.testbed import (Emulab, ExperimentSpec, NodeSpec,
                              TestbedConfig)

    testbed = Emulab(sim, TestbedConfig(num_machines=2, seed=seed),
                     streams=streams, tracer=tracer)
    exp = testbed.define_experiment(ExperimentSpec(
        "bench", nodes=[NodeSpec("node0", memory_bytes=memory)]))
    sim.run(until=exp.swap_in())
    return testbed, exp


def run_fig4(sim: Simulator, iterations: int = 600, num_ckpts: int = 3,
             seed: int = 4,
             streams: Optional[RandomStreams] = None, tracer=None) -> str:
    """The Figure 4 scenario (usleep loop under local checkpoints).

    Returns a digest over the experiment state plus every checkpoint's
    timing fields — any divergence in the checkpoint sequencing (phase
    order, firewall windows, stop-and-copy timing) changes it.
    ``tracer`` attaches observability (spans + records); the digest must
    stay bit-identical with or without it.
    """
    from repro.workloads import SleeperBenchmark

    _testbed, exp = build_single_node_rig(sim, seed=seed, streams=streams,
                                          tracer=tracer)
    kernel = exp.kernel("node0")
    bench = SleeperBenchmark(kernel, iterations=iterations)
    bench.start()
    results = periodic_local_checkpoints(
        sim, exp.node("node0").checkpointer, period_ns=3 * SECOND,
        count=num_ckpts, start_at_ns=sim.now + 2 * SECOND)
    sim.run(until=bench.join())
    parts = [experiment_digest(exp)]
    parts.extend(checkpoint_result_parts(results))
    parts.append(("sleeper", len(bench.result.iteration_ns),
                  sum(bench.result.iteration_ns),
                  max(bench.result.iteration_ns)))
    return hash_parts(parts)


def run_fig5(sim: Simulator, iterations: int = 30, num_ckpts: int = 3,
             seed: int = 5,
             streams: Optional[RandomStreams] = None, tracer=None) -> str:
    """The Figure 5 scenario (CPU-intensive loop under local checkpoints)."""
    from repro.workloads import CpuBurnBenchmark

    _testbed, exp = build_single_node_rig(sim, seed=seed, streams=streams,
                                          tracer=tracer)
    bench = CpuBurnBenchmark(exp.kernel("node0"), 236_600_000,
                             iterations=iterations)
    bench.start()
    results = periodic_local_checkpoints(
        sim, exp.node("node0").checkpointer, period_ns=2 * SECOND,
        count=num_ckpts, start_at_ns=sim.now + 1 * SECOND)
    sim.run(until=bench.join())
    parts = [experiment_digest(exp)]
    parts.extend(checkpoint_result_parts(results))
    parts.append(("cpuburn", len(bench.result.iteration_ns),
                  sum(bench.result.iteration_ns),
                  max(bench.result.iteration_ns)))
    return hash_parts(parts)


def run_fig8(sim: Simulator, file_mb: int = 96, seed: int = 8) -> str:
    """The Figure 8 scenario (Bonnie++ on COW storage configurations).

    The ``base`` configuration runs on ``sim``, each other one in a fresh
    simulator; the digest covers the branch content maps and throughputs.
    """
    from repro.hw import Disk, DiskSpec
    from repro.storage import (BranchConfig, CowMode, Extent, LinearVolume,
                               VolumeManager)
    from repro.workloads import BonnieBenchmark, BonnieConfig

    golden_blocks = 120_000
    parts: list = []
    for config_name in ("base", "branch", "branch-aged", "branch-orig"):
        config_sim = sim if config_name == "base" else Simulator()
        disk = Disk(config_sim, DiskSpec(capacity_bytes=16 * GB))
        branch = None
        if config_name == "base":
            volume = LinearVolume(Extent(disk, 0, golden_blocks))
        else:
            manager = VolumeManager(config_sim, disk)
            golden = manager.create_golden("img", golden_blocks)
            cfg = {
                "branch": BranchConfig(),
                "branch-aged": BranchConfig(aged=True),
                "branch-orig": BranchConfig(cow_mode=CowMode.ORIGINAL_LVM),
            }[config_name]
            volume = manager.create_branch("b", golden, config=cfg,
                                           log_blocks=golden_blocks,
                                           aggregated_blocks=golden_blocks)
            branch = volume
        bench = BonnieBenchmark(config_sim, volume,
                                config=BonnieConfig(file_bytes=file_mb * MB))
        result = config_sim.run(until=bench.run())
        throughput = {phase: round(result.throughput[phase], 3)
                      for phase in sorted(result.throughput)}
        parts.append((config_name, throughput, config_sim.now))
        if branch is not None:
            parts.append(branch_digest(branch))
    return hash_parts(parts)


def run_ckpt10(sim: Simulator, num_nodes: int = 10, run_seconds: int = 8,
               seed: int = 10,
               streams: Optional[RandomStreams] = None,
               faults=None, reliability=None, tracer=None) -> str:
    """A 10-node coordinated checkpoint through the full distributed path.

    All ``num_nodes`` guests sit on one shaped LAN running sleep-loop
    workloads; one clock-scheduled coordinated checkpoint runs mid-way.
    ``faults``/``reliability``/
    ``tracer`` exist for the fault-free equivalence gate: attaching a
    disabled injector must not move the digest.
    """
    from repro.workloads import SleeperBenchmark

    _testbed, exp = build_fig7_rig(sim, num_nodes=num_nodes, seed=seed,
                                   memory=32 * MB, streams=streams,
                                   faults=faults, reliability=reliability,
                                   tracer=tracer)
    benches = [SleeperBenchmark(exp.kernel(f"node{i}"), iterations=10_000)
               for i in range(num_nodes)]
    for bench in benches:
        bench.start()
    start = sim.now
    results = periodic_coordinated_checkpoints(
        sim, exp, period_ns=3 * SECOND, count=1,
        start_at_ns=start + 2 * SECOND)
    sim.run(until=start + run_seconds * SECOND)
    return hash_parts([experiment_digest(exp),
                       *coordinated_result_parts(results)])
