"""The four benchmark workloads, driven through the simulator's public API.

Each workload is three plain functions: ``setup(seed, probe)`` builds the
rig up to workload start, ``run(state, probe)`` is the measured phase, and
``verify(result)`` reduces what the run produced to a digest plus named
output checks.  The :class:`Probe` passed to every call records host-time
spans around the benchmark's own calls and keeps the public objects the
per-layer counters are read from afterwards; the simulator itself is not
instrumented.  Simulators are built with their default settings.
"""

from __future__ import annotations

import cProfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from clock import ScaledClock
from repro.analysis.digest import (branch_digest, coordinated_result_parts,
                                   experiment_digest, hash_parts)
from repro.hw import Disk, DiskSpec
from repro.sim import Simulator
from repro.storage import (BranchConfig, CowMode, Extent, LinearVolume,
                           VolumeManager)
from repro.testbed import (Emulab, ExperimentSpec, LinkSpec, NodeSpec,
                           TestbedConfig)
from repro.testbed.experiment import LanSpec
from repro.testbed.schedule import periodic_coordinated_checkpoints
from repro.timetravel import (ExperimentHandle, ReplayableExperiment,
                              TimeTravelController)
from repro.units import GB, GBPS, MB, MBPS, MS, SECOND
from repro.workloads import (BonnieBenchmark, BonnieConfig, IperfSession,
                             SleeperBenchmark)


class Probe:
    """What one repetition of a workload records about itself."""

    def __init__(self, count_dispatches: bool = False) -> None:
        self.count_dispatches = count_dispatches
        self.clock = ScaledClock()
        #: a running cProfile profiler, paused while the clock calibrates
        self.profile: Optional[cProfile.Profile] = None
        #: (name, start, end, index of the enclosing span or None)
        self.spans: List[Tuple[str, float, float, Optional[int]]] = []
        self._open: List[int] = []
        #: event-loop profilers of every simulator, when counting dispatches
        self.profilers: List[Any] = []
        #: every experiment swapped in, in order; the first is the rig the
        #: workload measures (later ones are time-travel replays)
        self.experiments: List[Any] = []
        self.swapin_ns = 0
        self.disks: List[Any] = []
        self.branches: List[Any] = []
        self.checkpoints: List[Any] = []
        #: counters a workload reads off objects only it can see
        self.counters: Dict[str, float] = {}

    def attach(self, sim: Simulator) -> Simulator:
        """Register a simulator, counting its dispatches if asked to."""
        if self.count_dispatches:
            self.profilers.append(sim.enable_profiling())
        return sim

    def pace(self) -> None:
        """Measure the host speed here; long phases call it between parts."""
        if self.profile is not None:
            self.profile.disable()
        self.clock.pace()
        if self.profile is not None:
            self.profile.enable()

    @contextmanager
    def span(self, name: str):
        """Record the host time of the enclosed block as a span."""
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._open.append(index)
        start = self.clock.now()
        try:
            yield
        finally:
            end = self.clock.now()
            self._open.pop()
            self.spans[index] = (name, start, end, parent)

    def seconds(self, name: str) -> List[float]:
        """Every closed span called ``name``, in reference-host seconds."""
        return [self.clock.scaled(start, end)
                for span, start, end, _ in self.spans
                if span == name and end > 0.0]

    def wall(self, name: str) -> List[float]:
        """The same spans in host seconds, less time spent calibrating."""
        return [self.clock.wall(start, end)
                for span, start, end, _ in self.spans
                if span == name and end > 0.0]


@dataclass
class Outcome:
    """A workload's digest and its named output checks."""

    digest: str
    checks: Dict[str, bool] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Probe], Any]
    run: Callable[[Any, Probe], Any]
    verify: Callable[[Any], Outcome]


def swap_in(probe: Probe, sim: Simulator, seed: int, spec: ExperimentSpec,
            num_machines: int):
    """An Emulab experiment defined from ``spec`` and swapped in."""
    testbed = Emulab(sim, TestbedConfig(num_machines=num_machines, seed=seed))
    experiment = testbed.define_experiment(spec)
    start = sim.now
    sim.run(until=experiment.swap_in())
    probe.swapin_ns += sim.now - start
    probe.experiments.append(experiment)
    return experiment


def two_node_spec(bandwidth_bps: int) -> ExperimentSpec:
    """Two 64 MB guests joined by one shaped link (the Figure 6 topology)."""
    return ExperimentSpec(
        "bench",
        nodes=[NodeSpec("node0", memory_bytes=64 * MB),
               NodeSpec("node1", memory_bytes=64 * MB)],
        links=[LinkSpec("link0", "node0", "node1",
                        bandwidth_bps=bandwidth_bps)])


def rig_outcome(experiment, results, expected_rounds: int) -> Outcome:
    digest = hash_parts([experiment_digest(experiment)] +
                        coordinated_result_parts(results))
    return Outcome(digest, {
        "every coordinated checkpoint completed":
            len(results) == expected_rounds})


# -- iperf_ckpt: a 1 Gbps TCP stream under coordinated checkpoints ------------

IPERF_RUN_NS = 3 * SECOND
IPERF_CHECKPOINTS = 2          # at 1 s and 2 s into the stream
IPERF_PACE_NS = 250 * MS


def iperf_setup(seed: int, probe: Probe):
    return swap_in(probe, probe.attach(Simulator()), seed,
                   two_node_spec(GBPS), num_machines=4)


def iperf_run(experiment, probe: Probe):
    sim = experiment.sim
    session = IperfSession(experiment.kernel("node1"),
                           experiment.kernel("node0"))
    session.start()
    start = sim.now
    results = periodic_coordinated_checkpoints(
        sim, experiment, period_ns=SECOND, count=IPERF_CHECKPOINTS,
        start_at_ns=start + SECOND)
    for until in range(start + IPERF_PACE_NS, start + IPERF_RUN_NS + 1,
                       IPERF_PACE_NS):
        sim.run(until=until)
        probe.pace()
    session.stop()
    sim.run(until=sim.now + 200 * MS)
    probe.checkpoints.extend(results)
    return experiment, results, session


def iperf_verify(result) -> Outcome:
    experiment, results, session = result
    outcome = rig_outcome(experiment, results, IPERF_CHECKPOINTS)
    outcome.checks["the stream delivered data"] = session.bytes_received > 0
    return outcome


# -- bonnie_cow: Bonnie++ on the Figure 8 storage configurations -------------
# The fig8_cow_storage golden's parameters; Bonnie++ draws nothing random,
# so every seed runs the same inputs.

BONNIE_FILE_MB = 96
GOLDEN_BLOCKS = 120_000
BRANCH_CONFIGS = {
    "branch": BranchConfig(),
    "branch-aged": BranchConfig(aged=True),
    "branch-orig": BranchConfig(cow_mode=CowMode.ORIGINAL_LVM),
}


def bonnie_setup(seed: int, probe: Probe):
    volumes = []
    for name in ("base", "branch", "branch-aged", "branch-orig"):
        sim = probe.attach(Simulator())
        disk = Disk(sim, DiskSpec(capacity_bytes=16 * GB))
        probe.disks.append(disk)
        if name == "base":
            volume, branch = LinearVolume(Extent(disk, 0, GOLDEN_BLOCKS)), None
        else:
            manager = VolumeManager(sim, disk)
            golden = manager.create_golden("img", GOLDEN_BLOCKS)
            volume = branch = manager.create_branch(
                "b", golden, config=BRANCH_CONFIGS[name],
                log_blocks=GOLDEN_BLOCKS, aggregated_blocks=GOLDEN_BLOCKS)
            probe.branches.append(branch)
        volumes.append((name, sim, volume, branch))
    return volumes


def bonnie_run(volumes, probe: Probe):
    results = []
    for name, sim, volume, branch in volumes:
        bench = BonnieBenchmark(sim, volume, config=BonnieConfig(
            file_bytes=BONNIE_FILE_MB * MB))
        results.append((name, sim, branch, sim.run(until=bench.run())))
        probe.pace()
    return results


def bonnie_verify(results) -> Outcome:
    parts: list = []
    for name, sim, branch, result in results:
        throughput = {phase: round(result.throughput[phase], 3)
                      for phase in sorted(result.throughput)}
        parts.append((name, throughput, sim.now))
        if branch is not None:
            parts.append(branch_digest(branch))
    return Outcome(hash_parts(parts))


# -- ckpt10_swap: ten sleeper guests on a LAN, checkpointed together ----------

CKPT10_NODES = 10
CKPT10_RUN_NS = 8 * SECOND
CKPT10_CHECKPOINTS = 3         # at 2 s, 4 s and 6 s into the run


def ckpt10_setup(seed: int, probe: Probe):
    names = [f"node{i}" for i in range(CKPT10_NODES)]
    spec = ExperimentSpec(
        "bench", nodes=[NodeSpec(n, memory_bytes=32 * MB) for n in names],
        lans=[LanSpec("lan0", tuple(names), bandwidth_bps=100 * MBPS)])
    return swap_in(probe, probe.attach(Simulator()), seed, spec,
                   num_machines=2 * CKPT10_NODES + 1)


def ckpt10_run(experiment, probe: Probe):
    sim = experiment.sim
    for i in range(CKPT10_NODES):
        SleeperBenchmark(experiment.kernel(f"node{i}"),
                         iterations=10_000).start()
    start = sim.now
    results = periodic_coordinated_checkpoints(
        sim, experiment, period_ns=2 * SECOND, count=CKPT10_CHECKPOINTS,
        start_at_ns=start + 2 * SECOND)
    sim.run(until=start + CKPT10_RUN_NS)
    probe.checkpoints.extend(results)
    return experiment, results


def ckpt10_verify(result) -> Outcome:
    experiment, results = result
    return rig_outcome(experiment, results, CKPT10_CHECKPOINTS)


# -- timetravel: record a 100 Mbps stream, then navigate back through it ------

TT_CHECKPOINTS = 4
TT_SPACING_NS = 300 * MS


def timetravel_setup(seed: int, probe: Probe):
    def build(sim: Simulator, run_seed: int) -> ExperimentHandle:
        experiment = swap_in(probe, probe.attach(sim), run_seed,
                             two_node_spec(100 * MBPS), num_machines=4)
        IperfSession(experiment.kernel("node1"),
                     experiment.kernel("node0")).start()
        return ExperimentHandle(
            experiment, digest=lambda: experiment_digest(experiment))

    return TimeTravelController(ReplayableExperiment.factory(build),
                                seed=seed)


def timetravel_run(controller: TimeTravelController, probe: Probe):
    origin = controller.active_run.virtual_now()
    recorded = []
    for i in range(1, TT_CHECKPOINTS + 1):
        controller.run_to(origin + i * TT_SPACING_NS)
        with probe.span("checkpoint"):
            node = controller.checkpoint(label=f"t{i}")
        recorded.append((node, controller.active_run.state_digest()))
        probe.pace()
    navigated = []
    replayed_ns = 0
    for node, _digest in recorded:
        replays = controller.restore_stats["replays"]
        with probe.span("travel"):
            run = controller.travel_to(node.node_id)
        if controller.restore_stats["replays"] > replays:
            replayed_ns += node.virtual_time_ns
        navigated.append(run.state_digest())
        probe.pace()
    probe.counters.update({
        "timetravel.replays": controller.restore_stats["replays"],
        "timetravel.restores": controller.restore_stats["restores"],
        "timetravel.replayed_virtual_s": replayed_ns / 1e9,
    })
    return recorded, navigated


def timetravel_verify(result) -> Outcome:
    recorded, navigated = result
    checks = {f"navigation to {node.label} reproduces its recorded digest":
              digest == recorded_digest
              for (node, recorded_digest), digest in zip(recorded, navigated)}
    return Outcome(hash_parts([digest for _node, digest in recorded]), checks)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("iperf_ckpt", iperf_setup, iperf_run, iperf_verify),
    Workload("bonnie_cow", bonnie_setup, bonnie_run, bonnie_verify),
    Workload("ckpt10_swap", ckpt10_setup, ckpt10_run, ckpt10_verify),
    Workload("timetravel", timetravel_setup, timetravel_run,
             timetravel_verify),
)}


# -- what the run did, read off the public objects ----------------------------

def _connections(experiments):
    return [conn for experiment in experiments
            for node in experiment.nodes.values()
            for conn in node.kernel.tcp.connections.values()]


def simulated_metrics(probe: Probe) -> Dict[str, Optional[float]]:
    """The paper's transparency figures of the measured rig.

    ``None`` where the workload has no such thing (no coordinated
    checkpoint, no network).
    """
    skews = [r.suspend_skew_ns for r in probe.checkpoints]
    connections = _connections(probe.experiments[:1])
    return {
        "ckpt_skew_us": max(skews) / 1e3 if skews else None,
        "tcp_anomalies": (sum(c.stats.retransmits + c.stats.dupacks_sent
                              for c in connections)
                          if probe.experiments else None),
    }


def layer_counters(probe: Probe) -> Dict[str, float]:
    """Deterministic work counts of one repetition, by layer."""
    experiments = probe.experiments
    nodes = [node for e in experiments for node in e.nodes.values()]
    pipes = [pipe for e in experiments for dn in e.delay_nodes.values()
             for pipe in dn.pipes]
    disks = probe.disks + [d for node in nodes for d in node.machine.disks]
    branches = probe.branches + [node.branch for node in nodes]
    downtimes = [r.downtime_ns for c in probe.checkpoints
                 for r in c.node_results.values()]
    counters = {
        "net.tcp_segments": sum(c.stats.segments_sent
                                for c in _connections(experiments)),
        "net.pipe_packets": sum(pipe.submitted for pipe in pipes),
        "sim.events": sum(p.dispatches for p in probe.profilers),
        "storage.read_before_write": sum(
            b.stats.read_before_write_blocks for b in branches),
        "hw.disk_ios": sum(d.reads + d.writes for d in disks),
        "testbed.swapin_virtual_s": probe.swapin_ns / 1e9,
        "checkpoint.rounds": len(probe.checkpoints),
        "checkpoint.packets_captured": sum(
            c.core_packets_captured for c in probe.checkpoints),
        "checkpoint.downtime_ms": (sum(downtimes) / len(downtimes) / 1e6
                                   if downtimes else 0.0),
        "timetravel.replays": 0,
        "timetravel.restores": 0,
        "timetravel.replayed_virtual_s": 0.0,
    }
    counters.update(probe.counters)
    return counters
