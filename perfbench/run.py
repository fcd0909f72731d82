#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the root of the repository)::

    python3 perfbench/run.py --workload iperf_ckpt --seconds 20 --trace 0

``--trace 0`` repeats the workload untraced for ``--seconds`` and reports
the end-to-end metrics: the median host seconds of set-up and of the
measured phase, and the peak resident memory of one repetition run in a
fresh process.  ``--trace 1`` runs the workload once untraced, once
counting event dispatches, and then under cProfile for ``--seconds``, and
reports per-layer host time, call counts and work counters.  Every
repetition's outputs are checked.  The last line of standard output is one
JSON object with the check counts and the metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
PIPELINE_GOLDENS = ROOT / "benchmarks" / "results" / "PIPELINE_digests.json"

#: set-up is cheap next to the measured phase on most workloads, so extra
#: set-up-only repetitions bring every run to this many samples
MIN_SETUP_SAMPLES = 15
#: a peak-RSS probe that takes longer than this is a failure
PROBE_TIMEOUT_S = 120

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> Dict[str, str]:
    from layers import LAYERS, OTHER

    units: Dict[str, str] = {}
    for layer in LAYERS + (OTHER,):
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update({
        "net.tcp_segments": "count", "net.pipe_packets": "count",
        "sim.events": "count", "sim.processes": "count",
        "storage.read_before_write": "count", "hw.disk_ios": "count",
        "testbed.swapin_virtual_s": "s", "checkpoint.rounds": "count",
        "checkpoint.packets_captured": "count",
        "checkpoint.downtime_ms": "ms", "timetravel.checkpoint_s": "s",
        "timetravel.travel_s": "s", "timetravel.replays": "count",
        "timetravel.restores": "count",
        "timetravel.replayed_virtual_s": "s", "trace.overhead": "ratio",
    })
    return units


def load_program():
    """Import the simulator from this checkout's ``src``; None if absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import repro
    if SRC not in Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {SRC}")
    import suite
    return suite


def pinned_outputs(workload, seed: int) -> Optional[Dict[str, object]]:
    """Pinned outputs of ``workload`` at ``seed``, if any are pinned.

    expected.json pins each workload at its default seed; an entry marked
    ``every_seed`` has no random input, so its pins hold at any seed.
    An entry naming a ``golden`` takes its digest from the stored
    pipeline goldens.
    """
    pinned = dict(json.loads(EXPECTED.read_text())[workload.name])
    if seed != pinned["seed"] and not pinned.get("every_seed"):
        return None
    if "golden" in pinned:
        goldens = json.loads(PIPELINE_GOLDENS.read_text())["scenarios"]
        pinned["digest"] = goldens[pinned["golden"]]
    return pinned


def default_seed(workload) -> int:
    return json.loads(EXPECTED.read_text())[workload.name]["seed"]


@dataclass
class Repetition:
    """One setup + run of a workload: its probe and outcome."""

    probe: object
    digest: Optional[str]
    checks: Dict[str, bool]
    stats: Optional[pstats.Stats] = None
    simulated: Dict[str, Optional[float]] = field(default_factory=dict)

    @property
    def scale(self) -> float:
        """Reference-host seconds per host second over setup and run."""
        probe = self.probe
        wall = sum(probe.wall("setup") + probe.wall("run"))
        return sum(probe.seconds("setup") + probe.seconds("run")) / wall


def repetition(suite, workload, seed: int, profiled: bool = False,
               count_dispatches: bool = False) -> Repetition:
    """One setup + measured run, then its output checks (untimed).

    ``profiled`` runs set-up and run under cProfile; ``count_dispatches``
    attaches the simulators' event-loop profilers.  They are separate
    repetitions because the event-loop profiler swaps the simulator's run
    loop for its instrumented one, which would skew the cProfile shares.
    """
    probe = suite.Probe(count_dispatches)
    gc.collect()
    probe.pace()
    try:
        if profiled:
            probe.profile = cProfile.Profile()
            probe.profile.enable()
        try:
            with probe.span("setup"):
                state = workload.setup(seed, probe)
            probe.pace()
            with probe.span("run"):
                result = workload.run(state, probe)
        finally:
            if profiled:
                probe.profile.disable()
        probe.pace()
        with probe.span("verify"):
            outcome = workload.verify(result)
        digest, checks = outcome.digest, dict(outcome.checks)
    except Exception:
        # A failed repetition is counted as a failed check, never dropped.
        traceback.print_exc()
        digest, checks = None, {"repetition completed": False}
        probe.pace()
    return Repetition(
        probe=probe, digest=digest, checks=checks,
        stats=pstats.Stats(probe.profile) if profiled else None,
        simulated=suite.simulated_metrics(probe) if digest else {})


def setup_sample(suite, workload, seed: int) -> float:
    """Set-up alone, in reference-host seconds."""
    probe = suite.Probe()
    gc.collect()
    probe.pace()
    with probe.span("setup"):
        workload.setup(seed, probe)
    probe.pace()
    return probe.seconds("setup")[0]


class Checks:
    """Output checks of one benchmark run: what was attempted and failed."""

    def __init__(self, pinned: Optional[Dict[str, object]]) -> None:
        self.pinned = pinned
        self.reference = pinned["digest"] if pinned else None
        self.attempted = 0
        self.failures: List[str] = []

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def repetition(self, rep: Repetition, label: str) -> None:
        """Record a repetition's own checks and its digest check.

        The digest must equal the pinned one where a digest is pinned,
        and the first repetition's digest at any other seed.
        """
        for name, ok in rep.checks.items():
            self.add(f"{label}: {name}", ok)
        if rep.digest is None:
            return
        if self.reference is None:
            self.reference = rep.digest
        else:
            self.add(f"{label}: digest", rep.digest == self.reference)

    def simulated(self, rep: Repetition) -> None:
        """Where outputs are pinned, the transparency figures are too."""
        if not self.pinned or rep.digest is None:
            return
        for name in ("ckpt_skew_us", "tcp_anomalies"):
            if name in self.pinned:
                self.add(f"pinned {name}",
                         rep.simulated.get(name) == self.pinned[name])

    @property
    def error_rate(self) -> float:
        return len(self.failures) / self.attempted if self.attempted else 0.0


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def peak_rss_probe(workload, seed: int) -> Dict[str, object]:
    """One repetition in a fresh process that runs nothing else."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload.name, "--seed", str(seed),
               "--peak-rss-probe"]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"peak-RSS probe failed ({done.returncode}):\n"
                           f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spans(reps: List[Repetition], name: str, scaled: bool = True):
    """Every span called ``name`` across ``reps``."""
    return [seconds for rep in reps
            for seconds in (rep.probe.seconds(name) if scaled
                            else rep.probe.wall(name))]


def untraced(suite, workload, seed: int, seconds: float, checks: Checks):
    """Samples of the end-to-end metrics, and some context figures."""
    probe = peak_rss_probe(workload, seed)
    reps: List[Repetition] = []
    began = time.perf_counter()
    while not reps or time.perf_counter() - began < seconds:
        reps.append(repetition(suite, workload, seed))
        checks.repetition(reps[-1], f"repetition {len(reps)}")
    checks.simulated(reps[0])
    checks.repetition(Repetition(None, probe["digest"], probe["checks"]),
                      "peak-RSS probe")
    setups = spans(reps, "setup")
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(setup_sample(suite, workload, seed))
    samples = {
        "setup_s": setups,
        "run_s": spans(reps, "run"),
        "peak_rss_mb": [probe["peak_rss_mb"]],
        "setup_wall_s": spans(reps, "setup", scaled=False),
        "run_wall_s": spans(reps, "run", scaled=False),
        "host_slowdown": [1 / rep.scale for rep in reps],
    }
    travels = [statistics.fmean(rep.probe.seconds("travel"))
               for rep in reps if rep.probe.seconds("travel")]
    if travels:
        samples["travel_s"] = travels
    return samples, reps[0]


def traced(suite, workload, seed: int, seconds: float, checks: Checks):
    """Samples of the per-layer metrics, from an untraced repetition, one
    that counts event dispatches, and cProfile-traced ones for
    ``seconds``."""
    from layers import LAYERS, OTHER, primitive_calls, rollup
    from repro.sim.process import Process

    plain = repetition(suite, workload, seed)
    checks.repetition(plain, "untraced repetition")
    checks.simulated(plain)
    counted = repetition(suite, workload, seed, count_dispatches=True)
    checks.repetition(counted, "dispatch-counting repetition")
    reps: List[Repetition] = []
    began = time.perf_counter()
    while not reps or time.perf_counter() - began < seconds:
        reps.append(repetition(suite, workload, seed, profiled=True))
        checks.repetition(reps[-1], f"profiled repetition {len(reps)}")
    samples: Dict[str, List[float]] = {
        name: [value]
        for name, value in suite.layer_counters(counted.probe).items()}
    travels = spans([plain], "travel")
    samples["timetravel.checkpoint_s"] = [sum(spans([plain], "checkpoint"))]
    samples["timetravel.travel_s"] = [
        statistics.fmean(travels) if travels else 0.0]
    plain_run = sum(spans([plain], "run"))
    for rep in reps:
        table = rollup(rep.stats, str(SRC))
        for layer in LAYERS + (OTHER,):
            samples.setdefault(f"{layer}.self_s", []).append(
                rep.scale * table[layer]["self_s"])
            samples.setdefault(f"{layer}.calls", []).append(
                table[layer]["calls"])
        samples.setdefault("sim.processes", []).append(
            primitive_calls(rep.stats, Process.__init__))
        samples.setdefault("trace.overhead", []).append(
            sum(spans([rep], "run")) / plain_run if plain_run else 0.0)
    return samples, plain


def report(workload, seed: int, mode: str, samples, units, simulated,
           checks: Checks) -> Dict[str, object]:
    """Print the human-readable table; return the result object."""
    print(f"perfbench {workload.name} seed={seed} ({mode})")
    print(f"  {'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'n':>4}  unit")
    metrics = {}
    for name in sorted(samples):
        q1, median, q3 = quartiles(samples[name])
        unit = units.get(name, "ratio" if name == "host_slowdown" else "s")
        print(f"  {name:<30} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{len(samples[name]):>4}  {unit}")
        if name in units:
            metrics[name] = {"value": median, "unit": unit}
    for name, value in simulated.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<30} {shown:>12}  (simulated, repeats exactly "
              f"at a fixed seed)")
    print(f"  {'error_rate':<30} {checks.error_rate:>12.6g}  "
          f"({len(checks.failures)} of {checks.attempted} checks failed)")
    for failure in checks.failures:
        print(f"  FAILED: {failure}")
    return {"correct": not checks.failures, "attempted": checks.attempted,
            "failed": len(checks.failures), "metrics": metrics}


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int,
                        help="workload seed (default: the workload's own, "
                             "at which its outputs are pinned)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long to repeat the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--peak-rss-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    suite = load_program()
    if suite is None:
        print(f"perfbench: no simulator sources at {SRC / 'repro'}; run "
              f"from the root of a repository checkout", file=sys.stderr)
        return 2
    args = parse_args(argv, sorted(suite.WORKLOADS))
    workload = suite.WORKLOADS[args.workload]
    seed = default_seed(workload) if args.seed is None else args.seed
    if args.peak_rss_probe:
        rep = repetition(suite, workload, seed)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps({"peak_rss_mb": peak_kb / 1024,
                          "digest": rep.digest, "checks": rep.checks}))
        return 0
    checks = Checks(pinned_outputs(workload, seed))
    if args.trace:
        samples, first = traced(suite, workload, seed, args.seconds, checks)
        units = per_layer_units()
    else:
        samples, first = untraced(suite, workload, seed, args.seconds,
                                  checks)
        units = END_TO_END
    result = report(workload, seed, "traced" if args.trace else "untraced",
                    samples, units, first.simulated, checks)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
