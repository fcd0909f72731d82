"""The ``repro bench`` runner: timed scenarios gated on stored goldens.

Every figure scenario runs at fixed parameters and must reproduce its
stored golden digest: ``benchmarks/results/PIPELINE_digests.json`` pins
fig4/fig5/fig8/ckpt10, ``benchmarks/results/SCHEDULER_digests.json`` pins
fig6/fig7 and the saturated Dummynet pipe.  The robustness, tracing and
snapshot scenarios gate on run-to-run and restore==replay equivalence
instead.  The one throughput-style hard gate is a deterministic counter:
the timer storm's peak event-store occupancy (see
:data:`_TIMER_STORM_PEAK_CEILING`).  Wall clocks are reported and only
*warned* about against the checked-in artifact.

Output goes to ``BENCH_sim_core.json`` at the repository root (or the
path given with ``--output``); ``repro bench --profile`` writes its
hot-spot report to ``benchmarks/results/PROFILE_sim_core.json``.
Wall-clock reads below are the *host* clock measuring the benchmark
harness itself, never simulated time — hence the targeted DET001
suppressions.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.scenarios import (run_ckpt10, run_event_churn, run_fig4,
                                   run_fig5, run_fig6, run_fig7, run_fig8,
                                   run_pipe_saturation, run_timer_storm)
from repro.sim import Simulator


def _repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))


def _golden_digests(name: str) -> Dict[str, str]:
    """The ``scenarios`` map of ``benchmarks/results/<name>_digests.json``."""
    path = os.path.join(_repo_root(), "benchmarks", "results",
                        f"{name}_digests.json")
    try:
        with open(path) as fh:
            return json.load(fh)["scenarios"]
    except (OSError, KeyError, ValueError):
        return {}


def _time_run(fn: Callable[[], object]) -> Tuple[float, object]:
    start = time.perf_counter()     # repro: noqa=DET001 — host-side timing
    result = fn()
    elapsed = time.perf_counter() - start   # repro: noqa=DET001
    return elapsed, result


def _bench_event_churn() -> Dict:
    # Never scaled down, so quick and full runs report the same workload.
    # Best-of-5 keeps single-sample scheduler jitter out of the reported
    # rate.
    events = 200_000
    best = float("inf")
    fired = 0
    for _ in range(5):
        s, fired = _time_run(
            lambda: run_event_churn(Simulator(), events=events))
        best = min(best, s)
    return {
        "events": fired,
        "seconds": round(best, 4),
        "events_per_sec": round(fired / best),
    }


#: checked-in ceiling on the timer storm's peak ``sim.pending_count`` (400
#: rounds of 250 arms with 249 cancels each, 400 live timers at the end).
#: The count is deterministic, so exceeding it means tombstone reclamation
#: regressed — not that the host was busy.
_TIMER_STORM_PEAK_CEILING = 748


def _bench_timer_storm() -> Dict:
    # Never scaled down: the gated peak depends on the round count.
    rounds = 400
    s, (armed, fired, peak) = _time_run(
        lambda: run_timer_storm(Simulator(), rounds=rounds))
    return {
        "timers_armed": armed,
        "timers_fired": fired,
        "seconds": round(s, 4),
        "peak_pending": peak,
        "peak_pending_ceiling": _TIMER_STORM_PEAK_CEILING,
        "peak_ok": peak <= _TIMER_STORM_PEAK_CEILING,
    }


def _bench_golden(scenario: Callable[[], str], golden: Optional[str],
                  reps: int = 1) -> Dict:
    """One fixed-parameter scenario, timed, against its stored golden.

    The scenario's arguments are never scaled down in quick mode: the
    goldens are parameter-dependent.  ``reps`` takes a best-of-N wall
    clock — sub-second scenarios need repeats or a single sample is
    dominated by scheduler jitter rather than by the code under test.
    The runs are deterministic, so every repetition returns the same
    digest.  A missing golden fails the gate rather than passing it.
    """
    best, digest = float("inf"), None
    for _ in range(max(1, reps)):
        s, digest = _time_run(scenario)
        best = min(best, s)
    return {
        "seconds": round(best, 4),
        "digest": digest,
        "digest_golden": golden,
        "digest_match": digest == golden,
    }


def _bench_faultstorm(quick: bool) -> Dict:
    """The seeded fault-storm, run twice: survival plus determinism.

    The storm exercises the recovery machinery, so the run is repeated
    with identical inputs and ``digest_match`` asserts the two runs
    (trace + experiment state) were bit-identical.  The wall clock is
    the best of the two runs (same best-of discipline as the figures).
    """
    from repro.faults.scenario import run_faultstorm

    run_seconds = 20 if quick else 30
    first_s, first = _time_run(lambda: run_faultstorm(
        run_seconds=run_seconds))
    second_s, second = _time_run(lambda: run_faultstorm(
        run_seconds=run_seconds))
    return {
        "seconds": round(min(first_s, second_s), 4),
        "completed": first.completed,
        "attempts": first.attempts,
        "retransmits": first.retransmits,
        "faults_injected": sum(first.injected.values()),
        "digest_first": first.digest,
        "digest_second": second.digest,
        "digest_match": first.digest == second.digest and first.completed,
    }


def _bench_trace_overhead(golden: Optional[str], quick: bool) -> Dict:
    """ckpt10 with tracing off / filtered / list sink / JSONL sink.

    Quantifies what observability costs the event loop: ``off`` is the
    production configuration (no tracer attached), ``filtered`` attaches
    a tracer whose category filter rejects everything (the hoisted
    ``enabled_for`` check is all that runs), ``list`` retains every
    record in memory, and ``jsonl`` streams every record to the null
    device.  All four runs must produce the golden digest — tracing
    never consumes an RNG draw or schedules a simulator event.
    """
    from repro.obs import JsonlSink, ListSink, Tracer

    reps = 1 if quick else 3
    # One untimed warm-up run so the first timed configuration does not
    # absorb one-off costs (lazy imports, code-object warm-up) that
    # would masquerade as tracing overhead.
    run_ckpt10(Simulator())

    def timed(make_tracer) -> Tuple[float, object]:
        best, digest = float("inf"), None
        for _ in range(reps):
            sim = Simulator()
            tracer = make_tracer(sim)
            s, digest = _time_run(lambda: run_ckpt10(sim, tracer=tracer))
            best = min(best, s)
        return best, digest

    off_s, off_digest = timed(lambda sim: None)
    filt_s, filt_digest = timed(
        lambda sim: Tracer(clock=lambda: sim.now, categories=()))
    list_s, list_digest = timed(
        lambda sim: Tracer(clock=lambda: sim.now, sink=ListSink()))
    jsonl_s, jsonl_digest = timed(
        lambda sim: Tracer(clock=lambda: sim.now,
                           sink=JsonlSink(os.devnull)))
    digests = (off_digest, filt_digest, list_digest, jsonl_digest)

    def pct(s: float) -> float:
        return round(100.0 * (s - off_s) / off_s, 1)

    return {
        "seconds": round(off_s, 4),
        "filtered_seconds": round(filt_s, 4),
        "list_sink_seconds": round(list_s, 4),
        "jsonl_sink_seconds": round(jsonl_s, 4),
        "filtered_overhead_pct": pct(filt_s),
        "list_sink_overhead_pct": pct(list_s),
        "jsonl_sink_overhead_pct": pct(jsonl_s),
        "digest": off_digest,
        "digest_golden": golden,
        "digest_match": (len(set(digests)) == 1 and
                         (golden is None or off_digest == golden)),
    }


def _bench_snapshot_restore(quick: bool) -> Dict:
    """Restore-then-run vs replay-from-origin: the crossover curve.

    Runs the fig4 snapshot world out to increasing virtual horizons,
    taking a delta-chained snapshot at each, and times two ways of
    reaching each horizon in a fresh world: replaying from the origin
    and restoring the snapshot into a cold world.  Replay cost grows
    with virtual time; restore cost is O(state) and flat — the recorded
    crossover is the first horizon where restore wins.  Every pair must
    agree on the state digest (restore is also an equivalence gate),
    and second-and-later snapshots must store fewer new chunk bytes
    than their full size (the delta gate).
    """
    from repro.checkpoint.snapshot import SnapshotStore
    from repro.timetravel.scenarios import build_fig4_world
    from repro.units import SECOND

    seed = 4
    horizons = (2, 10, 40) if quick else (2, 10, 40, 90)
    store = SnapshotStore()
    world = build_fig4_world(seed=seed)
    rows: List[Dict] = []
    parent = None
    digest_match = True
    delta_ok = True
    crossover = None
    restore_s_last = replay_s_last = 0.0
    for idx, horizon in enumerate(horizons):
        t_q = world.advance_to_quiescence(horizon * SECOND)
        snap = store.take(f"t{horizon}", world.snapshot_providers(),
                          virtual_time_ns=t_q, parent=parent)
        parent = snap.snapshot_id

        def replay() -> object:
            w = build_fig4_world(seed=seed)
            w.advance_to(t_q)
            return w

        replay_s, replayed = _time_run(replay)
        restore_s, restored = _time_run(
            lambda: world.restore_from(store, snap.snapshot_id))
        digest_match &= (restored.state_digest()
                         == replayed.state_digest()
                         == world.state_digest())
        if idx > 0:
            delta_ok &= snap.new_chunk_bytes < snap.total_bytes
        if crossover is None and restore_s < replay_s:
            crossover = horizon
        restore_s_last, replay_s_last = restore_s, replay_s
        rows.append({
            "virtual_seconds": horizon,
            "replay_seconds": round(replay_s, 4),
            "restore_seconds": round(restore_s, 4),
            "snapshot_bytes": snap.total_bytes,
            "new_chunk_bytes": snap.new_chunk_bytes,
        })
    return {
        "seconds": round(restore_s_last, 4),
        "replay_seconds": round(replay_s_last, 4),
        "crossover_virtual_seconds": crossover,
        "horizons": rows,
        "delta_smaller_than_full": delta_ok,
        "digest_match": digest_match and delta_ok and crossover is not None,
    }


def _bench_snapshot_durable(quick: bool) -> Dict:
    """Durable-store overhead vs the in-memory store, plus a cold recover.

    Runs the same fig4 checkpoint cadence three ways — in-memory
    ``SnapshotStore``, ``DurableSnapshotStore`` with fsync, and with
    fsync off (barrier ordering only, the CI crash-model configuration)
    — and records the overhead of the journaled on-disk commit protocol
    (docs/durability.md).  A fresh process then ``recover()``s the
    synced store and cold-restores the deepest snapshot; its digest
    must match the live world's (durability is also an equivalence
    gate).  ``seconds`` is the fsync-off time: that is what CI
    pays in the crash matrix, and it is far less jittery on shared
    containers than physical fsync latency.
    """
    import shutil
    import tempfile

    from repro.checkpoint.durable import DurableSnapshotStore
    from repro.checkpoint.snapshot import SnapshotStore
    from repro.timetravel.scenarios import build_fig4_world
    from repro.units import MS

    seed = 4
    steps = 4 if quick else 8
    step_ns = 250 * MS

    def cadence(store):
        world = build_fig4_world(seed=seed)
        parent = None
        for i in range(1, steps + 1):
            t_q = world.advance_to_quiescence(i * step_ns)
            snap = store.take(f"t{i}", world.snapshot_providers(),
                              virtual_time_ns=t_q, parent=parent)
            parent = snap.snapshot_id
        return world

    memory_s, _ = _time_run(lambda: cadence(SnapshotStore()))
    root_sync = tempfile.mkdtemp(prefix="bench-durable-sync-")
    root_nosync = tempfile.mkdtemp(prefix="bench-durable-nosync-")
    try:
        fsync_s, live = _time_run(
            lambda: cadence(DurableSnapshotStore(root_sync, fsync=True)))
        nosync_s, _ = _time_run(
            lambda: cadence(DurableSnapshotStore(root_nosync, fsync=False)))
        # A "fresh process": a second store over the same directory must
        # recover clean and cold-restore to the live world's digest.
        recovered = DurableSnapshotStore(root_sync, fsync=True)
        report = recovered.recover()
        recover_clean = report.clean and len(report.committed) == steps
        cold = live.restore_from(recovered, f"t{steps}")
        digest_match = (recover_clean
                        and cold.state_digest() == live.state_digest())
    finally:
        shutil.rmtree(root_sync, ignore_errors=True)
        shutil.rmtree(root_nosync, ignore_errors=True)

    def pct(s: float) -> Optional[float]:
        return round(100.0 * (s - memory_s) / memory_s, 1) if memory_s else None

    return {
        "seconds": round(nosync_s, 4),
        "memory_seconds": round(memory_s, 4),
        "fsync_seconds": round(fsync_s, 4),
        "checkpoints": steps,
        "nosync_overhead_pct": pct(nosync_s),
        "fsync_overhead_pct": pct(fsync_s),
        "recover_clean": recover_clean,
        "digest_match": digest_match,
    }


def _default_profile_path() -> str:
    return os.path.join(_repo_root(), "benchmarks", "results",
                        "PROFILE_sim_core.json")


def run_profile(out=sys.stdout, json_output: Optional[str] = None,
                top: int = 15) -> int:
    """``repro bench --profile``: hot-spot and record-count attribution.

    Runs the 10-node coordinated checkpoint once with both the
    event-loop profiler and a tracer attached, prints where host time
    went (per callback, via :class:`repro.obs.profile.LoopProfiler`) and
    what the observability layer recorded (per category), and writes the
    same data as JSON to ``benchmarks/results/PROFILE_sim_core.json``
    (or ``json_output``) so the hot-spot table is diffable PR-over-PR.
    Profiled runs keep their digests — the profiler reads only the host
    clock.
    """
    from repro.obs import ListSink, Tracer

    goldens = _golden_digests("PIPELINE")
    sim = Simulator()
    profiler = sim.enable_profiling()
    tracer = Tracer(clock=lambda: sim.now, sink=ListSink())
    elapsed, digest = _time_run(lambda: run_ckpt10(sim, tracer=tracer))
    print(f"profiled ckpt10_coordinated: {elapsed:.3f}s wall, "
          f"{profiler.dispatches} callbacks dispatched", file=out)
    golden = goldens.get("ckpt10_coordinated")
    if golden is not None:
        status = "OK" if digest == golden else "MISMATCH"
        print(f"digest vs golden: {status}", file=out)
    print(file=out)
    print(profiler.format_report(top=top), file=out)
    print(file=out)
    print("trace records by category:", file=out)
    for cat in sorted(tracer.category_counts):
        print(f"  {cat:<28} {tracer.category_counts[cat]:8d}", file=out)

    if json_output is None:
        json_output = _default_profile_path()
    payload = {
        "profile": "sim_core",
        "scenario": "ckpt10_coordinated",
        "python": sys.version.split()[0],
        "wall_seconds": round(elapsed, 4),
        "dispatches": profiler.dispatches,
        "digest": digest,
        "digest_golden": golden,
        "digest_match": golden is None or digest == golden,
        "hot_spots": profiler.report(top=top),
        "trace_records": dict(sorted(tracer.category_counts.items())),
    }
    os.makedirs(os.path.dirname(json_output), exist_ok=True)
    with open(json_output, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {json_output}", file=out)
    return 0 if golden is None or digest == golden else 1


#: scenarios whose wall clock is compared against the checked-in artifact
#: and *warned* about (sub-second wall clocks on shared hosts are too
#: jittery to hard-fail; the hard gates are the digests and the
#: timer-storm counter)
_REGRESSION_WATCH = ("event_churn", "fig4_sleep", "fig5_cpuburn",
                     "fig8_cow_storage", "ckpt10_coordinated",
                     "snapshot_restore", "snapshot_durable")
_REGRESSION_BUDGET_PCT = 2.0


def _previous_results(path: str) -> Dict[str, Dict]:
    """Scenario results from the checked-in artifact, if readable."""
    try:
        with open(path) as fh:
            return json.load(fh).get("scenarios", {})
    except (OSError, ValueError):
        return {}


def run_bench(quick: bool = False, output: Optional[str] = None,
              out=sys.stdout) -> int:
    """Run all scenarios, write the JSON artifact, print a summary.

    Returns a process exit code: non-zero if any scenario's digest misses
    its golden or diverges run to run, or if the timer storm's peak
    event-store occupancy exceeds its checked-in ceiling.  ``quick``
    shortens the fault storm and the snapshot scenarios; every
    golden-gated scenario runs at its fixed parameters.
    """
    pipeline = _golden_digests("PIPELINE")
    scheduler = _golden_digests("SCHEDULER")
    figure_reps = 1 if quick else 2
    scenarios = {
        "event_churn": _bench_event_churn,
        # Hard gate: deterministic tombstone-reclamation counter.
        "timer_cancel_rearm_storm": _bench_timer_storm,
        # Scheduler goldens: fixed parameters, see SCHEDULER_digests.json.
        "pipe_saturation": lambda: _bench_golden(
            lambda: run_pipe_saturation(Simulator(), packets=20_000),
            scheduler.get("pipe_saturation"), reps=1 if quick else 3),
        "fig6_iperf": lambda: _bench_golden(
            lambda: run_fig6(Simulator(), run_seconds=5, num_ckpts=1),
            scheduler.get("fig6_iperf"), reps=figure_reps),
        "fig7_bittorrent": lambda: _bench_golden(
            lambda: run_fig7(Simulator(), run_seconds=8, num_ckpts=1),
            scheduler.get("fig7_bittorrent"), reps=figure_reps),
        # Checkpoint-pipeline goldens (PIPELINE_digests.json).  These
        # finish in milliseconds to sub-second, so all four get best-of-N.
        "fig4_sleep": lambda: _bench_golden(
            lambda: run_fig4(Simulator()), pipeline.get("fig4_sleep"),
            reps=7),
        "fig5_cpuburn": lambda: _bench_golden(
            lambda: run_fig5(Simulator()), pipeline.get("fig5_cpuburn"),
            reps=15),
        "fig8_cow_storage": lambda: _bench_golden(
            lambda: run_fig8(Simulator()),
            pipeline.get("fig8_cow_storage"), reps=3),
        "ckpt10_coordinated": lambda: _bench_golden(
            lambda: run_ckpt10(Simulator()),
            pipeline.get("ckpt10_coordinated"), reps=5),
        # Robustness gate: seeded storm must survive, deterministically.
        "ckpt10_faultstorm": lambda: _bench_faultstorm(quick),
        # Observability gate: tracing must be digest-neutral, and the
        # sink configurations bound its wall-clock cost.
        "ckpt10_trace_overhead": lambda: _bench_trace_overhead(
            pipeline.get("ckpt10_coordinated"), quick),
        # True-restore gate: restore-then-run must match replay digests
        # and beat it past the recorded virtual-time crossover, with
        # delta snapshots smaller than full.
        "snapshot_restore": lambda: _bench_snapshot_restore(quick),
        # Durability gate: the journaled on-disk store's overhead vs the
        # in-memory store, and a cold recover + restore digest check.
        "snapshot_durable": lambda: _bench_snapshot_durable(quick),
    }
    if output is None:
        output = os.path.join(_repo_root(), "BENCH_sim_core.json")
    previous = _previous_results(output)

    results: Dict[str, Dict] = {}
    for name, fn in scenarios.items():
        print(f"bench: {name} ...", file=out, flush=True)
        results[name] = fn()

    # Wall-clock watch: warn-only, vs the checked-in artifact.
    regressions = []
    for name in _REGRESSION_WATCH:
        before = previous.get(name, {}).get("seconds")
        after = results.get(name, {}).get("seconds")
        if not before or not after:
            continue
        pct = round(100.0 * (after - before) / before, 1)
        results[name]["seconds_previous"] = before
        results[name]["regression_vs_checked_in_pct"] = pct
        if pct > _REGRESSION_BUDGET_PCT:
            regressions.append((name, pct))

    payload = {
        "bench": "sim_core",
        "mode": "quick" if quick else "full",
        "python": sys.version.split()[0],
        "scenarios": results,
    }
    with open(output, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(file=out)
    print(f"{'scenario':<28} {'seconds':>9}", file=out)
    ok = True
    for name, r in results.items():
        print(f"{name:<28} {r['seconds']:>8.3f}s", file=out)
        if r.get("peak_ok") is False:
            ok = False
            print(f"  PEAK PENDING {r['peak_pending']} exceeds the "
                  f"checked-in ceiling {r['peak_pending_ceiling']}",
                  file=out)
        if "digest_match" in r and not r["digest_match"]:
            ok = False
            if "digest_golden" in r and r["digest_golden"] != r["digest"]:
                print(f"  GOLDEN MISMATCH: {r['digest']} != "
                      f"{r['digest_golden']}", file=out)
            if r.get("digest_first", 0) != r.get("digest_second", 0):
                print(f"  RUN-TO-RUN MISMATCH: {r.get('digest_first')} != "
                      f"{r.get('digest_second')}", file=out)
            if r.get("completed") is False:
                print("  STORM DID NOT COMPLETE within the retry budget",
                      file=out)
    for name, pct in regressions:
        print(f"WARNING: {name} {pct:+.1f}% vs checked-in artifact "
              f"(budget {_REGRESSION_BUDGET_PCT}%)", file=out)
    print(f"\nwrote {output}", file=out)
    if not ok:
        print("bench FAILED: a digest or counter gate failed", file=out)
    return 0 if ok else 1


def run_scenario_bench(path: str, quick: bool = False,
                       out=None) -> int:
    """``repro bench --scenario-file``: bench one declarative scenario.

    Runs an unregistered DSL file (docs/scenarios.md) twice with
    identical inputs and requires the two digests to agree (run-to-run
    determinism).  Returns non-zero on any divergence.  ``quick`` is
    accepted for CLI symmetry; scenario parameters come from the file
    and are never scaled down.
    """
    del quick  # parameters live in the scenario file
    if out is None:
        out = sys.stdout
    from repro.errors import ScenarioError
    from repro.testbed.compile import compile_scenario
    from repro.testbed.dsl import load_scenario

    try:
        spec = load_scenario(path)
        compiled = compile_scenario(spec)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=out)
        return 2
    recipe = ("world" if spec.kind == "world" else spec.digest_recipe)
    first_s, first = _time_run(lambda: compiled.run())
    second_s, second = _time_run(lambda: compiled.run())
    match = first.digest == second.digest
    print(f"{spec.name} [{recipe}]: run1 {first_s:.3f}s, "
          f"run2 {second_s:.3f}s", file=out)
    print(f"  digest run1: {first.digest}", file=out)
    print(f"  digest run2: {second.digest}", file=out)
    print("run-to-run determinism:", "OK" if match else "MISMATCH",
          file=out)
    return 0 if match else 1
