"""The ``repro bench`` runner: the two snapshot measurements.

Only two things are measured here, because no other harness measures
them:

* ``snapshot_restore`` — restore-then-run against replay-from-origin on
  the fig4 snapshot world, at growing virtual horizons;
* ``snapshot_durable`` — the journaled on-disk snapshot store against
  the in-memory one, then a cold ``recover()`` and restore.

Both gate on deterministic facts only: restored, replayed and live state
digests agree; delta snapshots store fewer new bytes than their full
size; a fresh store recovers clean; and the event-loop dispatch counts
(:meth:`~repro.sim.core.Simulator.enable_profiling`) show restore doing
the same work at every horizon while replay's grows with it.  The JSON
artifact (``BENCH_sim_core.json`` at the repository root, or
``--output``) holds only those counters and verdicts, so two runs write
identical files.  Host seconds go to stdout.  Host time by layer comes
from ``perfbench/`` (docs/performance.md).

Wall-clock reads below are the *host* clock timing the harness, never
simulated time — hence the targeted DET001 suppressions.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time
from typing import Callable, Dict, Optional, Tuple

from repro.checkpoint.durable import DurableSnapshotStore
from repro.checkpoint.snapshot import SnapshotStore
from repro.timetravel.scenarios import build_fig4_world
from repro.units import MS, SECOND

#: world seed of both scenarios
SEED = 4
#: virtual horizons (seconds) of the restore-vs-replay curve
HORIZONS = (2, 10, 40, 90)
#: durable cadence: this many checkpoints, one every DURABLE_STEP_NS
DURABLE_CHECKPOINTS = 8
DURABLE_STEP_NS = 250 * MS


def _time_run(fn: Callable[[], object]) -> Tuple[float, object]:
    start = time.perf_counter()     # repro: noqa=DET001 — host-side timing
    result = fn()
    return time.perf_counter() - start, result   # repro: noqa=DET001


def _bench_snapshot_restore(out) -> Dict:
    """Restore vs replay at each horizon of a delta-chained snapshot run.

    Replay cost grows with virtual time; restore cost is O(state).  The
    gate is the dispatch count of each path, not its wall clock.  The
    timed runs carry no profiler, so the printed seconds are unskewed.
    """
    store = SnapshotStore()
    world = build_fig4_world(seed=SEED)
    rows = []
    parent = None
    digest_match = delta_ok = True
    crossover = None
    print(f"  {'virtual s':>9} {'replay s':>9} {'restore s':>9} "
          f"{'replay dispatches':>17} {'restore dispatches':>18}", file=out)
    for idx, horizon in enumerate(HORIZONS):
        t_q = world.advance_to_quiescence(horizon * SECOND)
        snap = store.take(f"t{horizon}", world.snapshot_providers(),
                          virtual_time_ns=t_q, parent=parent)
        parent = snap.snapshot_id

        def replay(profile: bool = False):
            replayed = build_fig4_world(seed=SEED)
            profiler = replayed.sim.enable_profiling() if profile else None
            replayed.advance_to(t_q)
            return replayed, profiler

        def restore(profile: bool = False):
            restored = build_fig4_world(seed=SEED, started=False)
            profiler = restored.sim.enable_profiling() if profile else None
            store.restore(snap.snapshot_id, restored.snapshot_providers())
            return restored, profiler

        replay_s, (replayed, _) = _time_run(replay)
        restore_s, (restored, _) = _time_run(restore)
        digest_match &= (restored.state_digest()
                         == replayed.state_digest()
                         == world.state_digest())
        if idx > 0:
            delta_ok &= snap.new_chunk_bytes < snap.total_bytes
        if crossover is None and restore_s < replay_s:
            crossover = horizon
        row = {
            "virtual_seconds": horizon,
            "replay_dispatches": replay(profile=True)[1].dispatches,
            "restore_dispatches": restore(profile=True)[1].dispatches,
            "snapshot_bytes": snap.total_bytes,
            "new_chunk_bytes": snap.new_chunk_bytes,
        }
        rows.append(row)
        print(f"  {horizon:>9} {replay_s:>9.4f} {restore_s:>9.4f} "
              f"{row['replay_dispatches']:>17} "
              f"{row['restore_dispatches']:>18}", file=out)
    print(f"  restore beats replay from {crossover} virtual s on this host"
          if crossover is not None else
          "  restore did not beat replay at any horizon on this host",
          file=out)
    replay_counts = [r["replay_dispatches"] for r in rows]
    restore_counts = [r["restore_dispatches"] for r in rows]
    result = {
        "horizons": rows,
        "digest_match": digest_match,
        "delta_smaller_than_full": delta_ok,
        "replay_dispatches_grow": all(
            a < b for a, b in zip(replay_counts, replay_counts[1:])),
        "restore_dispatches_flat": len(set(restore_counts)) == 1,
    }
    result["ok"] = all(v for k, v in result.items() if k != "horizons")
    return result


def _bench_snapshot_durable(out) -> Dict:
    """Durable-store overhead vs the in-memory store, plus a cold recover.

    Runs one fig4 checkpoint cadence three ways: in memory, durable with
    fsync, and durable without it (barrier ordering only, the crash
    matrix's configuration).  A second store over the synced directory
    then ``recover()``s, as a fresh process would, and cold-restores the
    deepest snapshot; its digest must match the live world's.
    """

    def cadence(store):
        world = build_fig4_world(seed=SEED)
        parent = None
        for i in range(1, DURABLE_CHECKPOINTS + 1):
            t_q = world.advance_to_quiescence(i * DURABLE_STEP_NS)
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
        recovered = DurableSnapshotStore(root_sync, fsync=True)
        report = recovered.recover()
        cold = live.restore_from(recovered, f"t{DURABLE_CHECKPOINTS}")
        result = {
            "checkpoints": DURABLE_CHECKPOINTS,
            "committed": len(report.committed),
            "chunk_files": recovered.durability_stats()["chunk_files"],
            "recover_clean": report.clean,
            "digest_match": cold.state_digest() == live.state_digest(),
        }
    finally:
        shutil.rmtree(root_sync, ignore_errors=True)
        shutil.rmtree(root_nosync, ignore_errors=True)
    print(f"  memory {memory_s:.4f}s, durable without fsync "
          f"{nosync_s:.4f}s, with fsync {fsync_s:.4f}s", file=out)
    result["ok"] = (result["recover_clean"] and result["digest_match"]
                    and result["committed"] == DURABLE_CHECKPOINTS)
    return result


SCENARIOS = {
    "snapshot_restore": _bench_snapshot_restore,
    "snapshot_durable": _bench_snapshot_durable,
}


def run_bench(output: Optional[str] = None, out=sys.stdout) -> int:
    """Run both scenarios, write the JSON artifact, return an exit code.

    Non-zero when any scenario's ``ok`` verdict is false.
    """
    if output is None:
        output = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))))),
            "BENCH_sim_core.json")
    results = {}
    for name, bench in SCENARIOS.items():
        print(f"bench: {name}", file=out, flush=True)
        results[name] = bench(out)
    with open(output, "w") as fh:
        json.dump({"bench": "sim_core", "scenarios": results}, fh,
                  indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {output}", file=out)
    failed = [name for name, r in results.items() if not r["ok"]]
    for name in failed:
        print(f"bench FAILED: {name} "
              f"{json.dumps(results[name], sort_keys=True)}", file=out)
    return 1 if failed else 0
