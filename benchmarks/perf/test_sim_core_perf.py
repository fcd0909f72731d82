"""Event-core microbenchmarks and figure-rig wall clocks.

Run with ``pytest benchmarks/perf/ --benchmark-only -s`` for interactive
pytest-benchmark tables, or ``python -m repro bench`` for the
machine-readable ``BENCH_sim_core.json`` artifact (which also gates the
figure digests on their stored goldens).  Scenarios live in
:mod:`repro.bench`.
"""

from repro.bench.scenarios import (run_event_churn, run_fig6, run_fig7,
                                   run_timer_storm)
from repro.sim import Simulator


def test_event_churn(benchmark):
    fired = benchmark.pedantic(
        lambda: run_event_churn(Simulator(), events=50_000),
        rounds=3, iterations=1)
    assert fired == 50_000


def test_timer_cancel_rearm_storm(benchmark):
    armed, fired, _peak = benchmark.pedantic(
        lambda: run_timer_storm(Simulator(), rounds=100),
        rounds=3, iterations=1)
    assert armed == 100 * 250
    assert fired == 100          # one survivor per round


def test_fig6_iperf_wall_clock(benchmark):
    digest = benchmark.pedantic(
        lambda: run_fig6(Simulator(), run_seconds=6, num_ckpts=1),
        rounds=1, iterations=1)
    assert digest            # non-empty hex digest; the fixed-parameter
    #                          golden is gated in tests/test_fastpath_equivalence.py


def test_fig7_bittorrent_wall_clock(benchmark):
    digest = benchmark.pedantic(
        lambda: run_fig7(Simulator(), run_seconds=8, num_ckpts=1),
        rounds=1, iterations=1)
    assert digest
