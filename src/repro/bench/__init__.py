"""``repro bench`` and the scenario rigs the golden tests run.

:mod:`repro.bench.runner` measures the two snapshot scenarios nothing
else measures (restore vs replay, durable-store overhead) and writes
their counters and verdicts to ``BENCH_sim_core.json``.
:mod:`repro.bench.scenarios` builds the paper's figure rigs; the golden
tests (`tests/test_fastpath_equivalence.py`,
`tests/test_pipeline_equivalence.py`) pin their digests.
"""

from repro.bench.scenarios import (build_fig6_rig, build_fig7_rig, run_fig6,
                                   run_fig7, run_timer_storm)
from repro.bench.runner import run_bench

__all__ = [
    "build_fig6_rig", "build_fig7_rig", "run_fig6", "run_fig7",
    "run_timer_storm", "run_bench",
]
