"""Performance benchmarks for the event-core hot path.

``repro bench`` times two synthetic kernel microbenchmarks, a saturated
Dummynet pipe and the paper's figure rigs, gates every figure digest on
its stored golden (``benchmarks/results/*_digests.json``), and records the
results in ``BENCH_sim_core.json`` at the repository root.  The same
scenario builders back the equivalence tests
(`tests/test_fastpath_equivalence.py`, `tests/test_pipeline_equivalence.py`).
"""

from repro.bench.scenarios import (build_fig6_rig, build_fig7_rig,
                                   run_event_churn, run_fig6, run_fig7,
                                   run_timer_storm)
from repro.bench.runner import run_bench, run_profile

__all__ = [
    "build_fig6_rig", "build_fig7_rig", "run_event_churn", "run_fig6",
    "run_fig7", "run_timer_storm", "run_bench", "run_profile",
]
