"""Pipeline-port equivalence gate.

The digests below were captured on the pre-pipeline monolithic checkpoint
implementation (``benchmarks/results/PIPELINE_digests.json``).  Each
scenario drives a checkpoint consumer that now runs on
:mod:`repro.checkpoint.pipeline`; a digest change means the port perturbed
event order, rng draws, or checkpoint semantics.  This suite is the one
gate on these four goldens; ``repro trace`` and ``repro faults
--verify-off`` re-check fig4/fig5/ckpt10 under tracing and a disabled
fault injector.
"""

import pytest

from repro.analysis.digest import golden_digest
from repro.bench.scenarios import run_ckpt10, run_fig4, run_fig5, run_fig8
from repro.sim import Simulator

SCENARIOS = {
    "fig4_sleep": run_fig4,              # local checkpoints (LocalCheckpointer)
    "fig5_cpuburn": run_fig5,            # local checkpoints under CPU load
    "fig8_cow_storage": run_fig8,        # COW branching storage
    "ckpt10_coordinated": run_ckpt10,    # 10-node coordinated checkpoint
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_digest_bit_identical_to_pre_pipeline_golden(name):
    digest = SCENARIOS[name](Simulator())
    golden = golden_digest("PIPELINE", name)
    assert digest == golden, (
        f"{name}: checkpoint-pipeline port changed observable behaviour "
        f"(got {digest}, golden {golden})")

