"""The scheduler's behaviour on the paper's experiment rigs, pinned.

The Figure 6 (iperf over GigE) and Figure 7 (BitTorrent LAN swarm) rigs —
checkpoints included — must reproduce their stored goldens in
``benchmarks/results/SCHEDULER_digests.json``.  The digest,
:func:`~repro.analysis.digest.experiment_digest`, covers guest virtual
time, TCP sequence state and counters, storage content maps, and
delay-node occupancy, so any change to event order moves it.

Also here: shadow-run convergence (no hidden ordering dependence) and
event-race cleanliness of a rig run.
"""

from repro.analysis.digest import golden_digest
from repro.bench.scenarios import run_fig6, run_fig7
from repro.lint.runtime import shadow_run
from repro.sim import Simulator


def test_fig6_matches_scheduler_golden():
    digest = run_fig6(Simulator(), run_seconds=5, num_ckpts=1)
    assert digest == golden_digest("SCHEDULER", "fig6_iperf")


def test_fig7_matches_scheduler_golden():
    digest = run_fig7(Simulator(), run_seconds=8, num_ckpts=1)
    assert digest == golden_digest("SCHEDULER", "fig7_bittorrent")


def test_fig6_shadow_run_converges():
    # Equivalent-but-perturbed RNG substreams must not change the digest
    # structure of the run (no hidden ordering dependence).
    def scenario(streams):
        return run_fig6(Simulator(), run_seconds=3, num_ckpts=1,
                        streams=streams)

    report = shadow_run(scenario, seed=6)
    assert not report.diverged, report.format()


def test_fig6_is_race_clean():
    sim = Simulator()
    detector = sim.enable_race_detection()
    run_fig6(sim, run_seconds=3, num_ckpts=1)
    assert detector.events_observed > 1000
    assert not detector.races, \
        "\n".join(r.format() for r in detector.races)
