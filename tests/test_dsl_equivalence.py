"""DSL-compiled scenarios must equal their hand-wired twins bit-for-bit.

The shipped ``examples/scenarios/*.toml`` files describe the same
experiments as ``run_fig4`` / ``run_ckpt10`` / ``run_faultstorm``; the
compiler (:mod:`repro.testbed.compile`) must reconstruct the exact
object graph, so every digest here is an equality between a DSL run and
a hand-wired run — and, where a golden exists, the stored golden too.
"""

import os

import pytest

from repro.__main__ import main
from repro.analysis.digest import golden_digest
from repro.bench.scenarios import run_ckpt10, run_fig4
from repro.sim import Simulator
from repro.testbed.compile import compile_scenario, run_scenario_file
from repro.testbed.dsl import load_scenario

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                            "examples", "scenarios")

def scenario_path(name: str) -> str:
    return os.path.join(SCENARIO_DIR, name)


def test_fig4_matches_hand_wired_and_golden():
    result = run_scenario_file(scenario_path("fig4.toml"), sim=Simulator())
    hand = run_fig4(Simulator())
    assert result.digest == hand
    assert result.digest == golden_digest("PIPELINE", "fig4_sleep")
    assert result.recipe == "local-parts"


def test_fig4_race_detector_clean():
    result = run_scenario_file(scenario_path("fig4.toml"), race=True)
    assert result.races == 0
    assert result.digest == golden_digest("PIPELINE", "fig4_sleep")


def test_ckpt10_matches_hand_wired_and_golden():
    result = run_scenario_file(
        scenario_path("ckpt10_coordinated.toml"), sim=Simulator())
    hand = run_ckpt10(Simulator())
    assert result.digest == hand
    assert result.digest == golden_digest("PIPELINE", "ckpt10_coordinated")
    assert result.recipe == "coordinated-parts"
    assert result.details["checkpoints"] == 1


def test_faultstorm_matches_hand_wired_survival_digest():
    from repro.faults.scenario import run_faultstorm

    result = run_scenario_file(scenario_path("ckpt10_faultstorm.toml"))
    report = run_faultstorm()
    assert result.digest == report.digest
    assert result.recipe == "survival"
    assert result.details["completed"] is True
    assert result.details["supervisor_attempts"] == report.attempts
    assert result.details["injected"] == dict(report.injected)


def test_faultstorm_race_detector_clean():
    result = run_scenario_file(scenario_path("ckpt10_faultstorm.toml"),
                               race=True)
    assert result.races == 0


def test_world_scenario_run_to_run_deterministic():
    compiled = compile_scenario(
        load_scenario(scenario_path("snapshot_world.toml")))
    first = compiled.run()
    second = compiled.run()
    assert first.digest == second.digest
    assert first.details["checkpoints"] == 3


def test_world_scenario_durable_commits(tmp_path):
    spec = load_scenario(scenario_path("snapshot_world.toml"))
    spec.world = type(spec.world)(
        world=spec.world.world, checkpoints=2,
        interval_ns=spec.world.interval_ns,
        durable_dir=str(tmp_path / "store"), fsync=False)
    result = compile_scenario(spec).run()
    assert len(result.details["committed"]) >= 2


def test_scenario_cli_rejects_broken_file(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text('[scenario]\nname = "x"\nbogus = 1\n')
    assert main(["scenario", str(bad)]) == 2
    assert "scenario error" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["fig4.toml", "ckpt10_coordinated.toml",
                                  "ckpt10_faultstorm.toml",
                                  "snapshot_world.toml"])
def test_shipped_scenarios_validate(name):
    spec = load_scenario(scenario_path(name))
    assert spec.name
