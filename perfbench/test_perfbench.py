"""Tests of the benchmark itself: layer map, metric names, output checks.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

import cProfile
import importlib.util
import json
import pkgutil
import pstats
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

suite = run.load_program()

import layers  # noqa: E402
import repro  # noqa: E402
from repro.sim import Simulator  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def repro_modules():
    return [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]


def test_every_repro_module_maps_to_exactly_one_layer():
    modules = repro_modules()
    assert len(modules) > 50
    for module in modules:
        package = module.split(".")[1]
        expected = package if package in layers.LAYERS else layers.OTHER
        assert layers.layer_of_module(module) == expected, module
    # every layer is a real package, and some packages fall to "other"
    assert {layers.layer_of_module(m) for m in modules} == \
        set(layers.LAYERS) | {layers.OTHER}


def test_unknown_packages_and_foreign_files_go_to_other():
    assert layers.layer_of_module("repro.newpackage.module") == layers.OTHER
    assert layers.layer_of_module("repro") == layers.OTHER
    assert layers.layer_of_module("netlib.sim") == layers.OTHER
    assert layers.module_of_file(json.__file__, str(run.SRC)) is None


def test_source_files_map_back_to_their_modules():
    for module in repro_modules():
        path = importlib.util.find_spec(module).origin
        assert layers.module_of_file(path, str(run.SRC)) == module


def test_rollup_keeps_every_second_and_call():
    profile = cProfile.Profile()
    profile.enable()
    sim = Simulator()
    sim.timeout(5)
    sim.run()
    sorted([3, 1, 2])
    profile.disable()
    stats = pstats.Stats(profile)
    table = layers.rollup(stats, str(run.SRC))
    assert set(table) == set(layers.LAYERS) | {layers.OTHER}
    assert sum(r["self_s"] for r in table.values()) == pytest.approx(
        sum(entry[2] for entry in stats.stats.values()))
    assert sum(r["calls"] for r in table.values()) == \
        sum(entry[0] for entry in stats.stats.values())
    assert table["sim"]["calls"] > 0 and table[layers.OTHER]["calls"] > 0


def test_metric_names_and_units_match_benchmark_json():
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.per_layer_units()
    for name in list(end_to_end) + list(per_layer) + \
            [w["name"] for w in BENCHMARK["workloads"]]:
        assert NAME.match(name), name
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(suite.WORKLOADS)


def result_of(argv, capsys):
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_a_run_prints_exactly_its_metrics(trace, section, capsys):
    result = result_of(["--workload", "ckpt10_swap", "--seconds", "0",
                        "--trace", trace], capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[section]}


def test_a_wrong_expected_digest_fails_every_check(monkeypatch, capsys):
    monkeypatch.setattr(run, "pinned_outputs",
                        lambda workload, seed: {"digest": "0" * 64})
    result = result_of(["--workload", "bonnie_cow", "--seconds", "0"], capsys)
    assert result["attempted"] > 0
    assert result["failed"] == result["attempted"]
    assert not result["correct"]


def test_a_repetition_that_raises_is_counted_as_failed():
    def broken_run(state, probe):
        raise RuntimeError("simulated crash")

    workload = suite.Workload("broken", lambda seed, probe: None,
                              broken_run, lambda result: None)
    rep = run.repetition(suite, workload, seed=1)
    checks = run.Checks(None)
    checks.repetition(rep, "repetition 1")
    assert checks.attempted == 1 and checks.error_rate == 1.0


def test_without_the_simulator_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bonnie_cow",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
