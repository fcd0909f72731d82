"""Whole-program lint: call graph, taint (DET009/DET010), CKPT family.

The fixtures simulate multi-file projects by feeding ``(path, source)``
pairs straight to :func:`repro.lint.check_sources` — the same entry
point ``repro lint`` uses — so every test exercises the real
symbol-table/resolution path, not a mocked graph.  The bottom section
pins the acceptance criteria: the live tree is clean under the new
rules, and a full-repo run stays under the 10s wall-time budget.
"""

import ast
import json
import time

from repro.lint import check_paths, check_sources
from repro.lint.graph import PROJECT_RULES, all_project_codes, build_index

from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

CKPT_BASE = (
    "class Checkpointable:\n"
    "    name = 'checkpointable'\n"
    "    def stage_suspend(self):\n"
    "        return None\n"
    "    def stage_save(self):\n"
    "        return None\n"
    "    def stage_resume(self):\n"
    "        return None\n"
    "    def stage_abort(self):\n"
    "        return None\n")

PIPELINE_PATH = "src/repro/checkpoint/pipeline.py"


def graph_codes(entries, select=None):
    """[(code, path, line), ...] from a multi-file lint run."""
    return [(v.code, v.path, v.line)
            for v in check_sources(entries, select=select)]


# ---------------------------------------------------------------------------
# DET009 — transitive wall clock
# ---------------------------------------------------------------------------

HELPER = ("import time\n"
          "\n"
          "def stamp():\n"
          "    return time.time()\n")

CALLER = ("from repro.util.clockutil import stamp\n"
          "\n"
          "def tick(sim):\n"
          "    return stamp()\n")


def test_det009_cross_module_wall_clock():
    # Acceptance (b): a helper-wrapped time.time() is caught across a
    # module boundary, at the *call site* in the other file.
    found = graph_codes([("src/repro/util/clockutil.py", HELPER),
                         ("src/repro/sim/user.py", CALLER)],
                        select=["DET009"])
    assert found == [("DET009", "src/repro/sim/user.py", 4)]


def test_det009_message_names_origin_and_chain():
    violations = check_sources(
        [("src/repro/util/clockutil.py", HELPER),
         ("src/repro/sim/user.py", CALLER)], select=["DET009"])
    message = violations[0].message
    assert "time.time()" in message
    assert "clockutil.stamp" in message


def test_det009_two_hop_chain():
    middle = ("from repro.util.clockutil import stamp\n"
              "\n"
              "def wrapped():\n"
              "    return stamp()\n")
    top = ("from repro.util.middle import wrapped\n"
           "\n"
           "def run(sim):\n"
           "    return wrapped()\n")
    found = graph_codes([("src/repro/util/clockutil.py", HELPER),
                         ("src/repro/util/middle.py", middle),
                         ("src/repro/sim/top.py", top)],
                        select=["DET009"])
    # both the middle wrapper's call and the top caller's call are flagged
    assert ("DET009", "src/repro/sim/top.py", 4) in found
    assert ("DET009", "src/repro/util/middle.py", 4) in found


def test_det009_sanctioned_source_does_not_propagate():
    # A noqa'd wall-clock read is a declared host-side boundary: no
    # DET009 anywhere downstream (the bench harness relies on this).
    sanctioned = HELPER.replace("time.time()",
                                "time.time()  # repro: noqa=DET001")
    found = graph_codes([("src/repro/util/clockutil.py", sanctioned),
                         ("src/repro/sim/user.py", CALLER)])
    assert found == []


def test_det009_call_site_noqa_disables_one_edge():
    caller = CALLER.replace("return stamp()",
                            "return stamp()  # repro: noqa=DET009")
    found = graph_codes([("src/repro/util/clockutil.py", HELPER),
                         ("src/repro/sim/user.py", caller)],
                        select=["DET009"])
    assert found == []


def test_det009_not_reported_outside_library():
    # Tests may legitimately call host-side helpers.
    found = graph_codes([("src/repro/util/clockutil.py", HELPER),
                         ("tests/test_caller.py", CALLER)],
                        select=["DET009"])
    assert found == []


# ---------------------------------------------------------------------------
# DET010 — ambient randomness through a wrapper
# ---------------------------------------------------------------------------

RANDOM_WRAPPER = ("import random\n"
                  "\n"
                  "def jitter(n):\n"
                  "    return random.uniform(0, n)\n")


def test_det010_wrapper_escape():
    user = ("from repro.util.jit import jitter\n"
            "\n"
            "def schedule(sim):\n"
            "    return jitter(5)\n")
    found = graph_codes([("src/repro/util/jit.py", RANDOM_WRAPPER),
                         ("src/repro/sim/sched.py", user)],
                        select=["DET010"])
    assert found == [("DET010", "src/repro/sim/sched.py", 4)]


def test_det010_seeded_stream_clean():
    wrapper = ("def jitter(rng, n):\n"
               "    return rng.uniform(0, n)\n")
    user = ("from repro.util.jit import jitter\n"
            "\n"
            "def schedule(rng):\n"
            "    return jitter(rng, 5)\n")
    found = graph_codes([("src/repro/util/jit.py", wrapper),
                         ("src/repro/sim/sched.py", user)],
                        select=["DET010"])
    assert found == []


def test_stdlib_shadowing_module_not_resolved():
    # src/repro/sim/random.py must not answer for stdlib ``random.*``.
    shadow = "def helper():\n    return 1\n"
    index = build_index([("src/repro/sim/random.py", shadow,
                          ast.parse(shadow))])
    assert index.resolve_dotted("random.helper") is None
    assert index.resolve_dotted("sim.random.helper") is not None


# ---------------------------------------------------------------------------
# CKPT001 — hidden provider state
# ---------------------------------------------------------------------------

HIDDEN_STATE_PROVIDER = (
    "from repro.checkpoint.pipeline import Checkpointable\n"
    "\n"
    "\n"
    "class LossyProvider(Checkpointable):\n"
    "    def __init__(self, name):\n"
    "        self.name = name\n"
    "        self.packets = []\n"
    "        self.seen = 0\n"
    "\n"
    "    def on_packet(self, pkt):\n"
    "        self.packets.append(pkt)\n"
    "        self.seen += 1\n"
    "\n"
    "    def stage_save(self):\n"
    "        return {'packets': list(self.packets)}\n"
    "\n"
    "    def stage_resume(self):\n"
    "        return None\n")


def seeded_entries(provider_src, path="src/repro/checkpoint/custom.py"):
    return [(PIPELINE_PATH, CKPT_BASE), (path, provider_src)]


def test_ckpt001_hidden_state_flagged():
    # Acceptance (a), static half: ``seen`` is mutated by an event
    # handler but no stage hook ever touches it — the snapshot drops it.
    found = graph_codes(seeded_entries(HIDDEN_STATE_PROVIDER),
                        select=["CKPT001"])
    assert found == [("CKPT001", "src/repro/checkpoint/custom.py", 12)]


def test_ckpt001_message_names_field_and_class():
    violations = check_sources(seeded_entries(HIDDEN_STATE_PROVIDER),
                               select=["CKPT001"])
    assert "`self.seen`" in violations[0].message
    assert "LossyProvider" in violations[0].message


def test_ckpt001_state_read_by_save_is_covered():
    # ``packets`` is read by stage_save, so it is not hidden.
    found = graph_codes(seeded_entries(HIDDEN_STATE_PROVIDER),
                        select=["CKPT001"])
    assert all("packets" not in str(c) for c in found)


def test_ckpt001_init_helper_chain_is_covered():
    src = (
        "from repro.checkpoint.pipeline import Checkpointable\n"
        "\n"
        "\n"
        "class P(Checkpointable):\n"
        "    def __init__(self):\n"
        "        self._reset()\n"
        "\n"
        "    def _reset(self):\n"
        "        self.cursor = 0\n")
    assert graph_codes(seeded_entries(src), select=["CKPT001"]) == []


def test_ckpt001_stage_helper_chain_is_covered():
    src = (
        "from repro.checkpoint.pipeline import Checkpointable\n"
        "\n"
        "\n"
        "class P(Checkpointable):\n"
        "    def __init__(self):\n"
        "        self.epoch = 0\n"
        "\n"
        "    def bump(self):\n"
        "        self.epoch += 1\n"
        "\n"
        "    def stage_save(self):\n"
        "        self.bump()\n"
        "    def stage_resume(self):\n"
        "        return None\n")
    assert graph_codes(seeded_entries(src), select=["CKPT001"]) == []


def test_ckpt001_noqa_suppresses():
    src = HIDDEN_STATE_PROVIDER.replace(
        "self.seen += 1", "self.seen += 1  # repro: noqa=CKPT001")
    assert graph_codes(seeded_entries(src), select=["CKPT001"]) == []


def test_ckpt_rules_skip_test_paths():
    # Tests seed deliberately-buggy providers; the CKPT family is
    # library-only so those fixtures never trip the gate.
    found = graph_codes(
        seeded_entries(HIDDEN_STATE_PROVIDER,
                       path="tests/test_custom_provider.py"))
    assert found == []


# ---------------------------------------------------------------------------
# CKPT002 — stored generators
# ---------------------------------------------------------------------------

def test_ckpt002_generator_method_and_iter():
    src = (
        "from repro.checkpoint.pipeline import Checkpointable\n"
        "\n"
        "\n"
        "class P(Checkpointable):\n"
        "    def _drain(self):\n"
        "        yield 1\n"
        "\n"
        "    def stage_suspend(self):\n"
        "        self.drainer = self._drain()\n"
        "        self.cursor = iter([1, 2])\n"
        "        self.view = (x for x in [1])\n")
    found = graph_codes(seeded_entries(src), select=["CKPT002"])
    assert [(c, line) for c, _, line in found] == [
        ("CKPT002", 9), ("CKPT002", 10), ("CKPT002", 11)]


def test_ckpt002_plain_data_clean():
    src = (
        "from repro.checkpoint.pipeline import Checkpointable\n"
        "\n"
        "\n"
        "class P(Checkpointable):\n"
        "    def stage_suspend(self):\n"
        "        self.snapshot = [1, 2]\n"
        "        self.items = list(range(3))\n")
    assert graph_codes(seeded_entries(src), select=["CKPT002"]) == []


# ---------------------------------------------------------------------------
# CKPT003 — save/restore parity
# ---------------------------------------------------------------------------

def test_ckpt003_save_without_restore_side():
    src = (
        "from repro.checkpoint.pipeline import Checkpointable\n"
        "\n"
        "\n"
        "class P(Checkpointable):\n"
        "    def stage_save(self):\n"
        "        self.saved = 1\n")
    found = graph_codes(seeded_entries(src), select=["CKPT003"])
    assert [(c, line) for c, _, line in found] == [("CKPT003", 5)]


def test_ckpt003_abort_counts_as_parity():
    src = (
        "from repro.checkpoint.pipeline import Checkpointable\n"
        "\n"
        "\n"
        "class P(Checkpointable):\n"
        "    def stage_save(self):\n"
        "        self.saved = 1\n"
        "    def stage_abort(self):\n"
        "        self.saved = None\n")
    assert graph_codes(seeded_entries(src), select=["CKPT003"]) == []


def test_ckpt003_inherited_resume_counts():
    src = (
        "from repro.checkpoint.pipeline import Checkpointable\n"
        "\n"
        "\n"
        "class Base(Checkpointable):\n"
        "    def stage_resume(self):\n"
        "        self.saved = None\n"
        "\n"
        "\n"
        "class P(Base):\n"
        "    def stage_save(self):\n"
        "        self.saved = 1\n")
    assert graph_codes(seeded_entries(src), select=["CKPT003"]) == []


def test_ckpt003_serialize_needs_restore():
    src = (
        "from repro.checkpoint.pipeline import Checkpointable\n"
        "\n"
        "\n"
        "class P(Checkpointable):\n"
        "    def serialize(self):\n"
        "        return {}\n")
    found = graph_codes(seeded_entries(src), select=["CKPT003"])
    assert [(c, line) for c, _, line in found] == [("CKPT003", 5)]
    src += "\n    def restore(self, blob):\n        return None\n"
    assert graph_codes(seeded_entries(src), select=["CKPT003"]) == []


def test_ckpt003_component_state_pair_has_one_spelling():
    # Not a provider: any library class pairing ``serialize_state`` with
    # anything but ``restore_state`` is flagged.
    src = (
        "class Pipe:\n"
        "    def serialize_state(self):\n"
        "        return {}\n"
        "    def restore_serialized(self, state):\n"
        "        return None\n")
    found = graph_codes(seeded_entries(src, path="src/repro/net/pipe.py"),
                        select=["CKPT003"])
    assert [(c, line) for c, _, line in found] == [("CKPT003", 2)]
    fixed = src.replace("restore_serialized", "restore_state")
    assert graph_codes(seeded_entries(fixed, path="src/repro/net/pipe.py"),
                       select=["CKPT003"]) == []


# ---------------------------------------------------------------------------
# index plumbing: registry, dump, acceptance gates
# ---------------------------------------------------------------------------

def test_project_rule_registry():
    assert all_project_codes() == ["CKPT001", "CKPT002", "CKPT003",
                                   "DET009", "DET010"]
    for code, rule in PROJECT_RULES.items():
        assert rule.code == code
        assert rule.summary
        assert rule.library_only


def test_graph_json_dump_shape():
    entries = [("src/repro/util/clockutil.py", HELPER,
                ast.parse(HELPER))]
    dump = build_index(entries).to_json()
    payload = json.loads(json.dumps(dump))      # must be JSON-serializable
    module = payload["modules"][0]
    assert module["module"] == "repro.util.clockutil"
    stamp = module["functions"][0]
    assert stamp["wall_clock_tainted"] is True
    assert stamp["wall_clock_sources"][0]["origin"] == "time.time"
    assert payload["taint"]["wall_clock"] == ["repro.util.clockutil.stamp"]


def test_checkpointable_detected_through_reexport():
    # ``from repro.checkpoint import Checkpointable`` resolves through
    # the package __init__ re-export to the pipeline class.
    init = "from repro.checkpoint.pipeline import Checkpointable\n"
    provider = HIDDEN_STATE_PROVIDER.replace(
        "from repro.checkpoint.pipeline import Checkpointable",
        "from repro.checkpoint import Checkpointable")
    found = graph_codes(
        [(PIPELINE_PATH, CKPT_BASE),
         ("src/repro/checkpoint/__init__.py", init),
         ("src/repro/checkpoint/custom.py", provider)],
        select=["CKPT001"])
    assert found == [("CKPT001", "src/repro/checkpoint/custom.py", 12)]


def test_live_tree_clean_under_project_rules():
    # Acceptance: the shipped library has no hidden provider state, no
    # laundered clocks, no parity gaps.
    violations = check_paths(
        [str(REPO_ROOT / "src")],
        select=["DET009", "DET010", "CKPT001", "CKPT002", "CKPT003"])
    formatted = "\n".join(v.format() for v in violations)
    assert not violations, f"project-rule violations:\n{formatted}"


def test_full_repo_lint_under_ten_seconds():
    # Acceptance (c): whole-program analysis must stay cheap enough for
    # the pre-commit/CI path.
    trees = [str(REPO_ROOT / name)
             for name in ("src", "tests", "benchmarks", "tools", "examples")
             if (REPO_ROOT / name).is_dir()]
    start = time.perf_counter()  # repro: noqa=DET001
    check_paths(trees)
    elapsed = time.perf_counter() - start  # repro: noqa=DET001
    assert elapsed < 10.0, f"full-repo lint took {elapsed:.1f}s"
