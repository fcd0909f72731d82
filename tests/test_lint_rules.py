"""Fixture tests for the static determinism lint rules (DET001–DET008).

Each rule gets at least one fixture with a known violation (asserting code
and line) and one clean near-miss.  Suppression comments, JSON output, and
the CLI entry point are covered at the bottom.
"""

import json

import pytest

from repro.lint import check_source
from repro.lint.engine import render_json
from repro.lint.rules import RULES

LIB = "src/repro/fixture.py"          # a path the library-only rules apply to


def codes_at(source, path=LIB, select=None):
    """[(code, line), ...] for every violation in ``source``."""
    return [(v.code, v.line) for v in check_source(source, path=path,
                                                   select=select)]


# ---------------------------------------------------------------------------
# DET001 — wall clock
# ---------------------------------------------------------------------------

def test_det001_time_time():
    src = "import time\n\nstamp = time.time()\n"
    assert codes_at(src) == [("DET001", 3)]


def test_det001_from_import_perf_counter():
    src = "from time import perf_counter as pc\n\nstart = pc()\n"
    assert codes_at(src) == [("DET001", 3)]


def test_det001_datetime_now():
    src = "from datetime import datetime\n\nwhen = datetime.now()\n"
    assert codes_at(src) == [("DET001", 3)]


def test_det001_clean_sim_now():
    src = "def f(sim):\n    return sim.now\n"
    assert codes_at(src) == []


# ---------------------------------------------------------------------------
# DET002 — ambient random functions
# ---------------------------------------------------------------------------

def test_det002_module_level_randint():
    src = "import random\n\nx = random.randint(0, 5)\n"
    assert codes_at(src, select=["DET002"]) == [("DET002", 3)]


def test_det002_from_import_shuffle():
    src = "from random import shuffle\n\nshuffle([1, 2])\n"
    assert codes_at(src, select=["DET002"]) == [("DET002", 3)]


def test_det002_instance_method_clean():
    src = "def f(rng):\n    return rng.randint(0, 5)\n"
    assert codes_at(src, select=["DET002"]) == []


# ---------------------------------------------------------------------------
# DET003 — bare Random construction
# ---------------------------------------------------------------------------

def test_det003_bare_random_in_library():
    src = "import random\n\nrng = random.Random(0)\n"
    assert codes_at(src) == [("DET003", 3)]


def test_det003_from_import_alias():
    src = "from random import Random\n\nrng = Random(7)\n"
    assert codes_at(src) == [("DET003", 3)]


def test_det003_exempt_in_sim_random():
    src = "import random\n\nrng = random.Random(0)\n"
    assert codes_at(src, path="src/repro/sim/random.py") == []


def test_det003_not_applied_outside_library():
    # Tests inject explicit seeded RNGs at the boundary; that is sanctioned.
    src = "import random\n\nrng = random.Random(1)\n"
    assert codes_at(src, path="tests/test_fixture.py") == []


# ---------------------------------------------------------------------------
# DET004 — unordered iteration
# ---------------------------------------------------------------------------

def test_det004_for_over_set_literal():
    src = "for x in {1, 2, 3}:\n    print(x)\n"
    assert codes_at(src) == [("DET004", 1)]


def test_det004_for_over_set_call_via_name():
    src = ("def f(items):\n"
           "    pending = set(items)\n"
           "    for x in pending:\n"
           "        x.go()\n")
    assert codes_at(src) == [("DET004", 3)]


def test_det004_annotated_self_attribute():
    src = ("from typing import Set\n"
           "class Store:\n"
           "    def __init__(self):\n"
           "        self.missing: Set[int] = set()\n"
           "    def drain(self):\n"
           "        for b in self.missing:\n"
           "            self.fetch(b)\n")
    assert codes_at(src) == [("DET004", 6)]


def test_det004_set_difference_in_list_comp():
    src = ("def f(a, b):\n"
           "    return [x for x in set(a) - set(b)]\n")
    assert codes_at(src) == [("DET004", 2)]


def test_det004_list_conversion_of_set():
    src = "order = list({3, 1, 2})\n"
    assert codes_at(src) == [("DET004", 1)]


def test_det004_sorted_is_clean():
    src = ("def f(items):\n"
           "    pending = set(items)\n"
           "    for x in sorted(pending):\n"
           "        x.go()\n"
           "    return sorted(y for y in pending)\n")
    assert codes_at(src) == []


def test_det004_order_free_sinks_clean():
    src = ("def f(s):\n"
           "    live = set(s)\n"
           "    return min(live), max(live), sum(live), len(live)\n")
    assert codes_at(src) == []


def test_det004_dict_values_clean():
    # dicts are insertion-ordered; iterating them is deterministic
    src = ("def f(d):\n"
           "    for v in d.values():\n"
           "        v.go()\n")
    assert codes_at(src) == []


# ---------------------------------------------------------------------------
# DET005 — id()/hash() ordering
# ---------------------------------------------------------------------------

def test_det005_key_id():
    src = "ordered = sorted(events, key=id)\n"
    assert codes_at(src) == [("DET005", 1)]


def test_det005_lambda_id():
    src = "events.sort(key=lambda e: (id(e), e.t))\n"
    assert codes_at(src) == [("DET005", 1)]


def test_det005_stable_key_clean():
    src = "ordered = sorted(events, key=lambda e: e.name)\n"
    assert codes_at(src) == []


# ---------------------------------------------------------------------------
# DET006 — float time arithmetic
# ---------------------------------------------------------------------------

def test_det006_float_literal_timeout():
    src = "def f(sim):\n    return sim.timeout(1.5)\n"
    assert codes_at(src) == [("DET006", 2)]


def test_det006_true_division():
    src = "def f(sim, total, rate):\n    return sim.timeout(total / rate)\n"
    assert codes_at(src) == [("DET006", 2)]


def test_det006_floor_division_clean():
    src = "def f(sim, total, rate):\n    return sim.timeout(total // rate)\n"
    assert codes_at(src) == []


def test_det006_int_quantized_clean():
    src = "def f(sim, total, rate):\n    return sim.timeout(int(total / rate))\n"
    assert codes_at(src) == []


# ---------------------------------------------------------------------------
# DET007 — process discipline
# ---------------------------------------------------------------------------

def test_det007_time_sleep():
    src = "import time\n\ntime.sleep(1)\n"
    assert ("DET007", 3) in codes_at(src, select=["DET007"])


def test_det007_discarded_wait_event_in_generator():
    src = ("def proc(k):\n"
           "    yield k.sleep(10)\n"
           "    k.sleep(20)\n"              # missing yield
           "    yield k.sleep(30)\n")
    assert codes_at(src) == [("DET007", 3)]


def test_det007_yielded_waits_clean():
    src = ("def proc(k):\n"
           "    yield k.sleep(10)\n"
           "    ev = k.sleep(20)\n"
           "    yield ev\n")
    assert codes_at(src) == []


def test_det007_non_generator_not_flagged():
    src = "def f(widget):\n    widget.sleep(5)\n"
    assert codes_at(src) == []


# ---------------------------------------------------------------------------
# DET008 — mutable / model-instance defaults
# ---------------------------------------------------------------------------

def test_det008_model_instance_default():
    src = ("def f(path=PathDelayModel()):\n"
           "    return path\n")
    assert codes_at(src, select=["DET008"]) == [("DET008", 1)]


def test_det008_mutable_literal_defaults():
    src = "def f(a=[], b={}, *, c=set()):\n    return a, b, c\n"
    assert codes_at(src, select=["DET008"]) == [
        ("DET008", 1), ("DET008", 1), ("DET008", 1)]


def test_det008_clean_optional_none():
    src = ("def f(path=None, n=int(3), name=str()):\n"
           "    return path, n, name\n")
    assert codes_at(src, select=["DET008"]) == []


def test_det008_not_applied_outside_library():
    src = "def f(cfg=Config()):\n    return cfg\n"
    assert codes_at(src, path="tests/test_fixture.py",
                    select=["DET008"]) == []


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------

def test_noqa_with_matching_code_suppresses():
    src = "import time\n\nstamp = time.time()  # repro: noqa=DET001\n"
    assert codes_at(src) == []


def test_noqa_blanket_suppresses():
    src = "import time\n\nstamp = time.time()  # repro: noqa\n"
    assert codes_at(src) == []


def test_noqa_with_other_code_does_not_suppress():
    src = "import time\n\nstamp = time.time()  # repro: noqa=DET004\n"
    assert codes_at(src) == [("DET001", 3)]


def test_noqa_multiple_codes():
    src = ("import time, random\n\n"
           "x = time.time() + random.random()  "
           "# repro: noqa=DET001,DET002\n")
    assert codes_at(src) == []


def test_noqa_unknown_code_suppresses_nothing():
    # An unknown code in the list is inert: it neither errors nor hides
    # real findings on the same line.
    src = "import time\n\nstamp = time.time()  # repro: noqa=DET999\n"
    assert codes_at(src) == [("DET001", 3)]


def test_noqa_unknown_plus_matching_code_still_suppresses():
    src = ("import time\n\n"
           "stamp = time.time()  # repro: noqa=DET999,DET001\n")
    assert codes_at(src) == []


def test_noqa_spans_multiline_statement():
    # The violation's reported line is the call's first line; the pragma
    # sits on the closing line of the same statement and still applies.
    src = ("import time\n"
           "\n"
           "stamp = time.time(\n"
           ")  # repro: noqa=DET001\n")
    assert codes_at(src) == []


def test_noqa_on_decorator_line_covers_decorated_def():
    # DET008 reports at the ``def`` line; a pragma on the decorator line
    # covers the whole header span.
    src = ("import functools\n"
           "\n"
           "@functools.lru_cache  # repro: noqa=DET008\n"
           "def f(seen=[]):\n"
           "    return seen\n")
    assert codes_at(src, select=["DET008"]) == []


def test_noqa_on_multiline_signature_line_covers_def():
    src = ("def f(\n"
           "    seen=[],  # repro: noqa=DET008\n"
           "):\n"
           "    return seen\n")
    assert codes_at(src, select=["DET008"]) == []


def test_noqa_inside_function_body_does_not_leak_to_def():
    # Expansion covers statement spans, never compound-statement bodies:
    # a pragma on a body line must not hide a violation on the ``def``.
    src = ("def f(seen=[]):\n"
           "    x = 1  # repro: noqa=DET008\n"
           "    return seen, x\n")
    assert codes_at(src, select=["DET008"]) == [("DET008", 1)]


# ---------------------------------------------------------------------------
# ImportMap resolution
# ---------------------------------------------------------------------------

def test_importmap_from_import_as_chain():
    import ast

    from repro.lint.engine import ImportMap

    tree = ast.parse("from datetime import datetime as dt\n"
                     "from os import path as p\n"
                     "import time as t\n")
    imports = ImportMap(tree)
    assert imports.names["dt"] == "datetime.datetime"
    assert imports.names["p"] == "os.path"
    assert imports.names["t"] == "time"
    call = ast.parse("dt.now()").body[0].value.func
    assert imports.resolve(call) == "datetime.datetime.now"


def test_det001_via_aliased_from_import_chain():
    src = ("from datetime import datetime as dt\n"
           "\n"
           "when = dt.now()\n")
    assert codes_at(src) == [("DET001", 3)]


def test_importmap_unknown_name_resolves_none():
    import ast

    from repro.lint.engine import ImportMap

    imports = ImportMap(ast.parse("import time\n"))
    assert imports.resolve(ast.parse("mystery.call()").body[0].value.func) \
        is None


# ---------------------------------------------------------------------------
# engine plumbing: select, syntax errors, JSON output, CLI
# ---------------------------------------------------------------------------

def test_select_restricts_rules():
    src = "import time, random\n\nx = time.time()\ny = random.random()\n"
    assert codes_at(src, select=["DET002"]) == [("DET002", 4)]


def test_syntax_error_reported_as_e999():
    violations = check_source("def broken(:\n", path=LIB)
    assert [v.code for v in violations] == ["E999"]


def test_json_report_schema():
    violations = check_source("import time\nx = time.time()\n", path=LIB)
    data = json.loads(render_json(violations, files_scanned=1))
    assert data["files_scanned"] == 1
    assert data["violation_count"] == 1
    assert data["counts_by_code"] == {"DET001": 1}
    entry = data["violations"][0]
    assert set(entry) == {"path", "line", "col", "code", "message"}
    assert entry["code"] == "DET001" and entry["line"] == 2


def test_every_registered_rule_has_code_and_summary():
    assert set(RULES) == {f"DET00{i}" for i in range(1, 9)}
    for code, rule in RULES.items():
        assert rule.code == code
        assert rule.summary


def test_cli_clean_file_exits_zero(tmp_path, capsys):
    from repro.__main__ import main

    f = tmp_path / "clean.py"
    f.write_text("def f(sim):\n    return sim.now\n")
    assert main(["lint", str(f)]) == 0
    assert "0 violations" in capsys.readouterr().out


def test_cli_violation_exits_nonzero_with_location(tmp_path, capsys):
    from repro.__main__ import main

    f = tmp_path / "src" / "repro" / "dirty.py"
    f.parent.mkdir(parents=True)
    f.write_text("import time\n\nstamp = time.time()\n")
    assert main(["lint", str(f)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out and f"{f}:3:" in out


def test_cli_unknown_rule_code_is_usage_error(tmp_path, capsys):
    from repro.__main__ import main

    f = tmp_path / "x.py"
    f.write_text("pass\n")
    assert main(["lint", str(f), "--select", "DET999"]) == 2
    assert "unknown rule code" in capsys.readouterr().out


def test_cli_json_output(tmp_path, capsys):
    from repro.__main__ import main

    f = tmp_path / "x.py"
    f.write_text("import random\nrandom.seed(3)\n")
    assert main(["lint", str(f), "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["counts_by_code"] == {"DET002": 1}


def test_cli_list_rules(capsys):
    from repro.__main__ import main

    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for i in range(1, 8):
        assert f"DET00{i}" in out
