"""Roll cProfile statistics up into the simulator's layers.

A layer is one ``repro.<package>`` of the simulator.  Host time and call
counts of every profiled function are charged to the layer of the module
that defines it; functions outside those packages (the interpreter's
built-ins, the standard library, the benchmark itself, and ``repro``
packages that are not layers) are charged to ``other`` so that no time
silently vanishes from the table.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Optional

#: the ``repro.*`` packages the benchmark workloads execute
LAYERS = ("sim", "net", "guest", "xen", "checkpoint", "storage", "hw",
          "testbed", "clocksync", "workloads", "timetravel")
OTHER = "other"


def layer_of_module(module: str) -> str:
    """The layer a dotted module name belongs to.

        >>> layer_of_module("repro.net.tcp")
        'net'
        >>> layer_of_module("repro.analysis.digest")
        'other'
        >>> layer_of_module("heapq")
        'other'
    """
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return OTHER


def module_of_file(path: str, src_root: str) -> Optional[str]:
    """Dotted module name of a source file under ``src_root``, else None."""
    rel = os.path.relpath(os.path.abspath(path), src_root)
    if rel.startswith(os.pardir) or not rel.endswith(".py"):
        return None
    module = rel[:-3].replace(os.sep, ".")
    return module[:-len(".__init__")] if module.endswith(".__init__") \
        else module


def rollup(stats: pstats.Stats, src_root: str) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s": tottime, "calls": primitive calls}}``.

    Every layer and ``other`` appear, with zeros where nothing ran.
    """
    table = {layer: {"self_s": 0.0, "calls": 0}
             for layer in LAYERS + (OTHER,)}
    for (filename, _line, _name), (prim_calls, _calls, tottime, _cum,
                                   _callers) in stats.stats.items():
        module = module_of_file(filename, src_root)
        row = table[layer_of_module(module) if module else OTHER]
        row["self_s"] += tottime
        row["calls"] += prim_calls
    return table


def primitive_calls(stats: pstats.Stats, function) -> int:
    """Primitive calls of one Python function in a profile (0 if absent)."""
    code = function.__code__
    for (filename, line, name), entry in stats.stats.items():
        if name == code.co_name and line == code.co_firstlineno and \
                os.path.abspath(filename) == os.path.abspath(code.co_filename):
            return entry[0]
    return 0
