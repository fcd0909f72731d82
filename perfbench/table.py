#!/usr/bin/env python3
"""Print where each workload's host time goes, layer by layer.

Usage (from the root of the repository)::

    python3 perfbench/table.py [workload ...]

Runs one cProfile-traced repetition of each named workload (all four by
default) at its default seed and prints a Markdown table of each layer's
share of the traced self time.  cProfile charges a cost to every call, so
layers made of many small calls read high: read the shares as a shape,
not as exact fractions.
"""

from __future__ import annotations

import sys

import run


def share_rows(suite, names):
    """``(workload, traced seconds, {layer: share})`` per workload."""
    from layers import rollup

    for name in names:
        workload = suite.WORKLOADS[name]
        rep = run.repetition(suite, workload, run.default_seed(workload),
                             profiled=True)
        table = rollup(rep.stats, str(run.SRC))
        total = sum(row["self_s"] for row in table.values())
        yield name, total, {layer: row["self_s"] / total
                            for layer, row in table.items()}


def main(argv=None) -> int:
    suite = run.load_program()
    if suite is None:
        print(f"table: no simulator sources at {run.SRC / 'repro'}",
              file=sys.stderr)
        return 2
    from layers import LAYERS, OTHER

    names = (sys.argv[1:] if argv is None else argv) or list(suite.WORKLOADS)
    unknown = [n for n in names if n not in suite.WORKLOADS]
    if unknown:
        print(f"table: unknown workload(s) {', '.join(unknown)}; choose "
              f"from {', '.join(suite.WORKLOADS)}", file=sys.stderr)
        return 2
    columns = LAYERS + (OTHER,)
    print("| workload | traced s | " + " | ".join(columns) + " |")
    print("|---" * (len(columns) + 2) + "|")
    for name, total, shares in share_rows(suite, names):
        cells = [f"{shares[c] * 100:.0f}%" if shares[c] >= 0.005 else "—"
                 for c in columns]
        print(f"| {name} | {total:.2f} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
