"""Event-loop dispatch counting and hot-spot attribution.

A :class:`LoopProfiler` hangs off ``Simulator.profiler`` (``None`` by
default — the fast path pays a single attribute check, same pattern as
the race detector).  When attached, ``Simulator.step`` hands each
dispatched item to :meth:`LoopProfiler.dispatch`, which brackets it with
host-clock reads and attributes the elapsed wall time to the qualified
name of what the item runs.

This is *host-side* measurement only: it observes how long the Python
interpreter spent inside each handler and never touches simulated time,
RNG streams, or the event heap, so profiled runs keep their digests.
``repro bench`` reads its ``dispatches`` count to gate snapshot restore
against replay; perfbench's ``--trace 1`` reads it for ``sim.events``.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List


def callable_key(fn: Callable) -> str:
    """Stable attribution key for a dispatched callback.

        >>> callable_key(len)
        'builtins.len'
        >>> class Widget:
        ...     def poke(self): pass
        >>> callable_key(Widget().poke).endswith('Widget.poke')
        True

    An event is named by what it runs: its first callback, and a process
    resumption by the process's generator.  Resolve the key *before* the
    event dispatches — dispatch detaches the callback list.

        >>> from repro.sim import Simulator
        >>> sim = Simulator()
        >>> event = sim.event()
        >>> event.add_callback(Widget().poke)
        >>> callable_key(event).endswith('Widget.poke')
        True
        >>> timer = sim.timeout(5)
        >>> def sleeper():
        ...     yield timer
        >>> _ = sim.process(sleeper())
        >>> sim.step()                      # the process starts, waits
        >>> callable_key(timer).endswith('.sleeper')
        True
        >>> callable_key(sim.event())
        'repro.sim.core.Event'
    """
    callbacks = getattr(fn, "callbacks", None)
    if callbacks:
        fn = callbacks[0]
        generator = getattr(getattr(fn, "__self__", None), "_generator",
                            None)
        if generator is not None:
            frame = generator.gi_frame
            module = (frame.f_globals.get("__name__", "?")
                      if frame is not None else "?")
            return f"{module}.{generator.__qualname__}"
    if hasattr(fn, "__func__"):  # bound method: attribute to the function
        fn = fn.__func__
    module = getattr(fn, "__module__", None) or "?"
    name = (getattr(fn, "__qualname__", None)
            or getattr(fn, "__name__", None)
            or type(fn).__name__)
    return f"{module}.{name}"


class LoopProfiler:
    """Accumulates host-time per callback key across ``Simulator.step``.

        >>> prof = LoopProfiler()
        >>> t0 = prof.begin()
        >>> prof.end(t0, len)
        >>> prof.counts['builtins.len']
        1
    """

    __slots__ = ("totals_ns", "counts", "dispatches")

    def __init__(self) -> None:
        #: callback key -> accumulated host nanoseconds
        self.totals_ns: Dict[str, int] = {}
        #: callback key -> number of dispatches
        self.counts: Dict[str, int] = {}
        #: total callbacks measured
        self.dispatches = 0

    def begin(self) -> int:
        """Host-clock mark taken just before a callback runs."""
        return time.perf_counter_ns()  # repro: noqa=DET001 host profiling

    def end(self, started_ns: int, fn: Callable) -> None:
        """Attribute host time since ``started_ns`` to ``fn``."""
        self._charge(callable_key(fn), started_ns)

    def dispatch(self, fn: Callable[[], None]) -> None:
        """Run one dispatched item and attribute its host time.

        The key is resolved before ``fn`` runs, so an event is named by
        the callback it is about to run (see :func:`callable_key`).
        """
        key = callable_key(fn)
        started_ns = self.begin()
        fn()
        self._charge(key, started_ns)

    def _charge(self, key: str, started_ns: int) -> None:
        elapsed = time.perf_counter_ns() - started_ns  # repro: noqa=DET001 host profiling
        self.totals_ns[key] = self.totals_ns.get(key, 0) + elapsed
        self.counts[key] = self.counts.get(key, 0) + 1
        self.dispatches += 1

    # -- reporting ------------------------------------------------------------

    def report(self, top: int = 15) -> List[dict]:
        """The ``top`` hottest callbacks by accumulated host time.

        Each row: ``{"key", "total_ns", "count", "mean_ns", "share"}``
        where ``share`` is the fraction of all measured host time.
        """
        grand = sum(self.totals_ns.values()) or 1
        rows = sorted(self.totals_ns.items(),
                      key=lambda kv: (-kv[1], kv[0]))[:top]
        return [{
            "key": key,
            "total_ns": total,
            "count": self.counts[key],
            "mean_ns": total // max(1, self.counts[key]),
            "share": total / grand,
        } for key, total in rows]

    def format_report(self, top: int = 15) -> str:
        """Human-readable hot-spot table (one line per callback)."""
        rows = self.report(top=top)
        if not rows:
            return "profiler: no callbacks measured"
        lines = [f"event-loop hot spots ({self.dispatches} dispatches):",
                 f"  {'share':>6}  {'total ms':>9}  {'calls':>8}  "
                 f"{'mean us':>8}  callback"]
        for row in rows:
            lines.append(
                f"  {row['share'] * 100:5.1f}%  "
                f"{row['total_ns'] / 1e6:9.2f}  {row['count']:8d}  "
                f"{row['mean_ns'] / 1e3:8.1f}  {row['key']}")
        return "\n".join(lines)
