"""Exception hierarchy for the repro package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """The simulation kernel was used incorrectly."""


class ClockError(ReproError):
    """Invalid clock operation (e.g. reading a frozen raw time source)."""


class FirewallViolation(ReproError):
    """An inside-firewall activity ran while the temporal firewall was up.

    This is the transparency contract of the paper's temporal firewall: if
    this is ever raised, checkpoint activity leaked into the guest.
    """


class CheckpointError(ReproError):
    """A checkpoint could not be taken or restored."""


class SnapshotError(CheckpointError):
    """A serialized snapshot is missing, malformed, or incompatible.

    Raised by the snapshot store before any provider state is mutated:
    restore is two-phase (validate everything, then apply), so a
    ``SnapshotError`` guarantees the live system was left untouched.
    """


class SimulatedCrash(ReproError):
    """An injected process death at a named durability crash point.

    Raised by the :class:`~repro.faults.plan.ProcessCrash` fault (via
    ``FaultInjector.process_crash_check``) exactly where a real crash
    would kill the writer mid-save.  Library code never catches it —
    retry policies see only ``StorageError``/``OSError`` — so it always
    propagates to the harness, which then exercises recovery on a fresh
    :class:`~repro.checkpoint.durable.DurableSnapshotStore`.
    """


class NetworkError(ReproError):
    """Invalid network configuration or use."""


class StorageError(ReproError):
    """Invalid storage configuration or use."""


class TestbedError(ReproError):
    """Invalid testbed / experiment operation."""


class SwapError(TestbedError):
    """Stateful swap-out/swap-in failure."""


class ScenarioError(TestbedError):
    """A declarative scenario file is malformed or inconsistent.

    Raised by :mod:`repro.testbed.dsl` during parse/validate — always
    *before* any simulator object is constructed — and carries the
    positional path of the offending key (e.g. ``nodes[1].memory_mb``)
    so authors can fix the file without reading the schema source.
    """

    def __init__(self, message: str, path: str = "",
                 source: str = "") -> None:
        self.path = path
        self.source = source
        prefix = f"{source}: " if source else ""
        at = f"{path}: " if path else ""
        super().__init__(f"{prefix}{at}{message}")


class TimeTravelError(ReproError):
    """Invalid time-travel navigation."""
