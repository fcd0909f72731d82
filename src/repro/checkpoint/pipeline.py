"""The staged checkpoint pipeline — one engine behind every checkpointer.

The paper's coordinated checkpoint (§4.3–4.4) is a fixed sequence of
stages; what differs between the transparent checkpoint, the baselines,
and time-travel capture is only *which subsystems participate* and *who
drives the stages between barriers*.  This module factors that sequence
into an explicit engine:

    prepare → precopy → quiesce → suspend → save → branch → resume

over a registry of :class:`Checkpointable` providers.  A provider wraps
one subsystem that holds checkpointable state — a guest domain, a delay
node's Dummynet pipes, a branching store, a disciplined clock — and
implements only the stages it participates in.  The engine owns the
cross-cutting semantics the old monoliths could not express:

* **per-stage timing** — every (stage, provider) step is timed and
  emitted as a :class:`~repro.obs.trace.SpanRecord` under category
  ``checkpoint.stage``, with the pipeline's session name as the span's
  track — so a 10-node coordinated checkpoint exports as ten per-node
  stage timelines (see :mod:`repro.obs.export`);
* **rollback** — :meth:`CheckpointPipeline.abort` walks providers in
  reverse registration order, returning every subsystem to running state
  (the second phase of the coordinator's two-phase abort);
* **suspend policies** — the "when do I fire my suspend timer" decision
  (:class:`DeadlineSuspend`, :class:`ImmediateSuspend`,
  :class:`BoundedSkewRetrySuspend`) is pluggable instead of hard-coded
  in the node agent.

Stage hooks may be plain methods (zero simulated time) or generators
(driven inside a sim process); the engine accepts both, so metadata-only
stages like ``branch`` cost nothing and cannot perturb event order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import CheckpointError, FirewallViolation, StorageError
from repro.obs.trace import NULL_SPAN, Tracer
from repro.sim.core import Simulator
from repro.units import MS, US, transfer_time_ns


class Stage(enum.Enum):
    """The pipeline's stages, in execution order.

        >>> [s.value for s in Stage]
        ['prepare', 'precopy', 'quiesce', 'suspend', 'save', 'branch', 'resume']
    """

    PREPARE = "prepare"      # bookkeeping before any work
    PRECOPY = "precopy"      # live copy while the subsystem runs
    QUIESCE = "quiesce"      # stop I/O: disconnect NICs, drain block devices
    SUSPEND = "suspend"      # stop execution and time (firewall / freeze)
    SAVE = "save"            # serialize state while frozen
    BRANCH = "branch"        # fork storage at the frozen instant (§4.5)
    RESUME = "resume"        # reverse everything; back to running


STAGES: Tuple[Stage, ...] = tuple(Stage)
_STAGE_INDEX: Dict[Stage, int] = {s: i for i, s in enumerate(STAGES)}


class StageFailed(CheckpointError):
    """A provider failed inside a stage; carries where and who.

        >>> err = StageFailed(Stage.SAVE, "domain.node0",
        ...                   CheckpointError("sink offline"))
        >>> (err.stage.value, err.provider)
        ('save', 'domain.node0')
    """

    def __init__(self, stage: Stage, provider: str, cause: BaseException) -> None:
        super().__init__(f"{provider}: {stage.value} failed: {cause}")
        self.stage = stage
        self.provider = provider
        self.cause = cause


@dataclass(frozen=True)
class StageTiming:
    """How long one provider spent in one stage.

        >>> StageTiming("save", "domain.node0", 100, 25).duration_ns
        25
    """

    stage: str
    provider: str
    started_at_ns: int
    duration_ns: int


@dataclass(frozen=True)
class AgentFailure:
    """One agent's structured report of a failed stage.

        >>> AgentFailure("node3", "save", "disk fault", epoch=2).node
        'node3'
    """

    node: str
    stage: str
    error: str
    #: coordinator round the failure belongs to (-1: not round-tagged)
    epoch: int = -1


@dataclass(frozen=True)
class CheckpointFailure:
    """Outcome of a checkpoint that ended in a coordinated rollback.

    Returned by the coordinator instead of a
    :class:`~repro.checkpoint.coordinator.CoordinatedResult` when a stage
    barrier timed out or an agent reported a failure.  ``missing`` names
    the participants that never reached the failed barrier;
    ``rolled_back`` names those that acknowledged the abort round.

        >>> failure = CheckpointFailure(
        ...     session="ckpt", stage="save", reason="barrier timeout",
        ...     missing=("node3",), agent_failures=(), rolled_back=("node0",),
        ...     wall_duration_ns=1000)
        >>> failure.ok
        False
    """

    session: str
    stage: str
    reason: str
    missing: Tuple[str, ...]
    agent_failures: Tuple[AgentFailure, ...]
    rolled_back: Tuple[str, ...]
    wall_duration_ns: int
    #: subset of ``missing`` the bus or coordinator believes is dead
    #: (exhausted retransmits / detached agent), not merely slow
    suspected_dead: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return False


class Checkpointable:
    """Base provider: override the stage hooks you participate in.

    A hook may be a plain method (returns ``None``; zero simulated time)
    or a generator (the engine drives it with ``yield from``).  The
    default hooks do nothing, so a provider only implements the stages
    where its subsystem holds state.  ``stage_abort`` must roll the
    subsystem back to running state from *any* partial progress and be
    idempotent — it is the unit of the coordinator's rollback round.

    Beyond the staged protocol, a provider that owns restorable state
    implements the DMTCP-style serialization pair (see
    :mod:`repro.checkpoint.snapshot` and docs/snapshots.md):

    * :meth:`serialize` returns the provider's full state as a
      JSON-serializable dict (taken at a quiescent instant);
    * :meth:`restore` re-applies a payload previously produced by
      ``serialize`` to a freshly built, not-yet-run subsystem;
    * :attr:`SCHEMA_VERSION` stamps the payload layout — the snapshot
      store refuses to restore a payload whose recorded version differs
      from the live provider's (never silently reinterpret old state).

    Lint rule CKPT003 enforces the pairing: overriding ``serialize``
    without ``restore`` (or ``stage_save`` without a restore-side hook)
    is a hard error in ``src/repro/checkpoint/`` and ``src/repro/net/``.

        >>> class Bell(Checkpointable):
        ...     name = "bell"
        ...     rang = 0
        ...     def stage_suspend(self):
        ...         self.rang += 1
        >>> bell = Bell()
        >>> bell.stage_suspend(); bell.rang    # other stages stay no-ops
        1
        >>> bell.stage_save() is None
        True
        >>> bell.serialize()
        {}
    """

    name = "checkpointable"

    #: payload layout version written into every snapshot manifest; bump
    #: whenever the dict returned by ``serialize`` changes incompatibly
    SCHEMA_VERSION = 1

    def snapshot_cost_bytes(self) -> int:
        """Storage cost of checkpointing this provider's state now."""
        return 0

    def serialize(self) -> dict:
        """This provider's full state as a JSON-serializable dict.

        The base provider is stateless, so the payload is empty; any
        provider with state overrides both this and :meth:`restore`.
        """
        return {}

    def restore(self, snapshot: dict) -> None:
        """Re-apply a payload produced by :meth:`serialize`.

        The base provider accepts only the empty payload it produces; a
        non-empty payload reaching it means provider registries were
        mismatched, which must fail loudly rather than drop state.
        """
        if snapshot:
            raise CheckpointError(
                f"{self.name}: stateless provider given a non-empty "
                f"snapshot payload ({sorted(snapshot)})")

    def stage_prepare(self):
        return None

    def stage_precopy(self):
        return None

    def stage_quiesce(self):
        return None

    def stage_suspend(self):
        return None

    def stage_save(self):
        return None

    def stage_branch(self):
        return None

    def stage_resume(self):
        return None

    def stage_abort(self):
        return None


class CheckpointPipeline:
    """Runs spans of stages over an ordered registry of providers.

    Within a stage, providers execute in registration order; an abort
    walks them in reverse.  The same pipeline instance is reused across
    checkpoints (state resets whenever a span starts at ``PREPARE``).
    """

    def __init__(self, sim: Simulator, providers,
                 tracer: Optional[Tracer] = None,
                 session: str = "local") -> None:
        self.sim = sim
        self.providers: List[Checkpointable] = list(providers)
        self.tracer = tracer
        self.session = session
        self.timings: List[StageTiming] = []
        self._completed: List[Tuple[Stage, Checkpointable]] = []
        #: callbacks invoked as ``fn(stage, provider)`` when a provider's
        #: stage starts — fault injectors hook stage-relative triggers here
        self.stage_observers: List = []

    # ------------------------------------------------------------------ registry

    def add_provider(self, provider: Checkpointable) -> None:
        """Register another provider (appended: runs last, aborts first)."""
        self.providers.append(provider)

    def completed(self, stage: Stage) -> bool:
        """Has any provider completed ``stage`` in the current run?"""
        return any(s is stage for s, _ in self._completed)

    def reset(self) -> None:
        """Forget the current run's progress and timings."""
        self._completed.clear()
        self.timings.clear()

    # ------------------------------------------------------------------ execution

    def run_stages(self, first: Stage, last: Stage):
        """Generator: run stages ``first..last`` over all providers.

        Each (stage, provider) step is wrapped in a ``checkpoint.stage``
        sync span on the pipeline's session track.  The ``enabled_for``
        verdict is hoisted out of the loop so a disabled or filtered
        tracer costs the stage loop nothing per step.

            >>> from repro.sim.core import Simulator
            >>> pipe = CheckpointPipeline(Simulator(), [Checkpointable()])
            >>> pipe.run_stages_now(Stage.PREPARE, Stage.RESUME)
            >>> [t.stage for t in pipe.timings]
            ['prepare', 'precopy', 'quiesce', 'suspend', 'save', 'branch', 'resume']
        """
        lo, hi = _STAGE_INDEX[first], _STAGE_INDEX[last]
        if lo > hi:
            raise CheckpointError(
                f"{self.session}: stage span {first.value}..{last.value} "
                f"is reversed")
        if lo == 0:
            self.reset()
        tracer = self.tracer
        traced = (tracer is not None
                  and tracer.enabled_for("checkpoint.stage"))
        for stage in STAGES[lo:hi + 1]:
            for provider in self.providers:
                started = self.sim.now
                span = NULL_SPAN
                if traced:
                    span = tracer.span(
                        "checkpoint.stage", track=self.session,
                        name=stage.value, session=self.session,
                        stage=stage.value, provider=provider.name)
                for observer in self.stage_observers:
                    observer(stage, provider)
                try:
                    step = getattr(provider, f"stage_{stage.value}")()
                    if step is not None:
                        yield from step
                except StageFailed as exc:
                    span.end(error=str(exc))
                    raise
                except GeneratorExit:
                    # The driving process was killed mid-stage (crash /
                    # abort): close the span so the timeline stays
                    # well-formed, then unwind normally.
                    span.end(error="interrupted")
                    raise
                except (CheckpointError, FirewallViolation,
                        StorageError) as exc:
                    span.end(error=str(exc))
                    raise StageFailed(stage, provider.name, exc) from exc
                duration = self.sim.now - started
                self._completed.append((stage, provider))
                self.timings.append(StageTiming(stage.value, provider.name,
                                                started, duration))
                span.end(duration_ns=duration)

    def run_stages_now(self, first: Stage, last: Stage) -> None:
        """Run a span that must consume zero simulated time, synchronously."""
        gen = self.run_stages(first, last)
        try:
            next(gen)
        except StopIteration:
            return
        raise CheckpointError(
            f"{self.session}: stages {first.value}..{last.value} need "
            f"simulated time; drive them from a sim process")

    def run_local(self):
        """Generator: one full local checkpoint, all stages in order."""
        yield from self.run_stages(Stage.PREPARE, Stage.RESUME)

    def abort(self):
        """Generator: roll every provider back to running state.

        Providers are walked in reverse registration order (the inverse
        of stage execution) so dependent subsystems unwind before the
        things they depend on.  Safe to run from any partial progress.
        """
        for provider in reversed(self.providers):
            step = provider.stage_abort()
            if step is not None:
                yield from step
        self.reset()

    # ------------------------------------------------------------------ metrics

    def timings_by_stage(self) -> Dict[str, int]:
        """Total nanoseconds spent per stage in the last run."""
        out: Dict[str, int] = {}
        for t in self.timings:
            out[t.stage] = out.get(t.stage, 0) + t.duration_ns
        return out

    def snapshot_cost_bytes(self) -> int:
        """Total storage cost of a checkpoint across all providers."""
        return sum(p.snapshot_cost_bytes() for p in self.providers)


# ---------------------------------------------------------------------- policies

class SuspendPolicy:
    """Decides when an agent's suspend span fires after ``suspend_at T``."""

    def arm(self, sim: Simulator, clock, deadline_local_ns: int,
            fire: Callable[[], None]):
        """Schedule ``fire``; returns a cancellable handle or ``None``."""
        raise NotImplementedError


class DeadlineSuspend(SuspendPolicy):
    """The paper's design: one-shot timer against the disciplined clock.

    Realized suspend skew equals the residual clock-synchronization
    error at arming time — the transparency bound of §4.3.
    """

    def arm(self, sim, clock, deadline_local_ns, fire):
        return sim.call_in(clock.ns_until_local(deadline_local_ns), fire)


class ImmediateSuspend(SuspendPolicy):
    """Suspend on message receipt: skew = bus delivery jitter.

        >>> fired = []
        >>> ImmediateSuspend().arm(None, None, 0, lambda: fired.append("now"))
        >>> fired
        ['now']
    """

    def arm(self, sim, clock, deadline_local_ns, fire):
        fire()
        return None


class _RetryArm:
    """Cancellable handle over a chain of re-check timers."""

    def __init__(self) -> None:
        self.handle = None
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True
        if self.handle is not None:
            self.handle.cancel()
            self.handle = None


class BoundedSkewRetrySuspend(SuspendPolicy):
    """Sleep-most-of-the-way, then re-read the clock and re-arm.

    A one-shot timer armed far from the deadline realizes the *arming
    time's* clock error as suspend skew; while the timer sleeps, NTP
    keeps disciplining the clock.  This policy sleeps roughly half the
    remaining interval, re-reads the clock, and only arms the final
    one-shot once the remainder is below ``slice_ns`` — bounding the
    realized skew by the clock error at the last re-read.
    """

    def __init__(self, slice_ns: int = 50 * MS,
                 min_sleep_ns: int = 1 * MS) -> None:
        self.slice_ns = slice_ns
        self.min_sleep_ns = min_sleep_ns

    def arm(self, sim, clock, deadline_local_ns, fire):
        arm = _RetryArm()

        def check() -> None:
            if arm.cancelled:
                return
            remaining = clock.ns_until_local(deadline_local_ns)
            if remaining <= self.slice_ns:
                arm.handle = sim.call_in(remaining, fire)
                return
            arm.handle = sim.call_in(max(self.min_sleep_ns, remaining // 2),
                                     check)

        check()
        return arm


# ---------------------------------------------------------------------- providers

def check_payload(name: str, snapshot: dict, keys: Tuple[str, ...]) -> None:
    """Reject a payload whose key set is not exactly ``keys``.

    Restoring from a payload with missing or unknown keys means the
    snapshot was written by a different provider layout than the one
    restoring it; partial application would corrupt state silently, so
    every provider validates shape before touching anything.

        >>> check_payload("clock.n0", {"local_ns": 1},
        ...               ("local_ns", "steps"))
        Traceback (most recent call last):
            ...
        repro.errors.CheckpointError: clock.n0: payload keys ['local_ns'] != expected ['local_ns', 'steps']
    """
    if not isinstance(snapshot, dict) or set(snapshot) != set(keys):
        got = sorted(snapshot) if isinstance(snapshot, dict) \
            else type(snapshot).__name__
        raise CheckpointError(
            f"{name}: payload keys {got} != expected {sorted(keys)}")


class DomainProvider(Checkpointable):
    """A guest domain behind a temporal firewall (§4.1–4.2).

    Wraps a :class:`~repro.xen.checkpoint.LocalCheckpointer`, exposing
    its phase generators as pipeline stages.  The stage composition is
    byte-identical to the old monolithic ``run()`` sequence.
    """

    def __init__(self, checkpointer) -> None:
        self.checkpointer = checkpointer
        self.name = f"domain.{checkpointer.domain.name}"
        self.last_result = None
        self._started = 0
        self._precopy = (0, 0)
        self._saved = None

    def snapshot_cost_bytes(self) -> int:
        return self.checkpointer.domain.memory_bytes

    def stage_prepare(self):
        self._started = self.checkpointer.sim.now
        self._saved = None

    def stage_precopy(self):
        self._precopy = yield from self.checkpointer.precopy()

    def stage_quiesce(self):
        return self.checkpointer.quiesce()

    def stage_suspend(self):
        return self.checkpointer.suspend()

    def stage_save(self):
        self._saved = yield from self.checkpointer.save()

    def stage_resume(self):
        if self._saved is None:
            raise CheckpointError(f"{self.name}: resume before save")
        snapshot, dirty = self._saved
        memory_copied, precopy_ns = self._precopy
        result = yield from self.checkpointer.resume(
            self._started, precopy_ns, memory_copied, snapshot, dirty)
        self.checkpointer.results.append(result)
        self.last_result = result
        self._saved = None

    def stage_abort(self):
        domain = self.checkpointer.domain
        kernel = domain.kernel
        if kernel.firewall.up:
            yield from kernel.firewall.lower_sequence()
        for vbd in domain.vbds:
            if vbd.suspended:
                vbd.resume()
        for nic in domain.nics:
            if nic.suspended:
                nic.resume()
        self._saved = None

    def serialize(self) -> dict:
        if self._saved is not None:
            raise CheckpointError(
                f"{self.name}: serialize mid-pipeline (save completed but "
                f"resume has not run); snapshots are taken at quiescent "
                f"instants only")
        return {"started": self._started, "precopy": list(self._precopy)}

    def restore(self, snapshot: dict) -> None:
        check_payload(self.name, snapshot, ("started", "precopy"))
        self._started = snapshot["started"]
        self._precopy = tuple(snapshot["precopy"])
        self._saved = None


class DelayNodeProvider(Checkpointable):
    """A Dummynet delay node: freeze pipes, serialize, thaw (§4.4).

    ``stage_save`` keeps the frozen node's
    :meth:`~repro.net.delaynode.DelayNode.serialize_state` payload in
    :attr:`last_snapshot` — the same dict the snapshot store persists.
    """

    #: version 2: pipe payloads carry one ``advance`` call triple
    SCHEMA_VERSION = 2

    #: cost of serializing pipe state non-destructively
    SERIALIZE_COST_NS = 300 * US

    def __init__(self, delay_node,
                 serialize_cost_ns: int = SERIALIZE_COST_NS) -> None:
        self.delay_node = delay_node
        self.serialize_cost_ns = serialize_cost_ns
        self.name = f"delay.{delay_node.name}"
        self.last_snapshot = None
        self.frozen_at = 0
        self.thawed_at = 0

    def stage_suspend(self):
        self.delay_node.freeze()
        self.frozen_at = self.delay_node.sim.now

    def stage_save(self):
        yield self.delay_node.sim.timeout(self.serialize_cost_ns)
        self.last_snapshot = self.delay_node.serialize_state()

    def stage_resume(self):
        self.delay_node.thaw()
        self.thawed_at = self.delay_node.sim.now

    def stage_abort(self):
        if self.delay_node.frozen:
            self.delay_node.thaw()

    def serialize(self) -> dict:
        return {"node": self.delay_node.serialize_state(),
                "frozen_at": self.frozen_at, "thawed_at": self.thawed_at}

    def restore(self, snapshot: dict) -> None:
        check_payload(self.name, snapshot, ("node", "frozen_at",
                                            "thawed_at"))
        self.delay_node.restore_serialized(snapshot["node"])
        self.frozen_at = snapshot["frozen_at"]
        self.thawed_at = snapshot["thawed_at"]
        self.last_snapshot = None


class BranchProvider(Checkpointable):
    """Branching storage joins the checkpoint (§4.5, §5.1).

    During the ``branch`` stage — while the domain is frozen — the
    provider captures the branch's redo-log map as a
    :class:`~repro.storage.branching.BranchPoint`: pure metadata, zero
    simulated time, so disk state becomes part of the distributed
    checkpoint without perturbing the protocol.  A later restore can
    fork a new branch from the point via
    :meth:`~repro.storage.lvm.VolumeManager.fork_branch` or roll the
    live branch back with ``rollback_to``.
    """

    def __init__(self, branch) -> None:
        self.branch = branch
        self.name = f"storage.{branch.name}"
        self.last_branch_point = None

    def snapshot_cost_bytes(self) -> int:
        return self.branch.current_delta_blocks * 4096

    def stage_branch(self):
        self.last_branch_point = self.branch.take_checkpoint()

    def stage_abort(self):
        self.last_branch_point = None

    def serialize(self) -> dict:
        return {"branch": self.branch.serialize_state()}

    def restore(self, snapshot: dict) -> None:
        check_payload(self.name, snapshot, ("branch",))
        self.branch.restore_state(snapshot["branch"])
        self.last_branch_point = None


class FrontierProvider(Checkpointable):
    """The simulator's event frontier: virtual clock + sequence counter.

    In a snapshot, the frontier payload is tiny — ``(now, seq)`` — but
    it must be **restored first**: restoring it clears both event-store
    lanes and resets the tie-break counter, after which every other
    provider re-inserts its pending calls with their original
    ``(when, priority, seq)`` triples.  With the counter reset, events
    scheduled *after* the restore draw the same sequence numbers a
    replayed world would, which is what makes restore-then-run
    bit-identical to replay-then-run.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.name = "sim.frontier"

    def serialize(self) -> dict:
        return dict(self.sim.frontier_state())

    def restore(self, snapshot: dict) -> None:
        check_payload(self.name, snapshot, ("now", "seq"))
        self.sim.restore_frontier(snapshot["now"], snapshot["seq"])


class StreamsProvider(Checkpointable):
    """The experiment's named RNG substreams (`repro.sim.random`).

    Restoring positions every derived stream exactly where the snapshot
    took it; streams the snapshotted world had never touched are dropped
    so first use re-derives them from the seed — matching a replayed
    world's lazy derivation.
    """

    def __init__(self, streams) -> None:
        self.streams = streams
        self.name = "sim.streams"

    def serialize(self) -> dict:
        return {"streams": self.streams.serialize_state()}

    def restore(self, snapshot: dict) -> None:
        check_payload(self.name, snapshot, ("streams",))
        self.streams.restore_state(snapshot["streams"])


@dataclass(frozen=True)
class ClockHandoff:
    """Disciplined-clock state captured with a checkpoint.

    A restore on different hardware re-disciplines from scratch; handing
    the saved offset/frequency trim to the restored node's ntpd seeds
    convergence instead (the clocksync counterpart of §4.3's hand-off).

        >>> ClockHandoff("node0", 1_000, 42, -3.5).error_ns
        42
    """

    node: str
    local_ns: int
    error_ns: int
    frequency_correction_ppm: float


class ClockProvider(Checkpointable):
    """Captures the NTP-disciplined clock state during ``save``."""

    def __init__(self, clock, node_name: str) -> None:
        self.clock = clock
        self.node_name = node_name
        self.name = f"clock.{node_name}"
        self.last_handoff: Optional[ClockHandoff] = None

    def stage_save(self):
        self.last_handoff = ClockHandoff(
            node=self.node_name,
            local_ns=self.clock.read(),
            error_ns=self.clock.error_ns(),
            frequency_correction_ppm=self.clock.frequency_correction_ppm)

    def stage_abort(self):
        self.last_handoff = None

    def serialize(self) -> dict:
        return {"node": self.node_name,
                "clock": self.clock.serialize_state()}

    def restore(self, snapshot: dict) -> None:
        check_payload(self.name, snapshot, ("node", "clock"))
        if snapshot["node"] != self.node_name:
            raise CheckpointError(
                f"{self.name}: payload belongs to node "
                f"{snapshot['node']!r}")
        self.clock.restore_state(snapshot["clock"])
        self.last_handoff = None


class NaiveDomainProvider(Checkpointable):
    """The §3 baseline: suspends execution but **not** time.

    Same stage order and downtime as :class:`DomainProvider`, but no
    temporal firewall — the virtual clock and guest TSC keep running, so
    the guest observably jumps ``downtime`` into its own future.
    """

    def __init__(self, domain, config) -> None:
        self.domain = domain
        self.config = config
        self.sim = domain.sim
        self.name = f"naive.{domain.name}"
        self.last_downtime_ns = 0
        self.last_replayed = 0
        self._suspended_at = 0
        self._stopped = False

    def snapshot_cost_bytes(self) -> int:
        return self.domain.memory_bytes

    def stage_precopy(self):
        cfg, domain = self.config, self.domain
        if cfg.live:
            duration = transfer_time_ns(domain.memory_bytes,
                                        cfg.copy_rate_bps)
            share = cfg.dom0_weight / (1.0 + cfg.dom0_weight)
            domain.kernel.cpu_outside(int(duration * share),
                                      weight=cfg.dom0_weight)
            yield self.sim.timeout(duration)

    def stage_quiesce(self):
        for nic in self.domain.nics:
            nic.suspend()
        for vbd in self.domain.vbds:
            yield from vbd.suspend_after_drain()

    def stage_suspend(self):
        kernel = self.domain.kernel
        kernel.stop_user_execution()
        kernel.stop_kernel_execution()
        kernel.timers.freeze()
        self._suspended_at = self.sim.now
        self._stopped = True

    def stage_save(self):
        cfg, domain = self.config, self.domain
        dirty = (int(domain.memory_bytes * cfg.dirty_fraction)
                 if cfg.live else domain.memory_bytes)
        yield self.sim.timeout(transfer_time_ns(max(1, dirty),
                                                cfg.copy_rate_bps))
        yield self.sim.timeout(cfg.device_overhead_ns)

    def stage_resume(self):
        kernel = self.domain.kernel
        self.last_downtime_ns = self.sim.now - self._suspended_at
        # The virtual clock never froze: expired timers fire immediately,
        # and guest time has visibly jumped.
        kernel.timers.thaw()
        kernel.resume_kernel_execution()
        kernel.resume_user_execution()
        self._stopped = False
        for vbd in self.domain.vbds:
            vbd.resume()
        replayed = 0
        for nic in self.domain.nics:
            replayed += nic.resume()
        self.last_replayed = replayed

    def stage_abort(self):
        kernel = self.domain.kernel
        if self._stopped:
            kernel.timers.thaw()
            kernel.resume_kernel_execution()
            kernel.resume_user_execution()
            self._stopped = False
        for vbd in self.domain.vbds:
            if vbd.suspended:
                vbd.resume()
        for nic in self.domain.nics:
            if nic.suspended:
                nic.resume()

    def serialize(self) -> dict:
        if self._stopped:
            raise CheckpointError(
                f"{self.name}: serialize while suspended; snapshots are "
                f"taken at quiescent (running) instants")
        return {"last_downtime_ns": self.last_downtime_ns,
                "last_replayed": self.last_replayed}

    def restore(self, snapshot: dict) -> None:
        check_payload(self.name, snapshot, ("last_downtime_ns",
                                            "last_replayed"))
        self.last_downtime_ns = snapshot["last_downtime_ns"]
        self.last_replayed = snapshot["last_replayed"]
        self._suspended_at = 0
        self._stopped = False


# ---------------------------------------------------------------------- capture

@dataclass(frozen=True)
class SnapshotCapture:
    """What a pipeline capture of a run's state produced.

        >>> SnapshotCapture(snapshot_bytes=4096).providers
        ()
    """

    snapshot_bytes: int
    branch_points: Tuple = ()
    providers: Tuple[str, ...] = ()


def capture_run_snapshot(run) -> SnapshotCapture:
    """Capture a run's checkpoint cost through the pipeline.

    Runs exposing ``checkpointables()`` (a provider list) get a real
    pipeline capture: the ``branch`` stage runs synchronously (it is
    metadata-only), every :class:`BranchProvider` takes a branch point,
    and the snapshot cost is the sum of provider costs.  Runs without
    providers fall back to their own ``snapshot_bytes()``.

        >>> class BareRun:
        ...     def snapshot_bytes(self):
        ...         return 64
        >>> capture_run_snapshot(BareRun()).snapshot_bytes
        64
    """
    getter = getattr(run, "checkpointables", None)
    providers = list(getter()) if getter is not None else []
    if not providers:
        return SnapshotCapture(snapshot_bytes=run.snapshot_bytes())
    pipeline = CheckpointPipeline(run.sim, providers, session="timetravel")
    pipeline.run_stages_now(Stage.BRANCH, Stage.BRANCH)
    points = tuple(p.last_branch_point for p in providers
                   if isinstance(p, BranchProvider)
                   and p.last_branch_point is not None)
    return SnapshotCapture(
        snapshot_bytes=pipeline.snapshot_cost_bytes(),
        branch_points=points,
        providers=tuple(p.name for p in providers))
