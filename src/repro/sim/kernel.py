"""The discrete-event simulation kernel.

:class:`Simulator` advances virtual time by popping the deterministic
:class:`~repro.sim.events.EventQueue`.  Everything in the DECOS model —
the TDMA bus, communication controllers, partition schedulers, gateways,
application jobs, fault injectors, and measurement probes — is driven by
callbacks scheduled here.

Design notes
------------
* **Callback style, not coroutines.**  Processes register callbacks (or
  use :class:`repro.sim.process.Process` for a thin stateful wrapper).
  Callbacks keep the ready-set ordering fully explicit via
  :class:`~repro.sim.events.EventPriority`, which matters for
  reproducibility claims; generator-based processes would hide ordering
  inside the scheduler.
* **No wall-clock anywhere.**  ``now`` is the only notion of time
  *inside the model*.  How virtual time relates to wall time is the
  business of the bound :class:`~repro.sim.runtime.Runtime` — the
  default :class:`~repro.sim.runtime.SimulatedRuntime` runs as fast as
  the host allows, while the wall-clock asyncio runtime gates dispatch
  against an external clock without changing virtual-time behaviour.
* **Stop conditions.**  ``run_until(t)`` executes every event with
  ``time <= t`` and then sets ``now = t``; ``run()`` drains the queue or
  stops at an optional event budget (a runaway-loop backstop).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from time import perf_counter_ns  # det-ok: DET001 — profiler instrumentation only

from ..errors import ConfigurationError, SimulationError
from .events import EventPriority, EventQueue, ScheduledEvent
from .flow import FlowTracer
from .metrics import Histogram, Metrics
from .random import RandomStreams
from .round_template import RoundTemplateEngine
from .runtime import Runtime, SimulatedRuntime
from .time import Duration, Instant
from .trace import TraceLog

__all__ = ["PeriodicTask", "Simulator"]


class PeriodicTask:
    """A first-class periodic activity owned by the kernel.

    Replaces the closure-chain re-scheduling idiom: one object holds the
    period, the next nominal instant, and the live queue handle, and
    re-arms itself after each tick.  The next activation is computed
    from the *scheduled* instant, not from when the callback ran, so
    periodic activity never drifts.

    Instances are callable — calling one cancels it — so existing code
    that treats :meth:`Simulator.every`'s return value as a cancel
    function keeps working.
    """

    __slots__ = ("_sim", "period", "callback", "priority", "label",
                 "next_time", "fires", "_event", "_cancelled")

    def __init__(
        self,
        sim: "Simulator",
        period: Duration,
        callback: Callable[[], None],
        start: Instant,
        priority: int = EventPriority.DEFAULT,
        label: str = "",
    ) -> None:
        self._sim = sim
        self.period = period
        self.callback = callback
        self.priority = priority
        self.label = label
        self.next_time = start
        self.fires = 0
        self._cancelled = False
        self._event: ScheduledEvent = sim._queue.push(
            start, self._fire, priority=priority, label=label)

    def _fire(self) -> None:
        if self._cancelled:
            return
        self.fires += 1
        self.callback()
        if self._cancelled:
            return
        self.next_time += self.period
        self._event = self._sim._queue.push(
            self.next_time, self._fire, priority=self.priority, label=self.label)

    def cancel(self) -> None:
        """Stop the task; safe to call mid-tick and idempotent."""
        if self._cancelled:
            return
        self._cancelled = True
        self._event.cancel()

    #: calling the task cancels it (back-compat with the old cancel-fn API)
    __call__ = cancel

    @property
    def active(self) -> bool:
        return not self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else f"next={self.next_time}"
        return f"<PeriodicTask {self.label!r} period={self.period} {state}>"


class Simulator:
    """Owns virtual time, the event queue, RNG streams, the trace log,
    and the metrics registry.

    Parameters
    ----------
    seed:
        Master seed for :class:`~repro.sim.random.RandomStreams`.  Two
        simulators built with the same seed and the same model produce
        identical traces.
    trace:
        Optional pre-built trace log; a fresh one is created by default.
    metrics:
        Optional pre-built metrics registry; a fresh one is created by
        default.  Metrics are always-on and O(1) per update, independent
        of the trace configuration.
    runtime:
        Optional :class:`~repro.sim.runtime.Runtime` owning the dispatch
        loop; the zero-cost :class:`~repro.sim.runtime.SimulatedRuntime`
        is bound by default.
    """

    def __init__(self, seed: int = 0, trace: TraceLog | None = None,
                 metrics: Metrics | None = None,
                 runtime: Runtime | None = None) -> None:
        self._now: Instant = 0
        self._queue = EventQueue()
        self._running = False
        self._stopped = False
        self.streams = RandomStreams(seed)
        self.trace = trace if trace is not None else TraceLog()
        self.metrics = metrics if metrics is not None else Metrics()
        self.flows = FlowTracer(self.trace)
        self.events_executed = 0
        self._profiling = False
        self._profile_cache: dict[str, Histogram] = {}
        #: Steady-state fast-forward engine (dormant until activated —
        #: see :mod:`repro.sim.round_template`).
        self.round_template = RoundTemplateEngine(self)
        #: Artifacts registered for static pre-flight verification
        #: (systems, clusters, VNs, link specs) — see :meth:`preflight`.
        self.checkables: list[object] = []
        self._runtime: Runtime = runtime if runtime is not None else SimulatedRuntime()
        self._runtime.bind(self)

    # ------------------------------------------------------------------
    # runtime
    # ------------------------------------------------------------------
    @property
    def runtime(self) -> Runtime:
        """The bound execution runtime (see :mod:`repro.sim.runtime`)."""
        return self._runtime

    def set_runtime(self, runtime: Runtime) -> None:
        """Swap the execution runtime (e.g. after building a system).

        Only the dispatch loop changes — virtual time, the event queue,
        and everything scheduled so far are untouched.  Not allowed
        while a ``run*`` call is in flight.
        """
        if self._running:
            raise ConfigurationError(
                "cannot swap the runtime while the simulator is running"
            )
        runtime.bind(self)
        self._runtime = runtime

    # ------------------------------------------------------------------
    # time & scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> Instant:
        """Current virtual time in integer nanoseconds."""
        return self._now

    def at(
        self,
        time: Instant,
        callback: Callable[[], None],
        priority: int = EventPriority.DEFAULT,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past: t={time} < now={self._now} ({label!r})"
            )
        return self._queue.push(time, callback, priority=priority, label=label)

    def after(
        self,
        delay: Duration,
        callback: Callable[[], None],
        priority: int = EventPriority.DEFAULT,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``callback`` ``delay`` nanoseconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} ({label!r})")
        return self._queue.push(self._now + delay, callback, priority=priority, label=label)

    def every(
        self,
        period: Duration,
        callback: Callable[[], None],
        start: Instant | None = None,
        priority: int = EventPriority.DEFAULT,
        label: str = "",
    ) -> PeriodicTask:
        """Schedule ``callback`` periodically; returns the (cancellable)
        :class:`PeriodicTask`.

        Like :meth:`at`, the first activation must not lie in the past.
        """
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period}")
        first = self._now if start is None else start
        if first < self._now:
            raise SimulationError(
                f"cannot schedule into the past: start={first} < now={self._now} ({label!r})"
            )
        return PeriodicTask(self, period, callback, first,
                            priority=priority, label=label)

    # ------------------------------------------------------------------
    # static pre-flight verification
    # ------------------------------------------------------------------
    def register_checkable(self, obj: object) -> None:
        """Register a model artifact for :meth:`preflight` analysis.

        Builders call this as they assemble the model (SystemBuilder,
        ClusterBuilder, VN constructors), so a fully built simulator
        knows every statically-checkable artifact it hosts.
        """
        if all(existing is not obj for existing in self.checkables):
            self.checkables.append(obj)

    def preflight(self, strict: bool = True):
        """Run the static analyzers over every registered artifact.

        Returns the :class:`~repro.check.CheckReport`; with ``strict``
        (the default) a report containing error-severity diagnostics
        raises :class:`~repro.errors.PreflightError` instead of letting
        a broken configuration burn simulation time.
        """
        from ..check.analyzer import check_simulator

        report = check_simulator(self)
        if strict and not report.ok:
            from ..check.diagnostics import render_text
            from ..errors import PreflightError

            raise PreflightError(
                "pre-flight check failed:\n" + render_text(report)
            )
        return report

    # ------------------------------------------------------------------
    # profiling (off by default: wall-clock handler attribution)
    # ------------------------------------------------------------------
    @property
    def profiling(self) -> bool:
        return self._profiling

    def enable_profiling(self) -> None:
        """Attribute wall-clock handler time into ``Metrics`` histograms.

        Each executed event's callback duration (``perf_counter_ns``) is
        observed into ``profile.<group>``, where ``group`` is the first
        two dot-separated segments of the event label (``ctrl.n0.slot``
        → ``ctrl.n0``; unlabeled events land in ``profile.unlabeled``).
        Off by default because wall-clock durations are inherently
        non-deterministic — enabling it never changes virtual-time
        behaviour, only adds histograms to the snapshot.
        """
        self._profiling = True

    def disable_profiling(self) -> None:
        self._profiling = False

    def _profile_histogram(self, label: str) -> Histogram:
        h = self._profile_cache.get(label)
        if h is None:
            group = ".".join(label.split(".", 2)[:2]) if label else "unlabeled"
            h = self.metrics.histogram(f"profile.{group}")
            self._profile_cache[label] = h
        return h

    def _profiled_call(self, ev: ScheduledEvent) -> None:
        t0 = perf_counter_ns()  # det-ok: DET001 — profiler instrumentation only
        try:
            ev.callback()
        finally:
            self._profile_histogram(ev.label).observe(
                perf_counter_ns() - t0  # det-ok: DET001 — profiler only
            )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the single next event; returns False if queue is empty."""
        nxt = self._queue.peek_time()
        if nxt is None:
            return False
        ev = self._queue.pop()
        self._now = ev.time
        self.events_executed += 1
        if self._profiling:
            self._profiled_call(ev)
        else:
            ev.callback()
        return True

    def run(self, max_events: int | None = None) -> None:
        """Run until the event queue drains (or ``max_events`` executed).

        Delegates the dispatch loop to the bound runtime (the default
        :class:`~repro.sim.runtime.SimulatedRuntime` runs at maximum
        speed; see :mod:`repro.sim.runtime` for the wall-clock asyncio
        runtime, which refuses open-ended runs).
        """
        self._runtime.run(max_events)

    def run_until(self, t: Instant) -> None:
        """Run every event with ``time <= t`` and advance ``now`` to ``t``.

        The dispatch loop itself lives in the bound runtime — event
        *order* is identical across runtimes; only wall-clock pacing
        differs.  Target validation is uniform here: a target before
        ``now`` is a configuration error under every runtime.
        """
        if t < self._now:
            raise ConfigurationError(
                f"run_until({t}) is in the past (now={self._now})"
            )
        self._runtime.run_until(t)

    def run_for(self, d: Duration) -> None:
        """Run for ``d`` nanoseconds of virtual time from ``now``."""
        if d < 0:
            raise ConfigurationError(f"run_for({d}): duration must be >= 0")
        self.run_until(self._now + d)

    def stop(self) -> None:
        """Request that the current ``run*`` call return after this event."""
        self._stopped = True

    def pending(self) -> int:
        """Number of live events in the queue."""
        return len(self._queue)

    def _guard_reentry(self) -> None:
        if self._running:
            raise SimulationError("simulator run methods are not reentrant")
        self._running = True

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def iterate(self, max_events: int | None = None) -> Iterator[Instant]:
        """Yield ``now`` after each executed event (debugging/inspection)."""
        count = 0
        while max_events is None or count < max_events:
            if not self.step():
                return
            count += 1
            yield self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self._now} pending={self.pending()}>"
