"""Asyncio-bridged runtime: the wall-clock runtime; coroutines as partitions.

The simulated DECOS network stays fully deterministic in virtual time,
but the dispatch loop is driven *from inside an asyncio event loop*:
before every simulated event control is handed to asyncio exactly once,
so ordinary coroutines — or coroutines wrapping
``asyncio.create_subprocess_exec`` pipes — can run interleaved with the
simulation and act as software-in-the-loop partitions.

Partition coroutines talk to the simulated network through
:class:`AsyncPort`:

* ``port.deliver`` is a plain callable suitable for wiring as a job's
  ``on_message`` handler (or any delivery callback) — it enqueues the
  delivery for the coroutine side.
* ``await port.recv()`` waits for the next enqueued delivery.
* ``await port.send(vn, name, instance)`` injects an ET message into a
  virtual network and yields so the simulation can propagate it.
* ``await runtime.sleep(d)`` suspends the coroutine for ``d`` virtual
  nanoseconds (scheduled on the simulator, not the wall clock).

Pacing and deadline accounting
------------------------------
With ``pace`` set (sim-ns per wall-ns: ``1.0`` is real time, ``100.0``
advances 100 simulated seconds per wall second) the hand-over before an
event at virtual instant ``T`` sleeps until the wall clock reaches
``anchor + (T - anchor_sim) / pace``.  Lateness beyond
:data:`MISS_TOLERANCE_NS` is a **deadline miss**, counted in the
``runtime.deadline_misses`` metric with the observed lag in the
``runtime.lag_ns`` histogram; the anchor then moves to the miss, so the
whole schedule slips and one long stall counts once (cadence matters,
absolute wall alignment does not).  ``achieved_pace`` in :meth:`stats`
is the virtual time advanced over the wall time elapsed across every
run; below ``pace`` together with misses, the requested pace was out of
reach.  Unpaced, the hand-over is a bare
yield and the simulation runs as fast as the loop allows.  When the
event queue has nothing before the horizon (partitions may still be
computing), virtual time advances in :data:`IDLE_QUANTUM_NS` hops so
virtual-time sleeps and timeouts keep their meaning.

Cancellation (``asyncio.CancelledError`` or KeyboardInterrupt) mid-run
flushes the simulator's trace sinks before propagating, mirroring the
CLI exit-path guarantee, and is counted in ``runtime.cancelled_runs``.

This module is sanctioned for wall-clock access in the determinism lint
(see :data:`repro.check.determinism.SANCTIONED_FILES`): bridging to a
wall-clock event loop is its entire purpose.  Virtual-time behaviour
stays deterministic; only the ``runtime.*`` metrics are
wall-clock-tainted.
"""

from __future__ import annotations

import asyncio
from time import perf_counter_ns

from ...errors import ConfigurationError
from .base import Runtime

__all__ = ["AsyncioBridgedRuntime", "AsyncPort"]

#: Virtual-time hop used while the event queue is empty (1 ms): keeps
#: virtual time moving so partition-side timeouts stay meaningful.
IDLE_QUANTUM_NS = 1_000_000

#: Lateness below this threshold is scheduling noise, not a miss (1 ms).
MISS_TOLERANCE_NS = 1_000_000


class AsyncPort:
    """Awaitable mailbox pairing a partition coroutine with the sim.

    Deliveries arrive via :meth:`deliver` (wired as a delivery callback
    inside the simulation) and are consumed with ``await recv()``;
    injections go the other way with ``await send(...)``.
    """

    def __init__(self, runtime: AsyncioBridgedRuntime) -> None:
        self._runtime = runtime
        self._queue: asyncio.Queue = asyncio.Queue()
        self.delivered = 0
        self.sent = 0

    # -- sim side ------------------------------------------------------
    def deliver(self, *args) -> None:
        """Delivery callback (e.g. assign to a job's ``on_message``)."""
        self.delivered += 1
        self._queue.put_nowait(args)

    # -- coroutine side ------------------------------------------------
    async def recv(self):
        """Await the next delivery; returns the callback's arg tuple."""
        return await self._queue.get()

    async def send(self, vn, name: str, instance, sender_job: str = "") -> bool:
        """Inject an ET message into ``vn`` and yield to the simulation."""
        ok = vn.send(name, instance, sender_job=sender_job)
        if ok:
            self.sent += 1
        # Yield so the dispatch loop can propagate the injection before
        # the caller awaits the response.
        await asyncio.sleep(0)
        return ok

    def pending(self) -> int:
        return self._queue.qsize()


class AsyncioBridgedRuntime(Runtime):
    """Drive the kernel from asyncio; coroutines act as partitions."""

    name = "asyncio"
    supports_round_templates = False

    def __init__(self, pace: float | None = None) -> None:
        if pace is not None and pace <= 0:
            raise ConfigurationError(f"pace must be positive, got {pace}")
        super().__init__()
        self.pace = pace
        self._partitions: list = []
        self._ports: list[AsyncPort] = []
        self._partition_error: BaseException | None = None
        self._anchor_wall = 0
        self._anchor_sim = 0
        # statistics ----------------------------------------------------
        self.yields = 0
        self.idle_hops = 0
        self.deadline_misses = 0
        self.max_lag_ns = 0
        self.slept_ns = 0
        self.cancelled_runs = 0
        self.run_sim_ns = 0
        self.run_wall_ns = 0

    def bind(self, sim) -> None:
        super().bind(sim)
        m = sim.metrics
        self._m_misses = m.counter("runtime.deadline_misses")
        self._m_lag = m.histogram("runtime.lag_ns")
        self._m_cancelled = m.counter("runtime.cancelled_runs")

    # ------------------------------------------------------------------
    # partition / port API
    # ------------------------------------------------------------------
    def add_partition(self, factory) -> None:
        """Register a partition: ``factory(runtime)`` must return a
        coroutine.  Partitions are spawned as tasks when the sync
        facade (:meth:`run_until`) starts its event loop, and cancelled
        when the run ends."""
        self._partitions.append(factory)

    def port(self) -> AsyncPort:
        """Create an :class:`AsyncPort` mailbox bound to this runtime."""
        p = AsyncPort(self)
        self._ports.append(p)
        return p

    async def sleep(self, d: int) -> None:
        """Suspend the calling coroutine for ``d`` virtual nanoseconds."""
        sim = self._bound()
        fut = asyncio.get_running_loop().create_future()

        def wake() -> None:
            if not fut.done():
                fut.set_result(None)

        sim.after(d, wake, label="runtime.asyncio.wake")
        await fut

    # ------------------------------------------------------------------
    # the dispatch loop
    # ------------------------------------------------------------------
    async def run_until_async(self, t: int) -> None:
        """Async core: drive the kernel to ``t`` inside a running loop."""
        sim = self._bound()
        if t < sim._now:
            raise ConfigurationError(
                f"run_until({t}) is in the past (now={sim._now})"
            )
        sim._guard_reentry()
        queue = sim._queue
        step = sim.step
        start_sim = self._anchor_sim = sim._now
        start_wall = self._anchor_wall = perf_counter_ns()
        try:
            while not sim._stopped:
                if self._partition_error is not None:
                    raise self._partition_error
                nxt = queue.peek_time()
                if nxt is not None and nxt <= t:
                    await self._pace_to(nxt)
                    # Partitions ran during the await: step only if they
                    # neither stopped the run nor changed the next event.
                    if not sim._stopped and queue.peek_time() == nxt:
                        step()
                elif sim._now < t:
                    # Idle: the queue has nothing before the horizon but
                    # partitions may still be computing — hop virtual
                    # time forward and give asyncio a turn.
                    sim._now = min(sim._now + IDLE_QUANTUM_NS, t)
                    self.idle_hops += 1
                    await self._pace_to(sim._now)
                else:
                    # Horizon reached: partitions woken by the final
                    # event get one more turn, and the run ends unless
                    # they scheduled work before the horizon.
                    await asyncio.sleep(0)
                    nxt = queue.peek_time()
                    if nxt is None or nxt > t:
                        break
        except (asyncio.CancelledError, KeyboardInterrupt):
            self._on_cancel()
            raise
        finally:
            self.run_sim_ns += sim._now - start_sim
            self.run_wall_ns += perf_counter_ns() - start_wall
            sim._running = False
            sim._stopped = False

    async def _pace_to(self, sim_t: int) -> None:
        """Hand control to asyncio once before virtual instant ``sim_t``.

        Paced, sleep until its wall deadline, or — when the deadline
        passed by more than :data:`MISS_TOLERANCE_NS` — count a deadline
        miss and move the anchor to it, so one long stall is one miss,
        not a cascade.  Unpaced, only yield.
        """
        self.yields += 1
        delay = 0
        if self.pace is not None:
            now = perf_counter_ns()
            delay = (self._anchor_wall
                     + int((sim_t - self._anchor_sim) / self.pace) - now)
            if delay > 0:
                self.slept_ns += delay
            elif -delay > MISS_TOLERANCE_NS:
                lag = -delay
                self.deadline_misses += 1
                self._m_misses.inc()
                self._m_lag.observe(lag)
                self.max_lag_ns = max(self.max_lag_ns, lag)
                self._anchor_wall = now
                self._anchor_sim = sim_t
        await asyncio.sleep(delay / 1e9 if delay > 0 else 0)

    def _on_cancel(self) -> None:
        """Mid-flight cancellation: flush trace sinks, count, propagate."""
        self.cancelled_runs += 1
        self._m_cancelled.inc()
        sim = self.sim
        if sim is not None:
            sim.trace.close()

    # ------------------------------------------------------------------
    # sync facade
    # ------------------------------------------------------------------
    def run_until(self, t: int) -> None:
        """Own an event loop: spawn registered partitions, drive the sim
        to ``t``, then cancel the partitions.  A partition that crashes
        aborts the run and its exception propagates."""
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            pass
        else:
            raise ConfigurationError(
                "an asyncio event loop is already running: await "
                "run_until_async() instead of calling run_until()"
            )
        asyncio.run(self._drive(t))

    def run(self, max_events: int | None = None) -> None:
        raise ConfigurationError(
            "the asyncio runtime has no open-ended run(): partitions need "
            "a horizon — use run_until()/run_for()"
        )

    async def _drive(self, t: int) -> None:
        self._partition_error = None
        tasks = [asyncio.ensure_future(factory(self))
                 for factory in self._partitions]

        def _observe(task: asyncio.Task) -> None:
            if task.cancelled():
                return
            exc = task.exception()
            if exc is not None and self._partition_error is None:
                self._partition_error = exc

        for task in tasks:
            task.add_done_callback(_observe)
        try:
            # Partitions start at the run's first instant, not after the
            # first idle hop.
            await asyncio.sleep(0)
            await self.run_until_async(t)
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
        # A partition that crashed after the loop last looked (in the
        # final events, or after stopping the run) still fails the run.
        if self._partition_error is not None:
            raise self._partition_error

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "name": self.name,
            "pace": self.pace,
            "partitions": len(self._partitions),
            "ports": len(self._ports),
            "yields": self.yields,
            "idle_hops": self.idle_hops,
            "injected": sum(p.sent for p in self._ports),
            "delivered": sum(p.delivered for p in self._ports),
            "deadline_misses": self.deadline_misses,
            "max_lag_ns": self.max_lag_ns,
            "slept_ns": self.slept_ns,
            # virtual ns advanced per wall ns over every run so far
            "achieved_pace": (self.run_sim_ns / self.run_wall_ns
                              if self.run_wall_ns > 0 else None),
            "cancelled_runs": self.cancelled_runs,
        }
