"""The simulated runtime: virtual time at maximum speed (the default).

This is the kernel's historical dispatch loop, factored out of
:class:`~repro.sim.kernel.Simulator` unchanged: tuple-heap batched
draining via :meth:`~repro.sim.events.EventQueue.pop_ready`, the
same-instant priority-preemption guard, and round-template
fast-forwarding at round boundaries.  Byte-for-byte trace parity with
the pre-refactor kernel is pinned by the golden-digest tests — this
module must stay a pure code move, not a behaviour change.
"""

from __future__ import annotations

from .base import Runtime

__all__ = ["SimulatedRuntime"]


class SimulatedRuntime(Runtime):
    """Advance virtual time as fast as the host executes callbacks."""

    name = "sim"
    #: Bulk round replay is only sound when nothing outside the event
    #: queue observes intermediate instants — true exactly here.
    supports_round_templates = True

    def run(self, max_events: int | None = None) -> None:
        """Drain the queue one event at a time (optional event budget —
        a runaway-loop backstop)."""
        sim = self._bound()
        sim._guard_reentry()
        try:
            budget = max_events
            step = sim.step
            while not sim._stopped:
                if budget is not None:
                    if budget <= 0:
                        break
                    budget -= 1
                if not step():
                    break
        finally:
            sim._running = False
            sim._stopped = False

    def run_until(self, t: int) -> None:
        """Run every event with ``time <= t`` and advance ``now`` to ``t``.

        Ready events are drained in batches
        (:meth:`~repro.sim.events.EventQueue.pop_ready`) so the hot loop
        pays one heap touch per event instead of the peek+pop pair.
        Execution order is identical to the one-at-a-time loop: if a
        callback schedules an event that precedes the rest of the batch
        — same instant, lower priority value — the remainder is handed
        back to the heap and re-drained in order.

        When the round-template engine is active (scenario runs), the
        drain bound is held at the next round boundary; each time the
        queue is drained up to a boundary the engine gets a chance to
        record or bulk-replay whole rounds from a bank of
        phase-normalized templates (see :mod:`repro.sim.round_template`).
        A dormant engine leaves this loop byte-for-byte identical to
        plain batched execution.
        """
        sim = self._bound()
        sim._guard_reentry()
        queue = sim._queue
        # Safe to hold across callbacks: EventQueue.compact()/clear()
        # mutate the heap list in place, never rebind it.
        heap = queue._heap
        pop_ready = queue.pop_ready
        executed = 0
        engine = sim.round_template.begin(t)
        bound = t
        if engine is not None:
            nb = engine.next_boundary
            if nb <= t:
                bound = nb - 1
            else:
                engine = None
        try:
            while not sim._stopped:
                batch = pop_ready(bound)
                if not batch:
                    if engine is None:
                        break
                    # Queue drained up to (excluding) the boundary: let
                    # the engine observe/replay.  Flush the executed
                    # count first — snapshots read events_executed.
                    sim.events_executed += executed
                    executed = 0
                    engine.on_boundary(t)
                    nb = engine.next_boundary
                    if nb > t:
                        engine = None
                        bound = t
                    else:
                        bound = nb - 1
                    continue
                i = 0
                n = len(batch)
                try:
                    while i < n:
                        ev = batch[i]
                        i += 1
                        if ev.cancelled:
                            continue
                        sim._now = ev.time
                        executed += 1
                        if sim._profiling:
                            sim._profiled_call(ev)
                        else:
                            ev.callback()
                        if sim._stopped:
                            break
                        if i < n and heap:
                            # A callback may have scheduled an event that
                            # precedes the batch remainder (same instant,
                            # lower priority value): fall back to the heap.
                            head = heap[0]
                            nxt = batch[i]
                            if head[0] < nxt.time or (
                                head[0] == nxt.time and head[1] < nxt.priority
                            ):
                                break
                finally:
                    # Hand unexecuted events back (stop(), preemption, or
                    # a raising callback) — none may be lost.
                    if i < n:
                        queue.requeue(batch[i:])
            if not sim._stopped and sim._now < t:
                sim._now = t
        finally:
            sim.events_executed += executed
            sim._running = False
            sim._stopped = False
