"""The simulated runtime: virtual time at maximum speed (the default).

The kernel's dispatch loop: one tuple-heap pop per event, in
``(time, priority, seq)`` order, with round-template fast-forwarding at
round boundaries.  The registry's trace digests are pinned as literals
by the golden-digest tests; a change to this loop must leave every one
of them byte-identical.
"""

from __future__ import annotations

import heapq

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

        One heap pop per event: the loop peeks the heap head, pops it,
        skips it if cancelled and runs it otherwise.  The heap is totally
        ordered by ``(time, priority, seq)``, so an event a callback
        schedules ahead of the pending ones is simply the next head.

        When the round-template engine is active (scenario runs), the
        drain bound is held at the next round boundary; each time the
        queue is drained up to a boundary the engine gets a chance to
        record or bulk-replay whole rounds from a bank of
        phase-normalized templates (see :mod:`repro.sim.round_template`);
        the engine frees its bank when the call returns.
        """
        sim = self._bound()
        sim._guard_reentry()
        queue = sim._queue
        # Safe to hold across callbacks: EventQueue.compact()/clear()
        # mutate the heap list in place, never rebind it.
        heap = queue._heap
        pop = heapq.heappop
        executed = 0
        engine = armed = sim.round_template.begin(t)
        bound = t
        if engine is not None:
            nb = engine.next_boundary
            if nb <= t:
                bound = nb - 1
            else:
                engine = None
        try:
            while not sim._stopped:
                if not heap or heap[0][0] > bound:
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
                ev = pop(heap)[3]
                ev._queue = None
                if ev.cancelled:
                    # Already left the live count when cancel() ran.
                    queue._dead -= 1
                    continue
                queue._live -= 1
                sim._now = ev.time
                executed += 1
                if sim._profiling:
                    sim._profiled_call(ev)
                else:
                    ev.callback()
            if not sim._stopped and sim._now < t:
                sim._now = t
        finally:
            sim.events_executed += executed
            if armed is not None:
                armed.end()
            sim._running = False
            sim._stopped = False
