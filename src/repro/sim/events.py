"""Event queue for the discrete-event kernel.

Events are ``(time, priority, seq, callback)`` entries in a binary heap.
The ``seq`` counter breaks ties deterministically: two events scheduled
for the same instant with the same priority fire in the order they were
scheduled, regardless of callback identity.  This is what makes whole
simulation runs bit-reproducible across processes and Python versions.

Priorities order *simultaneous* events: lower values fire first.  The
kernel reserves a small band of well-known priorities (see
:class:`EventPriority`) so that, e.g., a communication controller always
observes a slot boundary before application jobs react to it.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import IntEnum

from ..errors import SimulationError
from .time import Duration, Instant

__all__ = ["EventPriority", "ScheduledEvent", "EventQueue"]


class EventPriority(IntEnum):
    """Deterministic ordering of events that share an instant.

    The bands mirror the causality layers of the architecture: the
    physical network settles before controllers, controllers before
    architectural services (gateways), services before application jobs,
    and measurement probes observe last.
    """

    NETWORK = 0
    CONTROLLER = 10
    SERVICE = 20
    APPLICATION = 30
    PROBE = 40
    DEFAULT = 30


@dataclass(order=True, slots=True)
class ScheduledEvent:
    """A single pending event; orderable by (time, priority, seq)."""

    time: Instant
    priority: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    label: str = field(default="", compare=False)
    #: Backref to the owning queue while the entry is in its heap; the
    #: queue clears it on pop so cancelling an already-executed event
    #: (e.g. a periodic task cancelling itself mid-tick) is a no-op.
    _queue: "EventQueue | None" = field(default=None, compare=False, repr=False)

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when popped.

        Cancellation is O(1) amortized; the heap entry is lazily
        discarded (or purged wholesale by queue compaction).
        Idempotent, and safe on events that have already fired.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._note_cancelled()


class EventQueue:
    """Deterministic priority queue of :class:`ScheduledEvent`.

    Not thread-safe by design: the kernel is single-threaded, which is
    both sufficient (virtual time, not wall time) and required for
    reproducibility.

    Heap entries are ``(time, priority, seq, event)`` tuples rather than
    the events themselves: every comparison a heap sift performs is then
    a plain C-level integer-tuple compare instead of a Python-level
    dataclass ``__lt__`` that allocates two tuples per call.  The
    ``seq`` component is unique, so the trailing event object is never
    compared.
    """

    #: Lazily-cancelled entries are purged from the heap once they both
    #: exceed this floor and outnumber the live entries, keeping pop and
    #: peek O(log live) even under heavy cancel/re-arm churn.
    COMPACT_MIN_CANCELLED = 64

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, int, ScheduledEvent]] = []
        self._seq = 0
        self._live = 0
        self._dead = 0
        self.compactions = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: Instant,
        callback: Callable[[], None],
        priority: int = EventPriority.DEFAULT,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``callback`` at ``time``; returns a cancellable handle."""
        if time < 0:
            raise SimulationError(f"cannot schedule event at negative time {time}")
        seq = self._seq
        ev = ScheduledEvent(time=time, priority=priority, seq=seq,
                            callback=callback, label=label, _queue=self)
        self._seq = seq + 1
        self._live += 1
        # IntEnum priorities compare through int's C slots, so the tuple
        # entry never triggers a Python-level comparison.
        heapq.heappush(self._heap, (time, priority, seq, ev))
        return ev

    def _note_cancelled(self) -> None:
        """A pending entry turned dead; compact once the dead dominate.

        Called from :meth:`ScheduledEvent.cancel` — the only place dead
        entries are created — so the schedule-heavy ``push``/``pop``
        fast path carries no compaction bookkeeping at all.
        """
        self._live -= 1
        self._dead += 1
        if self._dead > self.COMPACT_MIN_CANCELLED and self._dead > self._live:
            self.compact()

    def compact(self) -> None:
        """Drop every lazily-cancelled entry and re-heapify.

        Events are totally ordered by ``(time, priority, seq)``, so
        rebuilding the heap cannot change pop order — compaction is
        invisible to the simulation.  The heap list is mutated in place
        (never rebound) because compaction can fire inside a kernel
        callback while the runtime's dispatch loop holds a reference to
        the list.
        """
        self._heap[:] = [e for e in self._heap if not e[3].cancelled]
        heapq.heapify(self._heap)
        self._dead = 0
        self.compactions += 1

    def peek_time(self) -> Instant | None:
        """Time of the next live event, or ``None`` if the queue is empty."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0][0]

    def pop(self) -> ScheduledEvent:
        """Remove and return the next live event."""
        self._drop_cancelled()
        if not self._heap:
            raise SimulationError("pop from empty event queue")
        ev = heapq.heappop(self._heap)[3]
        self._live -= 1
        ev._queue = None
        return ev

    def shift_span(self, bound: Instant, dt: Duration) -> None:
        """Shift every live event with ``time < bound`` forward by ``dt``.

        This is the heap half of round-template fast-forward (see
        :mod:`repro.sim.round_template`): the events pending inside a
        replayed round are exactly the periodic activity whose next
        occurrence lies ``k`` rounds later, so translating them in time
        — preserving their relative ``(time, priority, seq)`` order —
        reproduces the queue state event-by-event execution would have
        reached.  Cancelled entries are purged while we're rewriting the
        heap anyway.
        """
        heap = self._heap
        out = []
        for tm, pr, sq, ev in heap:
            if ev.cancelled:
                ev._queue = None
                continue
            if tm < bound:
                ev.time = tm + dt
                out.append((tm + dt, pr, sq, ev))
            else:
                out.append((tm, pr, sq, ev))
        heap[:] = out
        heapq.heapify(heap)
        self._dead = 0

    def clear(self) -> None:
        """Drop every pending event."""
        for entry in self._heap:
            entry[3]._queue = None
        self._heap.clear()
        self._live = 0
        self._dead = 0

    def _drop_cancelled(self) -> None:
        # Cancelled entries already left the live count when cancel()
        # ran; here they just leave the heap.
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)[3]._queue = None
            self._dead -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nxt = self.peek_time()
        return f"<EventQueue live={self._live} next={nxt}>"
