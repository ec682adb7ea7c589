"""Edge cases of the single-pop ``run_until`` loop.

The kernel pops one event at a time off the ``(time, priority, seq)``
heap; these tests pin the behaviours that loop must keep: ``stop()``
mid-instant keeps unexecuted events, callbacks scheduling at exactly
``t`` still run within the same call, cancellation of an already
pending same-instant event is honored, lower-priority-value events
scheduled at the current instant run before the pending remainder,
and ``PeriodicTask`` re-arms fire in order.
"""

from __future__ import annotations

import pytest

from repro.sim import EventPriority, EventQueue, Simulator


# ----------------------------------------------------------------------
# stop() mid-batch
# ----------------------------------------------------------------------
def test_stop_mid_batch_preserves_unexecuted_events():
    sim = Simulator()
    fired: list[str] = []
    for name in "abcde":
        if name == "c":
            sim.at(10, lambda n=name: (fired.append(n), sim.stop()))
        else:
            sim.at(10, lambda n=name: fired.append(n))
    sim.run_until(10)
    # a, b, c executed; c stopped the run; d, e are back in the queue.
    assert fired == ["a", "b", "c"]
    assert sim.pending() == 2
    assert sim.events_executed == 3
    sim.run_until(10)
    assert fired == ["a", "b", "c", "d", "e"]
    assert sim.pending() == 0


def test_stop_mid_batch_does_not_advance_now_to_t():
    sim = Simulator()
    sim.at(10, sim.stop)
    sim.at(20, lambda: None)
    sim.run_until(100)
    assert sim.now == 10  # the seed kernel's stop semantics
    sim.run_until(100)
    assert sim.now == 100


# ----------------------------------------------------------------------
# events scheduled at exactly t by an in-batch callback
# ----------------------------------------------------------------------
def test_in_batch_callback_scheduling_at_exactly_t_runs_in_same_call():
    sim = Simulator()
    fired: list[str] = []
    sim.at(5, lambda: (fired.append("early"), sim.at(10, lambda: fired.append("late"))))
    sim.run_until(10)
    assert fired == ["early", "late"]
    assert sim.now == 10
    assert sim.pending() == 0


def test_in_batch_chain_at_same_instant_drains_fully():
    # Each callback schedules the next at the same instant: the whole
    # chain is ready at t and must drain within one run_until call.
    sim = Simulator()
    fired: list[int] = []

    def chain(i: int) -> None:
        fired.append(i)
        if i < 50:
            sim.at(sim.now, lambda: chain(i + 1))

    sim.at(10, lambda: chain(0))
    sim.run_until(10)
    assert fired == list(range(51))


# ----------------------------------------------------------------------
# ordering: a mid-batch schedule with lower priority value preempts
# ----------------------------------------------------------------------
def test_same_instant_lower_priority_event_preempts_batch_remainder():
    sim = Simulator()
    fired: list[str] = []

    def first():
        fired.append("app-1")
        sim.at(10, lambda: fired.append("network"), priority=EventPriority.NETWORK)

    sim.at(10, first, priority=EventPriority.APPLICATION)
    sim.at(10, lambda: fired.append("app-2"), priority=EventPriority.APPLICATION)
    sim.run_until(10)
    # Identical to one-at-a-time semantics: the NETWORK event scheduled
    # by app-1 fires before the already-pending app-2.
    assert fired == ["app-1", "network", "app-2"]


def test_preemption_guard_survives_compaction_mid_batch():
    # Regression: run_until holds a reference to the queue's heap list.
    # A callback that cancels enough events to trigger
    # EventQueue.compact() must not invalidate that reference (compact
    # rebinding self._heap would leave the loop reading a stale list),
    # or a same-instant NETWORK event scheduled afterwards is lost.
    sim = Simulator()
    fired: list[str] = []
    victims = [sim.at(1000, lambda: None)
               for _ in range(EventQueue.COMPACT_MIN_CANCELLED + 2)]

    def first() -> None:
        fired.append("first")
        for v in victims:
            v.cancel()  # dead > floor and dead > live: compacts
        assert sim._queue.compactions >= 1
        sim.at(10, lambda: fired.append("net"), priority=EventPriority.NETWORK)

    sim.at(10, first, priority=EventPriority.APPLICATION)
    sim.at(10, lambda: fired.append("second"), priority=EventPriority.APPLICATION)
    sim.run_until(10)
    # Heap order holds despite the compaction inside the callback.
    assert fired == ["first", "net", "second"]


def test_batched_and_stepwise_execution_order_identical():
    def build(sim: Simulator, log: list) -> None:
        def recur(tag: str, depth: int) -> None:
            log.append((sim.now, tag))
            if depth:
                sim.at(sim.now, lambda: recur(f"{tag}.n", depth - 1),
                       priority=EventPriority.NETWORK)
                sim.after(3, lambda: recur(f"{tag}.a", depth - 1))

        for i, prio in enumerate((EventPriority.APPLICATION,
                                  EventPriority.CONTROLLER,
                                  EventPriority.PROBE)):
            sim.at(2 * i, lambda i=i: recur(f"r{i}", 3), priority=prio)

    batched = Simulator()
    log_batched: list = []
    build(batched, log_batched)
    batched.run_until(40)

    stepped = Simulator()
    log_stepped: list = []
    build(stepped, log_stepped)
    while True:
        nxt = stepped._queue.peek_time()
        if nxt is None or nxt > 40:
            break
        stepped.step()

    assert log_batched == log_stepped
    assert batched.events_executed == stepped.events_executed


# ----------------------------------------------------------------------
# in-batch cancellation
# ----------------------------------------------------------------------
def test_cancel_of_event_already_popped_into_batch_is_honored():
    sim = Simulator()
    fired: list[str] = []
    victim = sim.at(10, lambda: fired.append("victim"),
                    priority=EventPriority.APPLICATION)
    # CONTROLLER priority fires first at the same instant, with the
    # victim already ready to run at that instant.
    sim.at(10, lambda: (fired.append("killer"), victim.cancel()),
           priority=EventPriority.CONTROLLER)
    sim.run_until(10)
    assert fired == ["killer"]
    assert sim.events_executed == 1


# ----------------------------------------------------------------------
# PeriodicTask re-arm landing inside the same batch
# ----------------------------------------------------------------------
def test_periodic_rearm_inside_batch_window_fires_every_period():
    sim = Simulator()
    ticks: list[int] = []
    task = sim.every(10, lambda: ticks.append(sim.now))
    sim.run_until(50)
    assert ticks == [0, 10, 20, 30, 40, 50]
    assert task.fires == 6
    assert task.next_time == 60


def test_periodic_cancel_mid_batch_stops_rearm():
    sim = Simulator()
    ticks: list[int] = []
    task = sim.every(10, lambda: ticks.append(sim.now), label="tick")
    sim.at(30, task.cancel, priority=EventPriority.NETWORK)
    sim.run_until(100)
    # The NETWORK-priority cancel at t=30 precedes the tick at t=30.
    assert ticks == [0, 10, 20]
    assert not task.active
    assert sim.pending() == 0


# ----------------------------------------------------------------------
# exception safety
# ----------------------------------------------------------------------
def test_raising_callback_mid_batch_keeps_remaining_events():
    sim = Simulator()
    fired: list[str] = []
    sim.at(10, lambda: fired.append("a"))

    def boom() -> None:
        raise RuntimeError("model bug")

    sim.at(10, boom)
    sim.at(10, lambda: fired.append("b"))
    with pytest.raises(RuntimeError):
        sim.run_until(10)
    assert fired == ["a"]
    assert sim.pending() == 1  # "b" survived the unwind
    assert sim.events_executed == 2  # a and the raiser both count
    sim.run_until(10)
    assert fired == ["a", "b"]
