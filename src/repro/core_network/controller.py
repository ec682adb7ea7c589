"""Communication controller — the CNI between a component and the bus.

Each component owns one controller.  The controller

* acts at the TDMA instants *of its own local clock* (so clock drift is
  visible end-to-end and clock sync is load-bearing, not decorative),
* at each of its slots, drains the per-VN transmit queues into a frame
  within the slot's byte reservations (bandwidth partitioning between
  virtual networks — the encapsulation service's physical half),
* on every received frame, feeds the sync service a deviation estimate,
  feeds the membership service the liveness observation, and delivers
  the frame's chunks to the VN dispatchers registered for each chunk's
  virtual network (visibility control: a chunk of VN "abs" never
  reaches a dispatcher of VN "comfort"),
* at each cluster-cycle boundary, resynchronizes its clock (C2) and
  folds the cycle's observations into membership (C4).

Fault-injection hooks (used by :mod:`repro.faults`): ``crashed``
silences the controller; ``omit_cycles`` drops whole cycles;
``send_offset`` shifts transmission instants (timing failure at the
physical level — what the guardian catches); ``chunk_corruptor``
rewrites outgoing chunks (value failures); :meth:`force_transmit`
transmits immediately regardless of the schedule (babbling idiot).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable

from ..errors import ConfigurationError, SimulationError
from ..sim import EventPriority, LocalClock, Process, Simulator, TraceCategory
from .bus import PhysicalBus
from .frame import FrameChunk, FrameKind, PhysicalFrame
from .membership import MembershipService
from .schedule import Slot, TDMASchedule
from .sync import FTAClockSync

__all__ = ["CommunicationController"]

ChunkReceiver = Callable[[FrameChunk, int], None]


class CommunicationController(Process):
    """One component's interface to the time-triggered core network."""

    priority = EventPriority.CONTROLLER

    def __init__(
        self,
        sim: Simulator,
        component: str,
        bus: PhysicalBus,
        schedule: TDMASchedule,
        clock: LocalClock | None = None,
        sync_k: int = 1,
        membership_threshold: int = 2,
    ) -> None:
        super().__init__(sim, f"ctrl.{component}")
        self.component = component
        self.bus = bus
        self.schedule = schedule
        self.clock = clock if clock is not None else LocalClock()
        self.sync = FTAClockSync(self.clock, k=sync_k)
        self.membership = MembershipService(
            sim, component, tuple(schedule.senders()), fail_threshold=membership_threshold
        )
        if component not in schedule.senders():
            raise ConfigurationError(f"{component!r} owns no slot in the schedule")
        # Precompiled per-cycle timeline: this component's slots and
        # their in-cycle offsets never change, so compute the table once
        # instead of re-deriving it for every cycle.
        self._own_slots: tuple[tuple[Slot, int], ...] = tuple(
            (slot, slot.offset) for slot in schedule.slots_of(component)
        )
        self._cycle_length = schedule.cycle_length
        #: slot id -> in-cycle end offset, for every slot of the cluster
        #: (receive-side timing: slot instants are static in the schedule)
        self._slot_ends: dict[int, int] = {
            slot.slot_id: slot.offset + slot.duration for slot in schedule.slots
        }
        # Precomputed per-slot dispatch table: guard closure and label
        # are built once instead of per cycle (the schedule-loop used to
        # allocate one lambda + one f-string per slot per cycle).  The
        # callbacks read ``self._cycle`` at fire time, which also makes
        # them translation-invariant — a requirement for round-template
        # fast-forward, which shifts pending events in time.
        self._slot_dispatch: tuple[tuple[int, Callable[[], None], str], ...] = tuple(
            (offset, self._guarded(lambda s=slot: self._slot_action(s)),
             f"{self.name}.slot{slot.slot_id}")
            for slot, offset in self._own_slots
        )
        self._cycle_end_cb = self._guarded(self._end_of_cycle)
        self._cycle_end_label = f"{self.name}.cycle_end"
        self._tx: dict[str, deque[FrameChunk]] = {}
        self._chunk_sources: dict[str, Callable[[Slot, int], list[FrameChunk]]] = {}
        self._receivers: dict[str, list[ChunkReceiver]] = {}
        self._frame_listeners: list[Callable[[PhysicalFrame, int], None]] = []
        self._cycle = 0
        # fault hooks -------------------------------------------------
        self.crashed = False
        self.omit_cycles = 0
        self.send_offset = 0
        self.chunk_corruptor: Callable[[FrameChunk], FrameChunk] | None = None
        # statistics --------------------------------------------------
        self.frames_transmitted = 0
        self.frames_received = 0
        self.frames_dropped_corrupt = 0
        self.chunks_delivered = 0
        self.chunks_enqueued = 0
        self.tx_overflow = 0
        m = sim.metrics
        self._m_rx = m.counter("ctrl.frames_rx")
        self._m_rx_corrupt = m.counter("ctrl.frames_dropped_corrupt")
        self._m_chunks = m.counter("ctrl.chunks_delivered")
        self._m_sync = m.counter("ctrl.sync_rounds")
        self._m_overflow = m.counter("ctrl.tx_overflow")
        bus.attach(self, own=component)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self._schedule_cycle()

    def _ref_for_local(self, local_t: int) -> int:
        """Reference instant when the local clock reads ``local_t``;
        clamped to *now* if the instant has already passed (e.g. after a
        large negative sync correction or a fault-injected offset)."""
        try:
            return self.clock.ref_time_for_local(max(local_t, 0), self.sim.now)
        except SimulationError:
            return self.sim.now

    def _schedule_cycle(self) -> None:
        """Schedule the current cycle's slot actions and cycle-end event,
        all at instants where the *local* clock reads the TDMA times.

        The scheduled callbacks are the precomputed guarded closures
        from ``__init__``; they read ``self._cycle`` when they fire
        rather than capturing the cycle number here, so a pending cycle
        chain stays valid if fast-forward translates it in time.
        """
        sim = self.sim
        priority = self.priority
        cycle_start_local = self._cycle * self._cycle_length
        send_offset = self.send_offset
        for offset, action, label in self._slot_dispatch:
            local_t = cycle_start_local + offset + send_offset
            sim.at(self._ref_for_local(local_t), action,
                   priority=priority, label=label)
        end_local = cycle_start_local + self._cycle_length
        sim.at(self._ref_for_local(end_local), self._cycle_end_cb,
               priority=priority, label=self._cycle_end_label)

    def _end_of_cycle(self) -> None:
        cycle = self._cycle
        self.sync.resynchronize(self.sim.now)
        self.membership.end_of_cycle()
        self._m_sync.inc()
        tr = self.sim.trace
        if tr.wants(TraceCategory.SYNC_ROUND):
            self.trace(TraceCategory.SYNC_ROUND, cycle=cycle,
                       correction=self.sync.last_correction)
        else:
            tr.tick(TraceCategory.SYNC_ROUND)
        self._cycle = cycle + 1
        self._schedule_cycle()

    # ------------------------------------------------------------------
    # transmit path
    # ------------------------------------------------------------------
    def enqueue_chunk(self, chunk: FrameChunk, max_queue: int = 1024) -> bool:
        """Queue a chunk for transmission in this component's next slot
        with room for the chunk's VN; returns False on queue overflow."""
        q = self._tx.setdefault(chunk.vn, deque())
        if len(q) >= max_queue:
            self.tx_overflow += 1
            self._m_overflow.inc()
            return False
        q.append(chunk)
        self.chunks_enqueued += 1
        return True

    def pending_chunks(self, vn: str | None = None) -> int:
        if vn is not None:
            return len(self._tx.get(vn, ()))
        return sum(len(q) for q in self._tx.values())

    def register_chunk_source(
        self, vn: str, source: Callable[[Slot, int], list[FrameChunk]]
    ) -> None:
        """Install a pull-mode provider for ``vn``'s slot reservations.

        Event-triggered virtual networks use this to run their priority
        arbitration at the moment a slot opens, instead of pre-queueing
        FIFO chunks.  The source receives (slot, byte budget) and must
        return chunks whose total size fits the budget.
        """
        if vn in self._chunk_sources:
            raise ConfigurationError(f"chunk source for VN {vn!r} already registered")
        self._chunk_sources[vn] = source

    def _build_chunks(self, slot: Slot) -> tuple[FrameChunk, ...]:
        """Fill the slot within per-VN reservations (or FIFO if none)."""
        out: list[FrameChunk] = []
        if slot.reservations:
            for vn, budget in slot.reservations.items():
                source = self._chunk_sources.get(vn)
                if source is not None:
                    provided = source(slot, budget)
                    total = sum(c.size_bytes() for c in provided)
                    if total > budget:
                        raise ConfigurationError(
                            f"chunk source for VN {vn!r} returned {total} bytes "
                            f"for a {budget}-byte reservation"
                        )
                    out.extend(provided)
                    continue
                q = self._tx.get(vn)
                if not q:
                    continue
                used = 0
                while q and used + q[0].size_bytes() <= budget:
                    chunk = q.popleft()
                    used += chunk.size_bytes()
                    out.append(chunk)
        else:
            budget = slot.capacity_bytes
            used = 0
            for vn in sorted(self._tx):
                q = self._tx[vn]
                while q and used + q[0].size_bytes() <= budget:
                    chunk = q.popleft()
                    used += chunk.size_bytes()
                    out.append(chunk)
        if self.chunk_corruptor is not None:
            out = [self.chunk_corruptor(c) for c in out]
        return tuple(out)

    def _slot_action(self, slot: Slot) -> None:
        if self.crashed:
            return
        if self.omit_cycles > 0:
            self.omit_cycles -= 1
            return
        chunks = self._build_chunks(slot)
        kind = FrameKind.DATA if chunks else FrameKind.SYNC
        frame = PhysicalFrame(
            sender=self.component, slot_id=slot.slot_id, cycle=self._cycle,
            chunks=chunks, kind=kind,
        )
        # Scheduled transmissions occupy the whole fixed slot window so
        # delivery instants do not depend on the frame's fill level.
        if self.bus.transmit(frame, duration=slot.duration):
            self.frames_transmitted += 1

    def force_transmit(self, chunks: tuple[FrameChunk, ...] = (), slot_id: int = -1) -> bool:
        """Transmit immediately, schedule be damned (babbling idiot)."""
        frame = PhysicalFrame(
            sender=self.component, slot_id=slot_id, cycle=self._cycle, chunks=chunks,
            meta={"forced": True},
        )
        ok = self.bus.transmit(frame)
        if ok:
            self.frames_transmitted += 1
        return ok

    # ------------------------------------------------------------------
    # receive path (BusListener)
    # ------------------------------------------------------------------
    def register_receiver(self, vn: str, callback: ChunkReceiver) -> None:
        """Deliver chunks of virtual network ``vn`` to ``callback``."""
        self._receivers.setdefault(vn, []).append(callback)

    def add_frame_listener(self, callback: Callable[[PhysicalFrame, int], None]) -> None:
        """Raw frame tap (probes, diagnosis)."""
        self._frame_listeners.append(callback)

    def on_frame(self, frame: PhysicalFrame, arrival: int) -> None:
        # The bus never hands a controller its own transmission
        # (attached with ``own=component``).
        if self.crashed:
            return
        self.frames_received += 1
        self._m_rx.inc()
        if frame.corrupted:
            self.frames_dropped_corrupt += 1
            self._m_rx_corrupt.inc()
            tr = self.sim.trace
            if tr.wants(TraceCategory.FRAME_RX):
                self.trace(TraceCategory.FRAME_RX, sender=frame.sender,
                           slot=frame.slot_id, dropped="corrupt")
            else:
                tr.tick(TraceCategory.FRAME_RX)
            return
        self._observe_timing(frame, arrival)
        self.membership.observe_frame(frame.sender)
        for listener in self._frame_listeners:
            listener(frame, arrival)
        for chunk in frame.chunks:
            for cb in self._receivers.get(chunk.vn, ()):
                cb(chunk, arrival)
                self.chunks_delivered += 1
                self._m_chunks.inc()

    def _observe_timing(self, frame: PhysicalFrame, arrival: int) -> None:
        """Deviation estimate for clock sync (scheduled frames only)."""
        # Forced/babbled frames (slot id -1) and unknown slot ids carry
        # no timing information.
        slot_end = self._slot_ends.get(frame.slot_id)
        if slot_end is None:
            return
        # Scheduled frames occupy their whole slot; arrival is expected
        # at slot start + slot duration + propagation.
        expected_local = (frame.cycle * self._cycle_length + slot_end
                          + self.bus.propagation_delay)
        local_arrival = self.clock.local_time(arrival)
        self.sync.observe(frame.sender, local_arrival - expected_local)

    # ------------------------------------------------------------------
    # round-template participant protocol (see repro.sim.round_template)
    # ------------------------------------------------------------------
    #: Keys whose per-round delta may be linearly extrapolated during
    #: fast-forward.  Everything else in :meth:`rt_state` must show a
    #: zero delta between recorded rounds or the fast path disarms —
    #: e.g. a clock correction, a pending-queue level change, a crash
    #: flag flip, or a membership event all make the round unreplayable.
    _RT_LINEAR = frozenset({
        "cycle", "frames_tx", "frames_rx", "frames_corrupt",
        "chunks_delivered", "chunks_enqueued", "tx_overflow", "sync_rounds",
    })

    def rt_state(self) -> dict[str, int]:
        sync = self.sync
        membership = self.membership
        state = {
            "cycle": self._cycle,
            "frames_tx": self.frames_transmitted,
            "frames_rx": self.frames_received,
            "frames_corrupt": self.frames_dropped_corrupt,
            "chunks_delivered": self.chunks_delivered,
            "chunks_enqueued": self.chunks_enqueued,
            "tx_overflow": self.tx_overflow,
            "sync_rounds": sync.rounds,
            "pending_tx": sum(len(q) for q in self._tx.values()),
            "crashed": int(self.crashed),
            "omit": self.omit_cycles,
            "send_offset": self.send_offset,
            "corruptor": int(self.chunk_corruptor is not None),
            "clock_corr": self.clock.corrections_applied,
            "sync_last": sync.last_correction,
            "sync_pending": len(sync._deviations),
            "sync_dev_sum": sum(sync._deviations.values()),
            "mem_changes": len(membership.changes),
            "mem_seen": len(membership._seen_this_cycle),
            "alive": membership.alive_count(),
        }
        for comp, missed in membership._missed.items():
            state[f"missed.{comp}"] = missed
        return state

    def rt_check(self, delta: dict[str, int]) -> bool:
        linear = self._RT_LINEAR
        alive = self.membership.is_alive
        for key, d in delta.items():
            if d == 0 or key in linear:
                continue
            # A dead sender's miss counter climbs steadily — replayable.
            # A *live* sender accumulating misses is approaching the
            # fail threshold: the flip would be a discrete membership
            # event, so refuse to extrapolate.
            if key.startswith("missed.") and not alive(key[7:]):
                continue
            return False
        return True

    def rt_advance(self, delta: dict[str, int], k: int) -> None:
        self._cycle += delta["cycle"] * k
        self.frames_transmitted += delta["frames_tx"] * k
        self.frames_received += delta["frames_rx"] * k
        self.frames_dropped_corrupt += delta["frames_corrupt"] * k
        self.chunks_delivered += delta["chunks_delivered"] * k
        self.chunks_enqueued += delta["chunks_enqueued"] * k
        self.tx_overflow += delta["tx_overflow"] * k
        d_sync = delta["sync_rounds"]
        if d_sync:
            sync = self.sync
            sync.rounds += d_sync * k
            # Per-round history entries for the skipped rounds: the
            # correction is constant across a replayable round (delta of
            # sync_last is zero), so each skipped round appended it.
            sync.correction_history.extend([sync.last_correction] * (d_sync * k))
        missed = self.membership._missed
        for key, d in delta.items():
            if d and key.startswith("missed."):
                missed[key[7:]] += d * k

    def rt_fingerprint(self, boundary: int, round_len: int) -> tuple | None:
        """Round-template fingerprint.

        A drifting clock's slot phase never recurs exactly, so imperfect
        clocks veto every boundary — those clusters run live.
        Perfect clocks (the common case in large models) contribute the
        fault-hook state; corrections shift all of the controller's
        events uniformly, which the engine's phase normalization absorbs.
        Queued chunks carry payload identity that bulk replay cannot
        extrapolate, so a non-empty transmit queue vetoes the boundary.
        """
        if not self.clock._perfect:
            return None
        for q in self._tx.values():
            if q:
                return None
        return (int(self.crashed), self.omit_cycles, self.send_offset,
                int(self.chunk_corruptor is not None))

    # ------------------------------------------------------------------
    @property
    def cycle(self) -> int:
        return self._cycle

    def local_now(self) -> int:
        return self.clock.local_time(self.sim.now)
