"""The broadcast bus medium (and its central guardian hook).

The bus is a shared broadcast medium: a transmission occupies it for
``size * 8 / bandwidth`` plus propagation delay, and every attached
listener receives the frame at the same instant (the TTA's replicated-
channel redundancy is abstracted to one logical channel; value-domain
faults are injected above this layer).

Two overlapping transmissions **collide**: both frames are delivered
corrupted.  On a correct TT cluster the TDMA schedule plus the central
guardian make collisions impossible; they become observable exactly
when the guardian is disabled and a babbling component is injected —
the E8 ablation.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Protocol

from ..errors import ConfigurationError
from ..sim import EventPriority, FlowStage, Simulator, TraceCategory
from .frame import PhysicalFrame

__all__ = ["BusListener", "PhysicalBus"]


class BusListener(Protocol):
    """Anything that wants frames off the bus (controllers, probes)."""

    def on_frame(self, frame: PhysicalFrame, arrival: int) -> None:
        ...


class PhysicalBus:
    """Single logical broadcast channel of the cluster."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: int = 10_000_000,
        propagation_delay: int = 1_000,
        name: str = "bus",
    ) -> None:
        if bandwidth_bps <= 0:
            raise ConfigurationError("bandwidth must be positive")
        if propagation_delay < 0:
            raise ConfigurationError("propagation delay must be non-negative")
        self.sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.propagation_delay = propagation_delay
        #: (listener, component whose own frames it skips, or None).
        self._attached: list[tuple[BusListener, str | None]] = []
        #: sender -> immutable delivery tuple of every listener except
        #: that sender's own controller; built on first use, dropped by
        #: attach() (listeners attached mid-delivery only see subsequent
        #: frames).
        self._targets: dict[str, tuple[BusListener, ...]] = {}
        self._admission: Callable[[PhysicalFrame, int, int], bool] | None = None
        self._busy_until: int = 0
        self._in_flight: list[tuple[PhysicalFrame, int]] = []  # (frame, end)
        self.frames_sent = 0
        self.frames_blocked = 0
        self.collisions = 0
        m = sim.metrics
        self._m_tx = m.counter("bus.frames_tx")
        self._m_blocked = m.counter("bus.frames_blocked")
        self._m_collisions = m.counter("bus.collisions")
        self._m_bytes = m.counter("bus.bytes_tx")
        self._m_frame_bytes = m.histogram("bus.frame_bytes")
        self._deliver_label = f"{name}.deliver"

    # ------------------------------------------------------------------
    def attach(self, listener: BusListener, own: str | None = None) -> None:
        """Deliver every frame to ``listener`` — except, when ``own``
        names a component, the frames that component transmits (a
        controller never receives its own transmission)."""
        self._attached.append((listener, own))
        self._targets.clear()

    def set_admission_control(
            self, check: Callable[[PhysicalFrame, int, int], bool] | None) -> None:
        """Install the central guardian's admission check (or None),
        called as ``check(frame, now, nbytes)`` with the frame's size."""
        self._admission = check

    # ------------------------------------------------------------------
    def transmit(self, frame: PhysicalFrame, duration: int | None = None) -> bool:
        """Put ``frame`` on the medium now; returns False if blocked.

        The guardian's admission check runs *before* the medium is
        touched — a blocked transmission leaves the bus idle, which is
        precisely the fault-containment property of the TTA's guardian.

        ``duration`` overrides the content-derived transmission time:
        scheduled TDMA transmissions occupy their *whole slot* (fixed
        window), so delivery instants are independent of how full the
        frame is — without this, another VN's chunks riding in the same
        frame would shift this VN's delivery times.
        """
        now = self.sim.now
        tr = self.sim.trace
        nbytes = frame.size_bytes()
        if self._admission is not None and not self._admission(frame, now, nbytes):
            self.frames_blocked += 1
            self._m_blocked.inc()
            if tr.wants(TraceCategory.FRAME_BLOCKED):
                tr.record(
                    now, TraceCategory.FRAME_BLOCKED, self.name,
                    sender=frame.sender, slot=frame.slot_id, cycle=frame.cycle,
                )
            else:
                tr.tick(TraceCategory.FRAME_BLOCKED)
            return False
        if duration is None:
            duration = -(-nbytes * 8 * 1_000_000_000 // self.bandwidth_bps)
        end = now + duration
        frame.send_time = now

        # Collision detection against transmissions still on the wire.
        self._in_flight = [(f, e) for f, e in self._in_flight if e > now]
        collided = False
        for other, other_end in self._in_flight:
            if not other.corrupted:
                other.corrupted = True
            collided = True
        if collided:
            frame.corrupted = True
            self.collisions += 1
            self._m_collisions.inc()
            if tr.wants(TraceCategory.FRAME_TX):
                tr.record(
                    now, TraceCategory.FRAME_TX, self.name,
                    sender=frame.sender, slot=frame.slot_id, cycle=frame.cycle,
                    collision=True,
                )
            else:
                tr.tick(TraceCategory.FRAME_TX)
        elif tr.wants(TraceCategory.FRAME_TX):
            tr.record(
                now, TraceCategory.FRAME_TX, self.name,
                sender=frame.sender, slot=frame.slot_id, cycle=frame.cycle,
                bytes=nbytes,
            )
        else:
            tr.tick(TraceCategory.FRAME_TX)
        self._in_flight.append((frame, end))
        self._busy_until = max(self._busy_until, end)
        self.frames_sent += 1
        self._m_tx.inc()
        self._m_bytes.inc(nbytes)
        self._m_frame_bytes.observe(nbytes)

        fl = self.sim.flows
        if fl.enabled:
            for chunk in frame.chunks:
                fid = chunk.meta.get("flow")
                if fid is not None:
                    fl.hop(now, self.name, fid, FlowStage.BUS_TX,
                           sender=frame.sender, slot=frame.slot_id)

        arrival = end + self.propagation_delay
        self.sim.at(
            arrival,
            lambda f=frame, t=arrival: self._deliver(f, t),
            priority=EventPriority.NETWORK,
            label=self._deliver_label,
        )
        return True

    def _deliver(self, frame: PhysicalFrame, arrival: int) -> None:
        fl = self.sim.flows
        if fl.enabled:
            for chunk in frame.chunks:
                fid = chunk.meta.get("flow")
                if fid is not None:
                    fl.hop(arrival, self.name, fid, FlowStage.BUS_RX,
                           corrupted=frame.corrupted)
        sender = frame.sender
        targets = self._targets.get(sender)
        if targets is None:
            targets = self._targets[sender] = tuple(
                listener for listener, own in self._attached if own != sender)
        for listener in targets:
            listener.on_frame(frame, arrival)

    # ------------------------------------------------------------------
    # round-template participant protocol (see repro.sim.round_template)
    # ------------------------------------------------------------------
    # ``bus.deliver`` events are deliberately NOT registered as template
    # labels: their closures capture absolute arrival instants, so a
    # delivery pending across a round boundary blocks fast-forward for
    # that window (in a correct TDMA round every delivery completes
    # inside the round).  ``_busy_until`` and ``_in_flight`` may go
    # stale across a replay, which is harmless: ``busy`` only compares
    # against ``now`` (always past the stale horizon after a skip) and
    # stale in-flight entries are pruned by the ``e > now`` filter on
    # the next transmit.

    _RT_LINEAR = frozenset({"frames_sent", "frames_blocked", "collisions"})

    def rt_state(self) -> dict[str, int]:
        return {
            "frames_sent": self.frames_sent,
            "frames_blocked": self.frames_blocked,
            "collisions": self.collisions,
            "in_flight": len(self._in_flight),
        }

    def rt_check(self, delta: dict[str, int]) -> bool:
        linear = self._RT_LINEAR
        return all(d == 0 or key in linear for key, d in delta.items())

    def rt_advance(self, delta: dict[str, int], k: int) -> None:
        self.frames_sent += delta["frames_sent"] * k
        self.frames_blocked += delta["frames_blocked"] * k
        self.collisions += delta["collisions"] * k

    @property
    def busy(self) -> bool:
        return self.sim.now < self._busy_until

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PhysicalBus {self.name!r} sent={self.frames_sent} blocked={self.frames_blocked}>"
