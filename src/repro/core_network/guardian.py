"""Central bus guardian — core service C3 (strong fault isolation).

The guardian holds an independent copy of the TDMA schedule and admits a
transmission only while the sending component's slot is open (widened by
a margin that covers the achievable clock-sync precision).  A babbling-
idiot component — transmitting arbitrarily often or at arbitrary times —
can therefore disturb at most its *own* slots; the slots of other
components stay clean, which makes a whole component an acceptable
hardware fault-containment region (Sec. II-D).

The guardian is modeled as *central* (at the bus) with a perfect local
view of global time; TTP/C-style local guardians differ only in where
the check runs.  The ``enabled`` flag exists for the E8 ablation:
disabling the guardian exposes the raw collision behaviour of the
medium under a babbling fault.
"""

from __future__ import annotations

from ..sim import Simulator
from .bus import PhysicalBus
from .frame import PhysicalFrame
from .schedule import TDMASchedule

__all__ = ["CentralGuardian"]


class CentralGuardian:
    """Schedule-enforcing admission control for the physical bus."""

    def __init__(
        self,
        sim: Simulator,
        schedule: TDMASchedule,
        margin: int = 5_000,
        enabled: bool = True,
        name: str = "guardian",
        bandwidth_bps: int | None = None,
    ) -> None:
        self.sim = sim
        self.schedule = schedule
        self.margin = margin
        self.enabled = enabled
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.blocked_count = 0
        self.admitted_count = 0
        self.blocked_by_sender: dict[str, int] = {}

    def install(self, bus: PhysicalBus) -> None:
        if self.bandwidth_bps is None:
            self.bandwidth_bps = bus.bandwidth_bps
        bus.set_admission_control(self.admit)

    def admit(self, frame: PhysicalFrame, now: int, nbytes: int) -> bool:
        """True iff ``frame.sender`` may transmit its ``nbytes`` at ``now``.

        Both the start *and the end* of the transmission must lie inside
        the sender's (margin-widened) slot window — a frame admitted at
        the window's tail must not overrun into the next slot.
        """
        if not self.enabled:
            self.admitted_count += 1
            return True
        ok = self.schedule.in_slot_of(frame.sender, now, margin=self.margin)
        if ok and self.bandwidth_bps:
            duration = -(-nbytes * 8 * 1_000_000_000 // self.bandwidth_bps)
            ok = self.schedule.in_slot_of(frame.sender, now + duration,
                                          margin=self.margin)
        if ok:
            self.admitted_count += 1
        else:
            self.blocked_count += 1
            self.blocked_by_sender[frame.sender] = (
                self.blocked_by_sender.get(frame.sender, 0) + 1
            )
        return ok

    # ------------------------------------------------------------------
    # round-template participant protocol (see repro.sim.round_template)
    # ------------------------------------------------------------------
    # ``blocked_by_sender`` keys appear on first block, so the round
    # that first blocks a sender changes the state's key set and is not
    # replayed; from then on the per-sender counters extrapolate.

    def rt_state(self) -> dict[str, int]:
        state = {
            "admitted": self.admitted_count,
            "blocked": self.blocked_count,
            "enabled": int(self.enabled),
        }
        for sender, count in self.blocked_by_sender.items():
            state[f"blocked.{sender}"] = count
        return state

    def rt_check(self, delta: dict[str, int]) -> bool:
        return all(d == 0 or key != "enabled" for key, d in delta.items())

    def rt_advance(self, delta: dict[str, int], k: int) -> None:
        self.admitted_count += delta["admitted"] * k
        self.blocked_count += delta["blocked"] * k
        blocked = self.blocked_by_sender
        for key, d in delta.items():
            if d and key.startswith("blocked."):
                blocked[key[8:]] += d * k

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return f"<CentralGuardian {state} admitted={self.admitted_count} blocked={self.blocked_count}>"
