"""Comfort/body DAS — the sliding roof of Fig. 6, on an ET network.

:class:`SlidingRoofController` owns the roof position (percent open).
While the user moves the roof, the job emits ``msgSlidingRoof`` event
messages carrying the relative change (``ValueChange``/``EventTime`` —
exactly Fig. 6's MovementEvent).  On an imported ``msgRoofCommand``
(Pre-Safe "closes an open sun roof when sensors detect possibly
hazardous situations"), the roof drives to closed, emitting the
corresponding movement events along the way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..platform import Job
from .signals import obs_time, sliding_roof_type

if TYPE_CHECKING:  # pragma: no cover
    from ..vn import ETVirtualNetwork

__all__ = ["SlidingRoofController"]


class SlidingRoofController(Job):
    """Roof position model + Fig. 6 event producer."""

    #: percent per job step while moving
    MOVE_STEP = 5

    def __init__(self, sim, name, das, partition,
                 motion_plan: list[tuple[int, int]] | None = None):
        """``motion_plan``: (time, target_percent) user commands."""
        super().__init__(sim, name, das, partition)
        self.vn: "ETVirtualNetwork | None" = None  # bound by the assembler
        self.position = 0  # percent open
        self.target = 0
        self.motion_plan = sorted(motion_plan or [])
        self.events_emitted = 0
        self.close_commands_received: list[int] = []
        self.closed_at: int | None = None
        #: Fault hook (software timing failure): emit this many extra
        #: zero-delta events per step — a same-instant burst violates
        #: any tmin interarrival bound.
        self.extra_chatter = 0
        self._mtype = sliding_roof_type()

    # ------------------------------------------------------------------
    def on_step(self) -> None:
        now = self.sim.now
        while self.motion_plan and self.motion_plan[0][0] <= now:
            _, target = self.motion_plan.pop(0)
            self.target = max(0, min(100, target))
        if self.position != self.target:
            step = self.MOVE_STEP if self.target > self.position else -self.MOVE_STEP
            step = max(-abs(self.target - self.position),
                       min(abs(self.target - self.position), step))
            if self.target < self.position:
                step = -min(self.MOVE_STEP, self.position - self.target)
            else:
                step = min(self.MOVE_STEP, self.target - self.position)
            self.position += step
            self._emit(step)
            if self.position == 0 and self.closed_at is None and self.close_commands_received:
                self.closed_at = now
        for _ in range(self.extra_chatter):
            self._emit(0)

    def _emit(self, delta: int) -> None:
        if self.vn is None:
            return
        inst = self._mtype.instance(MovementEvent={
            "ValueChange": delta,
            "EventTime": obs_time(self.sim.now),
        })
        self.vn.send("msgSlidingRoof", inst, sender_job=self.name)
        self.events_emitted += 1

    # -- round-template support (see repro.sim.round_template) ---------
    def rt_state(self) -> dict[str, int]:
        c = super().rt_state()
        c["emit"] = self.events_emitted
        return c

    def rt_advance(self, delta: dict[str, int], k: int) -> None:
        super().rt_advance(delta, k)
        self.events_emitted += delta["emit"] * k

    def rt_fingerprint(self, boundary: int, round_len: int) -> tuple | None:
        # Motion steps and chatter emit ET events and mutate position —
        # those rounds run live; a due plan entry pops state (veto
        # self-sustains until the live step consumes it).
        if self.motion_plan and self.motion_plan[0][0] < boundary + round_len:
            return None
        if self.position != self.target or self.extra_chatter:
            return None
        return (int(self.active), "idle", self.position)

    def rt_headroom(self, boundary: int, round_len: int) -> int | None:
        if self.motion_plan:
            return max(0, (self.motion_plan[0][0] - boundary) // round_len)
        return None

    # ------------------------------------------------------------------
    def on_message(self, port_name, instance, arrival) -> None:
        if port_name == "msgRoofCommand" and instance.get("Command", "close"):
            self.close_commands_received.append(self.sim.now)
            self.target = 0
            if self.position == 0 and self.closed_at is None:
                self.closed_at = self.sim.now
