"""Pre-Safe DAS — tactic coordination across subsystems (Sec. I).

"The Pre-Safe system tensions seat-belts, realigns seats to a safer
position, and closes an open sun roof when sensors detect possibly
hazardous situations.  The system correlates information of existing
car dynamics sensors in order to determine hazardous situations such as
skidding, emergency braking, or avoidance maneuvers."

:class:`PreSafeController` consumes the *imported* vehicle dynamics
(``msgDynamicsPreSafe`` — the ABS DAS's sensors, renamed across the
gateway) and fires when |yaw rate| or brake pressure crosses its
thresholds: it emits ``msgBeltCommand`` and ``msgRoofCommand`` events
on its own DAS; a second gateway exports the roof command into the
comfort DAS.  E11 measures the skid-onset → roof-command latency, and —
crucially — that the whole function exists *without* fusing ABS,
Pre-Safe, and comfort into one DAS.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..platform import Job
from .signals import belt_command_type, from_mrad_per_s, obs_time, roof_command_type

if TYPE_CHECKING:  # pragma: no cover
    from ..vn import ETVirtualNetwork

__all__ = ["PreSafeController"]


class PreSafeController(Job):
    """Hazard detection + actuation command emission."""

    def __init__(self, sim, name, das, partition,
                 yaw_threshold: float = 0.5,  # rad/s
                 brake_threshold: float = 0.8,  # pedal fraction
                 rearm_after: int = 3_000_000_000):
        super().__init__(sim, name, das, partition)
        self.vn: "ETVirtualNetwork | None" = None
        self.yaw_threshold = yaw_threshold
        self.brake_threshold = brake_threshold
        self.rearm_after = rearm_after
        self.detections: list[int] = []
        self.commands_sent: list[int] = []
        self._armed = True
        self._last_fire: int | None = None
        self._roof_type = roof_command_type()
        self._belt_type = belt_command_type()

    def on_step(self) -> None:
        now = self.sim.now
        if not self._armed and self._last_fire is not None:
            if now - self._last_fire >= self.rearm_after:
                self._armed = True
        if not self._armed:
            return
        from ..errors import PortError

        try:
            dyn, t_update = self.port("msgDynamicsPreSafe").read()
        except PortError:
            return  # no dynamics import: the function cannot exist
        if dyn is None:
            return
        yaw = abs(from_mrad_per_s(dyn.get("Dynamics", "yaw_rate")))
        brake = dyn.get("Dynamics", "brake") / 1000.0
        if yaw >= self.yaw_threshold or brake >= self.brake_threshold:
            self._fire(now)

    def _fire(self, now: int) -> None:
        self._armed = False
        self._last_fire = now
        self.detections.append(now)
        if self.vn is None:
            return
        self.vn.send("msgBeltCommand", self._belt_type.instance(Command={
            "tension": 800, "t_cmd": obs_time(now),
        }), sender_job=self.name)
        self.vn.send("msgRoofCommand", self._roof_type.instance(Command={
            "close": True, "t_cmd": obs_time(now),
        }), sender_job=self.name)
        self.commands_sent.append(now)

    # -- round-template support (see repro.sim.round_template) ---------
    def rt_fingerprint(self, boundary: int, round_len: int) -> tuple | None:
        if not self._armed:
            if self._last_fire is None:
                return None  # inconsistent — be conservative
            due = self._last_fire + self.rearm_after
            if due < boundary + round_len:
                return None  # re-arm flips _armed this round — run live
            return (int(self.active), "disarmed")
        port = self._ports.get("msgDynamicsPreSafe")
        if port is None:
            return (int(self.active), "noimport")
        dyn = port._value
        if dyn is None:
            return (int(self.active), "armed", "nodata")
        # Same hazard predicate as on_step (side-effect-free peek): a
        # firing round mutates _armed/_last_fire and emits ET sends, so
        # it must run live; the veto self-sustains until the fire.
        yaw = abs(from_mrad_per_s(dyn.get("Dynamics", "yaw_rate")))
        brake = dyn.get("Dynamics", "brake") / 1000.0
        if yaw >= self.yaw_threshold or brake >= self.brake_threshold:
            return None
        return (int(self.active), "armed", "calm")

    def rt_headroom(self, boundary: int, round_len: int) -> int | None:
        if not self._armed and self._last_fire is not None:
            due = self._last_fire + self.rearm_after
            return max(0, (due - boundary) // round_len - 1)
        return None
