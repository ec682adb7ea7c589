"""Navigation DAS — GPS plus dead reckoning from imported wheel speeds.

Sec. I: "the speed sensors from the factory installed Antilock Braking
System (ABS) can be exploited to estimate the car's heading for the
navigation system during periods of GPS unavailability.  The redundant
sensors can be eliminated in one of the DASs leading to reduced
resource consumption."

:class:`GpsReceiver` publishes position fixes except during configured
outage windows.  :class:`NavigationEstimator` maintains the position
estimate: when a fresh fix is present it snaps to it; during outages it
dead-reckons by integrating the imported odometry (wheel speeds renamed
``msgOdometry`` by the gateway) and imported yaw rate.  Without the
gateway import, the estimator can only coast on its last fix — the
accuracy gap between those two modes is exactly experiment E9.
"""

from __future__ import annotations

import math

from ..platform import Job
from .signals import cm, from_cm, from_mm_per_s, gps_fix_type, obs_time
from .vehicle import VehicleModel

__all__ = ["GpsReceiver", "NavigationEstimator"]


class GpsReceiver(Job):
    """Publishes ``msgGpsFix`` on the navigation ET network, with
    configurable outage windows (tunnels, urban canyons)."""

    def __init__(self, sim, name, das, partition, vehicle: VehicleModel,
                 outages: list[tuple[int, int]] | None = None,
                 noise_m: float = 0.0, fix_period: int = 100_000_000):
        super().__init__(sim, name, das, partition)
        self.vn = None  # ET VN; bound by the assembler
        self.vehicle = vehicle
        self.outages = list(outages or [])
        self.noise_m = noise_m
        self.fix_period = fix_period  # 10 Hz GPS by default
        self._last_fix: int | None = None
        self.fixes_published = 0
        self._mtype = gps_fix_type()

    def _available(self, t: int) -> bool:
        return not any(a <= t < b for a, b in self.outages)

    def on_step(self) -> None:
        now = self.sim.now
        if self.vn is None or not self._available(now):
            return
        if self._last_fix is not None and now - self._last_fix < self.fix_period:
            return
        self._last_fix = now
        state = self.vehicle.state_at(now)
        nx = ny = 0.0
        if self.noise_m > 0.0:
            rng = self.sim.streams.get(f"gps.{self.name}")
            nx, ny = rng.normal(0, self.noise_m, size=2)
        self.vn.send("msgGpsFix", self._mtype.instance(Fix={
            "x": cm(state.x + nx),
            "y": cm(state.y + ny),
            "valid": True,
            "t_obs": obs_time(now),
        }), sender_job=self.name)
        self.fixes_published += 1

    # -- round-template support (see repro.sim.round_template) ---------
    def _rt_next_fire(self) -> int:
        """Earliest instant at which a fix could be published."""
        cand = 0 if self._last_fix is None else self._last_fix + self.fix_period
        moved = True
        while moved:
            moved = False
            for a, b in self.outages:
                if a <= cand < b:
                    cand = b
                    moved = True
        return cand

    def rt_state(self) -> dict[str, int]:
        c = super().rt_state()
        c["pub"] = self.fixes_published
        return c

    def rt_advance(self, delta: dict[str, int], k: int) -> None:
        super().rt_advance(delta, k)
        self.fixes_published += delta["pub"] * k

    def rt_fingerprint(self, boundary: int, round_len: int) -> tuple | None:
        if self.vn is None:
            return (int(self.active), "unbound")
        # A fix fire mutates _last_fix and emits an ET send; neither can
        # be replayed.  Veto while the next fire is due — the veto
        # self-sustains until the live step actually performs it.
        if self._rt_next_fire() < boundary + round_len:
            return None
        return (int(self.active),)

    def rt_headroom(self, boundary: int, round_len: int) -> int | None:
        if self.vn is None:
            return None
        return max(0, (self._rt_next_fire() - boundary) // round_len - 1)


class NavigationEstimator(Job):
    """Maintains (x, y, heading); GPS-first, dead reckoning as fallback.

    Input ports (pull, state semantics):

    * ``msgGpsFix`` — own DAS,
    * ``msgOdometry`` — imported wheel speeds (present only when the
      ABS→navigation gateway exists),
    * ``msgDynamicsNav``-style yaw import is folded into odometry here:
      heading is integrated from the left/right wheel-speed difference,
      which is how production dead reckoning uses ABS sensors.
    """

    def __init__(self, sim, name, das, partition, vehicle: VehicleModel,
                 gps_fresh_ns: int = 300_000_000, track_width: float = 1.6):
        # gps_fresh_ns: a fix older than ~3 fix periods (10 Hz GPS) is
        # treated as lost; keeping a stale fix "fresh" for longer would
        # freeze the estimate at the start of every outage and the
        # dead-reckoned track would lag the truth by that freeze time.
        super().__init__(sim, name, das, partition)
        self.vehicle = vehicle
        self.gps_fresh_ns = gps_fresh_ns
        self.track_width = track_width
        self.x = 0.0
        self.y = 0.0
        self.heading = 0.0
        self._last_step: int | None = None
        self.errors: list[tuple[int, float]] = []  # (t, |estimate - truth| m)
        self.dead_reckoning_steps = 0
        self.gps_snaps = 0

    # ------------------------------------------------------------------
    def on_step(self) -> None:
        now = self.sim.now
        dt = 0.0 if self._last_step is None else (now - self._last_step) / 1e9
        self._last_step = now

        # Heading integrates from the odometry import *continuously* —
        # otherwise every outage would start with a stale heading and
        # the dead-reckoned track would swing wide immediately.
        v = self._read_odometry()
        if v is not None and dt > 0.0:
            speed, yaw = v
            self.heading += yaw * dt

        gps_port = self.port("msgGpsFix")
        fix, t_fix = gps_port.read()
        if fix is not None and t_fix is not None and now - t_fix <= self.gps_fresh_ns:
            self.x = from_cm(fix.get("Fix", "x"))
            self.y = from_cm(fix.get("Fix", "y"))
            self.gps_snaps += 1
        elif v is not None and dt > 0.0:
            speed, _ = v
            self.x += speed * math.cos(self.heading) * dt
            self.y += speed * math.sin(self.heading) * dt
            self.dead_reckoning_steps += 1
        # else: no import, no fix — coast on the last estimate.

        truth = self.vehicle.state_at(now)
        err = math.hypot(self.x - truth.x, self.y - truth.y)
        self.errors.append((now, err))

    def _read_odometry(self) -> tuple[float, float] | None:
        """(speed m/s, yaw rad/s) from the imported wheel speeds."""
        from ..errors import PortError

        try:
            odo, _ = self.port("msgOdometry").read()
        except PortError:
            return None  # no odometry import configured (E9's baseline)
        if odo is None:
            return None
        speeds = odo.values["WheelSpeeds"]
        left = from_mm_per_s(speeds["fl"])
        right = from_mm_per_s(speeds["fr"])
        v = (left + right) / 2.0
        yaw = (right - left) / self.track_width
        return v, yaw

    # -- round-template support (see repro.sim.round_template) ---------
    # The float estimate (x, y, heading, errors) is observational — not
    # part of the scenario parity surface — so replayed spans may skip
    # its updates.  What must stay exact are the branch counters below,
    # whose per-step increments depend only on which branch of on_step
    # runs: that branch is pinned by the fingerprint cells.
    def rt_state(self) -> dict[str, int]:
        c = super().rt_state()
        c["snap"] = self.gps_snaps
        c["dr"] = self.dead_reckoning_steps
        return c

    def rt_advance(self, delta: dict[str, int], k: int) -> None:
        super().rt_advance(delta, k)
        self.gps_snaps += delta["snap"] * k
        self.dead_reckoning_steps += delta["dr"] * k

    def rt_fingerprint(self, boundary: int, round_len: int) -> tuple | None:
        gps = self._ports.get("msgGpsFix")
        if gps is None:
            cls = "noport"
        else:
            t_fix = gps._t_update
            if gps._value is None or t_fix is None:
                cls = "nofix"
            else:
                cut = t_fix + self.gps_fresh_ns
                if cut >= boundary + round_len:
                    cls = "fresh"
                elif cut > boundary:
                    return None  # freshness expires mid-round — run live
                else:
                    cls = "stale"
        odo = self._ports.get("msgOdometry")
        has_odo = odo is not None and odo._value is not None
        return (int(self.active), cls, has_odo, self._last_step is None)

    def rt_headroom(self, boundary: int, round_len: int) -> int | None:
        gps = self._ports.get("msgGpsFix")
        if gps is None or gps._value is None or gps._t_update is None:
            return None
        cut = gps._t_update + self.gps_fresh_ns
        if cut <= boundary:
            return None  # already stale — no freshness transition ahead
        return max(0, (cut - boundary) // round_len)

    # ------------------------------------------------------------------
    def error_during(self, since: int, until: int) -> list[float]:
        return [e for t, e in self.errors if since <= t < until]

    def max_error(self, since: int = 0, until: int | None = None) -> float:
        errs = [e for t, e in self.errors
                if t >= since and (until is None or t < until)]
        return max(errs) if errs else 0.0
