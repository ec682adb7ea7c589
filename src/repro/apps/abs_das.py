"""ABS DAS — safety-related chassis sensing on a TT virtual network.

Two sensor jobs publish state messages sampled from the vehicle model:

* :class:`WheelSpeedSensor` — "the speed sensors from the factory
  installed Antilock Braking System" whose reuse for navigation
  dead-reckoning is the paper's motivating example (Sec. I),
* :class:`DynamicsSensor` — yaw rate + brake pressure, the "existing
  car dynamics sensors" Pre-Safe correlates.

Both jobs refresh their output state ports every partition window; the
TT virtual network samples the ports at its a-priori instants
(sender-pull).  Fault hooks: ``value_distortion`` rewrites the produced
field dict (software value failure, Sec. II-D).
"""

from __future__ import annotations

from collections.abc import Callable

from ..platform import Job
from .signals import mm_per_s, mrad_per_s, obs_time, vehicle_dynamics_type, wheel_speed_type
from .vehicle import VehicleModel

__all__ = ["WheelSpeedSensor", "DynamicsSensor"]


class WheelSpeedSensor(Job):
    """Publishes ``msgWheelSpeed`` from the vehicle ground truth."""

    def __init__(self, sim, name, das, partition, vehicle: VehicleModel):
        super().__init__(sim, name, das, partition)
        self.vehicle = vehicle
        self.value_distortion: Callable[[dict], dict] | None = None
        self.samples_published = 0
        self._mtype = wheel_speed_type()

    def on_step(self) -> None:
        state = self.vehicle.state_at(self.sim.now)
        fields = {
            "fl": mm_per_s(state.wheel_fl),
            "fr": mm_per_s(state.wheel_fr),
            "rl": mm_per_s(state.wheel_rl),
            "rr": mm_per_s(state.wheel_rr),
            "t_obs": obs_time(self.sim.now),
        }
        if self.value_distortion is not None:
            fields = self.value_distortion(fields)
        self.port("msgWheelSpeed").write(self._mtype.instance(WheelSpeeds=fields))
        self.samples_published += 1

    # -- round-template support (see repro.sim.round_template) ---------
    def rt_state(self) -> dict[str, int]:
        c = super().rt_state()
        c["pub"] = self.samples_published
        return c

    def rt_advance(self, delta: dict[str, int], k: int) -> None:
        super().rt_advance(delta, k)
        self.samples_published += delta["pub"] * k

    def rt_fingerprint(self, boundary: int, round_len: int) -> tuple | None:
        # A distortion hook makes published payloads value-dependent in
        # ways replay cannot reproduce; sampling itself is stateless.
        return None if self.value_distortion is not None else (int(self.active),)


class DynamicsSensor(Job):
    """Publishes ``msgVehicleDynamics`` (yaw rate + brake pressure)."""

    def __init__(self, sim, name, das, partition, vehicle: VehicleModel):
        super().__init__(sim, name, das, partition)
        self.vehicle = vehicle
        self.value_distortion: Callable[[dict], dict] | None = None
        self.samples_published = 0
        self._mtype = vehicle_dynamics_type()

    def on_step(self) -> None:
        state = self.vehicle.state_at(self.sim.now)
        fields = {
            "yaw_rate": mrad_per_s(state.yaw_rate),
            "brake": min(1000, round(state.braking * 1000)),
            "t_obs": obs_time(self.sim.now),
        }
        if self.value_distortion is not None:
            fields = self.value_distortion(fields)
        self.port("msgVehicleDynamics").write(
            self._mtype.instance(Dynamics=fields)
        )
        self.samples_published += 1

    # -- round-template support (see repro.sim.round_template) ---------
    def rt_state(self) -> dict[str, int]:
        c = super().rt_state()
        c["pub"] = self.samples_published
        return c

    def rt_advance(self, delta: dict[str, int], k: int) -> None:
        super().rt_advance(delta, k)
        self.samples_published += delta["pub"] * k

    def rt_fingerprint(self, boundary: int, round_len: int) -> tuple | None:
        return None if self.value_distortion is not None else (int(self.active),)
