"""X-by-wire DAS — the safety-critical TT subsystem of Fig. 1.

A deliberately simple brake-by-wire control loop: the controller reads
the wheel-speed state (its own DAS's sensing would normally feed this;
in the integrated car it shares the ABS DAS's node but keeps its own TT
virtual network) and the brake pedal (from the vehicle model), computes
a slip-limited brake force, and publishes ``msgBrakeCmd`` as TT state.

Its role in the experiments is structural: a second *time-triggered*
virtual network whose latency/jitter must remain untouched by ET load
and by faults elsewhere (E2), demonstrating that safety-critical and
non-safety-critical DASs coexist on one physical network.
"""

from __future__ import annotations

from ..platform import Job
from .signals import brake_cmd_type, obs_time
from .vehicle import VehicleModel

__all__ = ["BrakeByWireController"]


class BrakeByWireController(Job):
    """Publishes the commanded brake force on the X-by-wire TT VN."""

    def __init__(self, sim, name, das, partition, vehicle: VehicleModel,
                 max_force: int = 1000):
        super().__init__(sim, name, das, partition)
        self.vehicle = vehicle
        self.max_force = max_force
        self.commands_published = 0
        self._mtype = brake_cmd_type()

    def on_step(self) -> None:
        state = self.vehicle.state_at(self.sim.now)
        # Slip limiting: under a skid, modulate the force down.
        force = round(state.braking * self.max_force)
        if state.skidding:
            force = force // 2
        self.port("msgBrakeCmd").write(self._mtype.instance(Brake={
            "force": min(force, 2**16 - 1),
            "t_obs": obs_time(self.sim.now),
        }))
        self.commands_published += 1

    # -- round-template support (see repro.sim.round_template) ---------
    def rt_state(self) -> dict[str, int]:
        c = super().rt_state()
        c["pub"] = self.commands_published
        return c

    def rt_advance(self, delta: dict[str, int], k: int) -> None:
        super().rt_advance(delta, k)
        self.commands_published += delta["pub"] * k

    def rt_fingerprint(self, boundary: int, round_len: int) -> tuple | None:
        # Sampling is stateless: the published force tracks the vehicle
        # model, whose behavioural phase the VehicleFingerprint guards.
        return (int(self.active),)
