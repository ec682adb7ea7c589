"""Small shared application jobs."""

from __future__ import annotations

from ..platform import Job

__all__ = ["RecorderJob"]


class RecorderJob(Job):
    """Records every pushed delivery; the generic consumer/actuator.

    Used for dashboards, belt actuators, and measurement endpoints: the
    job's behaviour *is* its reception log.
    """

    def __init__(self, sim, name, das, partition):
        super().__init__(sim, name, das, partition)
        self.received: list[tuple[int, str, object]] = []

    def on_message(self, port_name, instance, arrival) -> None:
        self.received.append((self.sim.now, port_name, instance))

    def values(self, port_name: str, element: str, field: str) -> list:
        return [
            inst.get(element, field)
            for _, p, inst in self.received
            if p == port_name
        ]

    def reception_times(self, port_name: str | None = None) -> list[int]:
        return [t for t, p, _ in self.received if port_name is None or p == port_name]

    # -- round-template support (see repro.sim.round_template) ---------
    def rt_fingerprint(self, boundary: int, round_len: int) -> tuple | None:
        # The reception log is observational only (not part of the
        # parity surface); replayed spans advance the msg counter while
        # the python-level log legitimately skips those entries.
        return (int(self.active),)
