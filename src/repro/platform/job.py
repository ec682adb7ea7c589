"""Jobs: the basic unit of work — and the software FCR.

Sec. II-A: "A job is the basic unit of work and exploits a virtual
network in order to exchange messages with other jobs and work towards
a common goal."  Sec. II-D: "For software faults, we regard a job as a
FCR.  The failure mode of a job is a violation of the port
specification in either the time or value domain."

A :class:`Job` belongs to exactly one DAS and runs inside one partition.
Its interaction surface is its **link**: the set of ports bound via
:meth:`bind_port` (ports come from :mod:`repro.vn`).  Application logic
goes in two hooks:

* :meth:`step` — called once per partition window (periodic work), and
* :meth:`on_message` — called (within the partition window) for each
  instance delivered at a push input port.

Fault-injection hooks mirror the paper's job failure modes: a timing
failure means the send instant is wrong (the VN/gateway layers detect
it), a value failure means message content violates its specification.
Both are applied by :mod:`repro.faults` by wrapping the job's sends.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from ..errors import ConfigurationError, PortError
from ..sim import Simulator, TraceCategory

if TYPE_CHECKING:  # pragma: no cover
    from ..vn.port import Port
    from .partition import Partition

__all__ = ["Job"]


class Job:
    """Base class for application jobs (subclass and override hooks)."""

    def __init__(self, sim: Simulator, name: str, das: str, partition: "Partition") -> None:
        self.sim = sim
        self.name = name
        self.das = das
        self.partition = partition
        self.active = True
        self._ports: dict[str, "Port"] = {}
        self.activations = 0
        self.messages_handled = 0
        self._m_activations = sim.metrics.counter("job.activations")
        partition.bind_job(self)
        sim.round_template.register_participant(self)

    # ------------------------------------------------------------------
    # link management
    # ------------------------------------------------------------------
    def bind_port(self, port: "Port") -> "Port":
        """Attach a port to this job's link."""
        if port.name in self._ports:
            raise ConfigurationError(f"job {self.name!r} already has port {port.name!r}")
        self._ports[port.name] = port
        port.owner_job = self
        return port

    def port(self, name: str) -> "Port":
        try:
            return self._ports[name]
        except KeyError:
            raise PortError(f"job {self.name!r} has no port {name!r}") from None

    def ports(self) -> list["Port"]:
        return [self._ports[k] for k in sorted(self._ports)]

    # ------------------------------------------------------------------
    # application hooks
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Periodic work; runs once per partition window."""
        self.activations += 1
        self._m_activations.inc()
        tr = self.sim.trace
        if tr.wants(TraceCategory.JOB_ACTIVATION):
            tr.record(
                self.sim.now, TraceCategory.JOB_ACTIVATION, self.name, das=self.das
            )
        else:
            tr.tick(TraceCategory.JOB_ACTIVATION)
        self.on_step()

    def on_step(self) -> None:
        """Override: periodic application logic."""

    def deliver(self, port_name: str, instance: Any, arrival: int) -> None:
        """Called by a push input port; defers into the partition window."""

        def handle() -> None:
            if self.active:
                self.messages_handled += 1
                self.on_message(port_name, instance, arrival)

        self.partition.defer(handle)

    def on_message(self, port_name: str, instance: Any, arrival: int) -> None:
        """Override: react to a delivered message instance."""

    # ------------------------------------------------------------------
    # round-template participant protocol (see repro.sim.round_template)
    # ------------------------------------------------------------------
    def rt_state(self) -> dict[str, int]:
        """Integer statistics whose per-round delta may be extrapolated.
        Subclasses extend the dict; every key must move monotonically."""
        return {"act": self.activations, "msg": self.messages_handled}

    def rt_check(self, delta: dict[str, int]) -> bool:
        return all(d >= 0 for d in delta.values())

    def rt_advance(self, delta: dict[str, int], k: int) -> None:
        self.activations += delta["act"] * k
        self.messages_handled += delta["msg"] * k

    #: Permanent veto: a job that has not declared its hidden control
    #: state replayable always runs live, and the engine stays off for
    #: the run.  Subclasses override with a method returning the
    #: behavioural state at a round boundary, led by ``int(self.active)``:
    #: a halted job neither steps nor handles messages, and :meth:`halt`
    #: alone punctures no template.
    rt_fingerprint: Callable[[int, int], tuple | None] | None = None

    # ------------------------------------------------------------------
    def halt(self) -> None:
        """Software-FCR crash: the job stops producing and consuming."""
        self.active = False

    def resume(self) -> None:
        self.active = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Job {self.name!r} das={self.das!r} ports={sorted(self._ports)}>"
