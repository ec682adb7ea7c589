"""Resource accounting across architecture baselines (experiment E10).

Sec. I motivates the integrated architecture with "massive cost savings
through the reduction of resource duplication ... reliability
improvements with respect to wiring and connectors" and the elimination
of redundant sensors once gateways allow DASs to share sensory inputs
(the ABS-wheel-speed-for-navigation example).

This module turns those qualitative claims into countable inventories.
A :class:`SystemRequirements` describes the application demand — DASs,
their jobs, and the physical quantities each DAS needs sensed.  Four
architecture models translate demand into hardware:

* **federated** — one dedicated ECU network per DAS: every DAS gets its
  own ECUs (jobs packed per-DAS), its own bus with per-ECU wiring and
  connectors, and its own sensors (no sharing possible across boxes).
* **integrated, strict separation** — DASs share ECUs (jobs packed
  across DAS boundaries into partitions) and the single TT backbone,
  but without gateways each DAS still needs its own sensors.
* **integrated + naive bridges** — sensor sharing becomes possible, but
  every coupled pair needs a bridging path without isolation (counted
  identically to gateways here; the difference shows up in E8's error
  propagation, not in part counts).
* **integrated + virtual gateways** — sensor sharing with encapsulated
  coupling; gateways are architectural services on existing ECUs, so
  they add no boxes.

The reliability proxy follows the paper's wiring/connector argument:
every wire end is a connector, and connectors dominate field failure
rates in automotive harnesses, so fewer connectors ⇒ a better serial
reliability chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError

__all__ = ["DASRequirement", "SystemRequirements", "ResourceInventory", "ArchitectureModel",
           "automotive_requirements", "federated_inventory", "integrated_inventory"]


@dataclass(frozen=True)
class DASRequirement:
    """Demand of one distributed application subsystem."""

    name: str
    jobs: int
    #: Physical quantities this DAS needs (e.g. "wheel-speed", "yaw-rate").
    sensed_quantities: tuple[str, ...] = ()
    #: Quantities it could import from another DAS if coupling existed.
    importable: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigurationError(f"DAS {self.name!r} needs at least one job")


@dataclass(frozen=True)
class SystemRequirements:
    """The whole vehicle/avionics suite."""

    dass: tuple[DASRequirement, ...]
    jobs_per_ecu: int = 4
    #: sensors wired per quantity (e.g. 4 wheel-speed sensors).
    sensors_per_quantity: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.jobs_per_ecu < 1:
            raise ConfigurationError("jobs_per_ecu must be >= 1")
        names = [d.name for d in self.dass]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate DAS names: {names}")

    def sensors_for(self, quantity: str) -> int:
        return self.sensors_per_quantity.get(quantity, 1)


@dataclass(frozen=True)
class ResourceInventory:
    """Countable hardware of one architecture variant."""

    architecture: str
    ecus: int
    networks: int
    wires: int
    connectors: int
    sensors: int
    gateways: int = 0

    def connector_failure_proxy(self, fit_per_connector: float = 25.0) -> float:
        """Serial failure-rate proxy (FIT) from the connector count."""
        return self.connectors * fit_per_connector

    def as_row(self) -> tuple:
        return (self.architecture, self.ecus, self.networks, self.wires,
                self.connectors, self.sensors, self.gateways)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _das_sensor_need(d: DASRequirement) -> set[str]:
    """Without coupling, a DAS must sense its imports itself — that is
    precisely the redundancy the paper's gateways eliminate (Sec. I)."""
    return set(d.sensed_quantities) | set(d.importable)


def federated_inventory(req: SystemRequirements) -> ResourceInventory:
    """One dedicated computer system per DAS (Sec. I)."""
    ecus = sum(_ceil_div(d.jobs, req.jobs_per_ecu) for d in req.dass)
    networks = len(req.dass)
    wires = ecus  # each ECU hangs on its DAS's bus with one stub
    sensors = 0
    for d in req.dass:
        for q in sorted(_das_sensor_need(d)):
            sensors += req.sensors_for(q)
    # sensor wiring: each sensor wired to its DAS's ECU network
    wires += sensors
    connectors = 2 * wires
    return ResourceInventory(
        architecture="federated",
        ecus=ecus, networks=networks, wires=wires,
        connectors=connectors, sensors=sensors,
    )


def integrated_inventory(
    req: SystemRequirements,
    coupling: str = "gateways",
) -> ResourceInventory:
    """Shared node computers and a single physical network.

    ``coupling``: "none" (strict separation), "naive" (bridges without
    isolation), or "gateways" (the paper's virtual gateways).
    """
    if coupling not in ("none", "naive", "gateways"):
        raise ConfigurationError(f"unknown coupling {coupling!r}")
    total_jobs = sum(d.jobs for d in req.dass)
    ecus = _ceil_div(total_jobs, req.jobs_per_ecu)
    networks = 1
    wires = ecus

    if coupling == "none":
        # No import/export between DASs: each DAS senses for itself,
        # including every quantity it would have liked to import.
        sensors = 0
        for d in req.dass:
            for q in sorted(_das_sensor_need(d)):
                sensors += req.sensors_for(q)
        gateways = 0
    else:
        # Each quantity is sensed ONCE system-wide: some DAS senses it,
        # the others import it (the ABS -> navigation reuse).
        all_needed: set[str] = set()
        sensed_by_someone: set[str] = set()
        for d in req.dass:
            all_needed |= _das_sensor_need(d)
            sensed_by_someone.update(d.sensed_quantities)
        sensors = sum(req.sensors_for(q) for q in all_needed)
        # Count coupling paths: DASs that import something another DAS
        # (or the shared pool) provides.
        gateways = 0
        for d in req.dass:
            if any(q in sensed_by_someone for q in d.importable):
                gateways += 1

    wires += sensors
    connectors = 2 * wires
    name = {
        "none": "integrated (strict separation)",
        "naive": "integrated + naive bridges",
        "gateways": "integrated + virtual gateways",
    }[coupling]
    return ResourceInventory(
        architecture=name, ecus=ecus, networks=networks, wires=wires,
        connectors=connectors, sensors=sensors, gateways=gateways,
    )


class ArchitectureModel:
    """Convenience: all four inventories side by side."""

    def __init__(self, req: SystemRequirements) -> None:
        self.req = req

    def all_inventories(self) -> list[ResourceInventory]:
        return [
            federated_inventory(self.req),
            integrated_inventory(self.req, coupling="none"),
            integrated_inventory(self.req, coupling="naive"),
            integrated_inventory(self.req, coupling="gateways"),
        ]


def automotive_requirements() -> SystemRequirements:
    """The paper's automotive suite (ABS, X-by-wire, navigation,
    Pre-Safe, comfort, dashboard) as demand on hardware."""
    return SystemRequirements(
        dass=(
            DASRequirement("abs", jobs=4,
                           sensed_quantities=("wheel-speed", "yaw-rate",
                                              "brake-pressure")),
            DASRequirement("xbywire", jobs=4,
                           sensed_quantities=("pedal-position",),
                           importable=("wheel-speed",)),
            DASRequirement("navigation", jobs=3,
                           sensed_quantities=("gps",),
                           importable=("wheel-speed", "yaw-rate")),
            DASRequirement("presafe", jobs=2,
                           importable=("yaw-rate", "brake-pressure")),
            DASRequirement("comfort", jobs=4,
                           sensed_quantities=("roof-position",)),
            DASRequirement("dashboard", jobs=2,
                           importable=("roof-position", "wheel-speed")),
        ),
        jobs_per_ecu=4,
        sensors_per_quantity={"wheel-speed": 4, "gps": 1, "yaw-rate": 1,
                              "brake-pressure": 1, "pedal-position": 2,
                              "roof-position": 1},
    )
