"""The exemplary automotive system (Section V substitute).

Assembles the full integrated car on four node computers and six DASs,
with every coupling the paper's motivating examples name:

====================  =========  =======================================
DAS                   paradigm   content
====================  =========  =======================================
abs                   TT         wheel-speed + dynamics sensors
xbywire               TT         brake-by-wire control
navigation            ET         GPS + dead-reckoning estimator
presafe               ET         hazard correlation + actuation commands
comfort               ET         Fig. 6 sliding roof
dashboard             TT         instrument display of the roof state
====================  =========  =======================================

Gateways (all hidden, hosted on ``center-ecu``):

* ``gw-nav``      abs → navigation: ``msgWheelSpeed`` → ``msgOdometry``
  (sensor reuse for dead reckoning, Sec. I),
* ``gw-presafe``  abs → presafe: ``msgVehicleDynamics`` →
  ``msgDynamicsPreSafe`` (dynamics correlation, Sec. I),
* ``gw-roof``     presafe → comfort: ``msgRoofCommand`` pass-through
  (tactic coordination: close the roof on hazard),
* ``gw-dash``     comfort → dashboard: ``msgSlidingRoof`` →
  ``msgRoofState`` with Fig. 6's event→state transfer semantics and the
  reception-monitor automaton.

Every coupling is individually switchable so experiments can compare
"integrated with gateways" against "strict separation" (the paper's
claim is precisely the delta).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..automata import AutomatonBuilder
from ..messaging import Semantics
from ..sim import MS, SEC, Simulator, make_trace
from ..spec import (
    ControlParadigm,
    Direction,
    ETTiming,
    InteractionType,
    LinkSpec,
    PortSpec,
    TTTiming,
)
from ..spec.transfer import DerivedElement, DerivedField, TransferSemantics
from ..systems import GatewayDecl, System, SystemBuilder
from . import signals
from .abs_das import DynamicsSensor, WheelSpeedSensor
from .comfort_das import SlidingRoofController
from .common import RecorderJob
from .navigation_das import GpsReceiver, NavigationEstimator
from .presafe_das import PreSafeController
from .vehicle import VehicleFingerprint, VehicleModel, skid_trip

__all__ = ["CarConfig", "CarSystem", "build_car"]


@dataclass
class CarConfig:
    """Which couplings exist, plus workload knobs."""

    vehicle: VehicleModel = field(default_factory=skid_trip)
    seed: int = 0
    nav_import: bool = True
    presafe_import: bool = True
    roof_command_export: bool = True
    dashboard_import: bool = True
    gps_outages: list[tuple[int, int]] = field(default_factory=list)
    gps_noise_m: float = 0.0
    roof_motion_plan: list[tuple[int, int]] = field(
        default_factory=lambda: [(2 * SEC, 60), (20 * SEC, 30)]
    )
    d_acc_odometry: int = 200 * MS
    d_acc_dynamics: int = 100 * MS
    d_acc_roof: int = 500 * MS
    sensor_period: int = 10 * MS
    #: The roof job emits at most once per 2 ms partition window, but the
    #: observable interarrival at the gateway jitters by up to one TDMA
    #: cycle (ET slot phase) — the link-level tmin must budget for that
    #: transmission jitter (the paper's level-3 spec concern, Sec. II-E).
    roof_tmin: int = 1 * MS
    roof_tmax: int = 60 * SEC  # generous: the roof is mostly idle
    major_frame: int = 2 * MS
    guardian_enabled: bool = True
    #: Trace configuration (see repro.sim.trace.make_trace): "full"
    #: keeps every record in memory, "counters" keeps per-category
    #: counts only, "stream" writes NDJSON to ``trace_stream``, "off"
    #: disables tracing.  Metrics stay on in every mode.
    trace_mode: str = "full"
    trace_stream: str | None = None
    #: Causal flow tracing (repro.sim.flow): assign per-message flow ids
    #: and emit flow.origin/flow.hop records.  Off by default — with it
    #: off the trace byte stream is identical to a build without flow
    #: tracing.
    flow_tracing: bool = False
    #: Wall-clock handler profiling (Simulator.enable_profiling):
    #: observe per-event-label callback durations into profile.*
    #: histograms.  Off by default (wall time is nondeterministic).
    profile: bool = False
    #: Round-template fast-forward (repro.sim.round_template).  On by
    #: default: the car's ET VNs, gateways, and partitions participate
    #: via fingerprints, so steady-state rounds are bulk-replayed with
    #: byte-identical traces.  False keeps exact event-by-event
    #: execution.
    round_template: bool = True
    #: Optional value-domain filter chain on the abs->navigation
    #: gateway (e.g. plausibility bounds on imported wheel speeds).
    nav_import_filters: object = None  # FilterChain | None


@dataclass
class CarSystem:
    """The assembled car plus direct references for experiments."""

    system: System
    config: CarConfig
    vehicle: VehicleModel
    wheel_sensor: WheelSpeedSensor
    dynamics_sensor: DynamicsSensor
    gps: GpsReceiver
    navigator: NavigationEstimator
    presafe: PreSafeController
    roof: SlidingRoofController
    display: RecorderJob
    belt: RecorderJob

    @property
    def sim(self) -> Simulator:
        return self.system.sim

    def run_for(self, duration: int) -> None:
        self.system.run_for(duration)


def _tt_state_out(mtype, period, d_acc=None) -> PortSpec:
    return PortSpec(message_type=mtype, direction=Direction.OUTPUT,
                    semantics=Semantics.STATE,
                    control=ControlParadigm.TIME_TRIGGERED,
                    tt=TTTiming(period=period), temporal_accuracy=d_acc)


def _et_state_in(mtype, d_acc=None) -> PortSpec:
    return PortSpec(message_type=mtype, direction=Direction.INPUT,
                    semantics=Semantics.STATE,
                    control=ControlParadigm.EVENT_TRIGGERED,
                    interaction=InteractionType.PULL, temporal_accuracy=d_acc)


def _et_event_out(mtype, priority=100, queue=32) -> PortSpec:
    return PortSpec(message_type=mtype, direction=Direction.OUTPUT,
                    semantics=Semantics.EVENT,
                    control=ControlParadigm.EVENT_TRIGGERED,
                    queue_depth=queue, priority=priority)


def _et_event_in(mtype, queue=32) -> PortSpec:
    return PortSpec(message_type=mtype, direction=Direction.INPUT,
                    semantics=Semantics.EVENT,
                    control=ControlParadigm.EVENT_TRIGGERED,
                    interaction=InteractionType.PUSH, queue_depth=queue)


def _roof_reception_monitor(tmin: int, tmax: int):
    """Fig. 6's msgSlidingRoofReception automaton, parameterized."""
    return (
        AutomatonBuilder("msgSlidingRoofReception")
        .parameter("tmin", tmin)
        .parameter("tmax", tmax)
        .location("statePassive", initial=True)
        .location("stateActive")
        .location("stateError", error=True)
        .on_receive("msgSlidingRoof", "statePassive", "stateActive",
                    guard="x >= tmin", assign="x := 0")
        .on_receive("msgSlidingRoof", "statePassive", "stateError", guard="x < tmin")
        .transition("stateActive", "statePassive", guard="x < tmax")
        .transition("statePassive", "stateError", guard="x >= tmax")
        .build()
    )


def build_car(config: CarConfig | None = None) -> CarSystem:
    """Assemble (and start) the integrated automotive system."""
    cfg = config if config is not None else CarConfig()
    vehicle = cfg.vehicle
    sim = Simulator(seed=cfg.seed,
                    trace=make_trace(cfg.trace_mode, cfg.trace_stream))
    if cfg.flow_tracing:
        sim.flows.enable()
    if cfg.profile:
        sim.enable_profiling()
    if cfg.round_template:
        sim.round_template.activate()
        # Pin the vehicle model's behavioural phase for replay:
        # transitions of the quantized dynamics veto replay around
        # them, steady phases are replayable.
        sim.round_template.register_participant(VehicleFingerprint(vehicle))
    builder = SystemBuilder(sim=sim, major_frame=cfg.major_frame,
                            guardian_enabled=cfg.guardian_enabled)
    for node in ("front-ecu", "center-ecu", "body-ecu", "nav-ecu"):
        builder.add_node(node)
    builder.add_das("abs", ControlParadigm.TIME_TRIGGERED)
    builder.add_das("xbywire", ControlParadigm.TIME_TRIGGERED)
    builder.add_das("navigation", ControlParadigm.EVENT_TRIGGERED)
    builder.add_das("presafe", ControlParadigm.EVENT_TRIGGERED)
    builder.add_das("comfort", ControlParadigm.EVENT_TRIGGERED)
    builder.add_das("dashboard", ControlParadigm.TIME_TRIGGERED)

    # ------------------------------------------------------------------
    # jobs
    # ------------------------------------------------------------------
    period = cfg.sensor_period
    builder.add_job(
        "wheel-sensor", "abs", "front-ecu",
        lambda sim, n, d, p: WheelSpeedSensor(sim, n, d, p, vehicle),
        ports=(_tt_state_out(signals.wheel_speed_type(), period),),
    )
    builder.add_job(
        "dyn-sensor", "abs", "front-ecu",
        lambda sim, n, d, p: DynamicsSensor(sim, n, d, p, vehicle),
        ports=(_tt_state_out(signals.vehicle_dynamics_type(), period),),
    )
    from .xbywire_das import BrakeByWireController

    builder.add_job(
        "brake-ctrl", "xbywire", "front-ecu",
        lambda sim, n, d, p: BrakeByWireController(sim, n, d, p, vehicle),
        ports=(_tt_state_out(signals.brake_cmd_type(), period),),
    )
    builder.add_job(
        "gps", "navigation", "nav-ecu",
        lambda sim, n, d, p: GpsReceiver(sim, n, d, p, vehicle,
                                         outages=cfg.gps_outages,
                                         noise_m=cfg.gps_noise_m),
        ports=(_et_event_out(signals.gps_fix_type(), priority=50),),
    )
    nav_ports = [_et_state_in(signals.gps_fix_type())]
    if cfg.nav_import:
        nav_ports.append(_et_state_in(signals.odometry_type(),
                                      d_acc=cfg.d_acc_odometry))
    builder.add_job(
        "navigator", "navigation", "nav-ecu",
        lambda sim, n, d, p: NavigationEstimator(sim, n, d, p, vehicle),
        ports=tuple(nav_ports),
    )
    presafe_ports = [
        _et_event_out(signals.roof_command_type(), priority=10),
        _et_event_out(signals.belt_command_type(), priority=10),
    ]
    if cfg.presafe_import:
        presafe_ports.append(_et_state_in(signals.dynamics_presafe_type(),
                                          d_acc=cfg.d_acc_dynamics))
    builder.add_job(
        "presafe", "presafe", "center-ecu",
        lambda sim, n, d, p: PreSafeController(sim, n, d, p),
        ports=tuple(presafe_ports),
    )
    builder.add_job(
        "belt-actuator", "presafe", "center-ecu",
        lambda sim, n, d, p: RecorderJob(sim, n, d, p),
        ports=(_et_event_in(signals.belt_command_type()),),
    )
    roof_ports = [_et_event_out(signals.sliding_roof_type(), priority=60)]
    if cfg.roof_command_export:
        roof_ports.append(_et_event_in(signals.roof_command_type()))
    builder.add_job(
        "roof", "comfort", "body-ecu",
        lambda sim, n, d, p: SlidingRoofController(
            sim, n, d, p, motion_plan=list(cfg.roof_motion_plan)),
        ports=tuple(roof_ports),
    )
    builder.add_job(
        "display", "dashboard", "body-ecu",
        lambda sim, n, d, p: RecorderJob(sim, n, d, p),
        ports=(PortSpec(
            message_type=signals.roof_state_type(), direction=Direction.INPUT,
            semantics=Semantics.STATE, control=ControlParadigm.TIME_TRIGGERED,
            tt=TTTiming(period=20 * MS), interaction=InteractionType.PUSH,
            temporal_accuracy=cfg.d_acc_roof,
        ),),
    )

    # ------------------------------------------------------------------
    # gateways
    # ------------------------------------------------------------------
    if cfg.nav_import:
        builder.add_gateway(GatewayDecl(
            name="gw-nav", host="center-ecu", das_a="abs", das_b="navigation",
            link_a=LinkSpec(das="abs", ports=(PortSpec(
                message_type=signals.wheel_speed_type(), direction=Direction.INPUT,
                semantics=Semantics.STATE, control=ControlParadigm.TIME_TRIGGERED,
                tt=TTTiming(period=period), temporal_accuracy=cfg.d_acc_odometry,
            ),)),
            link_b=LinkSpec(das="navigation", ports=(PortSpec(
                message_type=signals.odometry_type(), direction=Direction.OUTPUT,
                semantics=Semantics.STATE, control=ControlParadigm.EVENT_TRIGGERED,
                temporal_accuracy=cfg.d_acc_odometry, priority=40,
            ),)),
            rules=[("msgWheelSpeed", "msgOdometry", "a_to_b",
                    cfg.nav_import_filters)],
        ))
    if cfg.presafe_import:
        builder.add_gateway(GatewayDecl(
            name="gw-presafe", host="center-ecu", das_a="abs", das_b="presafe",
            link_a=LinkSpec(das="abs", ports=(PortSpec(
                message_type=signals.vehicle_dynamics_type(), direction=Direction.INPUT,
                semantics=Semantics.STATE, control=ControlParadigm.TIME_TRIGGERED,
                tt=TTTiming(period=period), temporal_accuracy=cfg.d_acc_dynamics,
            ),)),
            link_b=LinkSpec(das="presafe", ports=(PortSpec(
                message_type=signals.dynamics_presafe_type(), direction=Direction.OUTPUT,
                semantics=Semantics.STATE, control=ControlParadigm.EVENT_TRIGGERED,
                temporal_accuracy=cfg.d_acc_dynamics, priority=20,
            ),)),
            rules=[("msgVehicleDynamics", "msgDynamicsPreSafe", "a_to_b", None)],
        ))
    if cfg.roof_command_export:
        builder.add_gateway(GatewayDecl(
            name="gw-roof", host="center-ecu", das_a="presafe", das_b="comfort",
            link_a=LinkSpec(das="presafe", ports=(PortSpec(
                message_type=signals.roof_command_type(), direction=Direction.INPUT,
                semantics=Semantics.EVENT, control=ControlParadigm.EVENT_TRIGGERED,
                queue_depth=8,
            ),)),
            link_b=LinkSpec(das="comfort", ports=(PortSpec(
                message_type=signals.roof_command_type(), direction=Direction.OUTPUT,
                semantics=Semantics.EVENT, control=ControlParadigm.EVENT_TRIGGERED,
                queue_depth=8, priority=10,
            ),)),
            rules=[("msgRoofCommand", "msgRoofCommand", "a_to_b", None)],
        ))
    if cfg.dashboard_import:
        transfer = TransferSemantics(elements=(
            DerivedElement(
                name="MovementState", source_element="MovementEvent",
                fields=(
                    DerivedField.parse("StateValue",
                                       "StateValue=StateValue+ValueChange",
                                       semantics=Semantics.STATE, init=0),
                    DerivedField.parse("ObservationTime",
                                       "ObservationTime=EventTime",
                                       semantics=Semantics.STATE, init=0),
                ),
            ),
        ))
        builder.add_gateway(GatewayDecl(
            name="gw-dash", host="center-ecu", das_a="comfort", das_b="dashboard",
            link_a=LinkSpec(
                das="comfort",
                ports=(PortSpec(
                    message_type=signals.sliding_roof_type(), direction=Direction.INPUT,
                    semantics=Semantics.EVENT, control=ControlParadigm.EVENT_TRIGGERED,
                    et=ETTiming(min_interarrival=cfg.roof_tmin,
                                max_interarrival=cfg.roof_tmax),
                    queue_depth=16,
                ),),
                automata=(_roof_reception_monitor(cfg.roof_tmin, cfg.roof_tmax),),
                transfer=transfer,
            ),
            link_b=LinkSpec(das="dashboard", ports=(PortSpec(
                message_type=signals.roof_state_type(), direction=Direction.OUTPUT,
                semantics=Semantics.STATE, control=ControlParadigm.TIME_TRIGGERED,
                tt=TTTiming(period=20 * MS), temporal_accuracy=cfg.d_acc_roof,
            ),)),
            rules=[("msgSlidingRoof", "msgRoofState", "a_to_b", None)],
            restart_delay=50 * MS,
        ))

    system = builder.build()
    system.start()

    gps = system.job("gps")
    gps.vn = system.vn("navigation")
    roof = system.job("roof")
    roof.vn = system.vn("comfort")
    presafe = system.job("presafe")
    presafe.vn = system.vn("presafe")

    return CarSystem(
        system=system,
        config=cfg,
        vehicle=vehicle,
        wheel_sensor=system.job("wheel-sensor"),
        dynamics_sensor=system.job("dyn-sensor"),
        gps=gps,
        navigator=system.job("navigator"),
        presafe=presafe,
        roof=roof,
        display=system.job("display"),
        belt=system.job("belt-actuator"),
    )
