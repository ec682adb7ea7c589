"""The scenario registry: every runnable configuration, by name.

A :class:`ScenarioSpec` is pure data — builder key, seed, horizon,
trace mode, parameters — so it pickles across process boundaries and
hashes into a stable cache key.  The builder functions that turn a spec
into a live :class:`~repro.sim.Simulator` live in this module too, keyed
by name in :data:`BUILDERS`; a worker process rebuilds the whole model
from the spec, which is what makes per-scenario process isolation safe:
no live simulator state ever crosses a process boundary.

The default registry names the configurations the evaluation story
runs over and over: gateway-pipeline seed sweeps, the integrated car
and its coupling ablations, raw TDMA/VN throughput workloads, and
fault-injection scenarios.  ``smoke``-tagged entries are short-horizon
variants cheap enough for CI.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from fnmatch import fnmatch
from typing import Any

from ..errors import ConfigurationError
from ..sim import MS, SEC, Simulator, make_trace

__all__ = [
    "BUILDERS",
    "ScenarioSpec",
    "build_scenario",
    "default_registry",
    "derive_seed",
    "filter_scenarios",
]


def derive_seed(name: str, base_seed: int = 0) -> int:
    """Deterministic per-scenario seed: stable across machines and runs.

    Hash-derived (not ``base_seed + i``) so inserting a scenario into
    the registry never shifts every other scenario's seed.
    """
    digest = hashlib.sha256(f"{base_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**31)


@dataclass(frozen=True)
class ScenarioSpec:
    """One runnable configuration, as plain picklable data."""

    name: str
    builder: str
    horizon_ns: int
    seed: int
    trace_mode: str = "full"
    #: sorted (key, value) pairs — a tuple, not a dict/frozenset, so the
    #: JSON form (and therefore the cache key) is order-stable.
    params: tuple[tuple[str, Any], ...] = ()
    tags: tuple[str, ...] = ()

    def param(self, key: str, default: Any = None) -> Any:
        for k, v in self.params:
            if k == key:
                return v
        return default

    def with_param(self, key: str, value: Any) -> "ScenarioSpec":
        """A copy with one parameter set/overridden (sorted, so the
        cache key stays canonical)."""
        merged = {k: v for k, v in self.params}
        merged[key] = value
        return replace(self, params=tuple(sorted(merged.items())))

    def as_dict(self) -> dict:
        """Canonical JSON-able form (the cache-key input)."""
        return {
            "name": self.name,
            "builder": self.builder,
            "horizon_ns": self.horizon_ns,
            "seed": self.seed,
            "trace_mode": self.trace_mode,
            "params": {k: v for k, v in self.params},
            "tags": list(self.tags),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Rebuild a spec from its :meth:`as_dict` form (the ledger's
        replay audit re-executes recorded specs through this).

        JSON round-trips tuples into lists; builders already accept
        list-valued params (e.g. ``gps_outages``), so values are kept
        as deserialized.
        """
        return cls(
            name=str(data["name"]),
            builder=str(data["builder"]),
            horizon_ns=int(data["horizon_ns"]),
            seed=int(data["seed"]),
            trace_mode=str(data.get("trace_mode", "full")),
            params=tuple(sorted(dict(data.get("params", {})).items())),
            tags=tuple(data.get("tags", ())),
        )


def _spec(name: str, builder: str, horizon_ns: int, *, seed: int | None = None,
          base_seed: int = 0, trace_mode: str = "full", tags: tuple[str, ...] = (),
          **params: Any) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        builder=builder,
        horizon_ns=horizon_ns,
        seed=derive_seed(name, base_seed) if seed is None else seed,
        trace_mode=trace_mode,
        params=tuple(sorted(params.items())),
        tags=tuple(sorted(tags)),
    )


# ----------------------------------------------------------------------
# builders — ScenarioSpec -> ready-to-run Simulator
# ----------------------------------------------------------------------
def _build_gateway_pipeline(spec: ScenarioSpec) -> Simulator:
    """ET sensor DAS -> hidden gateway -> TT climate DAS (the E5 shape)."""
    from ..messaging import (
        ElementDef,
        FieldDef,
        IntType,
        MessageType,
        Semantics,
        TimestampType,
    )
    from ..platform import Job
    from ..spec import (
        ControlParadigm,
        Direction,
        InteractionType,
        LinkSpec,
        PortSpec,
        TTTiming,
    )
    from ..systems import GatewayDecl, SystemBuilder

    dst_period = spec.param("dst_period_ns", 20 * MS)
    sender_period = spec.param("sender_period_ns", 7 * MS)

    src = MessageType("msgSensorBundle", elements=(
        ElementDef("Name", key=True,
                   fields=(FieldDef("ID", IntType(16), static=True, static_value=1),)),
        ElementDef("Temp", convertible=True, semantics=Semantics.STATE,
                   fields=(FieldDef("c", IntType(16)),
                           FieldDef("t_src", TimestampType(32)),)),
        ElementDef("Humidity", convertible=True, semantics=Semantics.STATE,
                   fields=(FieldDef("pct", IntType(16)),)),
    ))
    dst = MessageType("msgClimateView", elements=(
        ElementDef("Name", key=True,
                   fields=(FieldDef("ID", IntType(16), static=True, static_value=2),)),
        ElementDef("Temp", convertible=True, semantics=Semantics.STATE,
                   fields=(FieldDef("c", IntType(16)),
                           FieldDef("t_src", TimestampType(32)),)),
    ))

    class Sender(Job):
        def __init__(self, jsim, name, das, partition):
            super().__init__(jsim, name, das, partition)
            self.vn = None
            self.sent = 0
            self._last = None

        def on_step(self):
            now = self.sim.now
            if self.vn is None:
                return
            if self._last is not None and now - self._last < sender_period:
                return
            self._last = now
            self.sent += 1
            self.vn.send("msgSensorBundle", src.instance(
                Temp={"c": self.sent % 40, "t_src": (now // 1000) % 2**32},
                Humidity={"pct": 50},
            ), sender_job=self.name)

        # -- round-template support (see repro.sim.round_template) -----
        def rt_state(self):
            c = super().rt_state()
            c["sent"] = self.sent
            c["last"] = -1 if self._last is None else self._last
            return c

        def rt_check(self, delta):
            # A round that sent left a queued chunk behind, which replay
            # cannot recreate: it never compiles.
            return delta["last"] == 0 and super().rt_check(delta)

        def rt_advance(self, delta, k):
            super().rt_advance(delta, k)
            self.sent += delta["sent"] * k

        def _idle_through(self, boundary, round_len):
            """No window in ``[boundary, boundary + round_len)`` can send."""
            return (self._last is not None
                    and boundary + round_len - 1 - self._last < sender_period)

        def rt_fingerprint(self, boundary, round_len):
            if not self.active or self.vn is None:
                return (int(self.active), 0)
            if self._last is None or boundary - self._last >= sender_period:
                return (1, 2)  # the round's first window sends
            if self._idle_through(boundary, round_len):
                return (1, 1)
            return None  # the period runs out inside this round

        def rt_headroom(self, boundary, round_len):
            if (self.active and self.vn is not None
                    and self._idle_through(boundary, round_len)):
                return (self._last + sender_period - boundary) // round_len
            return None

    class Viewer(Job):
        def __init__(self, jsim, name, das, partition):
            super().__init__(jsim, name, das, partition)
            self.deliveries = 0

        def on_message(self, port_name, instance, arrival):
            self.deliveries += 1

        # -- round-template support (see repro.sim.round_template) -----
        def rt_state(self):
            c = super().rt_state()
            c["deliveries"] = self.deliveries
            return c

        def rt_advance(self, delta, k):
            super().rt_advance(delta, k)
            self.deliveries += delta["deliveries"] * k

        def rt_fingerprint(self, boundary, round_len):
            return (int(self.active),)

    sim = Simulator(seed=spec.seed, trace=make_trace(spec.trace_mode))
    builder = SystemBuilder(sim=sim)
    builder.add_node("src-ecu").add_node("gw-ecu").add_node("dst-ecu")
    builder.add_das("sensors", ControlParadigm.EVENT_TRIGGERED)
    builder.add_das("climate", ControlParadigm.TIME_TRIGGERED)
    builder.add_job(
        "sender", "sensors", "src-ecu",
        lambda s, n, d, p: Sender(s, n, d, p),
        ports=(PortSpec(message_type=src, direction=Direction.OUTPUT,
                        semantics=Semantics.EVENT,
                        control=ControlParadigm.EVENT_TRIGGERED, queue_depth=32),),
    )
    builder.add_job(
        "viewer", "climate", "dst-ecu",
        lambda s, n, d, p: Viewer(s, n, d, p),
        ports=(PortSpec(message_type=dst, direction=Direction.INPUT,
                        semantics=Semantics.STATE,
                        control=ControlParadigm.TIME_TRIGGERED,
                        tt=TTTiming(period=dst_period),
                        interaction=InteractionType.PUSH,
                        temporal_accuracy=500 * MS),),
    )
    builder.add_gateway(GatewayDecl(
        name="gw", host="gw-ecu", das_a="sensors", das_b="climate",
        link_a=LinkSpec(das="sensors", ports=(PortSpec(
            message_type=src, direction=Direction.INPUT,
            semantics=Semantics.EVENT, control=ControlParadigm.EVENT_TRIGGERED,
            queue_depth=32,
        ),)),
        link_b=LinkSpec(das="climate", ports=(PortSpec(
            message_type=dst, direction=Direction.OUTPUT,
            semantics=Semantics.STATE, control=ControlParadigm.TIME_TRIGGERED,
            tt=TTTiming(period=dst_period), temporal_accuracy=500 * MS,
        ),)),
        rules=[("msgSensorBundle", "msgClimateView", "a_to_b", None)],
    ))
    system = builder.build()
    system.start()
    system.job("sender").vn = system.vn("sensors")

    crash_at = spec.param("crash_controller_at_ns")
    if crash_at is not None:
        from ..faults import ComponentCrash, FaultInjector

        injector = FaultInjector(sim)
        node = spec.param("crash_component", "src-ecu")
        injector.inject_at(
            ComponentCrash(name=f"crash.{node}", component=system.component(node)),
            at=crash_at,
        )
    return sim


def _build_car(spec: ScenarioSpec) -> Simulator:
    """The integrated automotive system with switchable couplings."""
    from ..apps import CarConfig, build_car

    config = CarConfig(
        seed=spec.seed,
        trace_mode=spec.trace_mode,
        nav_import=spec.param("nav_import", True),
        presafe_import=spec.param("presafe_import", True),
        roof_command_export=spec.param("roof_command_export", True),
        dashboard_import=spec.param("dashboard_import", True),
        gps_outages=[tuple(o) for o in spec.param("gps_outages", ())],
        round_template=spec.param("round_template", True),
    )
    return build_car(config).sim


def _build_tdma_cluster(spec: ScenarioSpec) -> Simulator:
    """Raw TDMA throughput: an N-node TT cluster exchanging chunks."""
    from ..core_network import ClusterBuilder, FrameChunk, NodeConfig

    nodes = spec.param("nodes", 4)
    sim = Simulator(seed=spec.seed, trace=make_trace(spec.trace_mode))
    builder = ClusterBuilder(sim)
    for i in range(nodes):
        builder.add_node(NodeConfig(f"n{i}", slot_capacity_bytes=32,
                                    reservations={"v": 20}))
    cluster = builder.build()
    cluster.start()
    cluster.controller("n0").register_chunk_source(
        "v", lambda slot, budget: [FrameChunk(vn="v", message="m",
                                              data=b"\x01\x02")])

    babble_at = spec.param("babble_at_ns")
    if babble_at is not None:
        from ..faults import BabblingIdiot, FaultInjector

        injector = FaultInjector(sim)
        ctrl = cluster.controller(spec.param("babble_component", f"n{nodes - 1}"))
        injector.inject_at(
            BabblingIdiot(name=f"babble.{ctrl.component}", controller=ctrl),
            at=babble_at,
            until=spec.param("babble_until_ns"),
        )
    return sim


def _build_tt_vn(spec: ScenarioSpec) -> Simulator:
    """A TT virtual network delivering through the full overlay stack."""
    from ..core_network import ClusterBuilder, NodeConfig
    from ..messaging import (
        ElementDef,
        FieldDef,
        IntType,
        MessageType,
        Namespace,
        Semantics,
    )
    from ..spec import TTTiming
    from ..vn import TTVirtualNetwork

    sim = Simulator(seed=spec.seed, trace=make_trace(spec.trace_mode))
    builder = ClusterBuilder(sim)
    builder.add_node(NodeConfig("a", slot_capacity_bytes=48,
                                reservations={"das": 30}))
    builder.add_node(NodeConfig("b", slot_capacity_bytes=48,
                                reservations={"das": 30}))
    cluster = builder.build()
    cluster.start()
    mt = MessageType("m", elements=(
        ElementDef("D", convertible=True, semantics=Semantics.STATE,
                   fields=(FieldDef("v", IntType(32)),)),
    ))
    ns = Namespace("das")
    ns.register(mt)
    vn = TTVirtualNetwork(sim, "das", cluster, ns)
    counter = {"n": 0}
    vn.attach_gateway_producer(
        "m", "a", provider=lambda: mt.instance(D={"v": counter["n"]}))
    vn.set_timing("m", TTTiming(period=cluster.schedule.cycle_length))
    vn.tap("m", "b", lambda m, i, t: counter.__setitem__("n", counter["n"] + 1))
    vn.start()
    return sim


def _build_generated(spec: ScenarioSpec) -> Simulator:
    """Procedurally generated N×M×K relay-chain cluster (lazy import so
    the generator package never loads unless a generated spec runs —
    and so ledger replay of recorded generated specs resolves through
    the ordinary registry)."""
    from ..generate import build_generated

    return build_generated(spec)


BUILDERS: dict[str, Callable[[ScenarioSpec], Simulator]] = {
    "gateway_pipeline": _build_gateway_pipeline,
    "car": _build_car,
    "tdma_cluster": _build_tdma_cluster,
    "tt_vn": _build_tt_vn,
    "generated": _build_generated,
}


def build_scenario(spec: ScenarioSpec) -> Simulator:
    """Instantiate the model a spec describes on a fresh simulator.

    Cross-builder params are honored here so every scenario kind
    supports them uniformly: ``flow_tracing`` (causal flow records; off
    by default so the golden digests of untagged scenarios are
    untouched), ``profile`` (wall-clock handler attribution — never use
    it in a digest-compared scenario, wall time is nondeterministic),
    and ``pace`` (run on the wall-clock
    :class:`~repro.sim.runtime.AsyncioBridgedRuntime` paced at that
    ratio; unset leaves the builder's zero-cost simulated runtime in
    place, and digests are identical either way).
    """
    try:
        builder = BUILDERS[spec.builder]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario builder {spec.builder!r} "
            f"(known: {sorted(BUILDERS)})"
        ) from None
    sim = builder(spec)
    pace = spec.param("pace")
    if pace is not None:
        from ..sim import AsyncioBridgedRuntime

        sim.set_runtime(AsyncioBridgedRuntime(pace=pace))
    if spec.param("flow_tracing"):
        sim.flows.enable()
    if spec.param("profile"):
        sim.enable_profiling()
    if spec.param("round_template", True):
        # Steady-state fast-forward, on by default for scenario runs
        # (``round_template: False`` — the CLI's --no-round-template —
        # keeps exact event-by-event execution).  Scenarios with ET
        # traffic and gateways (the car family, the gateway pipeline)
        # arm too: their dynamics participate via fingerprints.  Arming
        # additionally requires a runtime that supports templates (only
        # ``sim``).
        sim.round_template.activate()
    return sim


# ----------------------------------------------------------------------
# the default registry
# ----------------------------------------------------------------------
def default_registry(base_seed: int = 0) -> dict[str, ScenarioSpec]:
    """Every named configuration, in a deterministic order.

    ``base_seed`` re-derives every hash-derived seed, so a whole sweep
    can be replayed under a different seed universe with one flag; the
    explicitly-seeded anchors (``gw-pipeline-s5``) keep their seed.
    """
    specs = [
        # --- gateway pipeline: the E5 anchor plus a seed sweep --------
        _spec("gw-pipeline-s5", "gateway_pipeline", 1 * SEC, seed=5,
              tags=("gateway", "sweep")),
        *(
            _spec(f"gw-pipeline-seed{i}", "gateway_pipeline", 1 * SEC,
                  base_seed=base_seed, tags=("gateway", "seeds", "sweep"))
            for i in range(3)
        ),
        _spec("gw-pipeline-smoke", "gateway_pipeline", 200 * MS, seed=5,
              tags=("gateway", "smoke")),
        _spec("gw-pipeline-flow", "gateway_pipeline", 500 * MS, seed=5,
              tags=("flow", "gateway"), flow_tracing=True),
        # --- the integrated car and its coupling ablations ------------
        _spec("car-baseline", "car", 2 * SEC, seed=0, trace_mode="counters",
              tags=("car", "sweep")),
        _spec("car-strict-separation", "car", 2 * SEC, seed=0,
              trace_mode="counters",
              tags=("ablation", "car", "sweep"),
              nav_import=False, presafe_import=False,
              roof_command_export=False, dashboard_import=False),
        _spec("car-gps-outage", "car", 2 * SEC, seed=0, trace_mode="counters",
              tags=("ablation", "car"),
              gps_outages=((500 * MS, 1500 * MS),)),
        _spec("car-smoke", "car", 500 * MS, seed=0, trace_mode="counters",
              tags=("car", "smoke")),
        _spec("car-flow", "car", 500 * MS, seed=0,
              tags=("car", "flow"), flow_tracing=True),
        # --- raw substrate workloads ----------------------------------
        _spec("tdma-cluster", "tdma_cluster", 1 * SEC,
              base_seed=base_seed, tags=("core", "sweep"), nodes=4),
        _spec("tdma-smoke", "tdma_cluster", 250 * MS,
              base_seed=base_seed, tags=("core", "smoke"), nodes=4),
        _spec("tt-vn-pipeline", "tt_vn", 1 * SEC,
              base_seed=base_seed, tags=("sweep", "vn")),
        # --- fault ablations ------------------------------------------
        _spec("fault-controller-crash", "gateway_pipeline", 1 * SEC,
              base_seed=base_seed, tags=("fault", "sweep"),
              crash_controller_at_ns=300 * MS, crash_component="src-ecu"),
        _spec("fault-babbling-idiot", "tdma_cluster", 1 * SEC,
              base_seed=base_seed, tags=("fault", "sweep"),
              nodes=4, babble_at_ns=200 * MS, babble_until_ns=600 * MS),
    ]
    registry: dict[str, ScenarioSpec] = {}
    for spec in specs:
        if spec.name in registry:
            raise ConfigurationError(f"duplicate scenario name {spec.name!r}")
        registry[spec.name] = spec
    return registry


def filter_scenarios(
    registry: dict[str, ScenarioSpec], tokens: list[str] | None
) -> list[ScenarioSpec]:
    """Select scenarios whose name globs or tags match any token.

    ``None``/empty selects everything.  Tokens are OR-ed; each matches
    either a tag exactly or the scenario name as an ``fnmatch`` glob.
    """
    specs = list(registry.values())
    if not tokens:
        return specs
    out = []
    for spec in specs:
        for token in tokens:
            if token in spec.tags or fnmatch(spec.name, token):
                out.append(spec)
                break
    return out
