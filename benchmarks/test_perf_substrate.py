"""P1 — substrate performance (simulator throughput, not paper figures).

These are conventional pytest-benchmark microbenchmarks (multiple
rounds) so regressions in the hot paths — the event kernel, the bit
codec, the TDMA pipeline, the gateway pipeline — show up as wall-clock
changes.  They complement the E-experiments, which assert model
*behaviour* rather than speed.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from dataclasses import field as dc_field
from datetime import datetime, timezone
from pathlib import Path

from repro.core_network import ClusterBuilder, FrameChunk, NodeConfig
from repro.messaging import Namespace, Semantics
from repro.runner import provenance, update_bench_json
from repro.sim import MS, CounterSink, Simulator, TraceLog, make_trace
from repro.spec import (
    ControlParadigm,
    Direction,
    InteractionType,
    LinkSpec,
    PortSpec,
    TTTiming,
)
from repro.vn import TTVirtualNetwork


def test_perf_kernel_event_throughput(benchmark):
    """Schedule+execute 50k self-rescheduling events."""

    def run() -> int:
        sim = Simulator()
        count = {"n": 0}

        def tick():
            count["n"] += 1
            if count["n"] < 50_000:
                sim.after(10, tick)

        sim.at(0, tick)
        sim.run()
        return count["n"]

    assert benchmark(run) == 50_000


@dataclass(order=True, slots=True)
class _SeedEvent:
    """The seed's heap entry, field-for-field: a dataclass compared via
    its generated ``__lt__``, which builds two ``(time, priority, seq)``
    tuples per heap-sift comparison."""

    time: int
    priority: int
    seq: int
    callback: object = dc_field(compare=False)
    cancelled: bool = dc_field(default=False, compare=False)
    label: str = dc_field(default="", compare=False)
    _queue: object = dc_field(default=None, compare=False, repr=False)


class _SeedKernel:
    """Faithful replica of the seed's hot path, for comparison.

    Events sit directly in the heap (Python-level ``__lt__`` on every
    sift step), ``push`` constructs the full seven-field event with the
    queue backref, and ``run_until`` runs the seed's peek / bail /
    ``step()`` sequence — ``step()`` re-peeked, so every event cost two
    ``peek_time`` calls plus a ``pop``.
    """

    def __init__(self) -> None:
        self._heap: list[_SeedEvent] = []
        self._seq = 0
        self.now = 0
        self.events_executed = 0

    def _push(self, t: int, callback, priority: int, label: str) -> _SeedEvent:
        if t < 0:
            raise ValueError(t)
        ev = _SeedEvent(time=t, priority=priority, seq=self._seq,
                        callback=callback, label=label, _queue=self)
        self._seq += 1
        heapq.heappush(self._heap, ev)
        return ev

    def at(self, t: int, callback, priority: int = 30, label: str = "") -> _SeedEvent:
        if t < self.now:
            raise ValueError(t)
        return self._push(t, callback, priority, label)

    def after(self, delay: int, callback, priority: int = 30,
              label: str = "") -> _SeedEvent:
        if delay < 0:
            raise ValueError(delay)
        return self._push(self.now + delay, callback, priority, label)

    def _peek_time(self) -> int | None:
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
        return heap[0].time if heap else None

    def _step(self) -> None:
        self._peek_time()  # the seed's step() re-peeked before popping
        ev = heapq.heappop(self._heap)
        ev._queue = None
        self.now = ev.time
        self.events_executed += 1
        ev.callback()

    def run_until(self, t: int) -> None:
        while True:
            nxt = self._peek_time()
            if nxt is None or nxt > t:
                break
            self._step()
        if self.now < t:
            self.now = t


def test_perf_kernel_batched_drain(run_once):
    """The batched tuple-heap ``run_until`` vs the seed's peek/pop loop.

    The baseline (:class:`_SeedKernel`) replicates what the kernel did
    before the optimization: dataclass events compared by a generated
    ``__lt__`` inside the heap, and a peek+peek+pop round-trip per
    event.  The optimized side is the real :class:`Simulator`, whose
    queue stores ``(time, priority, seq, event)`` int-tuples (C-level
    heap compares) and drains ready events in batches.  The workload is
    a burst shape — 128 aligned self-rescheduling chains, so every
    instant offers a deep batch — which is where the E-experiment
    models spend their time (TDMA rounds dispatch many events per slot
    boundary).  Batched must be at least 1.2x faster; numbers land in
    the ``kernel`` section of ``BENCH_substrate.json``.
    """
    CHAINS = 128
    PERIOD = 10_000  # 10 us
    HORIZON = 4 * MS  # -> ~400 bursts of 128 events

    def build(kernel) -> dict:
        count = {"n": 0}

        def tick():
            count["n"] += 1
            kernel.after(PERIOD, tick)

        for _ in range(CHAINS):
            kernel.at(0, tick)
        return count

    REPS = 5

    def best_of(make_kernel) -> tuple[float, int]:
        best = float("inf")
        events = 0
        for _ in range(REPS):
            kernel = make_kernel()
            count = build(kernel)
            t0 = time.perf_counter()
            kernel.run_until(HORIZON)
            best = min(best, time.perf_counter() - t0)
            events = count["n"]
        return best, events

    def run() -> dict:
        batched_s, batched_n = best_of(Simulator)
        seed_s, seed_n = best_of(_SeedKernel)
        assert batched_n == seed_n  # identical workload either way
        return {
            "workload": f"{CHAINS} aligned chains, {batched_n} events",
            "events": batched_n,
            "batched_s": round(batched_s, 6),
            "seed_loop_s": round(seed_s, 6),
            "batched_speedup": round(seed_s / batched_s, 3),
            "provenance": provenance(
                timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
                iterations=REPS),
        }

    result = run_once(run)
    out = Path(__file__).resolve().parent.parent / "BENCH_substrate.json"
    update_bench_json(out, "kernel", result)
    assert result["batched_speedup"] >= 1.2, result


def test_perf_codec_roundtrip(benchmark):
    """Encode+decode 2000 instances of the Fig. 6 message."""
    from repro.spec import FIG6_CANONICAL, parse_link_spec

    mt = parse_link_spec(FIG6_CANONICAL).message_types()["msgSlidingRoof"]
    inst = mt.instance(MovementEvent={"ValueChange": 5, "EventTime": 123})

    def run() -> int:
        n = 0
        for _ in range(2000):
            out = mt.decode(mt.encode(inst))
            n += out.get("MovementEvent", "ValueChange")
        return n

    assert benchmark(run) == 10_000


def test_perf_tdma_cluster(benchmark):
    """One simulated second of a 4-node TT cluster with traffic."""

    def run() -> int:
        sim = Simulator()
        builder = ClusterBuilder(sim)
        for i in range(4):
            builder.add_node(NodeConfig(f"n{i}", slot_capacity_bytes=32,
                                        reservations={"v": 20}))
        cluster = builder.build()
        cluster.start()
        cluster.controller("n0").register_chunk_source(
            "v", lambda slot, budget: [FrameChunk(vn="v", message="m",
                                                  data=b"\x01\x02")])
        got = {"n": 0}
        cluster.controller("n1").register_receiver(
            "v", lambda c, t: got.__setitem__("n", got["n"] + 1))
        sim.run_until(1_000 * MS)
        return got["n"]

    assert benchmark(run) > 1_000


def test_perf_tt_vn_pipeline(benchmark):
    """One simulated second of a TT VN delivering through the stack."""

    def run() -> int:
        sim = Simulator()
        builder = ClusterBuilder(sim)
        builder.add_node(NodeConfig("a", slot_capacity_bytes=48,
                                    reservations={"das": 30}))
        builder.add_node(NodeConfig("b", slot_capacity_bytes=48,
                                    reservations={"das": 30}))
        cluster = builder.build()
        cluster.start()
        cyc = cluster.schedule.cycle_length
        from repro.messaging import ElementDef, FieldDef, IntType, MessageType, Semantics

        mt = MessageType("m", elements=(
            ElementDef("D", convertible=True, semantics=Semantics.STATE,
                       fields=(FieldDef("v", IntType(32)),)),
        ))
        ns = Namespace("das")
        ns.register(mt)
        vn = TTVirtualNetwork(sim, "das", cluster, ns)
        k = {"n": 0}
        vn.attach_gateway_producer(
            "m", "a", provider=lambda: mt.instance(D={"v": k["n"]}))
        vn.set_timing("m", TTTiming(period=cyc))
        vn.tap("m", "b", lambda m, i, t: k.__setitem__("n", k["n"] + 1))
        vn.start()
        sim.run_until(1_000 * MS)
        return k["n"]

    assert benchmark(run) > 1_000


# ----------------------------------------------------------------------
# trace-mode overhead on the gateway pipeline
# ----------------------------------------------------------------------
def _build_gateway_pipeline(sim: Simulator):
    """The E5 shape (ET sensor DAS -> hidden gateway -> TT climate DAS)
    on a caller-supplied simulator, so trace modes can be compared."""
    from repro.systems import GatewayDecl, SystemBuilder
    from test_e5_gateway_pipeline import BundleSender, ViewConsumer, dst_type, src_type

    dst_period = 20 * MS
    builder = SystemBuilder(sim=sim)
    builder.add_node("src-ecu").add_node("gw-ecu").add_node("dst-ecu")
    builder.add_das("sensors", ControlParadigm.EVENT_TRIGGERED)
    builder.add_das("climate", ControlParadigm.TIME_TRIGGERED)
    builder.add_job(
        "sender", "sensors", "src-ecu",
        lambda s, n, d, p: BundleSender(s, n, d, p),
        ports=(PortSpec(message_type=src_type(), direction=Direction.OUTPUT,
                        semantics=Semantics.EVENT,
                        control=ControlParadigm.EVENT_TRIGGERED, queue_depth=32),),
    )
    builder.add_job(
        "viewer", "climate", "dst-ecu",
        lambda s, n, d, p: ViewConsumer(s, n, d, p),
        ports=(PortSpec(message_type=dst_type(), direction=Direction.INPUT,
                        semantics=Semantics.STATE,
                        control=ControlParadigm.TIME_TRIGGERED,
                        tt=TTTiming(period=dst_period),
                        interaction=InteractionType.PUSH,
                        temporal_accuracy=500 * MS),),
    )
    builder.add_gateway(GatewayDecl(
        name="gw", host="gw-ecu", das_a="sensors", das_b="climate",
        link_a=LinkSpec(das="sensors", ports=(PortSpec(
            message_type=src_type(), direction=Direction.INPUT,
            semantics=Semantics.EVENT, control=ControlParadigm.EVENT_TRIGGERED,
            queue_depth=32,
        ),)),
        link_b=LinkSpec(das="climate", ports=(PortSpec(
            message_type=dst_type(), direction=Direction.OUTPUT,
            semantics=Semantics.STATE, control=ControlParadigm.TIME_TRIGGERED,
            tt=TTTiming(period=dst_period), temporal_accuracy=500 * MS,
        ),)),
        rules=[("msgSensorBundle", "msgClimateView", "a_to_b", None)],
    ))
    system = builder.build()
    system.start()
    system.job("sender").vn = system.vn("sensors")
    return system


def test_perf_gateway_trace_modes(run_once):
    """Counters-only tracing vs full tracing on the gateway pipeline.

    Captures the instrumentation workload (every record the pipeline
    emits in 500 simulated ms), then replays it against the two trace
    front-ends: the full path builds and stores a ``TraceRecord`` per
    call, the counters path takes the ``wants()``/``tick()`` fast path.
    Counters-only must be at least 25% faster.  End-to-end run times per
    mode are also measured (informational: there the whole model runs,
    so tracing is a minor share).  Everything lands in
    ``BENCH_substrate.json``.
    """

    def capture_ops() -> list:
        sim = Simulator(seed=5)
        system = _build_gateway_pipeline(sim)
        system.run_for(500 * MS)
        return [(r.time, r.category, r.source, dict(r.detail))
                for r in sim.trace.records()]

    def replay_full(ops) -> float:
        best = float("inf")
        for _ in range(5):
            tr = TraceLog()
            t0 = time.perf_counter()
            for t, cat, srcname, detail in ops:
                tr.record(t, cat, srcname, **detail)
            best = min(best, time.perf_counter() - t0)
            assert len(tr) == len(ops)
        return best

    def replay_counters(ops) -> float:
        best = float("inf")
        for _ in range(5):
            tr = TraceLog(sinks=[CounterSink()])
            t0 = time.perf_counter()
            for t, cat, srcname, detail in ops:
                if tr.wants(cat):
                    tr.record(t, cat, srcname, **detail)
                else:
                    tr.tick(cat)
            best = min(best, time.perf_counter() - t0)
            assert sum(tr.category_counts().values()) == len(ops)
        return best

    def end_to_end(mode: str) -> float:
        sim = Simulator(seed=5, trace=make_trace(mode))
        system = _build_gateway_pipeline(sim)
        t0 = time.perf_counter()
        system.run_for(500 * MS)
        return time.perf_counter() - t0

    def run() -> dict:
        ops = capture_ops()
        full_s = replay_full(ops)
        counters_s = replay_counters(ops)
        return {
            "trace_ops": len(ops),
            "replay_full_s": round(full_s, 6),
            "replay_counters_s": round(counters_s, 6),
            "counters_speedup": round(full_s / counters_s, 3),
            "end_to_end_full_s": round(end_to_end("full"), 6),
            "end_to_end_counters_s": round(end_to_end("counters"), 6),
            "provenance": provenance(
                timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
                iterations=5),
        }

    gp = run_once(run)
    out = Path(__file__).resolve().parent.parent / "BENCH_substrate.json"
    update_bench_json(out, "gateway_pipeline", gp)
    assert gp["trace_ops"] > 10_000
    # Counters-only skips record construction entirely: >= 25% faster.
    assert gp["replay_counters_s"] <= 0.75 * gp["replay_full_s"], gp


# ----------------------------------------------------------------------
# round-template steady-state fast-forward
# ----------------------------------------------------------------------
def test_perf_round_template_fast_forward(run_once):
    """Compiled-round replay vs exact event-by-event execution.

    The two pure-TT sweep scenarios run twice each: once with the
    round-template engine (the sweep default) and once with
    ``round_template: False`` (the ``--no-round-template`` escape
    hatch).  Both sides produce byte-identical trace digests — that is
    asserted here, and proven scenario-by-scenario in
    ``tests/test_round_template.py`` — so the speedup is pure
    fast-forward, not behavioural drift.  Each pure-TT scenario must be
    at least 3x faster; numbers land in the ``round_template`` section
    of ``BENCH_substrate.json``.
    """
    from repro.runner.executor import run_scenario
    from repro.runner.scenarios import build_scenario, default_registry

    SCENARIOS = ("tdma-cluster", "tt-vn-pipeline")
    REPS = 3
    registry = default_registry()

    def best_of(spec) -> tuple[float, dict]:
        best = float("inf")
        result: dict = {}
        for _ in range(REPS):
            t0 = time.perf_counter()
            result = run_scenario(spec)
            best = min(best, time.perf_counter() - t0)
        assert "error" not in result, result
        return best, result

    def run() -> dict:
        section: dict = {}
        for name in SCENARIOS:
            spec = registry[name]
            fast_s, fast = best_of(spec)
            slow_s, slow = best_of(spec.with_param("round_template", False))
            assert fast["digest"] == slow["digest"], name
            sim = build_scenario(spec)
            sim.run_until(spec.horizon_ns)
            sim.trace.close()
            stats = sim.round_template.stats()
            assert stats["rounds_replayed"] > 0, name
            section[name.replace("-", "_")] = {
                "fast_forward_s": round(fast_s, 6),
                "event_by_event_s": round(slow_s, 6),
                "speedup": round(slow_s / fast_s, 3),
                "rounds_replayed": stats["rounds_replayed"],
                "round_length_ns": stats["round_length_ns"],
                "digests_identical": True,
            }
        section["provenance"] = provenance(
            timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            iterations=REPS)
        return section

    rt = run_once(run)
    out = Path(__file__).resolve().parent.parent / "BENCH_substrate.json"
    update_bench_json(out, "round_template", rt)
    for name in SCENARIOS:
        entry = rt[name.replace("-", "_")]
        assert entry["speedup"] >= 3.0, (name, entry)


# ----------------------------------------------------------------------
# round-template v2: mixed TT/ET arming + persistent template bank
# ----------------------------------------------------------------------
def test_perf_round_template_v2(run_once, tmp_path):
    """Round-template fast path and warm starts on the car scenario.

    ``car-baseline`` mixes TT rounds with ET chunk traffic, GPS bursts
    and partition-guard windows.  The engine's per-round fingerprints
    let it replay the recurring round classes between those live
    punctuations.  Three configurations run, all byte-identical by
    digest:

    - *event_by_event* — ``round_template: False``, the honest baseline;
    - *cold* — round-template arming, empty template store (compiles
      templates while running, persists the bank);
    - *warm* — same spec again, templates loaded from the persisted
      bank, so replay starts from the first recurrence.

    The speedups here are bounded by structure, not implementation: the
    partition-guard windows fire every 2 ms against a 224.4 us round, so
    ~96% of replay spans cap at 1-4 rounds and the live-event share is
    irreducible.  The recorded numbers are the measured reality (about
    1.5x cold / 1.6x warm on the 1-CPU CI box), and the floors assert
    against regression, not against an aspirational 10x.
    """
    from repro.runner.executor import run_scenario
    from repro.runner.scenarios import default_registry

    REPS = 3
    spec = default_registry()["car-baseline"]
    root = str(tmp_path / "tpl")

    def best_of(spec, template_root=None) -> tuple[float, dict]:
        best = float("inf")
        result: dict = {}
        for _ in range(REPS):
            t0 = time.perf_counter()
            result = run_scenario(spec, template_root=template_root)
            best = min(best, time.perf_counter() - t0)
        assert "error" not in result, result
        return best, result

    def run() -> dict:
        slow_s, slow = best_of(spec.with_param("round_template", False))
        # Populate the store once (not timed), then time cold and warm.
        seed = run_scenario(spec, template_root=root)
        assert seed["template_cache"]["stored"], seed["template_cache"]
        cold_s, cold = best_of(spec)
        warm_s, warm = best_of(spec, template_root=root)
        assert cold["digest"] == slow["digest"]
        assert warm["digest"] == slow["digest"]
        assert warm["template_cache"]["hit"]
        assert warm["template_cache"]["templates_loaded"] >= 1
        assert warm["template_cache"]["load_failures"] == 0
        return {
            "scenario": spec.name,
            "event_by_event_s": round(slow_s, 6),
            "cold_s": round(cold_s, 6),
            "warm_s": round(warm_s, 6),
            "cold_speedup": round(slow_s / cold_s, 3),
            "warm_speedup": round(slow_s / warm_s, 3),
            "warm_load_speedup": round(cold_s / warm_s, 3),
            "rounds_replayed_cold": cold["round_template"]["rounds_replayed"],
            "rounds_replayed_warm": warm["round_template"]["rounds_replayed"],
            "templates_loaded_warm":
                warm["template_cache"]["templates_loaded"],
            "digests_identical": True,
            "provenance": provenance(
                timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
                iterations=REPS),
        }

    v2 = run_once(run)
    out = Path(__file__).resolve().parent.parent / "BENCH_substrate.json"
    update_bench_json(out, "round_template_v2", v2)
    # Measured: ~1.5x cold, ~1.6x warm.  Floors are regression guards;
    # the warm run re-parses the persisted bank each rep, so its edge
    # over cold is real but thin (~7%) — assert it is not a slowdown.
    assert v2["cold_speedup"] >= 1.2, v2
    assert v2["warm_speedup"] >= 1.3, v2
    assert v2["warm_load_speedup"] >= 0.95, v2
    assert v2["rounds_replayed_warm"] >= v2["rounds_replayed_cold"]
