"""Round-template fast-forward: golden-digest parity and puncture tests.

The engine's correctness claim is byte-for-byte equivalence: a run with
steady-state fast-forward enabled must produce the identical trace
digest, metrics snapshot, event count, and final clock as the exact
event-by-event run.  These tests prove that claim over every registered
sweep scenario (including both fault scenarios), check that the fast
path genuinely engages where it should, and exercise mid-round
puncturing by dynamic activity.
"""

from __future__ import annotations

import pytest

from repro.check.determinism import (
    DEFAULT_LINT_PACKAGES,
    default_lint_roots,
    lint_paths,
)
from repro.runner.executor import run_scenario
from repro.runner.scenarios import build_scenario, default_registry

REGISTRY = default_registry()

# Scenarios whose model is a pure-TT cluster: the fast path must not
# merely be *legal* there, it must actually replay rounds.
REPLAYING = ("tdma-cluster", "tdma-smoke", "tt-vn-pipeline")


_VOLATILE = ("wall_s", "digest_s", "round_template")


def _comparable(result: dict) -> dict:
    """Everything observable in a result, minus wall-clock noise and the
    engine's own bookkeeping (replay counts legitimately differ between
    fast and slow runs; behaviour must not)."""
    return {k: v for k, v in result.items() if k not in _VOLATILE}


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_fast_forward_parity(name: str) -> None:
    """Fast-forward on vs. off: identical observable results, every
    scenario — including fault-controller-crash and fault-babbling-idiot,
    whose injectors puncture the template mid-run."""
    spec = REGISTRY[name]
    fast = run_scenario(spec)
    slow = run_scenario(spec.with_param("round_template", False))
    assert "error" not in fast and "error" not in slow
    assert _comparable(fast) == _comparable(slow)


@pytest.mark.parametrize("name", REPLAYING)
def test_fast_forward_actually_engages(name: str) -> None:
    """On pure-TT scenarios the engine must compile a template and
    replay rounds — parity alone could pass with the engine dormant.
    Replayed rounds must cover at least 99% of the horizon: a
    deterministic floor on how much work fast-forward skips."""
    spec = REGISTRY[name]
    sim = build_scenario(spec)
    try:
        sim.run_until(spec.horizon_ns)
    finally:
        sim.trace.close()
    stats = sim.round_template.stats()
    assert stats["active"]
    assert stats["recordings"] >= 1
    assert stats["replays"] >= 1
    assert stats["rounds_replayed"] > 100
    covered = stats["rounds_replayed"] * stats["round_length_ns"]
    assert covered >= 0.99 * spec.horizon_ns


def _run_registry(name: str) -> dict:
    spec = REGISTRY[name]
    sim = build_scenario(spec)
    try:
        sim.run_until(spec.horizon_ns)
    finally:
        sim.trace.close()
    return sim.round_template.stats()


def test_gateway_pipeline_replays_and_unported_jobs_keep_engine_off() -> None:
    """The gateway pipeline's jobs declare replayable fingerprints, so
    its ET network, hidden gateway and TT network replay at least 80% of
    the rounds.  A job that declares none keeps the base
    ``rt_fingerprint = None``, a permanent veto: with one added to the
    same model the engine stays off for the whole run (nothing is
    recorded or replayed) and its stats name the vetoing class."""
    from repro.platform import Job, Partition

    spec = REGISTRY["gw-pipeline-smoke"]
    stats = _run_registry("gw-pipeline-smoke")
    assert stats["static_veto"] == []
    rounds = spec.horizon_ns // stats["round_length_ns"]
    assert stats["rounds_replayed"] >= 0.8 * rounds

    class Unported(Job):
        pass

    sim = build_scenario(spec)
    partition = next(p for p in sim.round_template._participants
                     if isinstance(p, Partition))
    Unported(sim, "unported", partition.jobs[0].das, partition)
    try:
        sim.run_until(spec.horizon_ns)
    finally:
        sim.trace.close()
    stats = sim.round_template.stats()
    assert stats["active"]
    assert stats["recordings"] == 0
    assert stats["replays"] == 0
    assert stats["static_veto"] == ["Unported"]


def test_vetoes_name_the_participants_that_keep_rounds_live() -> None:
    """``stats()["vetoes"]`` counts, per participant class, the
    boundaries where it was the first to veto; a pure-TT cluster whose
    rounds all replay has none."""
    vetoes = _run_registry("gw-pipeline-smoke")["vetoes"]
    assert vetoes.get("Sender", 0) > 0 and vetoes.get("Partition", 0) > 0
    assert _run_registry("tdma-cluster")["vetoes"] == {}


class _ExitVeto:
    """Toy participant: unvetoed at even-numbered boundaries, vetoing at
    odd ones, so every round that enters unvetoed exits on a veto."""

    def __init__(self, round_len: int) -> None:
        self.round_len = round_len

    def rt_state(self) -> dict[str, int]:
        return {}

    def rt_check(self, delta: dict[str, int]) -> bool:
        return True

    def rt_advance(self, delta: dict[str, int], k: int) -> None:
        pass

    def rt_fingerprint(self, boundary: int, round_len: int) -> tuple | None:
        return None if (boundary // self.round_len) % 2 else (0,)


@pytest.mark.parametrize("mode", ["full", "counters"])
def test_round_with_vetoed_exit_never_compiles(mode: str) -> None:
    """A round compiles only when the boundary that closes it is
    unvetoed: the exit veto marks hidden state the round left behind."""
    from repro.core_network import ClusterBuilder, FrameChunk, NodeConfig
    from repro.sim import MS, Simulator, make_trace

    def run(participant: bool) -> dict:
        sim = Simulator(seed=3, trace=make_trace(mode))
        sim.round_template.activate()
        builder = ClusterBuilder(sim)
        for name in ("n0", "n1"):
            builder.add_node(NodeConfig(name, slot_capacity_bytes=32,
                                        reservations={"v": 20}))
        cluster = builder.build()
        cluster.start()
        cluster.controller("n0").register_chunk_source(
            "v", lambda slot, budget: [FrameChunk(vn="v", message="m",
                                                  data=b"\x05")])
        if participant:
            sim.round_template.register_participant(
                _ExitVeto(sim.round_template.round_length))
        sim.run_until(50 * MS)
        return sim.round_template.stats()

    assert run(participant=False)["recordings"] >= 1
    stats = run(participant=True)
    assert stats["recordings"] == 0
    assert stats["replays"] == 0
    assert stats["vetoes"]["_ExitVeto"] > 0


#: gw-pipeline-smoke's send and TT periods, crossed: each pair moves
#: where the sender's period runs out against the round grid.
_GRID = [(sender, dst) for sender in (1, 2, 3, 5, 7, 11) for dst in (10, 20)]


def _grid_spec(variant):
    from dataclasses import replace

    from repro.sim import MS

    if variant == "crash":
        spec = replace(REGISTRY["fault-controller-crash"], horizon_ns=300 * MS)
        return spec.with_param("crash_controller_at_ns", 97 * MS)
    sender, dst = variant
    return (REGISTRY["gw-pipeline-smoke"]
            .with_param("sender_period_ns", sender * MS)
            .with_param("dst_period_ns", dst * MS))


@pytest.mark.parametrize("variant", [*_GRID, "crash"],
                         ids=[*(f"send{s}ms-dst{d}ms" for s, d in _GRID), "crash97ms"])
def test_gateway_pipeline_replay_parity_grid(variant) -> None:
    """Replay on vs. off over sender and TT periods the registry does
    not pin, plus a crash that lands off the registry's instant."""
    spec = _grid_spec(variant)
    fast = run_scenario(spec)
    slow = run_scenario(spec.with_param("round_template", False))
    assert "error" not in fast and "error" not in slow
    assert fast["round_template"]["rounds_replayed"] > 0
    assert _comparable(fast) == _comparable(slow)


def test_run_end_frees_the_bank_and_the_next_run_replays() -> None:
    """The bank lives for one ``run_until``: it is freed when the call
    returns (stats keep the size it reached), the trace capture is
    detached, and a second call on the same full-trace simulator
    compiles and replays afresh."""
    from repro.sim import MS

    sim = build_scenario(REGISTRY["tdma-smoke"])
    engine = sim.round_template
    try:
        sim.run_until(100 * MS)
        first = engine.rounds_replayed
        assert first > 0 and engine.stats()["bank_templates"] == 1
        assert engine._bank == {} and engine._capture == []
        assert sim.trace._captured is None
        sim.run_until(250 * MS)
    finally:
        sim.trace.close()
    assert engine.rounds_replayed - first > 0
    assert engine._bank == {}


def test_jobs_monitors_and_repositories_are_participants() -> None:
    """Every job, gateway repository and temporal monitor registers
    with the engine itself — no container aggregates them."""
    from repro.gateway.gateway import VirtualGateway
    from repro.platform import Job, Partition

    sim = build_scenario(REGISTRY["car-smoke"])
    sim.trace.close()
    parts = sim.round_template._participants
    assert len({id(p) for p in parts}) == len(parts)
    partitions = [p for p in parts if isinstance(p, Partition)]
    jobs = [p for p in parts if isinstance(p, Job)]
    gateways = [p for p in parts if isinstance(p, VirtualGateway)]
    assert partitions and gateways
    assert {id(j) for pt in partitions for j in pt.jobs} == {id(j) for j in jobs}
    for gw in gateways:
        assert any(p is gw.repository for p in parts)
        for monitor in gw._monitors.values():
            assert any(p is monitor for p in parts)
    assert any(gw._monitors for gw in gateways)


def _run_with_halted_job(fast: bool) -> tuple[dict, int, int]:
    """car-baseline with its dashboard consumer halted mid-run by a
    plain ``job.halt()`` (no fault injector, hence no puncture).  The
    2 s drive matters: templates banked before the halt recur after it
    (in car-smoke none do, so a missing ``active`` key would pass)."""
    from repro.runner.executor import trace_digest
    from repro.sim import MS

    spec = REGISTRY["car-baseline"]
    if not fast:
        spec = spec.with_param("round_template", False)
    sim = build_scenario(spec)
    engine = sim.round_template
    job = next(p for p in engine._participants
               if getattr(p, "name", None) == "display")
    replayed_at_halt = {}

    def halt() -> None:
        job.halt()
        replayed_at_halt["n"] = engine.rounds_replayed

    sim.at(700 * MS, halt, label="test.halt")
    try:
        sim.run_until(spec.horizon_ns)
    finally:
        sim.trace.close()
    result = {
        "digest": trace_digest(sim),
        "events_executed": sim.events_executed,
        "now_ns": sim.now,
        "metrics": sim.metrics.snapshot(),
        "round_template": engine.stats(),
    }
    return result, replayed_at_halt["n"], engine.rounds_replayed


def test_job_halted_outside_fault_injector_keeps_parity() -> None:
    """A halted job stops stepping; only its own fingerprint (which
    keys ``active``) keeps pre-halt templates from replaying after the
    halt.  Parity must hold, and the halted car must keep replaying."""
    fast, at_halt, final = _run_with_halted_job(fast=True)
    slow, _, _ = _run_with_halted_job(fast=False)
    assert _comparable(fast) == _comparable(slow)
    assert final > at_halt


def test_car_scenario_arms_and_replays() -> None:
    """The integrated car carries ET/gateway machinery, but its jobs and
    environment all fingerprint their behavioural state: steady-state
    detection arms and bulk-replays most of the drive."""
    stats = _run_registry("car-smoke")
    assert stats["active"]
    assert stats["recordings"] >= 1
    assert stats["replays"] >= 1
    assert stats["rounds_replayed"] > 100


def _run_with_midround_event(spec, fast: bool) -> tuple[dict, dict]:
    """Run a TDMA scenario, injecting an unregistered-label event at a
    time that falls strictly inside a steady-state round."""
    if not fast:
        spec = spec.with_param("round_template", False)
    sim = build_scenario(spec)
    # Registration records the round length even when the engine is
    # dormant, so both runs compute the identical injection instant.
    round_len = sim.round_template.round_length
    fired = {"at": -1}

    def dynamic_send() -> None:
        fired["at"] = sim.now
        sim.metrics.counter("test.midround.sends").inc()

    # 600 ms is deep in steady state; +1/3 round keeps it mid-round.
    t_mid = 600_000_000 + round_len // 3
    try:
        sim.run_until(500_000_000)
        sim.at(t_mid, dynamic_send, label="test.midround")
        sim.run_until(spec.horizon_ns)
    finally:
        sim.trace.close()
    result = {
        "events": sim.events_executed,
        "now": sim.now,
        "metrics": sim.metrics.snapshot(),
        "fired_at": fired["at"],
    }
    return result, sim.round_template.stats()


def test_midround_event_punctures_fast_path() -> None:
    """A dynamic event landing mid-round must execute at its exact
    virtual time: the replay loop stops short of its round, falls back
    to event-by-event execution there, then re-arms."""
    spec = REGISTRY["tdma-cluster"]
    fast, stats = _run_with_midround_event(spec, fast=True)
    slow, _ = _run_with_midround_event(spec, fast=False)
    assert stats["rounds_replayed"] > 100
    assert fast["fired_at"] == slow["fired_at"] >= 600_000_000
    assert fast["metrics"]["counters"]["test.midround.sends"] == 1
    assert fast == slow


def test_fault_injector_punctures_template() -> None:
    """Fault activation calls ``puncture()``: the armed template is
    dropped and re-recorded around the fault window."""
    spec = REGISTRY["fault-babbling-idiot"]
    sim = build_scenario(spec)
    try:
        sim.run_until(spec.horizon_ns)
    finally:
        sim.trace.close()
    stats = sim.round_template.stats()
    assert stats["punctures"] >= 1
    assert stats["replays"] >= 1  # fast path recovers after the fault


# ----------------------------------------------------------------------
# drifting clocks
# ----------------------------------------------------------------------
def _drifting_cluster(fast: bool):
    """A TT cluster with one imperfect clock."""
    from repro.core_network import ClusterBuilder, FrameChunk, NodeConfig
    from repro.sim import Simulator, make_trace

    sim = Simulator(seed=11, trace=make_trace("full"))
    if fast:
        sim.round_template.activate()
    builder = ClusterBuilder(sim)
    builder.add_node(NodeConfig("n0", slot_capacity_bytes=32,
                                reservations={"v": 20}))
    builder.add_node(NodeConfig("n1", slot_capacity_bytes=32,
                                reservations={"v": 20}, drift_ppm=120.0))
    cluster = builder.build()
    cluster.start()
    cluster.controller("n0").register_chunk_source(
        "v", lambda slot, budget: [FrameChunk(vn="v", message="m",
                                              data=b"\x03\x04")])
    return sim


def test_drifting_clock_cluster_stays_armed_but_runs_live() -> None:
    """With a drifting controller the engine stays armed, but the
    imperfect clock vetoes every boundary (its slot phase never recurs
    exactly: a 120 ppm rate is 25003/25000, so slot-event ns-rounding
    phases repeat only every 25000 cycles), so the cluster runs fully
    live — and must remain byte-identical to the engine-off run."""
    from repro.runner.executor import trace_digest

    horizon = 1_000_000_000
    results = {}
    for fast in (True, False):
        sim = _drifting_cluster(fast)
        try:
            sim.run_until(horizon)
        finally:
            sim.trace.close()
        results[fast] = {
            "digest": trace_digest(sim),
            "events": sim.events_executed,
            "now": sim.now,
            "metrics": sim.metrics.snapshot(),
        }
        if fast:
            stats = sim.round_template.stats()
            assert stats["active"]
            assert stats["replays"] == 0
            assert stats["recordings"] == 0
    assert results[True] == results[False]


def test_build_car_replays_with_identical_trace() -> None:
    """``build_car`` arms the engine by default, outside the scenario
    registry too: a directly built car replays rounds, and its trace
    digest, event count, and metrics match the engine-off run."""
    from repro.apps import CarConfig, build_car
    from repro.runner.executor import trace_digest
    from repro.sim import SEC

    results = {}
    for fast in (True, False):
        car = build_car(CarConfig(round_template=fast))
        try:
            car.run_for(2 * SEC)
        finally:
            car.sim.trace.close()
        results[fast] = {
            "digest": trace_digest(car.sim),
            "events": car.sim.events_executed,
            "metrics": car.sim.metrics.snapshot(),
        }
        if fast:
            assert car.sim.round_template.stats()["rounds_replayed"] > 0
    assert results[True] == results[False]


# ----------------------------------------------------------------------
# satellite: determinism-lint coverage of the fast-forward module
# ----------------------------------------------------------------------
def test_det_lint_covers_round_template_module() -> None:
    """The DET lint's default scope must include ``sim/round_template.py``
    and the module must lint clean — the replay engine is exactly the
    kind of code where hidden nondeterminism would corrupt digests."""
    assert "sim" in DEFAULT_LINT_PACKAGES
    roots = default_lint_roots()
    sim_roots = [r for r in roots if r.name == "sim"]
    assert sim_roots and (sim_roots[0] / "round_template.py").is_file()
    diags = lint_paths([sim_roots[0] / "round_template.py"])
    assert [d for d in diags if d.severity.value == "error"] == []
