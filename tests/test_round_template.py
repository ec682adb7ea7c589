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


_VOLATILE = ("wall_s", "digest_s", "round_template", "template_cache")


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


def test_gateway_pipeline_arms_but_unported_jobs_veto() -> None:
    """ET virtual networks and gateways are dynamic participants, not
    permanent blockers — the gateway pipeline arms.  Its jobs never
    declare a replayable fingerprint, though, so every boundary is
    vetoed and every round still runs live."""
    stats = _run_registry("gw-pipeline-smoke")
    assert stats["active"]
    assert stats["interleaving_sources"] == []
    assert stats["replays"] == 0


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
# persistent template bank
# ----------------------------------------------------------------------
def _run_engine(name: str, bank: dict | None = None,
                round_template: bool = True):
    from repro.runner.executor import trace_digest

    spec = REGISTRY[name].with_param("round_template", round_template)
    sim = build_scenario(spec)
    if bank is not None:
        sim.round_template.load_bank(bank)
    try:
        sim.run_until(spec.horizon_ns)
    finally:
        sim.trace.close()
    observable = {
        "digest": trace_digest(sim),
        "events": sim.events_executed,
        "now": sim.now,
        "metrics": sim.metrics.snapshot(),
    }
    return sim, observable


def test_persisted_bank_warm_start_is_byte_identical() -> None:
    """dump_bank -> load_bank across two fresh simulators: the warm run
    replays from the loaded templates (no re-recording needed for known
    keys) and stays byte-identical with the cold run."""
    cold_sim, cold = _run_engine("car-smoke")
    bank = cold_sim.round_template.dump_bank()
    assert bank is not None and bank["templates"]
    warm_sim, warm = _run_engine("car-smoke", bank=bank)
    stats = warm_sim.round_template.stats()
    assert stats["templates_loaded"] == len(bank["templates"])
    assert stats["template_load_failures"] == 0
    assert stats["rounds_replayed"] >= 1
    assert warm == cold


def test_fault_punctures_persisted_bank_mid_run() -> None:
    """A fault injector firing mid-run must drop a *loaded* bank exactly
    like a live-compiled one: replay stops, the fault executes at its
    exact instant, and the observable run stays identical to the slow
    path."""
    cold_sim, _ = _run_engine("fault-babbling-idiot")
    bank = cold_sim.round_template.dump_bank()
    assert bank is not None
    warm_sim, warm = _run_engine("fault-babbling-idiot", bank=bank)
    stats = warm_sim.round_template.stats()
    assert stats["templates_loaded"] >= 1
    assert stats["punctures"] >= 1  # loaded bank dropped at the fault
    assert stats["replays"] >= 1
    _, slow = _run_engine("fault-babbling-idiot", round_template=False)
    assert warm == slow


#: Bank fields that only the two-mode (version 2) format carried.
_V2_ONLY_FIELDS = {"mode": "qp", "strict_tpl": None}


def test_stale_or_corrupt_bank_falls_back_to_live_compile() -> None:
    """A bank from another engine version (including the two-mode v2
    format), another registration, or a corrupted file must be rejected
    at validation — counted, never trusted — and the run must land
    byte-identical anyway."""
    cold_sim, cold = _run_engine("tdma-smoke")
    bank = cold_sim.round_template.dump_bank()
    assert bank is not None
    assert not bank.keys() & _V2_ONLY_FIELDS.keys()
    stale = dict(bank, version=bank["version"] + 1)
    v2_format = dict(bank, version=2, **_V2_ONLY_FIELDS)
    mismatched = dict(bank, labels="0" * 16)
    garbled = dict(bank, templates=[{"oops": 1}])
    for bad in (stale, v2_format, mismatched, garbled, "not a bank"):
        sim, observable = _run_engine("tdma-smoke", bank=bad)
        stats = sim.round_template.stats()
        assert stats["templates_loaded"] == 0
        assert stats["template_load_failures"] == 1
        assert stats["replays"] >= 1  # live compile still engages
        assert observable == cold


def test_template_store_roundtrip_through_executor(tmp_path) -> None:
    """run_scenario with a template root: first run stores the bank,
    second run warm-loads it, digests byte-identical; a truncated store
    file degrades to a cold run instead of failing."""
    from repro.runner import TemplateStore, run_scenario

    spec = REGISTRY["tdma-smoke"]
    first = run_scenario(spec, template_root=str(tmp_path))
    assert first["template_cache"] == {
        "hit": False, "stored": True, "templates_loaded": 0,
        "load_failures": 0}
    second = run_scenario(spec, template_root=str(tmp_path))
    assert second["template_cache"]["hit"]
    assert second["template_cache"]["templates_loaded"] >= 1
    assert second["digest"] == first["digest"]
    assert _comparable(second) == _comparable(first)

    store = TemplateStore(tmp_path)
    (entry,) = store.entries()
    entry.write_text(entry.read_text()[: entry.stat().st_size // 2])
    third = run_scenario(spec, template_root=str(tmp_path))
    assert not third["template_cache"]["hit"]
    assert third["digest"] == first["digest"]


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
