"""The pluggable runtime layer: parity, pacing, and the asyncio bridge.

The refactor's correctness claim is that a runtime changes *when* events
execute on the wall clock, never *what* executes in virtual time: every
registered scenario must produce a byte-identical trace digest under
every runtime.  On top of parity these tests cover the paced bridge's
deadline-miss accounting (the ``slip`` re-anchoring), uniform
past-target validation, cancellation flushing, round-template refusal
under the wall-clock runtime, partition crashes failing the run, and a
software-in-the-loop round trip where a coroutine partition injects an
ET message and awaits its cross-VN delivery through the gateway.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.errors import ConfigurationError
from repro.ledger import RunLedger, verify_entry
from repro.runner.executor import run_scenario, trace_digest
from repro.runner.scenarios import build_scenario, default_registry
from repro.sim import (
    MS,
    SEC,
    AsyncioBridgedRuntime,
    SimulatedRuntime,
    Simulator,
    TraceCategory,
    make_trace,
)
from repro.sim.runtime.asyncio_bridge import MISS_TOLERANCE_NS

from .support import e5_gateway_system

REGISTRY = default_registry()

#: Smoke-horizon scenarios cheap enough to run under wall-clock pacing.
SMOKE = ("gw-pipeline-smoke", "tdma-smoke", "car-smoke")


# ----------------------------------------------------------------------
# digest parity: pinned literals, under every way of running the kernel
# ----------------------------------------------------------------------

#: Every registry scenario's trace digest and executed-event count, as
#: literals.  A kernel or model optimization must leave all of them
#: byte-identical; a deliberate behaviour change re-pins them here.
PINNED_DIGESTS = {
    "car-baseline": ("45c0ec9aa0140c132df381a50ea4f2eb0630c78638265bd11bfd6b80fd2fec31", 113651),
    "car-flow": ("eae3edd1519a6d4c65c0a6123611cf4eaebb1e906b8ddf813a66c548f550546f", 28416),
    "car-gps-outage": ("ab4c6752e4def9a48b185adb586c42295b9cb12f81884a465618c56ba0860fe8", 113651),
    "car-smoke": ("d06a2567fb9f75f972c15466df17473ede3a5ae9fa677797d0eaa416ecccea17", 28416),
    "car-strict-separation": ("886068f7c5aaeff5d4d58a13b4e3ce1f17332e90d6ddbac7ff0ab0e4446844c3", 150486),
    "fault-babbling-idiot": ("a4153ff71c4ad8bb570c50c1632795478a2bfdbae4b5630d77477a830f6a668c", 77031),
    "fault-controller-crash": ("702b5e19e20d8bf063d7f821c4f9a08f5b2c18633655d020ec460a9ed7a3f001", 86091),
    "gw-pipeline-flow": ("04fce54e69e092a861cb8af3900c62d97887d5dd8584d4451d23f6a6d0ab3471", 46631),
    "gw-pipeline-s5": ("19ed89f089e1d2a15a8284a202ba3b7f72df23393c958d72ab0803bb4f1eafdc", 93262),
    "gw-pipeline-seed0": ("19ed89f089e1d2a15a8284a202ba3b7f72df23393c958d72ab0803bb4f1eafdc", 93262),
    "gw-pipeline-seed1": ("19ed89f089e1d2a15a8284a202ba3b7f72df23393c958d72ab0803bb4f1eafdc", 93262),
    "gw-pipeline-seed2": ("19ed89f089e1d2a15a8284a202ba3b7f72df23393c958d72ab0803bb4f1eafdc", 93262),
    "gw-pipeline-smoke": ("e147542deca96e76f8f9712330a77a16f7287f3873765cea2c72cd1627d64ff5", 18654),
    "tdma-cluster": ("6eceaa33c199d3106194eedbfb1062a92e765ec7368d2c50be644cc2f8c3a4ab", 67412),
    "tdma-smoke": ("d2ecc851a67c2b651d7420b1bac4e702b90be8ca5c9cdbd357c40eed550dfd3b", 16852),
    "tt-vn-pipeline": ("d5be51aacfc97d75cfcba8c51a1efd06da433b23b6d23fcad3cf7a6a01e52d4e", 58529),
}


def test_pinned_table_covers_the_registry() -> None:
    assert sorted(PINNED_DIGESTS) == sorted(REGISTRY)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_simulated_runtime_reproduces_golden_digests(name: str) -> None:
    """Every registered scenario (round templates armed, per defaults)
    must produce its pinned digest and event count, both on the
    builder's default runtime and on an explicitly constructed
    SimulatedRuntime swapped in via ``set_runtime``."""
    spec = REGISTRY[name]
    golden = run_scenario(spec)
    assert "error" not in golden
    assert (golden["digest"], golden["events_executed"]) == PINNED_DIGESTS[name]
    assert golden["runtime"] == "sim"
    assert "runtime_stats" not in golden

    sim = build_scenario(spec)
    sim.set_runtime(SimulatedRuntime())
    try:
        sim.run_until(spec.horizon_ns)
    finally:
        sim.trace.close()
    assert trace_digest(sim) == golden["digest"]
    assert sim.events_executed == golden["events_executed"]


@pytest.mark.parametrize("name", SMOKE)
def test_paced_runtime_digest_parity_at_high_ratio(name: str) -> None:
    """At pacing ratios >= 100x the paced bridge must reproduce the
    simulated digest exactly, while still accounting deadline misses
    into the metrics registry."""
    spec = REGISTRY[name]
    base = run_scenario(spec)
    paced = run_scenario(spec.with_param("pace", 1e6))
    assert "error" not in paced
    assert paced["runtime"] == "asyncio"
    assert paced["digest"] == base["digest"]
    assert paced["now_ns"] == base["now_ns"]
    stats = paced["runtime_stats"]
    assert stats["pace"] == 1e6
    # The miss counter exists (the runtime bound its instruments) and
    # matches the metrics registry, whatever the host's timing did.
    assert (paced["metrics"]["counters"]["runtime.deadline_misses"]
            == stats["deadline_misses"])


def test_asyncio_runtime_digest_parity() -> None:
    """An unpaced asyncio bridge run is virtual-time identical too."""
    spec = REGISTRY["gw-pipeline-smoke"]
    base = run_scenario(spec)
    sim = build_scenario(spec)
    sim.set_runtime(AsyncioBridgedRuntime())
    try:
        sim.run_until(spec.horizon_ns)
    finally:
        sim.trace.close()
    assert trace_digest(sim) == base["digest"]
    assert sim.events_executed == base["events_executed"]


def test_ledger_record_with_retired_runtime_param_still_verifies(
        tmp_path) -> None:
    """Older ledger records carry a ``runtime`` param naming a runtime
    that no longer exists; it is ignored now (``pace`` alone selects the
    wall-clock runtime), and since digests never depend on the runtime
    such a record still audits at parity."""
    spec = (REGISTRY["tdma-smoke"].with_param("runtime", "realtime")
            .with_param("pace", 1e6))
    path = tmp_path / "ledger.ndjsonl"
    result = run_scenario(spec, ledger_path=str(path))
    assert "ledger_error" not in result
    (entry,) = RunLedger(path).entries()
    assert entry["spec"]["params"] == spec.as_dict()["params"]
    outcome = verify_entry(entry, entry["code_digest"])
    assert outcome["verdict"] == "parity"


def test_round_templates_refuse_under_paced_runtime() -> None:
    """tdma-smoke replays rounds under the simulated runtime; under the
    paced bridge the engine must stay dormant (bulk replay would skip
    the wall-clock gating of every intermediate event) while the digest
    stays identical."""
    spec = REGISTRY["tdma-smoke"]
    base = run_scenario(spec)
    sim = build_scenario(spec.with_param("pace", 1e6))
    try:
        sim.run_until(spec.horizon_ns)
    finally:
        sim.trace.close()
    stats = sim.round_template.stats()
    assert stats["active"]  # activation requested, arming refused
    assert stats["recordings"] == 0
    assert stats["replays"] == 0
    assert trace_digest(sim) == base["digest"]


# ----------------------------------------------------------------------
# paced bridge: pacing and deadline-miss accounting
# ----------------------------------------------------------------------
def test_paced_runtime_actually_paces() -> None:
    """1 simulated second at pace 100 must take roughly 10 ms of wall
    time (lower-bounded; an unpaced run finishes in microseconds)."""
    rt = AsyncioBridgedRuntime(pace=100.0)
    sim = Simulator(seed=0, runtime=rt)
    ticks: list[int] = []
    sim.every(10 * MS, lambda: ticks.append(sim.now), label="tick")
    t0 = time.perf_counter()
    sim.run_until(1 * SEC)
    elapsed = time.perf_counter() - t0
    assert len(ticks) == 101  # t=0 .. t=1s inclusive
    assert sim.now == 1 * SEC
    assert elapsed >= 0.008  # ~10 ms nominal, generous floor
    assert rt.slept_ns > 0


def test_deadline_miss_policies() -> None:
    """50 events 1 ms apart at real-time pace; the 5th stalls 30 ms.
    The stall is a miss, and the schedule slips (is re-anchored at the
    miss) instead of counting every event behind the stall as late."""
    rt = AsyncioBridgedRuntime(pace=1.0)
    sim = Simulator(seed=0, runtime=rt)
    for i in range(1, 51):
        cb = (lambda: time.sleep(0.03)) if i == 5 else (lambda: None)
        sim.at(i * MS, cb, label="tick")
    sim.run_until(50 * MS)
    assert rt.deadline_misses >= 1
    assert rt.max_lag_ns > MISS_TOLERANCE_NS
    # Without re-anchoring the ~25 events inside the 30 ms stall's
    # shadow would all be late; slip leaves scheduling noise at most.
    assert rt.deadline_misses < 25


def test_deadline_misses_recorded_in_metrics() -> None:
    rt = AsyncioBridgedRuntime(pace=1.0)
    sim = Simulator(seed=0, runtime=rt)
    sim.at(1 * MS, lambda: time.sleep(0.02))
    sim.at(2 * MS, lambda: None)
    sim.run_until(2 * MS)
    snapshot = sim.metrics.snapshot()
    assert snapshot["counters"]["runtime.deadline_misses"] == rt.deadline_misses
    assert rt.deadline_misses >= 1
    assert "runtime.lag_ns" in snapshot["histograms"]


def test_unreachable_pace_reports_achieved_pace() -> None:
    """Five events 2 ms apart, each stalling 2 ms of wall time, cannot
    run a million times faster than real time: the run misses deadlines
    and ``achieved_pace`` (virtual ns per wall ns) stays below the
    requested pace.  Only the unreachable side is tested; whether a
    pace is reached depends on the host."""
    rt = AsyncioBridgedRuntime(pace=1e6)
    sim = Simulator(seed=0, runtime=rt)
    for i in range(1, 6):
        sim.at(i * 2 * MS, lambda: time.sleep(0.002), label="tick")
    sim.run_until(10 * MS)
    stats = rt.stats()
    assert stats["deadline_misses"] > 0
    assert 0 < stats["achieved_pace"] < stats["pace"]
    assert rt.run_sim_ns == 10 * MS


def test_car_cli_warns_when_pace_is_unreachable(capsys) -> None:
    from repro.cli import main

    assert main(["car", "--seconds", "0.1", "--pace", "1e9",
                 "--trace-mode", "counters"]) == 0
    err = capsys.readouterr().err.splitlines()
    warnings = [line for line in err if line.startswith("warning: pace")]
    assert len(warnings) == 1
    assert "1e+09x was not reached" in warnings[0]


def test_paced_runtime_rejects_bad_config() -> None:
    with pytest.raises(ConfigurationError):
        AsyncioBridgedRuntime(pace=0)
    with pytest.raises(ConfigurationError):
        AsyncioBridgedRuntime(pace=-1.0)


# ----------------------------------------------------------------------
# uniform validation and binding rules
# ----------------------------------------------------------------------
@pytest.mark.parametrize("runtime_cls", (SimulatedRuntime, AsyncioBridgedRuntime),
                         ids=("sim", "asyncio"))
def test_past_target_raises_uniformly(runtime_cls) -> None:
    sim = Simulator(seed=0, runtime=runtime_cls())
    sim.run_until(10)
    with pytest.raises(ConfigurationError):
        sim.run_until(5)
    with pytest.raises(ConfigurationError):
        sim.run_for(-1)
    assert sim.now == 10  # failed validation must not move time


def test_async_entry_point_validates_past_target_too() -> None:
    rt = AsyncioBridgedRuntime()
    sim = Simulator(seed=0, runtime=rt)
    sim.run_until(10)
    with pytest.raises(ConfigurationError):
        asyncio.run(rt.run_until_async(5))


def test_runtime_binds_to_exactly_one_simulator() -> None:
    rt = SimulatedRuntime()
    Simulator(seed=0, runtime=rt)
    with pytest.raises(ConfigurationError):
        Simulator(seed=1, runtime=rt)


def test_set_runtime_refused_while_running() -> None:
    sim = Simulator(seed=0)
    sim.at(5, lambda: sim.set_runtime(SimulatedRuntime()))
    with pytest.raises(ConfigurationError):
        sim.run_until(10)


# ----------------------------------------------------------------------
# cancellation mid-flight must flush trace sinks
# ----------------------------------------------------------------------
def _stream_sim(tmp_path, runtime):
    path = tmp_path / "trace.ndjson"
    sim = Simulator(seed=0, trace=make_trace("stream", str(path)),
                    runtime=runtime)
    def emit() -> None:
        sim.trace.record(sim.now, TraceCategory.SLOT_START, "test.src",
                         note="cancellation-flush")
    sim.every(1 * MS, emit, label="emit")
    return sim, path


def test_paced_keyboard_interrupt_flushes_stream_sink(tmp_path) -> None:
    rt = AsyncioBridgedRuntime(pace=1e6)
    sim, path = _stream_sim(tmp_path, rt)

    def boom() -> None:
        raise KeyboardInterrupt

    sim.at(10 * MS, boom, label="boom")
    with pytest.raises(KeyboardInterrupt):
        sim.run_until(1 * SEC)
    assert rt.cancelled_runs == 1
    assert sim.metrics.snapshot()["counters"]["runtime.cancelled_runs"] == 1
    # The stream sink was flushed and closed: records written before the
    # interrupt are on disk, not stranded in a dead buffer.
    assert path.exists() and path.stat().st_size > 0
    assert len(path.read_text().splitlines()) >= 10


def test_asyncio_cancellation_flushes_stream_sink(tmp_path) -> None:
    rt = AsyncioBridgedRuntime()
    sim, path = _stream_sim(tmp_path, rt)

    async def drive() -> None:
        task = asyncio.ensure_future(rt.run_until_async(10**15))
        # the bridge yields once per event: each pass lets one through
        for _ in range(300):
            await asyncio.sleep(0)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task

    asyncio.run(drive())
    assert rt.cancelled_runs == 1
    assert path.exists() and path.stat().st_size > 0


# ----------------------------------------------------------------------
# the asyncio bridge as a software-in-the-loop substrate
# ----------------------------------------------------------------------
def test_asyncio_partition_round_trip_through_gateway() -> None:
    """A coroutine partition injects an ET message into the sensor DAS
    and awaits its delivery on the TT climate DAS — i.e. the full
    ET VN -> gateway -> TT VN path crossed from application code living
    outside the simulator."""
    rt = AsyncioBridgedRuntime()
    sim = Simulator(seed=5, runtime=rt)
    system = e5_gateway_system(sim=sim)
    # Silence the built-in periodic sender: the only traffic is the
    # partition's, so a delivery proves *its* message crossed.
    system.job("sender").vn = None
    vn = system.vn("sensors")
    src_type = vn.namespace.lookup("msgSensorBundle")
    port = rt.port()
    system.job("viewer").on_message = port.deliver

    log: list[tuple] = []

    async def partition(runtime: AsyncioBridgedRuntime) -> None:
        ok = await port.send(
            vn, "msgSensorBundle",
            src_type.instance(Temp={"c": 21, "t_src": 0},
                              Humidity={"pct": 55}),
            sender_job="sil")
        assert ok
        log.append(("sent", sim.now))
        port_name, instance, arrival = await port.recv()
        log.append(("delivered", sim.now, port_name,
                    instance.get("Temp", "c")))

    rt.add_partition(partition)
    sim.run_until(200 * MS)

    assert [entry[0] for entry in log] == ["sent", "delivered"]
    sent_at = log[0][1]
    _, delivered_at, port_name, temp_c = log[1]
    assert delivered_at > sent_at
    assert temp_c == 21  # the payload survived gateway conversion
    assert port.delivered >= 1
    assert rt.stats()["injected"] == 1


def test_asyncio_partition_crash_aborts_run() -> None:
    rt = AsyncioBridgedRuntime()
    sim = Simulator(seed=0, runtime=rt)
    sim.every(1 * MS, lambda: None, label="tick")

    async def bad_partition(runtime: AsyncioBridgedRuntime) -> None:
        await asyncio.sleep(0)
        raise RuntimeError("partition died")

    rt.add_partition(bad_partition)
    with pytest.raises(RuntimeError, match="partition died"):
        sim.run_until(1 * SEC)


@pytest.mark.parametrize("stop_first", (False, True),
                         ids=("at-horizon", "after-stop"))
def test_asyncio_partition_crash_at_end_of_run_fails_it(stop_first) -> None:
    """A partition that raises after the dispatch loop last looked —
    woken by the run's final event, or after stopping the run — must
    still fail the run instead of vanishing with the cancelled tasks."""
    rt = AsyncioBridgedRuntime()
    sim = Simulator(seed=0, runtime=rt)

    async def late_crash(runtime: AsyncioBridgedRuntime) -> None:
        await runtime.sleep(10 * MS)
        if stop_first:
            sim.stop()
        raise RuntimeError("late partition crash")

    rt.add_partition(late_crash)
    with pytest.raises(RuntimeError, match="late partition crash"):
        sim.run_until(10 * MS)


def test_asyncio_virtual_time_sleep() -> None:
    rt = AsyncioBridgedRuntime()
    sim = Simulator(seed=0, runtime=rt)
    sim.every(1 * MS, lambda: None, label="tick")
    wakes: list[int] = []

    async def sleeper(runtime: AsyncioBridgedRuntime) -> None:
        await runtime.sleep(5 * MS)
        wakes.append(sim.now)
        await runtime.sleep(10 * MS)
        wakes.append(sim.now)

    rt.add_partition(sleeper)
    sim.run_until(50 * MS)
    assert len(wakes) == 2
    assert wakes[1] - wakes[0] == 10 * MS


def test_asyncio_open_ended_run_is_refused() -> None:
    rt = AsyncioBridgedRuntime()
    Simulator(seed=0, runtime=rt)
    with pytest.raises(ConfigurationError):
        rt.run(None)
