"""Trace sinks, mask, wants()/tick() fast path, and the determinism
guarantee of the instrumented runtime context.

The heavyweight anchor is the golden-digest test: a fixed-seed E5
gateway scenario must produce a record-for-record identical trace
through the sink-based front-end (the digest below was captured on the
pre-refactor ``TraceLog``).
"""

from __future__ import annotations

import hashlib
import io

import pytest

from repro.analysis.export import to_jsonl
from repro.errors import SimulationError
from repro.runner.executor import _hash_as_emitted, trace_digest
from repro.runner.scenarios import build_scenario, default_registry
from repro.sim import (
    MS,
    SEC,
    CounterSink,
    DigestSink,
    FlightRecorderSink,
    MemorySink,
    Simulator,
    StreamSink,
    TraceCategory,
    TraceLog,
    TraceRecord,
    make_trace,
)
from repro.sim.trace import jsonl_sha256
from .support import e5_gateway_system

#: sha256 of to_jsonl(records) for e5_gateway_system(seed=5) run for
#: 2 simulated seconds, captured on the pre-refactor main branch.
GOLDEN_DIGEST = "8f886752d14aaec42a09ba95cb057996482862d3ce27eb8f48d48ee86071d4e2"
GOLDEN_RECORDS = 127754


# ----------------------------------------------------------------------
# determinism anchors
# ----------------------------------------------------------------------
def test_golden_digest_memory_sink_matches_pre_refactor_trace():
    system = e5_gateway_system(seed=5)
    system.sim.run_for(2 * SEC)
    records = system.sim.trace.records()
    assert len(records) == GOLDEN_RECORDS
    digest = hashlib.sha256(to_jsonl(records).encode()).hexdigest()
    assert digest == GOLDEN_DIGEST
    # the sweep executor's streamed digest is the same hash
    assert trace_digest(system.sim) == GOLDEN_DIGEST


def test_counter_sink_counts_match_memory_sink_per_category():
    # Full-trace run: per-category counts from the records.
    full = e5_gateway_system(seed=7)
    full.sim.run_for(500 * MS)
    expected: dict[str, int] = {}
    for rec in full.sim.trace.records():
        expected[rec.category] = expected.get(rec.category, 0) + 1

    # Counters-only run of the same seed: the tick fast path must count
    # exactly the same occurrences even though no record is ever built.
    sim = Simulator(seed=7, trace=TraceLog(sinks=[CounterSink()]))
    counting = e5_gateway_system(seed=7, sim=sim)
    counting.sim.run_for(500 * MS)
    sink = counting.sim.trace.sinks[0]
    assert isinstance(sink, CounterSink)
    assert dict(sink.counts) == expected
    assert sink.total() == sum(expected.values())


def test_counters_only_run_does_not_change_the_simulation():
    full = e5_gateway_system(seed=11)
    full.sim.run_for(500 * MS)
    sim = Simulator(seed=11, trace=TraceLog(sinks=[CounterSink()]))
    counting = e5_gateway_system(seed=11, sim=sim)
    counting.sim.run_for(500 * MS)
    # Sinks only observe: virtual time and event count are identical.
    assert counting.sim.events_executed == full.sim.events_executed
    assert counting.sim.now == full.sim.now


# ----------------------------------------------------------------------
# wants() / tick() fast path
# ----------------------------------------------------------------------
def test_wants_true_with_memory_sink_false_with_counter_sink():
    assert TraceLog().wants(TraceCategory.FRAME_TX)
    assert not TraceLog(sinks=[CounterSink()]).wants(TraceCategory.FRAME_TX)
    assert not TraceLog(enabled=False).wants(TraceCategory.FRAME_TX)
    assert not TraceLog(sinks=[]).wants(TraceCategory.FRAME_TX)


def test_wants_honors_category_mask():
    tr = TraceLog()
    tr.enable_only(TraceCategory.FRAME_TX)
    assert tr.wants(TraceCategory.FRAME_TX)
    assert not tr.wants(TraceCategory.PORT_RECV)
    tr.set_mask(None)
    assert tr.wants(TraceCategory.PORT_RECV)


def test_mask_gates_record_and_tick():
    mem = MemorySink()
    counting = CounterSink()
    tr = TraceLog(sinks=[mem, counting])
    tr.enable_only(TraceCategory.FRAME_TX)
    tr.record(1, TraceCategory.FRAME_TX, "bus")
    tr.record(2, TraceCategory.PORT_RECV, "port")  # masked out
    tr.tick(TraceCategory.PORT_RECV)               # masked out
    tr.tick(TraceCategory.FRAME_TX)
    assert [r.category for r in mem] == [TraceCategory.FRAME_TX]
    assert counting.counts == {TraceCategory.FRAME_TX: 2}


def test_disable_categories_is_relative_to_current_mask():
    tr = TraceLog()
    tr.disable_categories(TraceCategory.JOB_ACTIVATION)
    assert not tr.wants(TraceCategory.JOB_ACTIVATION)
    assert tr.wants(TraceCategory.FRAME_TX)


def test_subscribe_makes_wants_true_even_without_record_sinks():
    tr = TraceLog(sinks=[CounterSink()])
    assert not tr.wants(TraceCategory.APP)
    seen = []
    unsub = tr.subscribe(seen.append)
    assert tr.wants(TraceCategory.APP)
    tr.record(5, TraceCategory.APP, "x", k=1)
    assert len(seen) == 1 and seen[0].detail == {"k": 1}
    unsub()
    assert not tr.wants(TraceCategory.APP)


def test_record_ticks_counting_sinks_even_when_no_record_is_built():
    counting = CounterSink()
    tr = TraceLog(sinks=[counting])
    tr.record(1, TraceCategory.APP, "x", heavy="detail")
    assert counting.counts == {TraceCategory.APP: 1}
    assert len(tr) == 0  # no memory sink, nothing stored


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------
def test_stream_sink_writes_ndjson_identical_to_jsonl_export():
    buf = io.StringIO()
    mem = MemorySink()
    tr = TraceLog(sinks=[mem, StreamSink(buf)])
    tr.record(10, TraceCategory.FRAME_TX, "bus", sender="a", bytes=8)
    tr.record(20, TraceCategory.PORT_RECV, "p", vn="abs", owner="job")
    tr.close()
    assert buf.getvalue() == to_jsonl(mem.records) + "\n"


def test_stream_sink_opens_file_lazily(tmp_path):
    path = tmp_path / "trace.ndjson"
    sink = StreamSink(path)
    assert not path.exists()  # nothing emitted yet
    tr = TraceLog(sinks=[sink])
    tr.record(1, TraceCategory.APP, "x")
    tr.close()
    assert path.read_text().count("\n") == 1
    assert sink.emitted == 1


def test_stream_sink_close_is_idempotent_on_path_target(tmp_path):
    # The CLI path closes the trace twice: once leaving the `with trace`
    # block, once in executor cleanup.  The second close must be a
    # no-op — above all it must NOT lazily re-open the path in "w" mode,
    # which would truncate everything the run just wrote.
    path = tmp_path / "trace.ndjson"
    tr = TraceLog(sinks=[StreamSink(path)])
    with tr:
        tr.record(1, TraceCategory.APP, "x")
    tr.close()
    tr.close()
    assert path.read_text().count("\n") == 1


def test_stream_sink_close_is_idempotent_on_handle_target():
    buf = io.StringIO()
    sink = StreamSink(buf)
    tr = TraceLog(sinks=[sink])
    tr.record(1, TraceCategory.APP, "x")
    tr.close()
    tr.close()  # second close: no flush on a dead handle, no raise
    assert buf.getvalue().count("\n") == 1


def test_stream_sink_tolerates_externally_closed_handle(tmp_path):
    # A caller-owned handle the caller already closed: close() must not
    # raise "I/O operation on closed file" on the way out.
    with open(tmp_path / "t.ndjson", "w") as fh:
        sink = StreamSink(fh)
        tr = TraceLog(sinks=[sink])
        tr.record(1, TraceCategory.APP, "x")
    tr.close()  # fh.closed is True here
    tr.close()


def test_stream_sink_refuses_emit_after_close(tmp_path):
    path = tmp_path / "trace.ndjson"
    tr = TraceLog(sinks=[StreamSink(path)])
    tr.record(1, TraceCategory.APP, "x")
    tr.close()
    with pytest.raises(SimulationError, match="closed"):
        tr.record(2, TraceCategory.APP, "y")
    assert path.read_text().count("\n") == 1  # nothing truncated


def test_count_falls_back_to_counter_sink_without_memory():
    tr = TraceLog(sinks=[CounterSink()])
    tr.record(1, TraceCategory.APP, "x")
    tr.record(2, TraceCategory.APP, "y")
    tr.record(3, TraceCategory.FRAME_TX, "bus")
    assert tr.count() == 3
    assert tr.count(TraceCategory.APP) == 2
    with pytest.raises(SimulationError):
        tr.count(TraceCategory.APP, source="x")


def test_digest_only_trace_counts_every_record():
    tr = TraceLog(sinks=[DigestSink()])
    tr.record(1, TraceCategory.APP, "x")
    tr.record(2, TraceCategory.APP, "y")
    tr.record(3, TraceCategory.FRAME_TX, "bus")
    assert len(tr) == 3 and tr.count() == 3
    assert tr.count(TraceCategory.APP) == 2
    assert tr.category_counts() == {TraceCategory.APP: 2, TraceCategory.FRAME_TX: 1}
    with pytest.raises(SimulationError):
        tr.count(TraceCategory.APP, source="x")


def test_a_listener_beside_a_digest_sink_still_gets_records():
    sink = DigestSink()
    tr = TraceLog(sinks=[sink])
    seen = []
    unsubscribe = tr.subscribe(seen.append)
    tr.record(1, TraceCategory.APP, "x", v=1)
    unsubscribe()
    tr.record(2, TraceCategory.APP, "y")
    assert [r.time for r in seen] == [1]
    assert sink.hexdigest() == jsonl_sha256([TraceRecord(1, TraceCategory.APP, "x", {"v": 1}),
                                             TraceRecord(2, TraceCategory.APP, "y")])


@pytest.mark.parametrize("name", ["tdma-cluster", "gw-pipeline-smoke"])
def test_digest_only_counts_equal_a_memory_twin(name):
    spec = default_registry()[name]
    runs = []
    for hashed in (False, True):
        sim = build_scenario(spec)
        if hashed:
            _hash_as_emitted(sim)
        sim.run_until(spec.horizon_ns)
        runs.append(sim)
    memory, digest_only = (sim.trace for sim in runs)
    assert memory.memory is not None and digest_only.memory is None
    assert len(digest_only) == len(memory) > 0
    assert digest_only.count() == memory.count()
    assert digest_only.category_counts() == memory.category_counts()
    for category in memory.category_counts():
        assert digest_only.count(category) == memory.count(category)
    assert trace_digest(runs[1]) == trace_digest(runs[0])


def test_category_counts_prefers_counter_sink():
    tr = TraceLog(sinks=[MemorySink(), CounterSink()])
    tr.record(1, TraceCategory.APP, "x")
    assert tr.category_counts() == {TraceCategory.APP: 1}
    tr_mem = TraceLog()
    tr_mem.record(1, TraceCategory.APP, "x")
    assert tr_mem.category_counts() == {TraceCategory.APP: 1}


def test_extend_from_requires_memory_sink():
    tr = TraceLog(sinks=[CounterSink()])
    with pytest.raises(SimulationError):
        tr.extend_from([])


def test_flight_recorder_at_exactly_capacity_keeps_everything():
    sink = FlightRecorderSink(capacity=4)
    tr = TraceLog(sinks=[sink])
    for i in range(4):
        tr.record(i, TraceCategory.APP, "src", i=i)
    assert len(sink) == 4 and sink.seen == 4
    assert [r.get("i") for r in sink.records()] == [0, 1, 2, 3]


def test_flight_recorder_at_capacity_plus_one_evicts_only_the_oldest():
    sink = FlightRecorderSink(capacity=4)
    tr = TraceLog(sinks=[sink])
    for i in range(5):
        tr.record(i, TraceCategory.APP, "src", i=i)
    assert len(sink) == 4 and sink.seen == 5
    assert [r.get("i") for r in sink.records()] == [1, 2, 3, 4]


def test_flight_recorder_close_dumps_exactly_once(tmp_path):
    dump = tmp_path / "window.ndjson"
    sink = FlightRecorderSink(capacity=4, dump_path=dump)
    tr = TraceLog(sinks=[sink])
    with tr:
        tr.record(1, TraceCategory.APP, "x")
    tr.close()  # double-exit path: context manager already closed
    assert sink.dumps == 1
    assert dump.read_text().count("\n") == 1
    # An explicit dump after close is still an available escape hatch.
    sink.dump_to(tmp_path / "again.ndjson")
    assert sink.dumps == 2


# ----------------------------------------------------------------------
# make_trace modes
# ----------------------------------------------------------------------
def test_make_trace_modes(tmp_path):
    assert isinstance(make_trace("full").sinks[0], MemorySink)
    assert isinstance(make_trace("counters").sinks[0], CounterSink)
    stream = make_trace("stream", tmp_path / "t.ndjson")
    kinds = {type(s) for s in stream.sinks}
    assert kinds == {StreamSink, CounterSink}
    off = make_trace("off")
    assert not off.enabled and not off.sinks
    with pytest.raises(SimulationError):
        make_trace("stream")  # needs a target
    with pytest.raises(SimulationError):
        make_trace("bogus")


def test_trace_off_mode_skips_everything():
    tr = make_trace("off")
    tr.record(1, TraceCategory.APP, "x")
    tr.tick(TraceCategory.APP)
    assert len(tr) == 0 and tr.category_counts() == {}
