"""The trace-record encoder and the streamed digest.

``record_to_json`` is a specialised encoder; it must write exactly the
bytes of ``json.dumps`` over the record's JSON object.  That plain path
is kept here, and only here, as the oracle every fast path is checked
against.  ``jsonl_sha256`` must equal hashing the whole JSONL export,
at every chunk boundary, and the ``DigestSink`` that hashes a run's
trace while it is emitted must equal ``jsonl_sha256`` — also for
replayed rounds, which it takes as lines encoded from fragments.
"""

from __future__ import annotations

import enum
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.export import to_jsonl
from repro.ledger import record_from_result
from repro.runner.executor import run_scenario, trace_digest
from repro.runner.scenarios import build_scenario, default_registry
from repro.sim.round_template import STRIDE_KEYS, line_plan, write_rounds
from repro.sim.trace import (
    DigestSink,
    MemorySink,
    TraceLog,
    TraceRecord,
    jsonable,
    jsonl_sha256,
    record_to_json,
)

from .test_runtime import PINNED_DIGESTS

REGISTRY = default_registry()
FULL_TRACE = sorted(n for n, s in REGISTRY.items() if s.trace_mode == "full")


def oracle(rec: TraceRecord) -> str:
    return json.dumps({
        "time": rec.time,
        "category": rec.category,
        "source": rec.source,
        **{k: jsonable(v) for k, v in sorted(rec.detail.items())},
    }, separators=(",", ":"))


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Opaque:
    def __str__(self) -> str:
        return 'opaque "é\\'


# st.text() draws non-ASCII, quotes, backslashes and control characters
texts = st.text(max_size=12)
ints = st.one_of(st.integers(), st.integers(min_value=-(10**300), max_value=10**300))
scalars = st.one_of(
    ints, st.booleans(), st.none(), texts,
    st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    st.sampled_from(list(Level)), st.builds(Opaque),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(texts, st.integers(), st.booleans(), st.none(),
                                  st.floats()), inner, max_size=4),
    ),
    max_leaves=12,
)
# header names as detail keys: the detail value takes the header's place
keys = st.one_of(texts, st.sampled_from(["time", "category", "source", "sender", "vn"]))
records = st.builds(
    TraceRecord,
    time=st.one_of(ints, st.floats(), st.sampled_from(list(Level))),
    category=st.one_of(texts, st.sampled_from(["frame.tx", "app"])),
    source=st.one_of(texts, st.sampled_from(["bus", "gw"])),
    detail=st.dictionaries(keys, values, max_size=6),
)


@settings(max_examples=400, deadline=None)
@given(records)
def test_record_to_json_is_byte_identical_to_json_dumps(rec: TraceRecord) -> None:
    assert record_to_json(rec) == oracle(rec)


@pytest.mark.parametrize("rec", [
    TraceRecord(0, "app", "x"),
    TraceRecord(-(10**50), "app", "x", {"a": 10**50, "b": -3}),
    TraceRecord(1, "app", "x", {1: "int key", 2.5: None}),
    TraceRecord(1, "app", "x", {True: 0}),
    TraceRecord(1, 1, True, {"source": [1, (2,)], "time": Level.HIGH}),
    TraceRecord(1.5, "cé\n", 'q"\\', {"v": float("nan"), "w": -0.0}),
])
def test_edge_records_match_the_oracle(rec: TraceRecord) -> None:
    assert record_to_json(rec) == oracle(rec)


def test_equal_but_differently_typed_structure_is_not_confused() -> None:
    # 1 == 1.0 == True as dict keys; the caches must not mix them up
    for cat in (1, 1.0, True, "1"):
        for key in (1, 1.0, True, "1"):
            rec = TraceRecord(0, cat, "s", {key: key})
            assert record_to_json(rec) == oracle(rec)


@pytest.mark.parametrize("rec", [
    TraceRecord(object(), "app", "x", {"a": 1}),  # a non-JSON time
    TraceRecord(0, "app", "x", {"time": 1, 1: 2}),  # unorderable detail keys
])
def test_unencodable_records_still_raise_type_error(rec: TraceRecord) -> None:
    with pytest.raises(TypeError):
        oracle(rec)
    with pytest.raises(TypeError):
        record_to_json(rec)


def _records(n: int) -> list[TraceRecord]:
    return [TraceRecord(i, "app", f"s{i % 7}", {"i": i, "tag": "x" * (i % 5)})
            for i in range(n)]


@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 8193])
def test_jsonl_sha256_equals_hashing_the_whole_export(n: int) -> None:
    recs = _records(n)
    want = hashlib.sha256(to_jsonl(recs).encode()).hexdigest()
    assert jsonl_sha256(recs) == want
    assert jsonl_sha256(iter(recs)) == want


def test_jsonl_sha256_of_an_empty_trace_is_sha256_of_nothing() -> None:
    assert jsonl_sha256([]) == hashlib.sha256(b"").hexdigest()


def _digest_sink(recs) -> DigestSink:
    sink = DigestSink()
    for rec in recs:
        sink.emit(rec)
    return sink


@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 8193])
def test_digest_sink_equals_jsonl_sha256(n: int) -> None:
    recs = _records(n)
    sink = _digest_sink(recs)
    assert sink.hexdigest() == jsonl_sha256(recs)
    assert sink.hexdigest() == jsonl_sha256(recs)  # asking twice changes nothing
    assert sink.total() == n


@settings(max_examples=100, deadline=None)
@given(st.lists(records, max_size=12), st.integers(0, 12))
def test_digest_sink_equals_jsonl_sha256_on_any_records(recs, cut) -> None:
    # written text and emitted records interleave in emission order
    head, tail = recs[:cut], recs[cut:]
    sink = _digest_sink(head)
    if tail:
        sink.write("\n".join(map(record_to_json, tail)))
    assert sink.hexdigest() == jsonl_sha256(recs)


class _Text(DigestSink):
    """A digest sink that also keeps the text written to it."""

    def __init__(self) -> None:
        super().__init__()
        self.text: list[str] = []

    def write(self, text: str) -> None:
        self.text.append(text)
        super().write(text)


stride_values = st.one_of(st.integers(), st.booleans(), st.sampled_from(list(Level)))
# the static text of a line replay is a %-format: '%' must come out literally
percents = st.sampled_from(["%", "%d", "100%%", "%s%"])
protos = st.tuples(
    st.one_of(texts, percents, st.sampled_from(["sync.round", "frame.tx"])),
    st.one_of(texts, percents, st.sampled_from(["ctrl.n0", "bus"])),
    # string keys only: a record with unorderable keys never gets emitted
    st.dictionaries(st.one_of(texts, percents,
                              st.sampled_from(["time", "category", "source", "slot"])),
                    st.one_of(values, percents), max_size=4),
    st.dictionaries(st.sampled_from(STRIDE_KEYS), st.tuples(stride_values, stride_values)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(protos, min_size=1, max_size=3),
       st.one_of(st.integers(-1000, 1000), st.integers(-(2**62), 2**62)),
       st.integers(1, 3), st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6))
def test_replayed_lines_equal_record_to_json(drawn, m0, k, base, step) -> None:
    """Lines a replay encodes from fragments equal ``record_to_json`` of
    the records the replay would otherwise build; a shadowing detail key
    or a non-``int`` stride base or stride takes the record path."""
    built = tuple(
        (i, category, source, {**detail, **{key: b for key, (b, _s) in strided.items()}},
         tuple((key, b, s) for key, (b, s) in strided.items()))
        for i, (category, source, detail, strided) in enumerate(drawn)
    )
    times = [[base + step * j + i for i in range(len(built))] for j in range(k)]
    want = []
    for j, row in enumerate(times):
        for t, (_nrel, category, source, detail, strides) in zip(row, built):
            detail = {**detail, **{key: b + s * (m0 + j) for key, b, s in strides}}
            want.append(record_to_json(TraceRecord(t, category, source, detail)))
    plan = line_plan(built)
    shadowed = any(key in ("time", "category", "source")
                   for _n, _c, _s, detail, _st in built for key in detail)
    inexact = any(type(v) is not int
                  for *_, strides in built for _key, b, s in strides for v in (b, s))
    assert (plan is None) == (shadowed or inexact)
    if plan is None:
        return
    sink = _Text()
    mmax = max(abs(m0), abs(m0 + k - 1))
    too_large = any(abs(b) >= 2**62 or abs(s) * mmax >= 2**62
                    for *_, strides in built for _key, b, s in strides)
    # values that could leave int64 take the record path instead
    assert write_rounds(sink, plan, np.asarray(times, dtype=np.int64), m0) != too_large
    if too_large:
        assert not sink.text and not sink.counts
        return
    assert "\n".join(sink.text) == "\n".join(want)
    assert sink.total() == len(want)
    assert sink.hexdigest() == hashlib.sha256("\n".join(want).encode()).hexdigest()


def test_a_replay_longer_than_one_chunk_is_hashed_in_pieces() -> None:
    built = ((0, "sync.round", "ctrl.n0", {"cycle": 7, "correction": 0}, (("cycle", 7, 1),)),
             (5, "vn.dispatch", "vn%d", {"message": "100%"}, ()))
    plan = line_plan(built)
    k = 5000
    times = np.add.outer(np.arange(k, dtype=np.int64) * 100, np.array([0, 5]))
    sink = _Text()
    assert write_rounds(sink, plan, times, 3)
    assert len(sink.text) > 1
    want = [record_to_json(TraceRecord(t, c, s, {**d, **{key: b + step * (3 + j)
                                                       for key, b, step in strides}}))
            for j, row in enumerate(times.tolist())
            for t, (_n, c, s, d, strides) in zip(row, built)]
    assert "\n".join(sink.text) == "\n".join(want)
    assert sink.counts == {"sync.round": k, "vn.dispatch": k}


@pytest.mark.parametrize("name", FULL_TRACE)
def test_trace_digest_matches_the_oracle_on_full_trace_scenarios(name: str) -> None:
    spec = REGISTRY[name]
    sim = build_scenario(spec)
    try:
        sim.run_until(spec.horizon_ns)
    finally:
        sim.trace.close()
    text = "\n".join(oracle(rec) for rec in sim.trace.records())
    assert trace_digest(sim) == hashlib.sha256(text.encode()).hexdigest()


def test_records_without_filters_copy_the_stored_trace() -> None:
    tr = TraceLog()
    for i in range(6):
        tr.record(i, "app" if i % 2 else "frame.tx", f"s{i % 3}", i=i)
    everything = tr.records()
    assert everything == list(tr)
    everything.clear()  # a copy: the stored trace is untouched
    assert len(tr) == 6
    assert [r.time for r in tr.records(category="app")] == [1, 3, 5]
    assert [r.time for r in tr.records(source="s0", since=1)] == [3]
    assert [r.time for r in tr.records(until=2, predicate=lambda r: r["i"] > 0)] == [1, 2]


def test_result_reports_digest_time_but_ledger_leaves_it_out() -> None:
    spec = REGISTRY["tdma-smoke"]
    result = run_scenario(spec)
    assert result["digest_s"] >= 0
    assert "digest_s" not in record_from_result(spec, result, "code")


@pytest.mark.parametrize("name", ["tdma-cluster", "tt-vn-pipeline", "gw-pipeline-smoke"])
def test_run_scenario_stores_no_records(name: str, monkeypatch) -> None:
    def refuse(self, rec):
        raise AssertionError("run_scenario stored a trace record")

    monkeypatch.setattr(MemorySink, "emit", refuse)
    result = run_scenario(REGISTRY[name])
    assert "error" not in result
    assert (result["digest"], result["events_executed"]) == PINNED_DIGESTS[name]


@pytest.mark.parametrize("name", ["gw-pipeline-smoke", "fault-controller-crash"])
def test_replaying_full_trace_run_builds_no_records(name: str, monkeypatch) -> None:
    """The round-template engine captures the fields of its recorded
    rounds without turning off the lone-digest fast path: live rounds,
    recorded rounds and replayed rounds alike build no record."""
    built = {"n": 0}
    init = TraceRecord.__init__

    def counting(self, *args, **kwargs):
        built["n"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(TraceRecord, "__init__", counting)
    result = run_scenario(REGISTRY[name])
    assert (result["digest"], result["events_executed"]) == PINNED_DIGESTS[name]
    assert result["round_template"]["rounds_replayed"] > 0
    assert built["n"] == 0


def test_capture_takes_record_fields_from_every_sink_path() -> None:
    """``TraceLog.capture`` sees what the sinks consume — through the
    lone-digest fast path and the record path — and nothing masked."""
    fields = []
    for sinks in ([DigestSink()], [MemorySink(), DigestSink()]):
        tr = TraceLog(sinks=sinks)
        tr.set_mask({"app"})
        captured: list[tuple] = []
        tr.capture(captured)
        tr.record(1, "app", "a", x=1)
        tr.record(2, "frame.tx", "b", y=2)
        tr.capture(None)
        tr.record(3, "app", "c")
        fields.append(captured)
    assert fields[0] == fields[1] == [(1, "app", "a", {"x": 1})]


@pytest.mark.parametrize("name", ["gw-pipeline-flow", "car-flow"])
def test_flow_traced_runs_keep_their_records(name: str) -> None:
    result = run_scenario(REGISTRY[name])
    assert result["flows"]
    assert (result["digest"], result["events_executed"]) == PINNED_DIGESTS[name]
