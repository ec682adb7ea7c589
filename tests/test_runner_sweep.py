"""The scenario-sweep engine: registry, cache keys, and the
serial/parallel/cached determinism guarantee.

The heavyweight guarantee under test: one scenario spec produces a
byte-identical trace digest whether it runs in this process, in a
worker pool, or comes back from the result cache.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.ledger import RunLedger, verify_entries
from repro.runner import (
    BUILDERS,
    LEDGER_FILENAME,
    ResultCache,
    ScenarioSpec,
    SweepRunner,
    build_scenario,
    code_digest,
    default_registry,
    derive_seed,
    filter_scenarios,
    result_key,
    run_scenario,
    sweep_table,
)
from repro.sim import MS

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def tiny_spec(name: str = "tiny-gw", *, seed: int = 5, horizon: int = 60 * MS,
              trace_mode: str = "full", **params) -> ScenarioSpec:
    return ScenarioSpec(name=name, builder="gateway_pipeline",
                        horizon_ns=horizon, seed=seed, trace_mode=trace_mode,
                        params=tuple(sorted(params.items())))


# ----------------------------------------------------------------------
# registry & specs
# ----------------------------------------------------------------------
def test_default_registry_names_are_unique_and_builders_known():
    registry = default_registry()
    assert len(registry) >= 8
    for name, spec in registry.items():
        assert spec.name == name
        assert spec.builder in BUILDERS
        assert spec.horizon_ns > 0


def test_registry_has_sweep_and_smoke_subsets():
    registry = default_registry()
    assert len(filter_scenarios(registry, ["sweep"])) >= 8
    smoke = filter_scenarios(registry, ["smoke"])
    assert 1 <= len(smoke) <= 5
    assert all(s.horizon_ns <= 500 * MS for s in smoke)


def test_filter_matches_tags_and_name_globs_or_ed():
    registry = default_registry()
    by_glob = {s.name for s in filter_scenarios(registry, ["car-*"])}
    assert "car-baseline" in by_glob and "gw-pipeline-s5" not in by_glob
    combo = {s.name for s in filter_scenarios(registry, ["fault", "tt-vn-*"])}
    assert "fault-babbling-idiot" in combo and "tt-vn-pipeline" in combo
    assert filter_scenarios(registry, None) == list(registry.values())


def test_derive_seed_is_stable_and_name_sensitive():
    assert derive_seed("x", 0) == derive_seed("x", 0)
    assert derive_seed("x", 0) != derive_seed("y", 0)
    assert derive_seed("x", 0) != derive_seed("x", 1)
    registry = default_registry(base_seed=7)
    assert registry["gw-pipeline-s5"].seed == 5  # explicit anchor survives
    assert registry["tdma-cluster"].seed == derive_seed("tdma-cluster", 7)


def test_unknown_builder_raises_configuration_error():
    spec = ScenarioSpec(name="bogus", builder="nope", horizon_ns=1, seed=0)
    with pytest.raises(ConfigurationError):
        build_scenario(spec)


def test_spec_as_dict_is_json_stable():
    spec = tiny_spec(dst_period_ns=20 * MS)
    a = json.dumps(spec.as_dict(), sort_keys=True)
    b = json.dumps(tiny_spec(dst_period_ns=20 * MS).as_dict(), sort_keys=True)
    assert a == b


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
def test_result_key_changes_with_spec_and_code_digest():
    spec = tiny_spec()
    assert result_key(spec, "code-a") == result_key(tiny_spec(), "code-a")
    assert result_key(spec, "code-a") != result_key(spec, "code-b")
    assert result_key(spec, "code-a") != result_key(tiny_spec(seed=6), "code-a")


def test_cache_roundtrip_and_stale_key_reaping(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    spec = tiny_spec()
    old_key = result_key(spec, "old-code")
    new_key = result_key(spec, "new-code")
    cache.put(spec, old_key, {"digest": "aa"})
    assert cache.get(spec, old_key) == {"digest": "aa"}
    assert cache.get(spec, new_key) is None  # code changed -> miss
    cache.put(spec, new_key, {"digest": "bb"})
    assert cache.get(spec, old_key) is None  # stale entry reaped
    assert len(list((tmp_path / "cache").glob("*.json"))) == 1
    assert cache.clear() == 1


def test_cache_put_many_batches_and_reaps_stale_keys(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    specs = [tiny_spec(f"s{i}", seed=i) for i in range(6)]
    cache.put_many([(s, result_key(s, "old"), {"digest": f"old{i}"})
                    for i, s in enumerate(specs)])
    assert all(cache.get(s, result_key(s, "old")) is not None for s in specs)
    # a batched refresh under a new code digest reaps every stale entry
    cache.put_many([(s, result_key(s, "new"), {"digest": f"new{i}"})
                    for i, s in enumerate(specs)])
    assert all(cache.get(s, result_key(s, "old")) is None for s in specs)
    assert all(cache.get(s, result_key(s, "new"))["digest"] == f"new{i}"
               for i, s in enumerate(specs))
    assert len(list((tmp_path / "cache").glob("*.json"))) == len(specs)


def test_cache_put_many_evicts_to_cap_incrementally(tmp_path):
    cache = ResultCache(tmp_path / "cache", max_bytes=2048)
    specs = [tiny_spec(f"s{i:02d}", seed=i) for i in range(30)]
    payload = {"digest": "x" * 200}
    cache.put_many([(s, result_key(s, "c"), payload) for s in specs])
    stats = cache.stats()
    assert stats["total_bytes"] <= 2048
    assert stats["evictions"] > 0
    # newest entries survive, oldest were evicted
    assert cache.get(specs[-1], result_key(specs[-1], "c")) is not None
    assert cache.get(specs[0], result_key(specs[0], "c")) is None
    # the on-disk reality agrees with the incremental index
    on_disk = sum(p.stat().st_size
                  for p in (tmp_path / "cache").glob("*.json"))
    assert on_disk <= 2048


def test_cache_put_many_matches_serial_puts(tmp_path):
    batched = ResultCache(tmp_path / "a")
    serial = ResultCache(tmp_path / "b")
    specs = [tiny_spec(f"s{i}", seed=i) for i in range(4)]
    items = [(s, result_key(s, "c"), {"digest": f"d{i}"})
             for i, s in enumerate(specs)]
    batched.put_many(items)
    for s, key, payload in items:
        serial.put(s, key, payload)
    for s, key, _ in items:
        assert batched.get(s, key) == serial.get(s, key)


def test_cache_ignores_corrupt_entries(tmp_path):
    cache = ResultCache(tmp_path)
    spec = tiny_spec()
    key = result_key(spec, "c")
    cache.path_for(spec, key).parent.mkdir(parents=True, exist_ok=True)
    cache.path_for(spec, key).write_text("{not json")
    assert cache.get(spec, key) is None


# ----------------------------------------------------------------------
# execution determinism
# ----------------------------------------------------------------------
def test_run_scenario_is_deterministic_across_calls():
    spec = tiny_spec()
    a = run_scenario(spec)
    b = run_scenario(spec)
    assert a["digest"] == b["digest"]
    assert a["events_executed"] == b["events_executed"]
    assert a["metrics"] == b["metrics"]
    assert a["now_ns"] == spec.horizon_ns


def test_counter_mode_scenario_digest_is_deterministic():
    spec = tiny_spec("tiny-gw-counters", trace_mode="counters")
    assert run_scenario(spec)["digest"] == run_scenario(spec)["digest"]


def test_serial_parallel_and_cached_digests_are_byte_identical(tmp_path):
    specs = [tiny_spec("par-a", seed=5), tiny_spec("par-b", seed=6),
             tiny_spec("par-c", seed=7, trace_mode="counters")]
    serial = SweepRunner(workers=1, cache_dir=tmp_path / "c1").run(specs)
    parallel = SweepRunner(workers=2, cache_dir=tmp_path / "c2").run(specs)
    warm = SweepRunner(workers=2, cache_dir=tmp_path / "c2").run(specs)
    assert serial["errors"] == parallel["errors"] == warm["errors"] == []
    digests = lambda rep: [r["digest"] for r in rep["scenarios"]]  # noqa: E731
    assert digests(serial) == digests(parallel) == digests(warm)
    assert [r["cached"] for r in warm["scenarios"]] == [True, True, True]
    assert warm["cache_hits"] == 3 and warm["executed"] == 0


def test_chunked_execution_digests_match_unchunked(tmp_path):
    specs = [tiny_spec(f"chunk-{i}", seed=i) for i in range(5)]
    one = SweepRunner(workers=1, cache_dir=str(tmp_path / "a"),
                      chunk_size=1).run(specs)
    big = SweepRunner(workers=1, cache_dir=str(tmp_path / "b"),
                      chunk_size=4).run(specs)
    assert not one["errors"] and not big["errors"]
    assert ([r["digest"] for r in one["scenarios"]]
            == [r["digest"] for r in big["scenarios"]])


def test_chunk_size_policy_bounds_the_durability_window(tmp_path):
    runner = SweepRunner(workers=1, cache_dir=str(tmp_path))
    assert runner._chunk_size_for(1) == 1
    assert runner._chunk_size_for(4) == 1
    assert runner._chunk_size_for(1000) == 32  # capped retry window
    runner4 = SweepRunner(workers=4, cache_dir=str(tmp_path))
    assert runner4._chunk_size_for(16) == 1  # one spec per wave slot
    assert runner4._chunk_size_for(1000) == 32
    fixed = SweepRunner(workers=1, cache_dir=str(tmp_path), chunk_size=7)
    assert fixed._chunk_size_for(1000) == 7


def test_chunk_failure_isolates_to_the_failing_scenario(tmp_path):
    good = tiny_spec("ok-0", seed=1)
    bad = ScenarioSpec(name="boom", builder="gateway_pipeline",
                       horizon_ns=-1, seed=1, trace_mode="full")
    good2 = tiny_spec("ok-1", seed=2)
    report = SweepRunner(workers=1, cache_dir=str(tmp_path),
                         chunk_size=3).run([good, bad, good2])
    assert report["errors"] == ["boom"]
    by_name = {r["name"]: r for r in report["scenarios"]}
    assert "digest" in by_name["ok-0"] and "digest" in by_name["ok-1"]


def test_no_cache_forces_rerun_but_refreshes_entries(tmp_path):
    spec = tiny_spec()
    runner = SweepRunner(workers=1, cache_dir=tmp_path, use_cache=False)
    first = runner.run([spec])
    second = runner.run([spec])
    assert first["cache_hits"] == second["cache_hits"] == 0
    assert second["executed"] == 1
    warm = SweepRunner(workers=1, cache_dir=tmp_path).run([spec])
    assert warm["cache_hits"] == 1


def test_forced_refresh_reruns_match_event_by_event_run(tmp_path):
    """Two ``use_cache=False`` sweeps into one directory must both give
    the event-by-event digest, and their ledger must audit at parity.
    A second run that warm-started replay from the first run's compiled
    templates once recorded a different car-strict-separation digest."""
    spec = default_registry()["car-strict-separation"]
    exact = run_scenario(spec.with_param("round_template", False))["digest"]
    runner = SweepRunner(workers=1, cache_dir=tmp_path, use_cache=False)
    digests = [runner.run([spec])["scenarios"][0]["digest"]
               for _ in range(2)]
    assert digests == [exact, exact]
    entries = RunLedger(tmp_path / LEDGER_FILENAME).entries()
    assert [e["digest"] for e in entries] == digests
    audit = verify_entries(entries, code_digest(), strict=True)
    assert audit["ok"] and audit["parity"] == audit["checked"] == 1


def test_failing_scenario_is_reported_not_cached(tmp_path):
    bad = ScenarioSpec(name="bad", builder="no-such-builder",
                       horizon_ns=10 * MS, seed=0)
    good = tiny_spec()
    report = SweepRunner(workers=1, cache_dir=tmp_path).run([bad, good])
    assert report["errors"] == ["bad"]
    assert "error" in report["scenarios"][0]
    assert report["scenarios"][1]["digest"]
    again = SweepRunner(workers=1, cache_dir=tmp_path).run([bad, good])
    assert again["cache_hits"] == 1  # only the good one was cached
    assert again["errors"] == ["bad"]


def test_duplicate_spec_names_raise(tmp_path):
    # Results and cache entries are keyed by name; a silent overwrite
    # would hide one scenario's result behind the other's.
    specs = [tiny_spec("twin", seed=1), tiny_spec("twin", seed=2)]
    runner = SweepRunner(workers=1, cache_dir=tmp_path)
    with pytest.raises(ConfigurationError, match="duplicate scenario name"):
        runner.run(specs)


def test_report_order_follows_spec_order(tmp_path):
    specs = [tiny_spec("z-last", seed=9), tiny_spec("a-first", seed=5)]
    report = SweepRunner(workers=2, cache_dir=tmp_path).run(specs)
    assert [r["name"] for r in report["scenarios"]] == ["z-last", "a-first"]


# ----------------------------------------------------------------------
# reporting helpers
# ----------------------------------------------------------------------
def test_sweep_table_renders_results_and_errors(tmp_path, capsys):
    report = SweepRunner(workers=1, cache_dir=tmp_path).run([tiny_spec()])
    report["scenarios"].append({"name": "broken", "error": "boom"})
    report["errors"] = ["broken"]
    report["count"] += 1
    sweep_table(report).print()
    out = capsys.readouterr().out
    assert "tiny-gw" in out and "ERROR" in out
