"""Fleet-wide aggregation over cached sweep results (repro obs)."""

from __future__ import annotations

import json

from repro.runner import (
    aggregate_results,
    compare_snapshots,
    load_cached_results,
    observability_report,
)


def _result(name: str, counters: dict, flows: dict | None = None,
            hist_count: int = 0) -> dict:
    histograms = {}
    if hist_count:
        histograms["lat"] = {"count": hist_count, "total": 10 * hist_count,
                             "min": 8, "max": 12, "mean": 10.0,
                             "buckets": [0, 0, 0, 0, hist_count]}
    out = {"name": name, "seed": 0, "events_executed": 100, "wall_s": 0.25,
           "metrics": {"counters": counters, "histograms": histograms}}
    if flows is not None:
        out["flows"] = flows
    return out


def _write(cache, name, result):
    (cache / f"{name}-abc123.json").write_text(
        json.dumps({"key": "abc123", "spec": {}, "value": result}))


def test_load_cached_results_skips_foreign_files(tmp_path):
    _write(tmp_path, "b", _result("b", {"x": 1}))
    _write(tmp_path, "a", _result("a", {"x": 2}))
    (tmp_path / "junk.json").write_text("not json at all")
    (tmp_path / "other.json").write_text('{"no": "value"}')
    results = load_cached_results(tmp_path)
    assert [r["name"] for r in results] == ["a", "b"]  # sorted, junk skipped
    only_a = load_cached_results(tmp_path, names=["a"])
    assert [r["name"] for r in only_a] == ["a"]


def test_load_cached_results_missing_dir(tmp_path):
    assert load_cached_results(tmp_path / "nope") == []


def test_aggregate_results_merges_metrics_and_flows():
    agg = aggregate_results([
        _result("a", {"bus.tx": 10}, hist_count=4,
                flows={"flows": 5, "outcomes": {"blocked": 1, "forwarded": 4}}),
        _result("b", {"bus.tx": 3, "gw.blocks": 2}, hist_count=6,
                flows={"flows": 2, "outcomes": {"forwarded": 2}}),
    ])
    assert agg["count"] == 2
    assert agg["events_executed"] == 200
    assert agg["metrics"]["counters"] == {"bus.tx": 13, "gw.blocks": 2}
    assert agg["metrics"]["histograms"]["lat"]["count"] == 10
    assert agg["flows"] == {"scenarios_traced": 2, "flows": 7,
                            "blocked": 1, "forwarded": 6}


def test_compare_snapshots_reports_deltas_and_shifts():
    base = {"counters": {"x": 5, "gone": 1}, "histograms": {}}
    other = {"counters": {"x": 9, "new": 2}, "histograms": {
        "lat": {"count": 3, "total": 30, "min": 8, "max": 12,
                "buckets": [0, 0, 0, 0, 3]}}}
    cmp = compare_snapshots(base, other)
    assert cmp["counters"]["x"] == {"base": 5, "other": 9, "delta": 4}
    assert cmp["counters"]["gone"]["delta"] == -1
    assert cmp["counters"]["new"]["base"] == 0
    assert cmp["histograms"]["lat"]["count_delta"] == 3
    assert cmp["histograms"]["lat"]["mean_shift"] == 10.0


def test_observability_report_renders_markdown():
    agg = aggregate_results([_result("a", {"bus.tx": 10}, hist_count=2)])
    text = observability_report(agg, title="unit report")
    assert text.startswith("# unit report")
    assert "| bus.tx | 10 |" in text
    assert "| lat | 2 |" in text

    cmp = compare_snapshots(agg["metrics"], agg["metrics"])
    both = observability_report(agg, comparison=cmp)
    assert "## Comparison" in both
