"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


def test_version(capsys):
    assert main(["version"]) == 0
    out = capsys.readouterr().out.strip()
    from repro import __version__

    assert out == __version__


def test_inventory(capsys, monkeypatch, tmp_path):
    # The table must not depend on the working directory.
    monkeypatch.chdir(tmp_path)
    assert main(["inventory"]) == 0
    out = capsys.readouterr().out
    federated = next(line for line in out.splitlines()
                     if line.startswith("federated "))
    assert [c.strip() for c in federated.split("|")][1:6] == [
        "6", "6", "32", "64", "26"]
    assert "integrated + virtual gateways" in out


def test_car_short_run(capsys):
    assert main(["car", "--seconds", "2", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "ran the integrated car" in out
    assert "gw-nav" in out


def test_audit_clean(capsys):
    assert main(["audit"]) == 0
    out = capsys.readouterr().out
    assert "CLEAN" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["definitely-not-a-command"])


def test_car_metrics_json_and_flow_tracing(tmp_path, capsys):
    import json

    path = tmp_path / "metrics.json"
    assert main(["car", "--seconds", "1", "--flow-tracing",
                 "--metrics-json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "flows:" in out
    snap = json.loads(path.read_text())
    assert snap["counters"]["bus.frames_tx"] > 0


def test_obs_flows_reconstructs_forward_and_block(tmp_path, capsys):
    export = tmp_path / "journeys.ndjson"
    assert main(["obs", "flows", "--seconds", "1", "--out", str(export)]) == 0
    out = capsys.readouterr().out
    assert "example forwarded journey" in out
    assert "example blocked journey" in out
    assert "gw." in out  # gateway hops in the timelines
    assert export.read_text().strip()


def test_obs_aggregate_and_compare(tmp_path, capsys):
    import json

    cache = tmp_path / "cache"
    assert main(["sweep", "--filter", "gw-pipeline-flow", "--workers", "1",
                 "--cache-dir", str(cache)]) == 0
    capsys.readouterr()
    report = tmp_path / "report.md"
    assert main(["obs", "aggregate", "--cache-dir", str(cache),
                 "--out", str(report), "--json"]) == 0
    text = capsys.readouterr().out
    agg = json.loads(text[: text.rindex("report written")])
    assert agg["count"] == 1
    assert report.read_text().startswith("# Observability report")

    snap = tmp_path / "snap.json"
    snap.write_text(json.dumps({"metrics": agg["metrics"]}))
    assert main(["obs", "compare", str(snap), str(snap)]) == 0
    out = capsys.readouterr().out
    assert "0/" in out  # identical snapshots: no counter changed


def test_obs_aggregate_empty_cache_fails(tmp_path, capsys):
    assert main(["obs", "aggregate", "--cache-dir",
                 str(tmp_path / "empty")]) == 2


def test_car_metrics_prom_writes_exposition(tmp_path, capsys):
    path = tmp_path / "metrics.prom"
    assert main(["car", "--seconds", "1", "--metrics-prom", str(path)]) == 0
    out = capsys.readouterr().out
    assert "prometheus exposition written" in out
    text = path.read_text()
    assert "# TYPE repro_bus_frames_tx_total counter" in text
    assert '_bucket{le="+Inf"}' in text


def test_ledger_show_verify_and_trends_cycle(tmp_path, capsys):
    cache = tmp_path / "cache"
    events = tmp_path / "events.ndjsonl"
    assert main(["sweep", "--filter", "tdma-smoke", "--workers", "1",
                 "--cache-dir", str(cache), "--events", str(events)]) == 0
    capsys.readouterr()
    assert events.read_text().strip()

    assert main(["ledger", "show", "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "tdma-smoke" in out and "1 entries" in out

    assert main(["ledger", "verify", "--all", "--strict",
                 "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "1 parity, 0 drift, 0 mismatch" in out

    assert main(["ledger", "trends", "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "digest-stable across all recorded configurations: yes" in out


def test_ledger_show_prints_rounds_replayed(tmp_path, capsys):
    """Each entry line reports the recorded run's replayed-round count
    (tdma-smoke is a pure-TT scenario, so the count is non-zero)."""
    import json

    cache = tmp_path / "cache"
    assert main(["sweep", "--filter", "tdma-smoke", "--workers", "1",
                 "--cache-dir", str(cache)]) == 0
    capsys.readouterr()
    entry = json.loads((cache / "ledger.ndjsonl").read_text())
    replayed = entry["round_template"]["rounds_replayed"]
    assert replayed > 0
    assert main(["ledger", "show", "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert f" replayed={replayed}" in out


def test_ledger_verify_fails_on_tampered_digest(tmp_path, capsys):
    import json

    cache = tmp_path / "cache"
    assert main(["sweep", "--filter", "tdma-smoke", "--workers", "1",
                 "--cache-dir", str(cache)]) == 0
    capsys.readouterr()
    path = cache / "ledger.ndjsonl"
    entry = json.loads(path.read_text())
    entry["digest"] = "0" * 64  # same code digest -> mismatch, not drift
    path.write_text(json.dumps(entry) + "\n")
    assert main(["ledger", "verify", "--all", "--cache-dir", str(cache)]) == 1
    out = capsys.readouterr().out
    assert "mismatch" in out and "FAIL" in out


def test_ledger_commands_on_empty_cache(tmp_path, capsys):
    assert main(["ledger", "verify", "--cache-dir",
                 str(tmp_path / "empty")]) == 2
    assert main(["ledger", "show", "--cache-dir",
                 str(tmp_path / "empty")]) == 0
    out = capsys.readouterr().out
    assert "no matching entries" in out


def test_sweep_generated_campaign_end_to_end(tmp_path, capsys):
    import json

    cache = tmp_path / "cache"
    args = ["sweep", "--generated", "8", "--gen-profile", "small",
            "--strict", "--workers", "1", "--cache-dir", str(cache),
            "--json"]
    assert main(args) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["generated"]["total"] == 8
    assert report["count"] == report["generated"]["admitted"]
    assert not report["errors"]
    assert "admitted" in captured.err
    digests = [r["digest"] for r in report["scenarios"]]

    # the identical campaign again: fully warm, byte-identical digests
    assert main(args) == 0
    report2 = json.loads(capsys.readouterr().out)
    assert report2["cache_hits"] == report2["count"]
    assert [r["digest"] for r in report2["scenarios"]] == digests

    # the recorded campaign survives the replay audit
    assert main(["ledger", "verify", "--all", "--strict",
                 "--cache-dir", str(cache)]) == 0


def test_cache_stats_totals_rollup(tmp_path, capsys):
    import json

    cache = tmp_path / "cache"
    assert main(["sweep", "--generated", "4", "--gen-profile", "small",
                 "--workers", "1", "--cache-dir", str(cache)]) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", str(cache),
                 "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    totals = stats["totals"]
    assert "templates" not in stats
    assert totals["entries"] == (stats["results"]["entries"]
                                 + stats["checks"]["entries"])
    assert totals["total_bytes"] > 0
    assert "check_hits" in totals and "check_misses" in totals
    assert main(["cache", "stats", "--cache-dir", str(cache)]) == 0
    assert "totals:" in capsys.readouterr().out


def test_campaign_faults_table(tmp_path, capsys):
    import json

    assert main(["campaign", "faults", "--seeds", "6", "--workers", "1",
                 "--cache-dir", str(tmp_path / "cache"), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["seeds"] == 6
    assert out["admission"]["total"] == 6
    assert sum(row["runs"] for row in out["faults"].values()) \
        == out["admission"]["admitted"]


@pytest.mark.parametrize("argv", (
    ["car", "--seconds", "1", "--pace", "0"],
    ["sweep", "--filter", "tdma-smoke", "--workers", "1", "--pace", "-5"],
), ids=("car", "sweep"))
def test_non_positive_pace_is_a_usage_error(argv, tmp_path, capsys):
    """A non-positive ``--pace`` is rejected by argparse (exit 2) before
    any scenario is built or handed to a sweep worker."""
    cache = tmp_path / "cache"
    if argv[0] == "sweep":
        argv = [*argv, "--cache-dir", str(cache)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "pace must be positive" in captured.err
    assert captured.out == ""
    assert not cache.exists()
