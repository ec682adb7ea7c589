"""Self-test of the benchmark: ``pytest benchmarks/bench``.

Workload functions are called with tiny pass counts as plain arguments;
the traced pass runs in a subprocess so the tracer's wrappers never
touch this interpreter.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest
import tracer
import workloads

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def _names(section: str) -> list[tuple[str, str]]:
    return [(m["name"], m["unit"]) for m in BENCHMARK[section]]


@pytest.fixture(scope="module")
def measured() -> dict:
    return workloads.measure("tt-substrate", 0, 0, max_passes=1, warm_legs=1)


@pytest.fixture(scope="module")
def traced() -> dict:
    code = ("import json, workloads; "
            "print(json.dumps(workloads.trace('tt-substrate', 0, warm_legs=1)))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=workloads.BENCH_DIR,
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_metric_names_match_benchmark_json(measured):
    assert list(workloads.END_TO_END) == _names("end_to_end")
    assert list(measured["metrics"]) == [name for name, _ in _names("end_to_end")]
    assert measured["failed"] == 0 and measured["attempted"] > 0
    assert all(value > 0 for value in measured["metrics"].values())


def test_per_layer_metric_names_match_benchmark_json(measured, traced):
    assert list(workloads.PER_LAYER) == _names("per_layer")
    metrics = workloads.layer_metrics(traced, measured["pass_wall_s"][0])
    assert list(metrics) == [name for name, _ in _names("per_layer")]


def test_traced_pass_reproduces_untraced_pass(measured, traced):
    assert traced["first_pass"] == measured["first_pass"]
    assert traced["failed"] == 0


def test_self_times_are_never_negative_and_cover_the_pass(traced):
    assert all(value >= 0 for value in traced["self_s"].values())
    covered = sum(v for layer, v in traced["self_s"].items() if layer != tracer.ROOT)
    assert covered == pytest.approx(traced["wall_s"], rel=0.05)


def test_self_time_subtracts_child_spans():
    tr = tracer.Tracer(min_log_ns=0)

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        tr.span("b", "b", inner, (), {})

    _, wall_ns = tr.root(lambda: tr.span("a", "a", outer, (), {}))
    assert tr.self_ns["b"] >= 0.02e9
    assert 0.01e9 <= tr.self_ns["a"] < 0.02e9
    assert sum(tr.self_ns.values()) == pytest.approx(wall_ns, rel=0.01)
    ids = {span[0]: span for span in tr.spans}
    assert [ids[s[1]][2] for s in tr.spans if s[1]] == ["a", "bench"]


def test_wrong_golden_digest_counts_as_failed():
    golden = workloads.load_golden()
    golden["registry"]["tdma-cluster"] = "0" * 64
    out = workloads.measure("tt-substrate", 0, 0, max_passes=1, warm_legs=1, golden=golden)
    assert out["failed"] > 0
    assert out["failed"] / out["attempted"] > 0


def test_failed_child_still_prints_a_result(monkeypatch, capsys):
    import run

    def fail(job):
        raise run.ChildFailed(f"{job['mode']} child exited 1")

    monkeypatch.setattr(run, "spawn", fail)
    assert run.main(["--seed", "0"]) == 1
    final = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert final == {"correct": False, "attempted": len(workloads.WORKLOADS),
                     "failed": len(workloads.WORKLOADS), "metrics": {}}


def test_campaign_seeds_give_different_candidates():
    workloads.import_repro()
    first, second = workloads.candidates(0), workloads.candidates(1)
    assert len(first) == len(second) == workloads.CAMPAIGN_CANDIDATES
    assert [s.seed for s in first] != [s.seed for s in second]
    assert workloads.candidates(0) == first
