"""tools/check_bench_thresholds.py: the flow-bound soundness floor is
hard, and the committed BENCH_substrate.json passes every bound."""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "check_bench_thresholds", ROOT / "tools" / "check_bench_thresholds.py")
assert _spec is not None and _spec.loader is not None
thresholds = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(thresholds)

BENCH = json.loads((ROOT / "BENCH_substrate.json").read_text())


def test_committed_bench_passes():
    assert thresholds.main([str(ROOT / "BENCH_substrate.json")]) == 0


@pytest.mark.parametrize("key, value", [("min_tightness", 0.9), ("violations", 1)])
def test_unsound_flow_bounds_fail_at_the_default_tolerance(key, value, tmp_path):
    bench = copy.deepcopy(BENCH)
    bench["flow_bounds"][key] = value
    failures, _ = thresholds.check(bench, tolerance=0.85)
    assert failures == 1
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(bench))
    assert thresholds.main([str(path)]) == 1


def test_loose_but_sound_flow_bounds_pass():
    bench = copy.deepcopy(BENCH)
    bench["flow_bounds"]["min_tightness"] = 63.9
    assert thresholds.check(bench, tolerance=0.85) == (0, 0)
