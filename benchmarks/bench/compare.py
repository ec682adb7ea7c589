"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python benchmarks/bench/compare.py BASE.jsonl [NEW.jsonl]

Each file holds the JSON lines ``run.py --record`` appends, one per
run.  For every (workload, metric) the table gives each set's median,
first and third quartile and spread (quartile distance over median, as
``statistics.quantiles(values, n=4)`` gives the quartiles), then how
much worse the new median is than the base median, as a share of the
base median, against the metric's bound.

Verdicts for end-to-end metrics: ``ok`` (no worse than the bound),
``WORSE`` (worse by more than the bound), ``unresolved`` (a set's
spread exceeds the bound, so the sets cannot be told apart, unless every
new run reads better than every base run: ``better``).  Per-layer
metrics have no bound and get ``-``.  With one file only the spreads are
shown.  Exits 1 if any metric is WORSE.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_set(path: Path) -> dict:
    """(workload, metric) -> values, from one JSON-lines file."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for line in path.read_text().splitlines():
        if line.strip():
            row = json.loads(line)
            for metric, entry in row["result"]["metrics"].items():
                values[(row["workload"], metric)].append(float(entry["value"]))
    return values


def stats(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and spread."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def verdict(base: list[float], new: list[float], spec: dict) -> tuple[float, str]:
    """Share by which ``new`` is worse than ``base``, and the verdict."""
    lower = spec["better"] == "lower"
    b_med, *_, b_spread = stats(base)
    n_med, *_, n_spread = stats(new)
    worse = (n_med - b_med) / abs(b_med) if b_med else 0.0
    if not lower:
        worse = -worse
    bound = spec.get("bound")
    if bound is None:
        return worse, "-"
    if b_spread > bound or n_spread > bound:
        all_better = (max(new) < min(base)) if lower else (min(new) > max(base))
        return worse, "better" if all_better else "unresolved"
    return worse, "WORSE" if worse > bound else "ok"


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base = load_set(Path(argv[1]))
    new = load_set(Path(argv[2])) if len(argv) == 3 else None
    keys = sorted(set(base) | set(new or {}),
                  key=lambda k: (k[0], list(specs).index(k[1]) if k[1] in specs else 999))
    regressions = 0
    head = f"{'workload':<13} {'metric':<36} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>7}"
    print(head + (f" | {'n':>3} {'median':>14} {'spread':>7} {'worse':>7} {'bound':>6} verdict"
                  if new is not None else f" {'bound':>6}"))
    for key in keys:
        spec = specs.get(key[1], {"better": "lower"})
        bound = spec.get("bound")
        bound_txt = f"{bound:>6.2f}" if bound is not None else f"{'-':>6}"
        row = f"{key[0]:<13} {key[1]:<36}"
        if key in base:
            med, q1, q3, spread = stats(base[key])
            row += f" {len(base[key]):>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>7.2%}"
        else:
            row += f" {'-':>3} {'':>14} {'':>14} {'':>14} {'':>7}"
        if new is None:
            print(row + f" {bound_txt}")
            continue
        if key in base and key in new:
            worse, what = verdict(base[key], new[key], spec)
            n_med, *_, n_spread = stats(new[key])
            row += (f" | {len(new[key]):>3} {n_med:>14.6g} {n_spread:>7.2%} {worse:>7.2%}"
                    f" {bound_txt} {what}")
            regressions += what == "WORSE"
        else:
            row += " | missing in one set"
        print(row)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
