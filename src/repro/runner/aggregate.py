"""Fleet-wide observability: aggregate and compare sweep results.

The sweep engine ships one JSON result per scenario (metrics snapshot,
trace digest, optional flow summary) into ``.repro_cache/``; this module
rolls a whole sweep up into one view and diffs two views:

* :func:`load_cached_results` — read every cached result in a cache
  directory (or a subset by scenario name),
* :func:`aggregate_results` — merge every result's metrics snapshot
  into a single :class:`~repro.sim.Metrics` registry (exact: counters
  add, histogram buckets add — see ``Histogram.merge``), plus roll-up
  of events/wall time and flow-summary outcome totals,
* :func:`compare_snapshots` — counter deltas and histogram shifts
  (count/mean/p95 movement) between two metrics snapshots, the raw
  material of "did this PR make the system busier/slower",
* :func:`observability_report` — render an aggregate (and optional
  comparison) as markdown.

Everything is pure data → data; the CLI wiring lives in ``repro obs``.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..sim import Metrics
from ..sim.metrics import Histogram

__all__ = [
    "aggregate_results",
    "compare_snapshots",
    "load_cached_results",
    "observability_report",
]


def load_cached_results(cache_dir: str | Path = ".repro_cache",
                        names: list[str] | None = None) -> list[dict]:
    """Every parseable cached result, sorted by scenario name.

    ``names`` filters to specific scenarios; corrupt or foreign JSON
    files are skipped (the cache directory is safe to pollute).
    """
    root = Path(cache_dir)
    out = []
    for path in sorted(root.glob("*.json")) if root.is_dir() else []:
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        result = payload.get("value") if isinstance(payload, dict) else None
        if not isinstance(result, dict) or "name" not in result:
            continue
        if names is not None and result["name"] not in names:
            continue
        out.append(result)
    out.sort(key=lambda r: r["name"])
    return out


def aggregate_results(results: list[dict]) -> dict:
    """Merge many per-scenario results into one fleet view.

    Returns ``{"scenarios", "events_executed", "wall_s", "metrics",
    "flows"}`` where ``metrics`` is the merged snapshot and ``flows``
    totals the flow summaries of scenarios that traced flows.
    """
    merged = Metrics()
    events = 0
    wall = 0.0
    flow_totals: dict[str, int] = {}
    flow_scenarios = 0
    for result in results:
        snap = result.get("metrics")
        if isinstance(snap, dict):
            merged.merge_snapshot(snap)
        events += int(result.get("events_executed", 0))
        wall += float(result.get("wall_s", 0.0))
        flows = result.get("flows")
        if isinstance(flows, dict):
            flow_scenarios += 1
            for outcome, n in flows.get("outcomes", {}).items():
                flow_totals[outcome] = flow_totals.get(outcome, 0) + int(n)
            flow_totals["flows"] = flow_totals.get("flows", 0) + int(
                flows.get("flows", 0))
    return {
        "scenarios": [r["name"] for r in results],
        "count": len(results),
        "events_executed": events,
        "wall_s": round(wall, 6),
        "metrics": merged.snapshot(),
        "flows": {"scenarios_traced": flow_scenarios, **flow_totals},
    }


def _histogram_view(name: str, snap: dict) -> dict:
    h = Histogram.from_snapshot(name, snap)
    return {
        "count": h.count,
        "mean": h.mean,
        "p50": h.quantile(0.5),
        "p95": h.quantile(0.95),
        "max": h.maximum,
    }


def compare_snapshots(base: dict, other: dict) -> dict:
    """Instrument-by-instrument diff of two metrics snapshots.

    Counters report ``base``/``other``/``delta``; histograms report
    count delta plus mean and p95 shift (quantiles re-estimated from the
    pow2 buckets, so shifts below a factor of 2 may round to zero).
    Instruments present on only one side appear with the other side
    zeroed/None.
    """
    counters = {}
    names = sorted(set(base.get("counters", {})) | set(other.get("counters", {})))
    for name in names:
        a = int(base.get("counters", {}).get(name, 0))
        b = int(other.get("counters", {}).get(name, 0))
        if a or b:
            counters[name] = {"base": a, "other": b, "delta": b - a}
    histograms = {}
    hnames = sorted(set(base.get("histograms", {})) | set(other.get("histograms", {})))
    for name in hnames:
        va = _histogram_view(name, base.get("histograms", {}).get(name, {}))
        vb = _histogram_view(name, other.get("histograms", {}).get(name, {}))
        histograms[name] = {
            "base": va,
            "other": vb,
            "count_delta": vb["count"] - va["count"],
            "mean_shift": vb["mean"] - va["mean"],
            "p95_shift": ((vb["p95"] or 0) - (va["p95"] or 0)
                          if (va["p95"] is not None or vb["p95"] is not None)
                          else None),
        }
    return {"counters": counters, "histograms": histograms}


def observability_report(aggregate: dict, comparison: dict | None = None,
                         title: str = "Observability report") -> str:
    """Markdown rendering of an aggregate (and optional comparison)."""
    lines = [f"# {title}", ""]
    lines.append(f"- scenarios: {aggregate['count']} "
                 f"({', '.join(aggregate['scenarios']) or 'none'})")
    lines.append(f"- events executed: {aggregate['events_executed']}")
    lines.append(f"- wall time (sum): {aggregate['wall_s']:.3f}s")
    flows = aggregate.get("flows", {})
    if flows.get("scenarios_traced"):
        parts = ", ".join(f"{k}={v}" for k, v in sorted(flows.items())
                          if k != "scenarios_traced")
        lines.append(f"- flow tracing ({flows['scenarios_traced']} scenario(s)): {parts}")
    lines.append("")
    lines.append("## Merged counters")
    lines.append("")
    lines.append("| counter | value |")
    lines.append("|---|---:|")
    for name, value in aggregate["metrics"]["counters"].items():
        lines.append(f"| {name} | {value} |")
    lines.append("")
    lines.append("## Merged histograms")
    lines.append("")
    lines.append("| histogram | count | mean | p50 | p95 | max |")
    lines.append("|---|---:|---:|---:|---:|---:|")
    for name, snap in aggregate["metrics"]["histograms"].items():
        view = _histogram_view(name, snap)
        lines.append(f"| {name} | {view['count']} | {view['mean']:.1f} | "
                     f"{view['p50']} | {view['p95']} | {view['max']} |")
    if comparison is not None:
        lines.append("")
        lines.append("## Comparison (other vs base)")
        lines.append("")
        lines.append("| counter | base | other | delta |")
        lines.append("|---|---:|---:|---:|")
        for name, row in comparison["counters"].items():
            if row["delta"]:
                lines.append(f"| {name} | {row['base']} | {row['other']} | "
                             f"{row['delta']:+d} |")
        lines.append("")
        lines.append("| histogram | count Δ | mean shift | p95 shift |")
        lines.append("|---|---:|---:|---:|")
        for name, row in comparison["histograms"].items():
            if row["count_delta"] or row["mean_shift"]:
                p95 = row["p95_shift"]
                lines.append(f"| {name} | {row['count_delta']:+d} | "
                             f"{row['mean_shift']:+.1f} | "
                             f"{'' if p95 is None else format(p95, '+d')} |")
    lines.append("")
    return "\n".join(lines)
