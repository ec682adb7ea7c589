"""Sweep reporting: the human-readable table of a sweep report."""

from __future__ import annotations

__all__ = ["sweep_table"]


def sweep_table(report: dict):
    """Render a sweep report as an :class:`~repro.analysis.Table`."""
    from ..analysis import Table

    table = Table(
        f"scenario sweep — {report['count']} scenarios, "
        f"{report['workers']} worker(s), {report['cache_hits']} cached, "
        f"{report['wall_s']:.2f}s wall",
        ["scenario", "seed", "cached", "events", "wall s", "digest"],
    )
    for result in report["scenarios"]:
        if "error" in result:
            table.add_row(result["name"], result.get("seed", "-"), "-", "-",
                          "-", "ERROR")
            continue
        table.add_row(
            result["name"],
            result["seed"],
            "yes" if result.get("cached") else "no",
            result["events_executed"],
            f"{result['wall_s']:.3f}",
            result["digest"][:12],
        )
    return table
