"""Prometheus text-format exposition of the metrics registry.

Maps the simulator's instruments onto the Prometheus exposition format
(version 0.0.4, the plain-text one every scraper accepts):

* :class:`~repro.sim.metrics.Counter` → a Prometheus ``counter`` named
  ``<namespace>_<name>_total`` (dots and dashes become underscores),
* :class:`~repro.sim.metrics.Histogram` → a Prometheus ``histogram``
  with cumulative ``_bucket{le="..."}`` series at the power-of-two
  bucket upper edges (bucket *i* holds samples whose ``bit_length()``
  is *i*, so its upper edge is ``2**i - 1``), plus the standard
  ``_sum`` / ``_count`` series.

Output is deterministic: instruments are emitted sorted by name and
buckets ascending, so two identical registries expose byte-identical
text.  This is file-oriented (``write_prometheus`` — point a node
exporter textfile collector at it, or diff snapshots); under the
wall-clock asyncio runtime a partition can regenerate the file on
whatever cadence a scraper needs when serving live traffic.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..sim import Metrics

__all__ = ["metrics_to_prometheus", "write_prometheus"]

_INVALID = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(namespace: str, name: str) -> str:
    """A valid Prometheus metric name for a dotted instrument name."""
    flat = _INVALID.sub("_", f"{namespace}_{name}" if namespace else name)
    if flat and flat[0].isdigit():
        flat = "_" + flat
    return flat


def metrics_to_prometheus(metrics: "Metrics", namespace: str = "repro") -> str:
    """Render every counter and histogram in exposition text format."""
    lines: list[str] = []
    for name, value in metrics.counters().items():
        metric = _metric_name(namespace, name) + "_total"
        lines.append(f"# HELP {metric} counter {name!r}")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value}")
    for name, hist in metrics.histograms().items():
        metric = _metric_name(namespace, name)
        lines.append(f"# HELP {metric} histogram {name!r} "
                     "(power-of-two buckets)")
        lines.append(f"# TYPE {metric} histogram")
        top = max((i for i, b in enumerate(hist.buckets) if b), default=-1)
        cumulative = 0
        for i in range(top + 1):
            cumulative += hist.buckets[i]
            edge = 0 if i == 0 else (1 << i) - 1
            lines.append(f'{metric}_bucket{{le="{edge}"}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{metric}_sum {hist.total}")
        lines.append(f"{metric}_count {hist.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(metrics: "Metrics", path: str | Path,
                     namespace: str = "repro") -> None:
    """Write the exposition text to ``path``."""
    Path(path).write_text(metrics_to_prometheus(metrics, namespace=namespace))
