"""Scenario-sweep engine (substrate S12).

Names every runnable configuration in a :func:`default_registry`, fans
selected scenarios out over a process pool with per-worker isolation
(:class:`SweepRunner`), and fronts execution with a digest-keyed result
cache so repeat sweeps only re-run what changed.  Exposed on the CLI as
``repro sweep``.
"""

from .aggregate import (
    aggregate_results,
    compare_snapshots,
    load_cached_results,
    observability_report,
)
from .cache import ResultCache, TemplateStore, code_digest, result_key, template_key
from .executor import LEDGER_FILENAME, SweepRunner, run_scenario, trace_digest
from .report import sweep_table
from .scenarios import (
    BUILDERS,
    ScenarioSpec,
    build_scenario,
    default_registry,
    derive_seed,
    filter_scenarios,
)
from .telemetry import SweepMonitor

__all__ = [
    "BUILDERS",
    "LEDGER_FILENAME",
    "ResultCache",
    "ScenarioSpec",
    "SweepMonitor",
    "SweepRunner",
    "TemplateStore",
    "aggregate_results",
    "compare_snapshots",
    "load_cached_results",
    "observability_report",
    "build_scenario",
    "code_digest",
    "default_registry",
    "derive_seed",
    "filter_scenarios",
    "result_key",
    "run_scenario",
    "template_key",
    "sweep_table",
    "trace_digest",
]
