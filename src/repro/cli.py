"""Command-line interface: ``python -m repro <command>``.

Gives a downstream user one-command access to the headline scenarios
without writing any code:

* ``car``        — run the full automotive system (skid trip) and print
  the cross-DAS event timeline plus per-gateway statistics.
* ``roof``       — the Fig. 6 sliding-roof gateway demo (XML-driven).
* ``audit``      — build the car and print its encapsulation audit.
* ``inventory``  — print the E10 architecture resource table.
* ``version``    — print the package version.
"""

from __future__ import annotations

import argparse
import os
import sys

from .sim import MS, RUNTIME_NAMES, SEC


def _cmd_car(args: argparse.Namespace) -> int:
    from .apps import CarConfig, build_car
    from .errors import ConfigurationError

    if args.trace_mode == "stream" and not args.trace_file:
        print("error: --trace-mode stream requires --trace-file",
              file=sys.stderr)
        return 2
    car = build_car(CarConfig(seed=args.seed, trace_mode=args.trace_mode,
                              trace_stream=args.trace_file,
                              flow_tracing=args.flow_tracing,
                              profile=args.profile,
                              round_template=args.round_template))
    if args.runtime != "sim" or args.pace is not None:
        from .sim import make_runtime

        try:
            car.sim.set_runtime(make_runtime(args.runtime, pace=args.pace))
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    horizon = int(args.seconds * SEC)
    # The trace is a context manager: stream / flight-recorder sinks are
    # flushed and closed on every exit path, exceptions included.
    with car.sim.trace as trace:
        car.run_for(horizon)
        print(f"ran the integrated car for {args.seconds:.1f} simulated seconds "
              f"(trace mode: {args.trace_mode})")
        onsets = car.vehicle.skid_onsets()
        if onsets and car.presafe.detections:
            latency = (car.presafe.detections[0] - onsets[0]) / MS
            print(f"  skid at {onsets[0] / SEC:.1f}s detected by presafe "
                  f"+{latency:.1f}ms later")
        if car.roof.closed_at is not None:
            print(f"  sliding roof closed at {car.roof.closed_at / SEC:.2f}s")
        print(f"  navigation max position error: {car.navigator.max_error():.2f} m")
        for name, gw in sorted(car.system.gateways.items()):
            print(f"  {name}: received={gw.instances_received} "
                  f"forwarded={gw.instances_forwarded} "
                  f"blocked={gw.instances_blocked} restarts={gw.restarts}")
        counts = trace.category_counts()
        if counts:
            total = sum(counts.values())
            print(f"  trace: {total:,} records in {len(counts)} categories")
        if args.runtime != "sim":
            stats = car.sim.runtime.stats()
            line = f"  runtime {stats['name']}"
            if stats.get("pace") is not None:
                line += f" (pace {stats['pace']:g}x)"
            if "deadline_misses" in stats:
                line += (f": deadline misses={stats['deadline_misses']} "
                         f"max lag={stats['max_lag_ns'] / MS:.2f}ms "
                         f"slept={stats['slept_ns'] / SEC:.2f}s")
            print(line)
        if args.flow_tracing and trace.memory is not None:
            from .analysis import FlowSet

            summary = FlowSet.from_trace(trace).summary()
            print(f"  flows: {summary['flows']} traced, outcomes "
                  + ", ".join(f"{k}={v}" for k, v in summary["outcomes"].items() if v))
        if args.metrics:
            from .analysis import metrics_table

            metrics_table(car.sim.metrics, title="car metrics").print()
        if args.metrics_json:
            from .analysis import write_metrics_json

            write_metrics_json(car.sim.metrics, args.metrics_json)
            print(f"  metrics snapshot written to {args.metrics_json}")
        if args.metrics_prom:
            from .analysis import write_prometheus

            write_prometheus(car.sim.metrics, args.metrics_prom)
            print(f"  prometheus exposition written to {args.metrics_prom}")
    if args.trace_file and args.trace_mode == "stream":
        print(f"  trace stream written to {args.trace_file}")
    return 0


def _cmd_roof(args: argparse.Namespace) -> int:
    from examples import sliding_roof_xml  # type: ignore[import-not-found]

    sliding_roof_xml.main()
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from .apps import CarConfig, build_car
    from .systems import EncapsulationAudit

    car = build_car(CarConfig(seed=args.seed))
    audit = EncapsulationAudit(car.system)
    audit.run()
    print(audit.report())
    return 0 if audit.clean else 1


def _cmd_inventory(args: argparse.Namespace) -> int:
    from .analysis import Table
    from .systems import ArchitectureModel

    # Import the E10 demand model lazily; fall back to a local copy so
    # the CLI works without the benchmarks directory installed.
    try:
        sys.path.insert(0, "benchmarks")
        from test_e10_architectures import automotive_requirements  # type: ignore
        req = automotive_requirements()
    except Exception:
        from .systems import DASRequirement, SystemRequirements

        req = SystemRequirements(
            dass=(
                DASRequirement("abs", jobs=4, sensed_quantities=("wheel-speed",)),
                DASRequirement("navigation", jobs=3, sensed_quantities=("gps",),
                               importable=("wheel-speed",)),
            ),
            sensors_per_quantity={"wheel-speed": 4, "gps": 1},
        )
    table = Table("architecture resource inventories",
                  ["architecture", "ECUs", "networks", "wires", "connectors",
                   "sensors", "gateways"])
    for inv in ArchitectureModel(req).all_inventories():
        table.add_row(*inv.as_row())
    table.print()
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .errors import PreflightError
    from .runner import SweepRunner, default_registry, filter_scenarios, sweep_table

    admission = None
    if args.generated:
        from .generate import admit, generate_candidates
        from .runner.cache import CheckCache

        candidates = generate_candidates(args.generated, args.gen_profile,
                                         base_seed=args.base_seed)
        check_cache = None if args.no_cache else CheckCache(args.cache_dir)
        specs, summary = admit(candidates, check_cache)
        admission = summary.as_dict()
        rules = ", ".join(f"{r}x{n}"
                          for r, n in admission["rejected_rules"].items())
        print(f"generated {summary.total} candidates "
              f"(profile={args.gen_profile}, base_seed={args.base_seed}): "
              f"{summary.admitted} admitted, {summary.rejected} rejected "
              f"({summary.rejection_rate:.0%})"
              + (f" [{rules}]" if rules else ""), file=sys.stderr)
    else:
        registry = default_registry(base_seed=args.base_seed)
        tokens = [t for expr in (args.filter or [])
                  for t in expr.split(",") if t]
        specs = filter_scenarios(registry, tokens)
    if args.list:
        for spec in specs:
            tags = ",".join(spec.tags)
            print(f"{spec.name:28s} builder={spec.builder:18s} "
                  f"horizon={spec.horizon_ns / SEC:g}s seed={spec.seed} [{tags}]")
        return 0
    if not specs:
        if args.generated:
            print("error: every generated candidate was rejected by "
                  "admission", file=sys.stderr)
        else:
            print(f"error: no scenarios match filter {tokens!r}",
                  file=sys.stderr)
        return 2
    if not args.round_template:
        specs = [spec.with_param("round_template", False) for spec in specs]
    if args.pace is not None and args.runtime == "sim":
        print("error: --pace requires --runtime realtime or asyncio",
              file=sys.stderr)
        return 2
    if args.runtime != "sim":
        # Recorded in the spec params, so cache keys (and worker-side
        # construction) carry the runtime choice.
        specs = [spec.with_param("runtime", args.runtime) for spec in specs]
        if args.pace is not None:
            specs = [spec.with_param("pace", args.pace) for spec in specs]

    monitor = None
    if args.progress or args.events:
        from .runner import SweepMonitor

        monitor = SweepMonitor(events_path=args.events, render=args.progress)
    runner = SweepRunner(workers=args.workers, cache_dir=args.cache_dir,
                         use_cache=not args.no_cache, strict=args.strict,
                         use_ledger=not args.no_ledger, monitor=monitor)
    try:
        report = runner.run(specs)
    except PreflightError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if admission is not None:
        report["generated"] = admission
    if args.events:
        print(f"telemetry events streamed to {args.events}", file=sys.stderr)
    if args.json:
        import json

        print(json.dumps(report, indent=2, sort_keys=True))
    elif args.generated and report["count"] > 50:
        # A thousand-row table helps nobody; campaigns get a summary.
        print(f"campaign: {report['count']} scenarios, "
              f"{report['executed']} executed, "
              f"{report['cache_hits']} warm, "
              f"{len(report['errors'])} errors, "
              f"{report['wall_s']:.2f}s "
              f"({report['count'] / report['wall_s']:.1f} runs/s)")
        for name in report["errors"][:10]:
            result = next(r for r in report["scenarios"] if r["name"] == name)
            print(f"--- {name} failed ---\n{result['error']}", file=sys.stderr)
    else:
        sweep_table(report).print()
        for name in report["errors"]:
            result = next(r for r in report["scenarios"] if r["name"] == name)
            print(f"--- {name} failed ---\n{result['error']}", file=sys.stderr)
    return 1 if report["errors"] else 0


# ----------------------------------------------------------------------
# repro obs — observability: flow journeys, aggregation, comparison
# ----------------------------------------------------------------------
def _cmd_obs_flows(args: argparse.Namespace) -> int:
    """Run the car with flow tracing and reconstruct cross-VN journeys."""
    from .analysis import FlowSet
    from .apps import CarConfig, build_car
    from .gateway.filters import FilterChain, MinIntervalFilter

    filters = None
    if args.block_demo:
        # Deterministic block demonstration: wheel speeds arrive at the
        # abs->navigation gateway every sensor period (10 ms); a
        # min-interval filter of 25 ms forwards ~1 in 3 and blocks the
        # rest, so the journey set always contains both outcomes.
        filters = FilterChain(MinIntervalFilter(min_interval=25 * MS))
    car = build_car(CarConfig(seed=args.seed, flow_tracing=True,
                              nav_import_filters=filters))
    with car.sim.trace as trace:
        car.run_for(int(args.seconds * SEC))
        flows = FlowSet.from_trace(trace)
    summary = flows.summary()
    print(f"reconstructed {summary['flows']} flows from "
          f"{args.seconds:g}s of the integrated car")
    print("  outcomes: " + ", ".join(
        f"{k}={v}" for k, v in summary["outcomes"].items() if v))
    if summary["block_reasons"]:
        print("  block reasons: " + ", ".join(
            f"{k}={v}" for k, v in summary["block_reasons"].items()))
    print(f"  complete cross-VN journeys (stored at a gateway, child "
          f"delivered): {summary['cross_vn_complete']}")
    for name, stats in summary["legs"].items():
        print(f"  leg {name:28s} n={stats['count']:<6d} "
              f"min={stats['min']:>9d}ns mean={stats['mean']:>12.1f}ns "
              f"max={stats['max']:>9d}ns")
    if summary["end_to_end"]:
        e = summary["end_to_end"]
        print(f"  end-to-end            n={e['count']:<6d} "
              f"min={e['min']}ns mean={e['mean']:.1f}ns max={e['max']}ns")

    shown = 0
    for outcome in ("forwarded", "blocked"):
        example = flows.example(outcome)
        if example is not None:
            print(f"\nexample {outcome} journey:")
            print(flows.timeline(example.flow, indent="  "))
            shown += 1
    if args.out:
        flows.to_ndjson(args.out)
        print(f"\njourneys exported to {args.out}")
    if args.json:
        import json

        print(json.dumps(summary, indent=2, sort_keys=True))
    complete = summary["cross_vn_complete"]
    blocked = summary["outcomes"].get("blocked", 0)
    if complete < 1 or (args.block_demo and blocked < 1):
        print("error: expected at least one complete cross-VN flow "
              "(and a blocked one with --block-demo)", file=sys.stderr)
        return 1
    return 0


def _cmd_obs_aggregate(args: argparse.Namespace) -> int:
    """Aggregate metrics/flow stats across a sweep's cached results."""
    from .runner import aggregate_results, load_cached_results, observability_report

    results = load_cached_results(args.cache_dir, names=args.scenario or None)
    if not results:
        print(f"error: no cached results under {args.cache_dir!r} "
              "(run `repro sweep` first)", file=sys.stderr)
        return 2
    aggregate = aggregate_results(results)
    report = observability_report(
        aggregate, title=f"Observability report — {args.cache_dir}")
    if args.json:
        import json

        print(json.dumps(aggregate, indent=2, sort_keys=True))
    else:
        print(report)
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(report)
        print(f"report written to {args.out}")
    return 0


def _load_snapshot(path: str) -> dict:
    """A metrics snapshot from a file: either a bare snapshot (as written
    by ``write_metrics_json``/``car --metrics-json``) or any JSON object
    with a ``metrics`` key (an aggregate or a cached sweep result)."""
    import json

    data = json.loads(open(path).read())
    if isinstance(data, dict) and "metrics" in data and isinstance(data["metrics"], dict):
        return data["metrics"]
    return data if isinstance(data, dict) else {}


def _cmd_obs_compare(args: argparse.Namespace) -> int:
    """Counter deltas and histogram shifts between two runs."""
    from .runner import compare_snapshots

    comparison = compare_snapshots(_load_snapshot(args.base),
                                   _load_snapshot(args.other))
    if args.json:
        import json

        print(json.dumps(comparison, indent=2, sort_keys=True))
        return 0
    changed = {n: row for n, row in comparison["counters"].items() if row["delta"]}
    print(f"compared {args.base} -> {args.other}: "
          f"{len(changed)}/{len(comparison['counters'])} counters changed")
    for name, row in changed.items():
        print(f"  {name:36s} {row['base']:>12d} -> {row['other']:>12d} "
              f"({row['delta']:+d})")
    for name, row in comparison["histograms"].items():
        if row["count_delta"] or row["mean_shift"]:
            print(f"  {name:36s} count {row['count_delta']:+d}, "
                  f"mean shift {row['mean_shift']:+.1f}, "
                  f"p95 shift {row['p95_shift']}")
    return 0


# ----------------------------------------------------------------------
# repro check — the pre-simulation static verifier
# ----------------------------------------------------------------------
def _select_rules(expr: str) -> tuple[set[str], list[str]]:
    """Resolve a ``--rules`` expression to rule ids.

    Comma-separated tokens, each an exact rule id or a family prefix
    (``FLOW``, ``SCHED``); returns (selected ids, unknown tokens).
    """
    from .check import RULES

    selected: set[str] = set()
    unknown: list[str] = []
    for token in (t.strip() for t in expr.split(",")):
        if not token:
            continue
        matches = {rid for rid in RULES if rid == token or rid.startswith(token)}
        if matches:
            selected |= matches
        else:
            unknown.append(token)
    return selected, unknown


def _cmd_check_bounds(args: argparse.Namespace) -> int:
    """``repro check bounds`` — empirical soundness cross-validation of
    the static flow bounds (FLOW family) against traced scenario runs."""
    import json

    from .check.validate import validate_registry

    tokens = [t for expr in args.paths[1:] for t in expr.split(",") if t]
    summary = validate_registry(None if args.all or not tokens else tokens)
    if not summary["scenario_count"]:
        print(f"error: no scenarios match filter {tokens!r}", file=sys.stderr)
        return 2

    for name, result in summary["scenarios"].items():
        tight = result["min_tightness"]
        print(f"  {name:28s} flows={result['flows']:6d} "
              f"violations={len(result['violations'])} "
              f"min_tightness={'-' if tight is None else f'{tight:.2f}x'}")
        for v in result["violations"]:
            print(f"    VIOLATION {v['kind']} {v['name']}: observed "
                  f"{v['observed_ns']}ns > bound {v['bound_ns']}ns")

    ok = summary["violations"] == 0
    tight = summary["min_tightness"]
    print(f"  {summary['compared']} bounds compared over "
          f"{summary['scenario_count']} scenarios: "
          f"{summary['violations']} violation"
          f"{'' if summary['violations'] == 1 else 's'}, min tightness "
          f"{'-' if tight is None else f'{tight:.2f}x'} -> "
          f"{'SOUND' if ok else 'UNSOUND'}")
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if ok else 1


def _cmd_check(args: argparse.Namespace) -> int:
    """Run the static analyzers (spec / automata / schedule families)
    and the determinism lint without executing any scenario."""
    import sys

    from .check import (
        RULES,
        Baseline,
        CheckReport,
        builtin_targets,
        gather_targets,
        lint_paths,
        render_json,
        render_text,
        scenario_targets,
    )

    if args.rules == "":
        for rule in sorted(RULES):
            print(f"{rule}  {RULES[rule]}")
        return 0
    selected: set[str] | None = None
    if args.rules is not None:
        selected, unknown = _select_rules(args.rules)
        if unknown:
            known = ", ".join(sorted(RULES))
            print(f"repro check: unknown rule or family "
                  f"{', '.join(repr(t) for t in unknown)} (known: {known})",
                  file=sys.stderr)
            return 2

    if args.paths and args.paths[0] == "bounds":
        return _cmd_check_bounds(args)

    cache = None
    if not args.no_cache:
        from .runner.cache import CheckCache

        cache = CheckCache(args.cache_dir)

    targets = []
    if args.paths:
        targets.extend(gather_targets(args.paths))
    if args.scenarios is not None:
        tokens = [t for expr in args.scenarios for t in expr.split(",") if t]
        targets.extend(scenario_targets(tokens or None, cache=cache))
    if not args.paths and args.scenarios is None and not args.self:
        targets.extend(builtin_targets())
        targets.extend(scenario_targets(cache=cache))

    report = CheckReport()
    for target in targets:
        report.extend(target.diagnostics())
        report.targets_checked += 1
    if args.self:
        report.extend(lint_paths())
        report.targets_checked += 1

    if selected is not None:
        report.diagnostics = [d for d in report.diagnostics
                              if d.rule in selected]

    if args.update_baseline:
        Baseline.load(args.update_baseline).record(report).save(args.update_baseline)
        print(f"baseline updated: {args.update_baseline}")
    elif args.baseline:
        Baseline.load(args.baseline).apply(report)

    render = render_json if args.format == "json" else render_text
    print(render(report))
    if not report.ok:
        return 1
    if args.strict and report.warnings():
        return 1
    return 0


# ----------------------------------------------------------------------
# repro ledger — provenance ledger: history, trends, replay-parity audit
# ----------------------------------------------------------------------
def _ledger(args: argparse.Namespace):
    from pathlib import Path

    from .ledger import RunLedger
    from .runner import LEDGER_FILENAME

    return RunLedger(Path(args.cache_dir) / LEDGER_FILENAME)


def _cmd_ledger_show(args: argparse.Namespace) -> int:
    """Print recorded runs (newest last), or the ledger stats summary."""
    import json

    ledger = _ledger(args)
    entries = ledger.entries(name=args.scenario, include_rotated=True)
    if args.last:
        entries = entries[-args.last:]
    if args.json:
        print(json.dumps({"stats": ledger.stats(), "entries": entries},
                         indent=2, sort_keys=True))
        return 0
    stats = ledger.stats()
    print(f"ledger {stats['path']}: {stats['entries']} entries, "
          f"{stats['total_bytes']:,} bytes in {len(stats['files'])} file"
          f"{'' if len(stats['files']) == 1 else 's'}"
          + (f", {stats['skipped_lines']} unparseable line"
             f"{'' if stats['skipped_lines'] == 1 else 's'} skipped"
             if stats["skipped_lines"] else ""))
    if not entries:
        print("  (no matching entries — run `repro sweep` to record some)")
        return 0
    for e in entries:
        tpl = e.get("round_template") or {}
        print(f"  {e.get('ts', '?'):25s} {e['name']:28s} "
              f"digest={e['digest'][:12]} code={e.get('code_digest', '?')[:8]} "
              f"wall={e.get('wall_s', 0):.3f}s runtime={e.get('runtime', 'sim')}"
              + (f" replayed={tpl.get('rounds_replayed', 0)}" if tpl else ""))
    return 0


def _cmd_ledger_trends(args: argparse.Namespace) -> int:
    """Per-scenario history roll-up: wall-time trend, digest stability."""
    import json

    from .ledger import ledger_trends

    ledger = _ledger(args)
    trends = ledger_trends(ledger.entries(include_rotated=True))
    if args.json:
        print(json.dumps(trends, indent=2, sort_keys=True))
        return 0
    if not trends["scenarios"]:
        print("ledger is empty — run `repro sweep` to record some runs")
        return 0
    print(f"ledger trends over {trends['entries']} entries:")
    for name, row in trends["scenarios"].items():
        wall = row["wall_s"]
        print(f"  {name:28s} n={row['entries']:<4d} "
              f"wall min={wall['min']}s last={wall['last']}s "
              f"codes={row['codes']} digests={row['digests']} "
              f"stable={'yes' if row['digest_stable'] else 'NO'}")
    print(f"  digest-stable across all recorded configurations: "
          f"{'yes' if trends['all_stable'] else 'NO'}")
    return 0


def _cmd_ledger_verify(args: argparse.Namespace) -> int:
    """Replay-parity audit: re-run recorded entries, compare digests."""
    import json

    from .ledger import verify_entries
    from .runner import code_digest

    ledger = _ledger(args)
    entries = ledger.entries(name=args.scenario, include_rotated=True)
    if not entries:
        print(f"error: no ledger entries under {args.cache_dir!r} "
              "(run `repro sweep` first)", file=sys.stderr)
        return 2

    def progress(outcome: dict) -> None:
        if not args.json:
            print(f"  {outcome['name']:28s} {outcome['verdict']:8s} "
                  f"recorded={outcome['recorded_digest'][:12]} "
                  f"replayed={outcome['replayed_digest'][:12]} "
                  f"({outcome['wall_s']:.3f}s)")

    sample = None if args.all else args.sample
    if not args.json:
        scope = "all" if sample is None else f"newest {sample}"
        print(f"replay-parity audit ({scope} distinct configurations, "
              f"{len(entries)} entries on record):")
    report = verify_entries(entries, code_digest(), sample=sample,
                            strict=args.strict, progress=progress)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"  checked {report['checked']}/{report['distinct']} distinct: "
              f"{report['parity']} parity, {report['drift']} drift, "
              f"{report['mismatch']} mismatch -> "
              f"{'OK' if report['ok'] else 'FAIL'}")
        if report["drift"] and not args.strict:
            print("  (drift is attributed to a code-digest change; "
                  "--strict makes it a failure)")
    return 0 if report["ok"] else 1


def _cmd_campaign_faults(args: argparse.Namespace) -> int:
    """Run a Monte-Carlo fault campaign and fold it into survival and
    containment rates per fault kind (the EXPERIMENTS table source)."""
    import json

    from .generate import admit, fault_summary, generate_candidates
    from .runner import SweepRunner
    from .runner.cache import CheckCache

    candidates = generate_candidates(args.seeds, "faults",
                                     base_seed=args.base_seed)
    specs, summary = admit(candidates, CheckCache(args.cache_dir))
    print(f"fault campaign: {args.seeds} seeds, {len(specs)} admitted, "
          f"{summary.rejected} rejected "
          f"({summary.rejection_rate:.0%})", file=sys.stderr)
    if not specs:
        print("error: every generated candidate was rejected by admission",
              file=sys.stderr)
        return 2
    runner = SweepRunner(workers=args.workers, cache_dir=args.cache_dir,
                         strict=True)
    report = runner.run(specs)
    table = fault_summary(report["scenarios"], specs)
    out = {"seeds": args.seeds, "base_seed": args.base_seed,
           "admission": summary.as_dict(), "wall_s": report["wall_s"],
           "errors": report["errors"], "faults": table}
    if args.json:
        print(json.dumps(out, indent=2, sort_keys=True))
        return 1 if report["errors"] else 0
    header = (f"{'fault':10s} {'runs':>5s} {'survived':>9s} "
              f"{'delivering':>11s} {'survival':>9s} {'containment':>12s}")
    print(header)
    print("-" * len(header))
    for kind, row in table.items():
        contain = (f"{row['containment_rate']:.2f}"
                   if row["containment_rate"] is not None else "n/a")
        print(f"{kind:10s} {row['runs']:>5d} {row['survived']:>9d} "
              f"{row['delivering']:>11d} {row['survival_rate']:>9.2f} "
              f"{contain:>12s}")
    print(f"({report['executed']} executed, {report['cache_hits']} warm, "
          f"{report['wall_s']:.1f}s)")
    return 1 if report["errors"] else 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or empty the sweep result + template + check caches."""
    import json

    from .runner.cache import CheckCache, ResultCache, TemplateStore

    cache = ResultCache(args.cache_dir, max_bytes=args.max_bytes)
    store = TemplateStore(args.cache_dir, max_bytes=args.max_bytes)
    checks = CheckCache(args.cache_dir, max_bytes=args.max_bytes)
    if args.cache_command == "clear":
        if getattr(args, "templates", False):
            removed = store.clear()
            print(f"removed {removed} template bank"
                  f"{'' if removed == 1 else 's'} from {store.root}")
            return 0
        removed = cache.clear()
        removed_tpl = store.clear()
        removed_chk = checks.clear()
        print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'}, "
              f"{removed_tpl} template bank"
              f"{'' if removed_tpl == 1 else 's'}, and {removed_chk} check "
              f"report{'' if removed_chk == 1 else 's'} from {args.cache_dir}")
        return 0
    stats = {"results": cache.stats(), "templates": store.stats(),
             "checks": checks.stats()}
    # One-document campaign rollup: a thousand-scenario sweep wants a
    # single set of totals, not three lists to re-aggregate.
    stats["totals"] = {
        "entries": sum(s["entries"] for s in
                       (stats["results"], stats["templates"],
                        stats["checks"])),
        "total_bytes": sum(s["total_bytes"] for s in
                           (stats["results"], stats["templates"],
                            stats["checks"])),
        "evictions": sum(s["evictions"] for s in
                         (stats["results"], stats["templates"],
                          stats["checks"])),
        "check_hits": stats["checks"].get("hits", 0),
        "check_misses": stats["checks"].get("misses", 0),
        "scenarios": len(set().union(*(s["scenarios"]
                                       for s in (stats["results"],
                                                 stats["templates"],
                                                 stats["checks"])))),
    }
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    for label in ("results", "templates", "checks"):
        s = stats[label]
        print(f"{label} {s['root']}: {s['entries']} entries, "
              f"{s['total_bytes']:,} bytes "
              f"(cap {s['max_bytes']:,} bytes, "
              f"{s['evictions']} eviction{'' if s['evictions'] == 1 else 's'})"
              + (f", {s['hits']} hit{'' if s['hits'] == 1 else 's'} / "
                 f"{s['misses']} miss{'' if s['misses'] == 1 else 'es'}"
                 if "hits" in s else ""))
        shown = list(s["scenarios"].items())
        omitted = len(shown) - 12
        if omitted > 1:  # campaigns: don't print a thousand lines
            shown = shown[:12]
        for name, count in shown:
            print(f"  {name:28s} {count} entr{'y' if count == 1 else 'ies'}")
        if omitted > 1:
            print(f"  ... and {omitted} more scenarios")
        if s["oldest"]:
            print(f"  oldest: {s['oldest']}")
            print(f"  newest: {s['newest']}")
    t = stats["totals"]
    print(f"totals: {t['entries']} entries, {t['total_bytes']:,} bytes, "
          f"{t['evictions']} eviction{'' if t['evictions'] == 1 else 's'}, "
          f"{t['scenarios']} scenario{'' if t['scenarios'] == 1 else 's'}, "
          f"check {t['check_hits']} hit{'' if t['check_hits'] == 1 else 's'} "
          f"/ {t['check_misses']} "
          f"miss{'' if t['check_misses'] == 1 else 'es'}")
    return 0


def _cmd_version(args: argparse.Namespace) -> int:
    from . import __version__

    print(__version__)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch to the chosen subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DECOS virtual-gateways reproduction (IPPS 2005)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from .sim import TRACE_MODES

    p_car = sub.add_parser("car", help="run the integrated automotive system")
    p_car.add_argument("--seconds", type=float, default=20.0)
    p_car.add_argument("--seed", type=int, default=0)
    p_car.add_argument("--trace-mode", choices=TRACE_MODES, default="full",
                       help="trace sink configuration (default: full)")
    p_car.add_argument("--trace-file", default=None, metavar="PATH",
                       help="NDJSON output path for --trace-mode stream")
    p_car.add_argument("--metrics", action="store_true",
                       help="print the metrics registry after the run")
    p_car.add_argument("--metrics-json", default=None, metavar="PATH",
                       help="write the metrics snapshot as JSON")
    p_car.add_argument("--metrics-prom", default=None, metavar="PATH",
                       help="write the metrics registry in Prometheus "
                            "text exposition format")
    p_car.add_argument("--flow-tracing", action="store_true",
                       help="assign causal flow ids and emit flow.* records")
    p_car.add_argument("--profile", action="store_true",
                       help="profile wall-clock handler time into profile.* "
                            "histograms (nondeterministic; never digested)")
    p_car.add_argument("--no-round-template", dest="round_template",
                       action="store_false",
                       help="disable round-template fast-forward (exact "
                            "event-by-event execution)")
    p_car.add_argument("--runtime", choices=RUNTIME_NAMES, default="sim",
                       help="execution runtime: sim (fast as possible), "
                            "realtime (paced against the wall clock), or "
                            "asyncio (event-loop bridged)")
    p_car.add_argument("--pace", type=float, default=None,
                       help="simulated-to-wall time ratio for realtime/"
                            "asyncio (e.g. 100 = 100x faster than real "
                            "time; realtime default: 1.0)")
    p_car.set_defaults(func=_cmd_car)

    p_roof = sub.add_parser("roof", help="Fig. 6 sliding-roof XML demo")
    p_roof.set_defaults(func=_cmd_roof)

    p_audit = sub.add_parser("audit", help="encapsulation audit of the car")
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.set_defaults(func=_cmd_audit)

    p_inv = sub.add_parser("inventory", help="E10 resource inventories")
    p_inv.set_defaults(func=_cmd_inventory)

    p_sweep = sub.add_parser(
        "sweep", help="run the scenario registry (parallel, cached)")
    p_sweep.add_argument("--workers", type=int,
                         default=max(1, os.cpu_count() or 1),
                         help="process-pool size; 1 = serial "
                              "(default: the host's cpu count)")
    p_sweep.add_argument("--filter", action="append", metavar="EXPR",
                         help="select scenarios by tag or name glob "
                              "(comma-separated, repeatable, OR-ed)")
    p_sweep.add_argument("--no-cache", action="store_true",
                         help="ignore cached results (still refreshes them)")
    p_sweep.add_argument("--cache-dir", default=".repro_cache", metavar="PATH",
                         help="result cache directory (default: .repro_cache)")
    p_sweep.add_argument("--base-seed", type=int, default=0,
                         help="re-derive hash-derived scenario seeds")
    p_sweep.add_argument("--json", action="store_true",
                         help="print the report as JSON instead of a table")
    p_sweep.add_argument("--list", action="store_true",
                         help="list matching scenarios without running")
    p_sweep.add_argument("--strict", action="store_true",
                         help="pre-flight every scenario statically and "
                              "refuse the sweep if any has errors")
    p_sweep.add_argument("--no-round-template", dest="round_template",
                         action="store_false",
                         help="run every scenario without round-template "
                              "fast-forward (exact event-by-event execution)")
    p_sweep.add_argument("--runtime", choices=RUNTIME_NAMES, default="sim",
                         help="execution runtime for every selected scenario "
                              "(default: sim)")
    p_sweep.add_argument("--pace", type=float, default=None,
                         help="simulated-to-wall time ratio for "
                              "--runtime realtime/asyncio")
    p_sweep.add_argument("--progress", action="store_true",
                         help="render a live one-line fleet status to "
                              "stderr while the sweep runs")
    p_sweep.add_argument("--events", default=None, metavar="PATH",
                         help="stream worker telemetry events to PATH as "
                              "NDJSON (start/heartbeat/finish/cache_hit)")
    p_sweep.add_argument("--no-ledger", action="store_true",
                         help="skip the durable run-ledger append for "
                              "this sweep's executions")
    p_sweep.add_argument("--generated", type=int, default=0, metavar="N",
                         help="run N seeded generated scenarios instead of "
                              "the registry (admission-gated before any run)")
    p_sweep.add_argument("--gen-profile", default="mixed", metavar="NAME",
                         help="generator profile for --generated "
                              "(mixed/small/large/faults/bench; "
                              "default: mixed)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_ledger = sub.add_parser(
        "ledger", help="provenance ledger: history, trends, replay audit")
    ledger_sub = p_ledger.add_subparsers(dest="ledger_command", required=True)

    p_lshow = ledger_sub.add_parser(
        "show", help="list recorded runs (newest last)")
    p_lshow.add_argument("--cache-dir", default=".repro_cache", metavar="PATH")
    p_lshow.add_argument("--scenario", default=None, metavar="NAME",
                         help="restrict to one scenario name")
    p_lshow.add_argument("--last", type=int, default=None, metavar="N",
                         help="only the N most recent entries")
    p_lshow.add_argument("--json", action="store_true")
    p_lshow.set_defaults(func=_cmd_ledger_show)

    p_ltr = ledger_sub.add_parser(
        "trends", help="per-scenario wall-time trend and digest stability")
    p_ltr.add_argument("--cache-dir", default=".repro_cache", metavar="PATH")
    p_ltr.add_argument("--json", action="store_true")
    p_ltr.set_defaults(func=_cmd_ledger_trends)

    p_lver = ledger_sub.add_parser(
        "verify",
        help="replay-parity audit: re-run recorded entries, compare digests")
    p_lver.add_argument("--cache-dir", default=".repro_cache", metavar="PATH")
    p_lver.add_argument("--scenario", default=None, metavar="NAME",
                        help="restrict the audit to one scenario name")
    p_lver.add_argument("--sample", type=int, default=5, metavar="N",
                        help="audit the N most recent distinct "
                             "configurations (default: 5)")
    p_lver.add_argument("--all", action="store_true",
                        help="audit every distinct configuration on record")
    p_lver.add_argument("--strict", action="store_true",
                        help="fail on drift too (mismatches always fail); "
                             "demands full-history parity")
    p_lver.add_argument("--json", action="store_true")
    p_lver.set_defaults(func=_cmd_ledger_verify)

    p_campaign = sub.add_parser(
        "campaign", help="generated campaigns: fault sweeps")
    campaign_sub = p_campaign.add_subparsers(dest="campaign_command",
                                             required=True)
    p_cfaults = campaign_sub.add_parser(
        "faults", help="Monte-Carlo fault campaign: survival/containment "
                       "rates per fault kind")
    p_cfaults.add_argument("--seeds", type=int, default=200, metavar="N",
                           help="fault-profile candidates (default: 200)")
    p_cfaults.add_argument("--base-seed", type=int, default=0)
    p_cfaults.add_argument("--workers", type=int, default=1)
    p_cfaults.add_argument("--cache-dir", default=".repro_cache",
                           metavar="PATH")
    p_cfaults.add_argument("--json", action="store_true")
    p_cfaults.set_defaults(func=_cmd_campaign_faults)

    p_check = sub.add_parser(
        "check", help="static verifier: specs, automata, schedules, lint")
    p_check.add_argument("paths", nargs="*", metavar="PATH",
                         help="XML specs, python sources, or directories "
                              "(e.g. examples/); the special first path "
                              "'bounds' cross-validates the static flow "
                              "bounds against traced runs")
    p_check.add_argument("--scenarios", action="append", nargs="?", const="",
                         metavar="EXPR",
                         help="check registered sweep scenarios (optionally "
                              "filtered by tag/name; repeatable)")
    p_check.add_argument("--self", action="store_true",
                         help="run the determinism lint over the simulator core")
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.add_argument("--rules", nargs="?", const="", default=None,
                         metavar="EXPR",
                         help="bare: list every rule id; with a comma-"
                              "separated expression of rule ids or family "
                              "prefixes (FLOW, SCHED001): report only those")
    p_check.add_argument("--no-cache", action="store_true",
                         help="bypass the incremental check-report cache")
    p_check.add_argument("--cache-dir", default=".repro_cache", metavar="PATH",
                         help="check-report cache root (default: .repro_cache)")
    p_check.add_argument("--all", action="store_true",
                         help="with 'bounds': validate every registry "
                              "scenario (also the default with no filter)")
    p_check.add_argument("--baseline", default=None, metavar="FILE",
                         help="accepted-warning baseline: recorded warnings "
                              "pass, new warnings still show")
    p_check.add_argument("--update-baseline", default=None, metavar="FILE",
                         help="record current non-error findings as accepted")
    p_check.add_argument("--strict", action="store_true",
                         help="exit nonzero on warnings too, not just errors")
    p_check.set_defaults(func=_cmd_check)

    p_obs = sub.add_parser(
        "obs", help="observability: flow journeys, aggregation, comparison")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_flows = obs_sub.add_parser(
        "flows", help="reconstruct cross-VN message journeys in the car")
    p_flows.add_argument("--seconds", type=float, default=2.0)
    p_flows.add_argument("--seed", type=int, default=0)
    p_flows.add_argument("--no-block-demo", dest="block_demo",
                         action="store_false",
                         help="skip the min-interval filter that guarantees "
                              "blocked journeys at gw-nav")
    p_flows.add_argument("--out", default=None, metavar="PATH",
                         help="export all journeys as NDJSON")
    p_flows.add_argument("--json", action="store_true",
                         help="also print the summary as JSON")
    p_flows.set_defaults(func=_cmd_obs_flows)

    p_agg = obs_sub.add_parser(
        "aggregate", help="merge metrics across a sweep's cached results")
    p_agg.add_argument("--cache-dir", default=".repro_cache", metavar="PATH")
    p_agg.add_argument("--scenario", action="append", metavar="NAME",
                       help="restrict to specific scenario names (repeatable)")
    p_agg.add_argument("--out", default=None, metavar="PATH",
                       help="write the markdown report to a file")
    p_agg.add_argument("--json", action="store_true",
                       help="print the aggregate as JSON instead of markdown")
    p_agg.set_defaults(func=_cmd_obs_aggregate)

    p_cmp = obs_sub.add_parser(
        "compare", help="diff two metrics snapshots (counters + histograms)")
    p_cmp.add_argument("base", help="baseline snapshot JSON "
                                    "(from car --metrics-json or obs aggregate --json)")
    p_cmp.add_argument("other", help="snapshot JSON to compare against the baseline")
    p_cmp.add_argument("--json", action="store_true")
    p_cmp.set_defaults(func=_cmd_obs_compare)

    p_cache = sub.add_parser(
        "cache", help="inspect or empty the sweep result cache")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    from .runner.cache import DEFAULT_CACHE_MAX_BYTES

    p_cstats = cache_sub.add_parser("stats", help="cache size and contents")
    p_cstats.add_argument("--cache-dir", default=".repro_cache", metavar="PATH")
    p_cstats.add_argument("--max-bytes", type=int,
                          default=DEFAULT_CACHE_MAX_BYTES,
                          help="size cap shown in the report")
    p_cstats.add_argument("--json", action="store_true")
    p_cstats.set_defaults(func=_cmd_cache)

    p_cclear = cache_sub.add_parser(
        "clear", help="delete every cache entry (results and templates)")
    p_cclear.add_argument("--cache-dir", default=".repro_cache", metavar="PATH")
    p_cclear.add_argument("--max-bytes", type=int,
                          default=DEFAULT_CACHE_MAX_BYTES)
    p_cclear.add_argument("--templates", action="store_true",
                          help="clear only the persistent template banks")
    p_cclear.add_argument("--json", action="store_true")
    p_cclear.set_defaults(func=_cmd_cache)

    p_ver = sub.add_parser("version", help="print the package version")
    p_ver.set_defaults(func=_cmd_version)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
