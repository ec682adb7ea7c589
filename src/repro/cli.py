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

    if args.bench_compare:
        return _sweep_bench_compare(args, specs)

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


def _sweep_bench_compare(args: argparse.Namespace, specs) -> int:
    """Serial-cold vs parallel-cold vs warm-cache comparison, recorded
    as the ``sweep`` section of BENCH_substrate.json.

    On a single-core host a "parallel" pool can only time-slice one CPU,
    so the parallel comparison would be noise presented as signal — it
    is skipped and the section says so, instead of recording a
    sub-1.0x "speedup" with a straight face.
    """
    import json
    from datetime import datetime, timezone

    from .runner import SweepRunner, provenance, update_bench_json

    cpu_count = os.cpu_count() or 1
    names = [s.name for s in specs]
    print(f"bench-compare over {len(specs)} scenarios: {', '.join(names)}")
    serial = SweepRunner(workers=1, cache_dir=args.cache_dir,
                         use_cache=False).run(specs)
    print(f"  serial cold   ({serial['workers']} worker):  {serial['wall_s']:.2f}s")
    compare_parallel = cpu_count > 1 and args.workers > 1
    if compare_parallel:
        parallel = SweepRunner(workers=args.workers, cache_dir=args.cache_dir,
                               use_cache=False).run(specs)
        print(f"  parallel cold ({parallel['workers']} workers): "
              f"{parallel['wall_s']:.2f}s")
    else:
        parallel = None
        print(f"  parallel cold: skipped (cpu_count={cpu_count}, "
              f"workers={args.workers} — no real parallelism to measure)")
    warm = SweepRunner(workers=args.workers, cache_dir=args.cache_dir,
                       use_cache=True).run(specs)
    print(f"  warm cache    ({warm['workers']} workers): {warm['wall_s']:.2f}s "
          f"({warm['cache_hits']} hits)")

    reports = [serial, warm] if parallel is None else [serial, parallel, warm]
    digests = [[r.get("digest") for r in report["scenarios"]]
               for report in reports]
    identical = all(d == digests[0] for d in digests)
    errors = any(report["errors"] for report in reports)
    cold_s = serial["wall_s"] if parallel is None else parallel["wall_s"]

    def tpl_hits(report: dict) -> int:
        return sum(1 for r in report["scenarios"]
                   if r.get("template_cache", {}).get("hit"))

    section = {
        "scenarios": names,
        "cpu_count": cpu_count,
        "round_template": bool(args.round_template),
        "template_hits_serial": tpl_hits(serial),
        "template_hits_warm": tpl_hits(warm),
        "serial_s": serial["wall_s"],
        "parallel_s": None if parallel is None else parallel["wall_s"],
        "parallel_workers": None if parallel is None else parallel["workers"],
        "parallel_speedup": None if parallel is None else round(
            serial["wall_s"] / parallel["wall_s"], 3),
        "parallel_skipped": parallel is None,
        "warm_s": warm["wall_s"],
        "warm_speedup_vs_cold": round(cold_s / warm["wall_s"], 3),
        "warm_cache_hits": warm["cache_hits"],
        "digests_identical": identical,
        "provenance": provenance(
            timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds")),
    }
    update_bench_json(args.bench_out, "sweep", section)
    if parallel is None:
        print(f"  warm speedup {section['warm_speedup_vs_cold']}x vs serial "
              f"cold, digests identical: {identical}")
    else:
        print(f"  parallel speedup {section['parallel_speedup']}x, "
              f"warm speedup {section['warm_speedup_vs_cold']}x, "
              f"digests identical: {identical}")
    print(f"  wrote sweep section to {args.bench_out}")
    if args.json:
        print(json.dumps(section, indent=2, sort_keys=True))
    return 1 if (errors or not identical) else 0


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


def _cmd_obs_bench_overhead(args: argparse.Namespace) -> int:
    """Trace-overhead guard: counters mode and counters+flow-tracing must
    stay within ``--budget``x of the trace-off wall time."""
    import json
    import time
    from datetime import datetime, timezone

    from .apps import CarConfig, build_car
    from .runner import provenance, update_bench_json

    horizon = int(args.seconds * SEC)

    def measure(label: str, **cfg_kwargs) -> float:
        best = float("inf")
        for _ in range(args.repeat):
            car = build_car(CarConfig(seed=0, **cfg_kwargs))
            t0 = time.perf_counter()
            car.run_for(horizon)
            best = min(best, time.perf_counter() - t0)
            car.sim.trace.close()
        print(f"  {label:24s} {best:.3f}s (best of {args.repeat})")
        return best

    print(f"trace-overhead guard over {args.seconds:g}s of the car:")
    off = measure("trace off", trace_mode="off")
    counters = measure("counters", trace_mode="counters")
    flow = measure("counters + flow", trace_mode="counters", flow_tracing=True)

    counters_x = counters / off
    flow_x = flow / off
    ok = counters_x <= args.budget and flow_x <= args.budget
    section = {
        "horizon_s": args.seconds,
        "off_s": round(off, 6),
        "counters_s": round(counters, 6),
        "flow_s": round(flow, 6),
        "counters_overhead_x": round(counters_x, 3),
        "flow_overhead_x": round(flow_x, 3),
        "budget_x": args.budget,
        "within_budget": ok,
        "provenance": provenance(
            timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            iterations=args.repeat),
    }
    update_bench_json(args.bench_out, "observability", section)
    print(f"  counters {counters_x:.2f}x, flow {flow_x:.2f}x of trace-off "
          f"(budget {args.budget:.2f}x) -> {'OK' if ok else 'OVER BUDGET'}")
    print(f"  wrote observability section to {args.bench_out}")
    if args.json:
        print(json.dumps(section, indent=2, sort_keys=True))
    return 0 if ok else 1


def _cmd_bench_runtime(args: argparse.Namespace) -> int:
    """Paced-runtime overhead guard: the paced dispatch loop (at a high
    pacing ratio, so sleeping is negligible and the loop itself is what
    gets measured) must stay within a small factor of the simulated
    runtime on the same scenario, with byte-identical digests."""
    import json
    from datetime import datetime, timezone

    from .runner import default_registry, provenance, run_scenario, update_bench_json

    registry = default_registry()
    spec = registry.get(args.scenario)
    if spec is None:
        print(f"error: unknown scenario {args.scenario!r} "
              f"(see `repro sweep --list`)", file=sys.stderr)
        return 2

    def measure(label: str, s):
        best = None
        for _ in range(args.repeat):
            result = run_scenario(s)
            if best is None or result["wall_s"] < best["wall_s"]:
                best = result
        print(f"  {label:24s} {best['wall_s']:.3f}s (best of {args.repeat})")
        return best

    print(f"runtime-overhead guard over scenario {spec.name!r}:")
    base = measure("simulated", spec)
    paced_spec = (spec.with_param("runtime", "realtime")
                      .with_param("pace", args.pace))
    paced = measure(f"paced {args.pace:g}x", paced_spec)

    overhead_x = paced["wall_s"] / base["wall_s"] if base["wall_s"] else 1.0
    digest_match = paced["digest"] == base["digest"]
    stats = paced.get("runtime_stats", {})
    section = {
        "scenario": spec.name,
        "pace": args.pace,
        "sim_s": base["wall_s"],
        "paced_s": paced["wall_s"],
        "paced_overhead_x": round(overhead_x, 3),
        "digest_match": digest_match,
        "deadline_misses": stats.get("deadline_misses"),
        "max_lag_ms": round(stats.get("max_lag_ns", 0) / MS, 3),
        "slept_s": round(stats.get("slept_ns", 0) / SEC, 6),
        "provenance": provenance(
            timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            iterations=args.repeat),
    }
    update_bench_json(args.bench_out, "runtime", section)
    print(f"  paced overhead {overhead_x:.2f}x vs simulated, "
          f"digests identical: {digest_match}, "
          f"deadline misses: {stats.get('deadline_misses')}")
    print(f"  wrote runtime section to {args.bench_out}")
    if args.json:
        print(json.dumps(section, indent=2, sort_keys=True))
    return 0 if digest_match else 1


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
    from datetime import datetime, timezone

    from .check.validate import validate_registry
    from .runner import provenance, update_bench_json

    tokens = [t for expr in args.paths[1:] for t in expr.split(",") if t]
    summary = validate_registry(None if args.all or not tokens else tokens)

    for name, result in summary["scenarios"].items():
        tight = result["min_tightness"]
        print(f"  {name:28s} flows={result['flows']:6d} "
              f"violations={len(result['violations'])} "
              f"min_tightness={'-' if tight is None else f'{tight:.2f}x'}")
        for v in result["violations"]:
            print(f"    VIOLATION {v['kind']} {v['name']}: observed "
                  f"{v['observed_ns']}ns > bound {v['bound_ns']}ns")

    section = {
        "scenario_count": summary["scenario_count"],
        "compared": summary["compared"],
        "violations": summary["violations"],
        "min_tightness": summary["min_tightness"],
        "per_scenario": {
            name: result["min_tightness"]
            for name, result in summary["scenarios"].items()
        },
        "provenance": provenance(
            timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds")),
    }
    update_bench_json(args.bench_out, "flow_bounds", section)
    ok = summary["violations"] == 0
    tight = summary["min_tightness"]
    print(f"  {summary['compared']} bounds compared over "
          f"{summary['scenario_count']} scenarios: "
          f"{summary['violations']} violation"
          f"{'' if summary['violations'] == 1 else 's'}, min tightness "
          f"{'-' if tight is None else f'{tight:.2f}x'} -> "
          f"{'SOUND' if ok else 'UNSOUND'}")
    print(f"  wrote flow_bounds section to {args.bench_out}")
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


def _cmd_ledger_bench(args: argparse.Namespace) -> int:
    """Ledger-overhead guard: running scenarios with the durable ledger
    enabled must stay within ``--budget``x of running them without it."""
    import json
    import tempfile
    import time
    from datetime import datetime, timezone
    from pathlib import Path

    from .ledger import RunLedger, record_from_result
    from .runner import (
        code_digest,
        default_registry,
        filter_scenarios,
        provenance,
        run_scenario,
        update_bench_json,
    )

    registry = default_registry()
    specs = filter_scenarios(registry, [args.filter])
    if not specs:
        print(f"error: no scenarios match filter {args.filter!r}",
              file=sys.stderr)
        return 2
    specs = [s.with_param("round_template", False) for s in specs]
    names = [s.name for s in specs]
    print(f"ledger-overhead guard over {len(specs)} scenarios: "
          f"{', '.join(names)}")

    with tempfile.TemporaryDirectory() as tmp:
        ledger_path = str(Path(tmp) / "bench-ledger.ndjsonl")

        def leg(path: str | None) -> float:
            t0 = time.perf_counter()
            for spec in specs:
                run_scenario(spec, ledger_path=path)
            return time.perf_counter() - t0

        # Warm-up (imports, first model build), then interleave the two
        # legs so machine-state drift hits both equally: the measured
        # ratio isolates the ledger append, not the benchmark's weather.
        leg(None)
        off = on = float("inf")
        for _ in range(args.repeat):
            off = min(off, leg(None))
            on = min(on, leg(ledger_path))
        print(f"  {'ledger off':24s} {off:.3f}s (best of {args.repeat})")
        print(f"  {'ledger on':24s} {on:.3f}s (best of {args.repeat})")

        # Micro append rate: serialize + O_APPEND + fsync for one record.
        sample = run_scenario(specs[0])
        record = record_from_result(specs[0], sample, code_digest())
        micro = RunLedger(Path(tmp) / "micro.ndjsonl")
        appends = 64
        t0 = time.perf_counter()
        for _ in range(appends):
            micro.append(record)
        append_s = (time.perf_counter() - t0) / appends

    overhead_x = on / off if off else 1.0
    ok = overhead_x <= args.budget
    section = {
        "scenarios": names,
        "off_s": round(off, 6),
        "on_s": round(on, 6),
        "append_overhead_x": round(overhead_x, 3),
        "append_ms": round(append_s * 1e3, 3),
        "appends_per_s": round(1.0 / append_s, 1) if append_s else None,
        "budget_x": args.budget,
        "within_budget": ok,
        "provenance": provenance(
            timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            iterations=args.repeat),
    }
    update_bench_json(args.bench_out, "ledger", section)
    print(f"  ledger overhead {overhead_x:.3f}x of ledger-off "
          f"(budget {args.budget:.2f}x), one fsync'd append "
          f"{section['append_ms']:.2f}ms -> {'OK' if ok else 'OVER BUDGET'}")
    print(f"  wrote ledger section to {args.bench_out}")
    if args.json:
        print(json.dumps(section, indent=2, sort_keys=True))
    return 0 if ok else 1


def _cmd_campaign_bench(args: argparse.Namespace) -> int:
    """Campaign throughput guard: cold and warm generated-sweep rates
    plus the batched-durability overhead vs a persistence-free baseline."""
    import json
    import tempfile
    import time
    from datetime import datetime, timezone
    from pathlib import Path

    from .generate import admit, generate_candidates
    from .runner import SweepRunner, provenance, run_scenario, update_bench_json

    t0 = time.perf_counter()
    candidates = generate_candidates(args.n, args.profile,
                                     base_seed=args.base_seed)
    specs, summary = admit(candidates)
    admission_s = time.perf_counter() - t0
    if not specs:
        print("error: every generated candidate was rejected by admission",
              file=sys.stderr)
        return 2
    print(f"campaign bench: {args.n} candidates (profile={args.profile}), "
          f"{len(specs)} admitted in {admission_s:.2f}s "
          f"({summary.rejection_rate:.0%} rejected)")

    with tempfile.TemporaryDirectory() as tmp:
        # Warm-up (imports, first model build, template bank), then
        # interleave the two legs so machine-state drift hits both
        # equally — the measured ratio isolates the batched durability
        # machinery (result cache + ledger), not the benchmark weather.
        # The bare leg runs the same executions with no result cache
        # and no ledger but the same (orthogonal, pre-existing)
        # template-bank persistence; every leg repetition gets fresh
        # directories so both start cold.
        for spec in specs[:8]:
            run_scenario(spec, ledger_path=None)
        off_s = cold_s = float("inf")
        bare: list = []
        cold: dict = {}
        for rep in range(args.repeat):
            bare_tpl = str(Path(tmp) / f"bare{rep}")
            t0 = time.perf_counter()
            bare = [run_scenario(spec, template_root=bare_tpl,
                                 ledger_path=None) for spec in specs]
            off_s = min(off_s, time.perf_counter() - t0)
            runner = SweepRunner(workers=args.workers,
                                 cache_dir=str(Path(tmp) / f"cache{rep}"))
            t0 = time.perf_counter()
            cold = runner.run(specs)
            cold_s = min(cold_s, time.perf_counter() - t0)
        print(f"  {'no persistence':24s} {off_s:.3f}s "
              f"({len(specs) / off_s:.1f} runs/s, best of {args.repeat})")
        print(f"  {'cold (cache+ledger)':24s} {cold_s:.3f}s "
              f"({len(specs) / cold_s:.1f} runs/s, best of {args.repeat})")
        t0 = time.perf_counter()
        warm = runner.run(specs)
        warm_s = time.perf_counter() - t0
        print(f"  {'warm (all cached)':24s} {warm_s:.3f}s "
              f"({len(specs) / warm_s:.1f} runs/s)")
        chunk = runner._chunk_size_for(len(specs))

    digests_identical = (
        [r["digest"] for r in bare]
        == [r.get("digest") for r in cold["scenarios"]]
        == [r.get("digest") for r in warm["scenarios"]])
    overhead_x = cold_s / off_s if off_s else 1.0
    ok = overhead_x <= args.budget and digests_identical and not cold["errors"]
    section = {
        "n_candidates": args.n,
        "profile": args.profile,
        "admitted": len(specs),
        "rejection_rate": round(summary.rejection_rate, 4),
        "admission_s": round(admission_s, 3),
        "off_s": round(off_s, 3),
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
        "cold_runs_per_s": round(len(specs) / cold_s, 2) if cold_s else None,
        "warm_runs_per_s": round(len(specs) / warm_s, 2) if warm_s else None,
        "batch_overhead_x": round(overhead_x, 3),
        "chunk_size": chunk,
        "workers": args.workers,
        "digests_identical": digests_identical,
        "budget_x": args.budget,
        "within_budget": ok,
        "provenance": provenance(
            timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            iterations=args.repeat),
    }
    update_bench_json(args.bench_out, "campaign", section)
    print(f"  durability overhead {overhead_x:.3f}x of persistence-free "
          f"(budget {args.budget:.2f}x), digests "
          f"{'identical' if digests_identical else 'DIVERGED'} "
          f"-> {'OK' if ok else 'FAIL'}")
    print(f"  wrote campaign section to {args.bench_out}")
    if args.json:
        print(json.dumps(section, indent=2, sort_keys=True))
    return 0 if ok else 1


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
    p_sweep.add_argument("--bench-compare", action="store_true",
                         help="measure serial vs parallel vs warm-cache and "
                              "record the sweep section of BENCH_substrate.json")
    p_sweep.add_argument("--bench-out", default="BENCH_substrate.json",
                         metavar="PATH", help="BENCH file for --bench-compare")
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

    p_lbench = ledger_sub.add_parser(
        "bench", help="guard: ledger-append overhead vs ledger-off wall time")
    p_lbench.add_argument("--filter", default="smoke", metavar="EXPR",
                          help="scenario filter to measure (default: smoke)")
    p_lbench.add_argument("--repeat", type=int, default=3,
                          help="best-of-N timing (default: 3)")
    p_lbench.add_argument("--budget", type=float, default=1.05,
                          help="max allowed overhead factor (default: 1.05)")
    p_lbench.add_argument("--bench-out", default="BENCH_substrate.json",
                          metavar="PATH")
    p_lbench.add_argument("--json", action="store_true")
    p_lbench.set_defaults(func=_cmd_ledger_bench)

    p_campaign = sub.add_parser(
        "campaign", help="generated campaigns: throughput bench, fault sweeps")
    campaign_sub = p_campaign.add_subparsers(dest="campaign_command",
                                             required=True)
    p_cbench = campaign_sub.add_parser(
        "bench", help="guard: campaign throughput (cold/warm runs per "
                      "second, batched-durability overhead)")
    p_cbench.add_argument("--n", type=int, default=1000, metavar="N",
                          help="generated candidates to run (default: 1000)")
    p_cbench.add_argument("--profile", default="bench",
                          help="generator profile (default: bench)")
    p_cbench.add_argument("--base-seed", type=int, default=0)
    p_cbench.add_argument("--workers", type=int, default=1,
                          help="sweep worker processes (default: 1)")
    p_cbench.add_argument("--repeat", type=int, default=3,
                          help="best-of-N interleaved timing (default: 3)")
    p_cbench.add_argument("--budget", type=float, default=1.05,
                          help="max allowed cold-vs-bare overhead factor "
                               "(default: 1.05)")
    p_cbench.add_argument("--bench-out", default="BENCH_substrate.json",
                          metavar="PATH")
    p_cbench.add_argument("--json", action="store_true")
    p_cbench.set_defaults(func=_cmd_campaign_bench)

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

    p_brt = sub.add_parser(
        "bench-runtime",
        help="guard: paced-runtime dispatch overhead vs the simulated runtime")
    p_brt.add_argument("--scenario", default="car-smoke",
                       help="registry scenario to measure (default: car-smoke)")
    p_brt.add_argument("--pace", type=float, default=1e6,
                       help="pacing ratio for the paced leg; high so the "
                            "loop, not sleeping, is measured (default: 1e6)")
    p_brt.add_argument("--repeat", type=int, default=3,
                       help="best-of-N timing (default: 3)")
    p_brt.add_argument("--bench-out", default="BENCH_substrate.json",
                       metavar="PATH")
    p_brt.add_argument("--json", action="store_true")
    p_brt.set_defaults(func=_cmd_bench_runtime)

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
    p_check.add_argument("--bench-out", default="BENCH_substrate.json",
                         metavar="PATH",
                         help="with 'bounds': where the flow_bounds section "
                              "is recorded")
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

    p_bench = obs_sub.add_parser(
        "bench-overhead", help="guard: tracing overhead vs trace-off wall time")
    p_bench.add_argument("--seconds", type=float, default=2.0)
    p_bench.add_argument("--repeat", type=int, default=3,
                         help="best-of-N timing (default: 3)")
    p_bench.add_argument("--budget", type=float, default=1.5,
                         help="max allowed overhead factor (default: 1.5)")
    p_bench.add_argument("--bench-out", default="BENCH_substrate.json",
                         metavar="PATH")
    p_bench.add_argument("--json", action="store_true")
    p_bench.set_defaults(func=_cmd_obs_bench_overhead)

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
