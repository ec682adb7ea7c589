"""The benchmark's four workloads, run in-process.

Each workload is a closed loop with one client: one process runs one
pass after another, and a pass starts only when the previous one has
finished.  Nothing here starts a thread or a process; ``run.py`` puts
each workload in a fresh subprocess of its own.

A *pass* runs every input of the workload once, cold, and then serves
the same inputs ``warm_legs`` times from a warm result cache:

* registry workloads (``car-mixed``, ``gw-pipeline``, ``tt-substrate``)
  time each whole ``run_scenario`` call (build, run and digest), then
  let a warm :class:`~repro.runner.executor.SweepRunner` serve the three
  specs from a result cache filled with the cold results;
* ``campaign`` admits generated candidates into a fresh check cache and
  runs the admitted ones through a cold strict ``SweepRunner`` with the
  ledger, result cache and template store on; each warm leg repeats
  admission and sweep over the same directory.

Timings are scaled to a nominal host speed and reduced over their
repetitions as :func:`summarize` describes.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".bench_runs"

#: registry workload -> scenario names (see ``README.md`` for why)
REGISTRY = {
    "car-mixed": ("car-baseline", "car-strict-separation", "car-gps-outage"),
    "gw-pipeline": ("gw-pipeline-s5", "gw-pipeline-seed0", "fault-controller-crash"),
    "tt-substrate": ("tdma-cluster", "tt-vn-pipeline", "fault-babbling-idiot"),
}
CAMPAIGN = "campaign"
WORKLOADS = (*REGISTRY, CAMPAIGN)

#: the campaign's generator profile and size; ``bench`` draws small,
#: similar clusters, so the per-seed cost varies little (see README)
CAMPAIGN_PROFILE = "bench"
CAMPAIGN_CANDIDATES = 64
#: candidates of the untimed campaign warm-up
CAMPAIGN_WARMUP = 8
#: warm legs per pass
WARM_LEGS = 12
#: nominal time of one reference loop; timings are scaled to it
REFERENCE_S = 0.020
#: reference loops per host speed sample; the fastest counts
REFERENCE_REPS = 2

END_TO_END = (
    ("sim_speed", "sim-s/s"),
    ("runs_per_s", "runs/s"),
    ("warm_runs_per_s", "runs/s"),
    ("run_p50_s", "s"),
    ("run_p80_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

#: layer whose self time each ``<layer>.self_s`` metric reports
SELF_TIME_LAYERS = (
    "sim", "sim.round_template", "sim.trace", "core_network", "gateway",
    "vn", "messaging", "platform", "apps", "runner", "generate", "check",
    "ledger", "runner.cache", "analysis",
)

PER_LAYER = (
    *((f"{layer}.self_s", "s") for layer in SELF_TIME_LAYERS),
    ("sim.events", "count"),
    ("sim.round_template.rounds_replayed", "count"),
    ("sim.round_template.recordings", "count"),
    ("sim.round_template.replay_share", "ratio"),
    ("sim.trace.records", "count"),
    ("runner.digest_s", "s"),
    ("runner.build_s", "s"),
    ("core_network.calls", "count"),
    ("bus.frames_tx", "count"),
    ("gateway.forwards", "count"),
    ("gateway.blocks", "count"),
    ("gateway.forward_share", "ratio"),
    ("vn.instances_delivered", "count"),
    ("partition.windows", "count"),
    ("job.activations", "count"),
    ("check.cache_hit_ratio", "ratio"),
    ("ledger.appends", "count"),
    ("ledger.records", "count"),
    ("runner.cache.hit_ratio", "ratio"),
    ("trace_overhead_x", "x"),
    ("trace_coverage", "ratio"),
)

#: metrics-snapshot counters kept per run
COUNTERS = ("bus.frames_tx", "gateway.forwards", "gateway.blocks",
            "gateway.receptions", "vn.instances_delivered",
            "partition.windows", "job.activations")


def import_repro():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no repro sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"repro imported from {repro.__file__}, not {src}")
    return repro


def load_golden() -> dict:
    return json.loads((BENCH_DIR / "golden.json").read_text())


def digests_sha256(digests: list[str]) -> str:
    """sha256 over an ordered list of run digests."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


@dataclass
class Tally:
    """Runs checked and the mismatches found (``failed`` in the result)."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str, runs: int = 1) -> None:
        self.attempted += runs
        if not ok:
            self.failed += runs
            if len(self.problems) < 20:
                self.problems.append(what)


def _run_record(name: str, result: dict, wall_s: float | None) -> dict:
    if "error" in result:
        return {"name": name, "error": True, "digest": None, "wall_s": wall_s}
    rt = result.get("round_template") or {}
    counters = (result.get("metrics") or {}).get("counters", {})
    return {
        "name": name,
        "error": False,
        "digest": result["digest"],
        "wall_s": wall_s if wall_s is not None else result["wall_s"],
        "horizon_ns": result["horizon_ns"],
        "events": result["events_executed"],
        "rounds_replayed": rt.get("rounds_replayed", 0),
        "recordings": rt.get("recordings", 0),
        "round_length_ns": rt.get("round_length_ns", 0),
        "counters": {k: counters.get(k, 0) for k in COUNTERS},
    }


def _timed_run(spec) -> tuple[dict, dict]:
    """One whole ``run_scenario`` call, timed from outside; returns the
    run record and the raw result."""
    from repro.runner.executor import run_scenario

    t0 = perf_counter()
    try:
        result = run_scenario(spec)
    except Exception:  # a crashing run is counted as failed, not fatal
        result = {"error": traceback.format_exc(limit=4)}
    return _run_record(spec.name, result, perf_counter() - t0), result


class RegistryWorkload:
    """Three registry scenarios, run back to back."""

    #: every timed section has speed samples right around it (summarize)
    BRACKETED = True

    def __init__(self, name: str, seed: int, work_dir: Path, golden: dict) -> None:
        from repro.runner.scenarios import default_registry, derive_seed

        registry = default_registry()
        self.seed = seed
        self.specs = [registry[n] if seed == 0
                      else replace(registry[n], seed=derive_seed(n, seed))
                      for n in REGISTRY[name]]
        # The round-template flag SweepRunner would pin, set explicitly
        # so the warm leg serves exactly the keys the cache was filled with.
        self.sweep_specs = [s.with_param("round_template", True) for s in self.specs]
        self.cache_dir = work_dir / "results"
        self.golden = golden.get("registry", {})
        self.expected: dict[str, str] = {}
        self._filled = False

    def setup(self) -> None:
        from repro.runner.scenarios import build_scenario

        for spec in self.specs:
            build_scenario(spec)

    def warm_up(self, tally: Tally) -> None:
        """One untimed pass that also fixes the expected digests: the
        pinned golden digests for seed 0, else an event-by-event
        reference run (round templates off) of every spec."""
        for spec in self.specs:
            if self.seed == 0:
                run, _ = _timed_run(spec)
                want = self.golden.get(spec.name)
            else:
                run, _ = _timed_run(spec.with_param("round_template", False))
                want = run["digest"]
            self.expected[spec.name] = want
            tally.check(not run["error"] and run["digest"] == want,
                        f"{spec.name}: digest {run['digest']} != expected {want}")

    def timed_pass(self, tally: Tally, warm_legs: int, speed: Callable[[], float]) -> dict:
        refs = [speed()]
        runs, results = [], []
        for spec in self.specs:
            run, result = _timed_run(spec)
            refs.append(speed())
            run["scaled_s"] = scaled(run["wall_s"], refs[-2], refs[-1])
            runs.append(run)
            results.append(result)
            tally.check(not run["error"] and run["digest"] == self.expected[run["name"]],
                        f"{run['name']}: digest {run['digest']} != expected")
        if not self._filled:
            self._fill_cache(results)
        warm = [self._warm_leg(tally) for _ in range(warm_legs)]
        return {
            "runs": runs,
            "cold_scaled_s": sum(r["scaled_s"] for r in runs),
            "warm": warm,
            "warm_scaled_s": scaled(sum(w for _, w in warm), refs[-1], speed()),
            "persistence": {"check_hits": 0, "check_misses": 0,
                            "cache_gets": len(warm) * len(self.specs),
                            "cache_hits": sum(h for h, _ in warm),
                            "ledger_records": 0},
        }

    def _fill_cache(self, results) -> None:
        """Store the cold results the way a sweep would (untimed)."""
        from repro.runner.cache import ResultCache, code_digest, result_key

        code = code_digest()
        ResultCache(self.cache_dir).put_many(
            [(spec, result_key(spec, code), result)
             for spec, result in zip(self.sweep_specs, results) if "error" not in result])
        self._filled = True

    def _warm_leg(self, tally: Tally) -> tuple[int, float]:
        from repro.runner.executor import SweepRunner

        t0 = perf_counter()
        report = SweepRunner(workers=1, cache_dir=str(self.cache_dir)).run(self.sweep_specs)
        wall = perf_counter() - t0
        for result in report["scenarios"]:
            tally.check(result.get("cached") is True
                        and result.get("digest") == self.expected[result["name"]],
                        f"{result['name']}: warm result missing or wrong")
        return report["cache_hits"], wall


class CampaignWorkload:
    """Generated candidates: admission, then a cold and warm sweep."""

    #: runs share one sweep, with speed samples only around all of it
    BRACKETED = False

    def __init__(self, seed: int, work_dir: Path, golden: dict) -> None:
        from repro.generate import generate_candidates

        self.work_dir = work_dir
        self.candidates = candidates(seed)
        self.golden = golden.get("campaign", {}) if seed == 0 else {}
        self._first: list[str] | None = None
        self._passes = 0
        self._warmup = generate_candidates(CAMPAIGN_WARMUP, CAMPAIGN_PROFILE,
                                           base_seed=seed)

    def setup(self) -> None:
        from repro.runner.scenarios import build_scenario

        for spec in self.candidates:
            try:
                build_scenario(spec)
            except Exception:  # admission rejects it as BUILD; not a setup error
                pass

    def warm_up(self, tally: Tally) -> None:
        """A small untimed campaign, so lazy imports and per-process
        caches are settled before the first timed pass."""
        self._campaign(self._warmup, self.work_dir / "warmup", tally, 1, nominal_speed)

    def timed_pass(self, tally: Tally, warm_legs: int, speed: Callable[[], float]) -> dict:
        self._passes += 1
        record = self._campaign(self.candidates, self.work_dir / f"pass{self._passes}",
                                tally, warm_legs, speed)
        digests = [r["digest"] for r in record["runs"]]
        if self._first is None:
            self._first = digests
            if self.golden:
                want = self.golden
                tally.check((want["profile"], want["candidates"])
                            == (CAMPAIGN_PROFILE, CAMPAIGN_CANDIDATES),
                            "golden campaign was made with another profile or size")
                tally.check(record["admitted"] == want["admitted"],
                            f"admitted {record['admitted']} != golden {want['admitted']}")
                tally.check(record["rejected_rules"] == want["rejected_rules"],
                            f"rejected {record['rejected_rules']} != golden")
                tally.check(digests_sha256(digests) == want["digests_sha256"],
                            "campaign digests differ from golden")
        else:
            tally.check(digests == self._first, "cold pass digests differ from first pass",
                        runs=len(digests))
        return record

    def _campaign(self, specs, cache_dir: Path, tally: Tally, warm_legs: int,
                  speed: Callable[[], float]) -> dict:
        from repro.generate import admit
        from repro.runner.cache import CheckCache
        from repro.runner.executor import LEDGER_FILENAME, SweepRunner

        shutil.rmtree(cache_dir, ignore_errors=True)
        speed()
        t0 = perf_counter()
        admitted, summary = admit(specs, CheckCache(cache_dir))
        report = SweepRunner(workers=1, cache_dir=str(cache_dir), strict=True).run(admitted)
        t1 = perf_counter()
        speed()
        runs = [_run_record(r["name"], r, None) for r in report["scenarios"]]
        for run in runs:
            tally.check(not run["error"], f"{run['name']}: run failed")
        cold = {r["name"]: r["digest"] for r in runs}
        warm = []
        cache_gets, cache_hits = report["count"], report["cache_hits"]
        for _ in range(warm_legs):
            w0 = perf_counter()
            again, _ = admit(specs, CheckCache(cache_dir))
            served = SweepRunner(workers=1, cache_dir=str(cache_dir), strict=True).run(again)
            warm.append((served["cache_hits"], perf_counter() - w0))
            cache_gets += served["count"]
            cache_hits += served["cache_hits"]
            tally.check([s.name for s in again] == [s.name for s in admitted],
                        "warm admission differs from cold")
            for result in served["scenarios"]:
                tally.check(result.get("cached") is True
                            and result.get("digest") == cold.get(result["name"]),
                            f"{result['name']}: warm digest differs from cold")
        checks = CheckCache(cache_dir).stats()
        ledger = cache_dir / LEDGER_FILENAME
        ledger_records = len(ledger.read_text().splitlines()) if ledger.exists() else 0
        shutil.rmtree(cache_dir, ignore_errors=True)
        return {
            "runs": runs,
            "admitted": summary.admitted,
            "rejected_rules": dict(sorted(summary.rejected_rules.items())),
            "cold_s": t1 - t0,
            "warm": warm,
            "persistence": {"check_hits": checks["hits"], "check_misses": checks["misses"],
                            "cache_gets": cache_gets, "cache_hits": cache_hits,
                            "ledger_records": ledger_records},
        }


def candidates(seed: int):
    """The campaign's candidate specs for ``seed``."""
    from repro.generate import generate_candidates

    return generate_candidates(CAMPAIGN_CANDIDATES, CAMPAIGN_PROFILE, base_seed=seed)


def make(name: str, seed: int, work_dir: Path, golden: dict):
    if name == CAMPAIGN:
        return CampaignWorkload(seed, work_dir, golden)
    if name in REGISTRY:
        return RegistryWorkload(name, seed, work_dir, golden)
    raise ValueError(f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method; a single value is its
    own percentile)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(passes: list[dict], setup_s: float, rss_mb: float, *,
              bracketed: bool, fastest_ref_s: float) -> dict:
    """End-to-end metrics (name -> value) from the timed passes.

    Timings are turned into times on a host where the reference loop
    takes :data:`REFERENCE_S`, in the way that held steadier over ten
    separate runs per workload (README, "Steadiness"):

    * ``bracketed`` (registry workloads): every run and every block of
      warm legs lies between two speed samples and is scaled by them
      (:func:`scaled`); the median repetition counts.
    * otherwise (the campaign, whose runs go back to back inside one
      sweep, too long for the samples around it to track the host): the
      fastest repetition counts, scaled by ``fastest_ref_s``, the
      fastest speed sample of the whole run.

    Each input's runs, the passes' cold sections and the passes' warm
    legs are repetitions.  Memory and this process's set-up time are
    reported as measured; ``run.py`` replaces the set-up time with the
    median of scaled samples from fresh processes.
    """
    if bracketed:
        pick, factor = statistics.median, 1.0
        run_key, cold_key = "scaled_s", "cold_scaled_s"
        warm_s = [p["warm_scaled_s"] for p in passes]
    else:
        pick, factor = min, REFERENCE_S / fastest_ref_s
        run_key, cold_key = "wall_s", "cold_s"
        warm_s = [sum(w for _, w in p["warm"]) for p in passes]
    runs: dict[str, list[float]] = defaultdict(list)
    horizon: dict[str, float] = {}
    for p in passes:
        for r in p["runs"]:
            if not r["error"]:
                runs[r["name"]].append(r[run_key])
                horizon[r["name"]] = r["horizon_ns"] / 1e9
    walls = [pick(samples) * factor for samples in runs.values()]
    first = passes[0]
    return {
        "sim_speed": _ratio(sum(horizon.values()), sum(walls)),
        "runs_per_s": _ratio(len(first["runs"]), pick(p[cold_key] for p in passes) * factor),
        "warm_runs_per_s": _ratio(sum(h for h, _ in first["warm"]), pick(warm_s) * factor),
        "run_p50_s": statistics.median(walls) if walls else 0.0,
        "run_p80_s": _quantile(walls, 80) if walls else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


class _RefNode:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value

    def bump(self) -> int:
        self.value += 1
        return self.value


def reference_loop() -> int:
    """Fixed pure-Python work shaped like the simulator's hot paths
    (objects with slots, a heap, dicts, formatting, a little hashing and
    JSON); it never touches ``repro``."""
    heap: list = []
    table: dict = {}
    acc = 0
    for i in range(20000):
        node = _RefNode(i * 7 % 1000, i)
        heapq.heappush(heap, (node.key, i, node))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[2].bump()
        table[i & 255] = (i, f"k{i & 31}")
        acc += table.get((i * 3) & 255, (0, ""))[0]
        if i % 500 == 0:
            acc += len(json.dumps({"a": i, "b": [1, 2, 3]}))
            acc += len(hashlib.sha256(str(i).encode()).hexdigest())
    return acc


def time_reference() -> float:
    """Wall time of one :func:`reference_loop`, garbage collection off so
    the size of the heap the workload left behind cannot change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        reference_loop()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Samples the host's current speed between timed sections.

    One sample is the fastest of :data:`REFERENCE_REPS` reference loops.
    ``spent_s`` is the time the samples took, so that pass walls can
    leave it out.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0

    def __call__(self) -> float:
        t0 = perf_counter()
        sample = min(time_reference() for _ in range(REFERENCE_REPS))
        self.spent_s += perf_counter() - t0
        self.samples.append(sample)
        return sample


def nominal_speed() -> float:
    """A speed sample that takes no time: timings stay host times (used
    where nothing is scaled, in warm-ups and traced passes)."""
    return REFERENCE_S


def scaled(wall_s: float, before: float, after: float) -> float:
    """``wall_s``, timed between the speed samples ``before`` and
    ``after``, as the time on a host where the reference loop takes
    :data:`REFERENCE_S`.

    The host is shared: its speed halves for stretches from a fraction
    of a second to minutes.  The mean of the two samples that bracket a
    section tracks that better than any sample of the whole run (README,
    "Steadiness").
    """
    return wall_s * REFERENCE_S * 2 / (before + after)


def measure(name: str, seed: int, seconds: float, *, max_passes: int | None = None,
            warm_legs: int = WARM_LEGS, golden: dict | None = None,
            t_spawn_ns: int | None = None) -> dict:
    """Set up, warm up, then run timed passes for about ``seconds``.

    Passes continue while another pass of median length still fits in
    ``seconds`` (at least one runs), or until ``max_passes``.  Inside a
    pass, :class:`HostSpeed` samples bracket every timed section.  With
    ``t_spawn_ns`` (the parent's ``monotonic_ns`` just before it started
    this process) set-up time includes interpreter start.
    """
    from time import monotonic_ns

    t_setup = t_spawn_ns if t_spawn_ns is not None else monotonic_ns()
    import_repro()
    work_dir = WORK_DIR / f"{name}-{seed}-{os.getpid()}"
    tally = Tally()
    speed = HostSpeed()
    try:
        workload = make(name, seed, work_dir, load_golden() if golden is None else golden)
        workload.setup()
        setup_s = (monotonic_ns() - t_setup) / 1e9
        workload.warm_up(tally)
        passes, pass_walls = [], []
        start = perf_counter()
        while True:
            t0, spent = perf_counter(), speed.spent_s
            passes.append(workload.timed_pass(tally, warm_legs, speed))
            pass_walls.append(perf_counter() - t0 - (speed.spent_s - spent))
            if max_passes is not None and len(passes) >= max_passes:
                break
            if perf_counter() - start + statistics.median(pass_walls) > seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return {
        "workload": name,
        "seed": seed,
        "metrics": summarize(passes, setup_s, peak_rss_mb(), bracketed=workload.BRACKETED,
                             fastest_ref_s=min(speed.samples)),
        "reference_s": statistics.median(speed.samples),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "passes": len(passes),
        "pass_wall_s": pass_walls,
        "run_samples": sum(len(p["runs"]) for p in passes),
        "warm_samples": sum(len(p["warm"]) for p in passes),
        "first_pass": _fingerprint(passes[0]),
    }


def setup_only(name: str, seed: int, t_spawn_ns: int) -> float:
    """Set-up time of one fresh process (interpreter start included)."""
    from time import monotonic_ns

    import_repro()
    make(name, seed, WORK_DIR / "unused", {}).setup()
    return (monotonic_ns() - t_spawn_ns) / 1e9


def _fingerprint(record: dict) -> dict:
    """What a traced pass must reproduce: digests and replayed rounds."""
    return {"digests": [r["digest"] for r in record["runs"]],
            "rounds_replayed": sum(r.get("rounds_replayed", 0) for r in record["runs"])}


def trace(name: str, seed: int, *, warm_legs: int = WARM_LEGS) -> dict:
    """One traced pass, after the same set-up and warm-up as
    :func:`measure`; the tracer is installed before any spec is built."""
    import_repro()
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    work_dir = WORK_DIR / f"{name}-{seed}-traced-{os.getpid()}"
    tally = Tally()
    try:
        workload = make(name, seed, work_dir, load_golden())
        workload.setup()
        workload.warm_up(tally)
        tracer.reset()
        record, wall_ns = tracer.root(workload.timed_pass, tally, warm_legs, nominal_speed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    spans = WORK_DIR / f"spans-{name}-seed{seed}.json"
    tracer.write(spans, workload=name, seed=seed)
    return {
        "workload": name,
        "seed": seed,
        "wall_s": wall_ns / 1e9,
        "self_s": {layer: ns / 1e9 for layer, ns in tracer.self_ns.items()},
        "calls": dict(tracer.calls),
        "inclusive_s": {k: ns / 1e9 for k, ns in tracer.inclusive_ns.items()},
        "trace_records": tracer.trace_records,
        "record": record,
        "first_pass": _fingerprint(record),
        "spans_file": str(spans),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: dict, untraced_pass_wall_s: float) -> dict:
    """Per-layer metrics (name -> value) of one traced pass."""
    from tracer import ROOT as ROOT_SPAN

    self_s = traced["self_s"]
    runs = [r for r in traced["record"]["runs"] if not r["error"]]

    def total(key: str) -> int:
        return sum(r[key] for r in runs)

    def counter(key: str) -> int:
        return sum(r["counters"][key] for r in runs)

    elapsed = sum(r["horizon_ns"] // r["round_length_ns"]
                  for r in runs if r["round_length_ns"])
    persist = traced["record"]["persistence"]
    covered = sum(v for layer, v in self_s.items() if layer != ROOT_SPAN)
    out = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in SELF_TIME_LAYERS}
    out.update({
        "sim.events": total("events"),
        "sim.round_template.rounds_replayed": total("rounds_replayed"),
        "sim.round_template.recordings": total("recordings"),
        "sim.round_template.replay_share": _ratio(total("rounds_replayed"), elapsed),
        "sim.trace.records": traced["trace_records"],
        "runner.digest_s": traced["inclusive_s"].get("runner.digest", 0.0),
        "runner.build_s": traced["inclusive_s"].get("runner.build", 0.0),
        "core_network.calls": traced["calls"].get("core_network", 0),
        "bus.frames_tx": counter("bus.frames_tx"),
        "gateway.forwards": counter("gateway.forwards"),
        "gateway.blocks": counter("gateway.blocks"),
        "gateway.forward_share": _ratio(counter("gateway.forwards"),
                                        counter("gateway.receptions")),
        "vn.instances_delivered": counter("vn.instances_delivered"),
        "partition.windows": counter("partition.windows"),
        "job.activations": counter("job.activations"),
        "check.cache_hit_ratio": _ratio(persist["check_hits"],
                                        persist["check_hits"] + persist["check_misses"]),
        "ledger.appends": traced["calls"].get("ledger.append", 0),
        "ledger.records": persist["ledger_records"],
        "runner.cache.hit_ratio": _ratio(persist["cache_hits"], persist["cache_gets"]),
        "trace_overhead_x": _ratio(traced["wall_s"], untraced_pass_wall_s),
        "trace_coverage": _ratio(covered, traced["wall_s"]),
    })
    return out
