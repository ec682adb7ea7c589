"""Parallel scenario execution with per-worker isolation.

Scenarios are independent by construction — a worker process receives a
picklable :class:`~repro.runner.scenarios.ScenarioSpec`, rebuilds the
entire model on a fresh :class:`~repro.sim.Simulator`, runs it to the
spec's horizon, and ships back a JSON-able result (metrics snapshot plus
trace digest).  No simulator object ever crosses a process boundary, so
fanning out over a :class:`concurrent.futures.ProcessPoolExecutor`
cannot perturb determinism: the per-scenario trace digest is
byte-identical whether the scenario ran serially, in a pool, or came
out of the result cache.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from functools import lru_cache
from pathlib import Path

from ..errors import ConfigurationError
from ..sim.trace import DigestSink, jsonl_sha256
from .cache import ResultCache, code_digest, result_key
from .scenarios import ScenarioSpec, build_scenario
from .telemetry import (
    SweepMonitor,
    configure_worker_telemetry,
    init_worker_telemetry,
    reset_worker_telemetry,
    worker_heartbeat,
    worker_post,
)

__all__ = ["LEDGER_FILENAME", "SweepRunner", "run_scenario", "trace_digest"]

#: ledger file name inside a cache directory
LEDGER_FILENAME = "ledger.ndjsonl"


@lru_cache(maxsize=1)
def _process_code_digest() -> str:
    """Code digest, hashed once per process (workers reuse it across
    the scenarios they execute)."""
    return code_digest()


def trace_digest(sim) -> str:
    """Deterministic digest of a finished run's observable behaviour.

    Full-trace runs digest the JSONL export record-for-record: a stored
    trace is hashed here (the same bytes the golden-digest test hashes,
    streamed through the hash in chunks), a :class:`DigestSink` already
    hashed those bytes as the records were emitted and only hands over
    its digest.  Counter-mode runs digest the sorted per-category
    counts.  Either way, two runs of the same spec on the same code
    must produce the same digest — in any process.
    """
    trace = sim.trace
    memory = trace.memory
    if memory is not None:
        return jsonl_sha256(memory.records)
    for sink in trace.sinks:
        if isinstance(sink, DigestSink):
            return sink.hexdigest()
    counts = {str(k): v for k, v in trace.category_counts().items()}
    payload = json.dumps(counts, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _hash_as_emitted(sim) -> None:
    """Replace a full trace's :class:`MemorySink` by a
    :class:`DigestSink` holding the records stored so far: the run then
    keeps no record list.  Flow-traced runs keep theirs —
    :meth:`FlowSet.from_trace` reads the records after the run."""
    trace = sim.trace
    memory = trace.memory
    if memory is None or sim.flows.enabled:
        return
    sink = DigestSink()
    for rec in memory.records:
        sink.emit(rec)
    trace.remove_sink(memory)
    trace.add_sink(sink)


def run_scenario(spec: ScenarioSpec,
                 ledger_path: str | None = None) -> dict:
    """Build, run, and summarize one scenario (the worker function).

    With ``ledger_path`` set, a provenance record for the finished run
    (spec + digests + metrics; see :mod:`repro.ledger`) is durably
    appended to that file.  Append failures never fail the run — the
    result instead carries a ``ledger_error`` field.
    """
    result = _execute_scenario(spec)
    if ledger_path is not None:
        from ..ledger import RunLedger, record_from_result

        try:
            RunLedger(ledger_path).append(
                record_from_result(spec, result, _process_code_digest()))
        except OSError as exc:
            result["ledger_error"] = str(exc)
    return result


def _execute_scenario(spec: ScenarioSpec) -> dict:
    """Build, run, and summarize one scenario — no ledger side effects
    (chunked execution batches those; see :func:`_pool_worker_chunk`).

    A full trace is hashed while it is emitted (:func:`_hash_as_emitted`),
    so ``wall_s`` includes the hashing and ``digest_s`` is about 0; only
    flow-traced runs still hash their stored records after the run.
    """
    t0 = time.perf_counter()
    sim = build_scenario(spec)
    _hash_as_emitted(sim)
    try:
        sim.run_until(spec.horizon_ns)
    finally:
        sim.trace.close()
    t1 = time.perf_counter()
    digest = trace_digest(sim)
    # wall-clock, like wall_s: reported, never compared or recorded
    digest_s = time.perf_counter() - t1
    result = {
        "name": spec.name,
        "seed": spec.seed,
        "horizon_ns": spec.horizon_ns,
        "trace_mode": spec.trace_mode,
        "events_executed": sim.events_executed,
        "now_ns": sim.now,
        "digest": digest,
        "metrics": sim.metrics.snapshot(),
        "wall_s": round(t1 - t0, 6),
        "digest_s": round(digest_s, 6),
        "runtime": sim.runtime.name,
        "round_template": sim.round_template.stats(),
    }
    if sim.runtime.name != "sim":
        result["runtime_stats"] = sim.runtime.stats()
    if sim.flows.enabled and sim.trace.memory is not None:
        from ..analysis.flows import FlowSet

        result["flows"] = FlowSet.from_trace(sim.trace).summary()
    return result


def _pool_worker_chunk(specs: list[ScenarioSpec],
                       ledger_path: str | None = None) -> list[dict]:
    """Execute a chunk of scenarios in one task; never raises.

    The campaign fast path: per-scenario telemetry (start/heartbeat/
    finish) is unchanged, but the chunk's provenance records are
    appended to the ledger with **one** durable write + fsync
    (:meth:`~repro.ledger.RunLedger.append_many`) instead of one per
    run.  An append failure never fails the runs — every successful
    result of the chunk instead carries a ``ledger_error`` field.
    """
    results: list[dict] = []
    records: list[dict] = []
    for spec in specs:
        worker_post({"event": "start", "scenario": spec.name})
        try:
            with worker_heartbeat(spec.name):
                result = _execute_scenario(spec)
            worker_post({"event": "finish", "scenario": spec.name,
                         "wall_s": result["wall_s"],
                         "digest": result["digest"][:12]})
            if ledger_path is not None:
                from ..ledger import record_from_result

                records.append(record_from_result(spec, result,
                                                  _process_code_digest()))
        except Exception:
            worker_post({"event": "finish", "scenario": spec.name,
                         "error": True})
            result = {"name": spec.name, "seed": spec.seed,
                      "error": traceback.format_exc(limit=8)}
        results.append(result)
    if records:
        from ..ledger import RunLedger

        try:
            RunLedger(ledger_path).append_many(records)
        except OSError as exc:
            for result in results:
                if "error" not in result:
                    result["ledger_error"] = str(exc)
    return results


class SweepRunner:
    """Run many scenarios, in-process or across a process pool, with a
    digest-keyed result cache in front.

    Parameters
    ----------
    workers:
        ``<= 1`` runs serially in this process; ``> 1`` fans scenarios
        out over a :class:`ProcessPoolExecutor`.
    use_cache:
        When True, a scenario whose (spec, code digest) key has a cached
        result is not re-run.  Fresh results are written to the cache
        either way, so ``use_cache=False`` acts as a forced refresh.
    strict:
        When True, every to-be-executed scenario is built once in this
        process and run through the static pre-flight check
        (:func:`repro.check.check_simulator`) *before* any worker
        process spawns; a scenario with error-severity findings aborts
        the whole sweep with :class:`~repro.errors.PreflightError`.
        Cache hits skip pre-flight (their spec already ran clean).
    use_ledger:
        When True (the default), every executed scenario appends a
        provenance record to ``<cache_dir>/ledger.ndjsonl`` (see
        :mod:`repro.ledger`); cache hits are served without touching
        the ledger — their execution was already recorded.
    monitor:
        A :class:`~repro.runner.telemetry.SweepMonitor` to receive live
        events (worker start/heartbeat/finish, cache hits, sweep
        start/end).  None runs silent.
    """

    def __init__(self, workers: int = 1, cache_dir: str = ".repro_cache",
                 use_cache: bool = True, strict: bool = False,
                 use_ledger: bool = True,
                 monitor: SweepMonitor | None = None,
                 chunk_size: int | None = None) -> None:
        self.workers = max(1, int(workers))
        self.cache_dir = str(cache_dir)
        self.cache = ResultCache(cache_dir)
        self.use_cache = use_cache
        self.strict = strict
        self.ledger_path = (str(Path(cache_dir) / LEDGER_FILENAME)
                            if use_ledger else None)
        self.monitor = monitor
        #: scenarios per pool task; ``None`` auto-sizes (see
        #: :meth:`_chunk_size_for`).  Chunking bounds the scheduler to
        #: O(N/chunk) future rescans and gives workers batched ledger
        #: appends, while staying small enough that worker loss or a
        #: crash forfeits at most one chunk of progress.
        self.chunk_size = chunk_size

    def _chunk_size_for(self, n: int) -> int:
        if self.chunk_size is not None:
            return max(1, int(self.chunk_size))
        # ~4 waves per worker for load balance, capped so a chunk stays
        # a small durability/retry window even at N=1000.
        return max(1, min(32, -(-n // (self.workers * 4))))

    def preflight(self, specs: list[ScenarioSpec]) -> None:
        """Statically check ``specs``; raise on the first broken one.

        Served through the digest-keyed check cache under this runner's
        cache directory, so a campaign whose candidates were already
        admission-gated (:func:`repro.generate.admit` with the same
        cache) pre-flights warm in O(1) per scenario.
        """
        from ..check.diagnostics import CheckReport, Severity, render_text
        from ..check.targets import cached_scenario_diagnostics
        from ..errors import PreflightError
        from .cache import CheckCache

        cache = CheckCache(self.cache_dir)
        code = code_digest()
        for spec in specs:
            diags = cached_scenario_diagnostics(spec, cache, code)
            if any(d.severity is Severity.ERROR for d in diags):
                raise PreflightError(
                    f"scenario {spec.name!r} failed pre-flight:\n"
                    + render_text(CheckReport(diagnostics=diags,
                                              targets_checked=1))
                )

    def run(self, specs: list[ScenarioSpec]) -> dict:
        """Execute ``specs``; returns the aggregated sweep report.

        Results appear in spec order regardless of completion order, so
        the report (and anything derived from it) is deterministic.
        Spec names must be unique — results and cache entries are keyed
        by name, so a duplicate raises :class:`ConfigurationError`
        instead of silently overwriting.
        """
        t0 = time.perf_counter()
        # Pin the effective round-template flag into every spec, so the
        # flag is visible in results/cache entries and flipping it (or
        # its default) re-keys exactly the affected runs.
        specs = [
            spec if spec.param("round_template") is not None
            else spec.with_param("round_template", True)
            for spec in specs
        ]
        seen: set[str] = set()
        for spec in specs:
            if spec.name in seen:
                raise ConfigurationError(f"duplicate scenario name {spec.name!r}")
            seen.add(spec.name)
        code = code_digest()
        keys = {spec.name: result_key(spec, code) for spec in specs}
        if self.monitor is not None:
            self.monitor.begin(len(specs))
        results: dict[str, dict] = {}
        to_run: list[ScenarioSpec] = []
        hits = 0
        for spec in specs:
            cached = self.cache.get(spec, keys[spec.name]) if self.use_cache else None
            if cached is not None:
                cached = dict(cached, cached=True)
                results[spec.name] = cached
                hits += 1
                if self.monitor is not None:
                    self.monitor.post({"event": "cache_hit",
                                       "scenario": spec.name})
            else:
                to_run.append(spec)

        if self.strict:
            self.preflight(to_run)

        by_name = {spec.name: spec for spec in to_run}
        cache_batch: list[tuple[ScenarioSpec, str, dict]] = []
        for name, result in self._execute(to_run):
            result = dict(result, cached=False)
            results[name] = result
            if "error" not in result:
                cache_batch.append((by_name[name], keys[name],
                                    {k: v for k, v in result.items()
                                     if k != "cached"}))
                if len(cache_batch) >= 32:
                    self.cache.put_many(cache_batch)
                    cache_batch = []
        if cache_batch:
            self.cache.put_many(cache_batch)

        ordered = [results[spec.name] for spec in specs]
        errors = [r["name"] for r in ordered if "error" in r]
        report = {
            "scenarios": ordered,
            "count": len(ordered),
            "cache_hits": hits,
            "executed": len(to_run),
            "errors": errors,
            "workers": self.workers,
            "code_digest": code,
            "wall_s": round(time.perf_counter() - t0, 6),
        }
        if self.monitor is not None:
            self.monitor.finish(report)
        return report

    # ------------------------------------------------------------------
    def _execute(self, specs: list[ScenarioSpec]):
        if not specs:
            return
        chunk = self._chunk_size_for(len(specs))
        chunks = [specs[i:i + chunk] for i in range(0, len(specs), chunk)]
        if self.workers == 1 or len(specs) == 1:
            if self.monitor is not None:
                # The serial path emits the same event stream a pool
                # worker would, straight into the monitor.
                configure_worker_telemetry(_DirectSink(self.monitor),
                                           self.monitor.heartbeat_s)
            try:
                for batch in chunks:
                    for spec, result in zip(
                            batch, _pool_worker_chunk(batch,
                                                      self.ledger_path)):
                        yield spec.name, result
            finally:
                reset_worker_telemetry()
            return
        init = initargs = None
        pump = queue = manager = None
        if self.monitor is not None:
            import multiprocessing

            # A managed queue proxy pickles into workers regardless of
            # start method; a pump thread drains it into the monitor.
            manager = multiprocessing.Manager()
            queue = manager.Queue()
            pump = threading.Thread(target=_pump_events,
                                    args=(queue, self.monitor), daemon=True)
            pump.start()
            init = init_worker_telemetry
            initargs = (queue, self.monitor.heartbeat_s)
        try:
            with ProcessPoolExecutor(max_workers=self.workers,
                                     initializer=init,
                                     initargs=initargs or ()) as pool:
                # One future per *chunk*, not per scenario: at N=1000
                # the completion loop rescans O(N/chunk) futures per
                # wait instead of O(N), and each worker amortizes its
                # ledger fsync over the chunk.
                pending = {pool.submit(_pool_worker_chunk, batch,
                                       self.ledger_path): batch
                           for batch in chunks}
                while pending:
                    done, _ = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        batch = pending.pop(future)
                        try:
                            batch_results = future.result()
                        except Exception:  # worker died (signal, pool failure)
                            err = traceback.format_exc(limit=8)
                            batch_results = [
                                {"name": spec.name, "seed": spec.seed,
                                 "error": err}
                                for spec in batch
                            ]
                        for spec, result in zip(batch, batch_results):
                            yield spec.name, result
        finally:
            if queue is not None:
                queue.put(None)
                pump.join(timeout=5.0)
                manager.shutdown()


class _DirectSink:
    """Adapter giving the serial path the worker queue interface."""

    def __init__(self, monitor: SweepMonitor) -> None:
        self._monitor = monitor

    def put_nowait(self, event: dict) -> None:
        self._monitor.post(event)


def _pump_events(queue, monitor: SweepMonitor) -> None:
    """Drain worker events into the monitor until the None sentinel."""
    while True:
        try:
            event = queue.get()
        except (EOFError, OSError):  # manager torn down
            return
        if event is None:
            return
        monitor.post(event)
