"""The benchmark's one command.

    python benchmarks/bench/run.py --seed S [--workload NAME] [--seconds T] [--trace 0|1]

Without ``--workload`` every workload runs, one after another.  Each
workload runs in fresh subprocesses (``worker.py``), one at a time, so
exactly one process generates load: ``SETUP_BEFORE`` set-up-only
processes, the measuring one, then ``SETUP_AFTER`` more set-up-only
processes.  This process samples the host's speed between the set-up
children and scales each set-up time by the samples around it, as the
measuring process does with its timings; ``setup_s`` is the median of
the scaled set-up times.  The two groups lie a whole measuring run
apart, so one burst of load from elsewhere on the host cannot move most
of the samples.

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``, the one
place the run length is set; tools that run the ``command`` listed
there pass that same value with ``--seconds``.

``--trace 1`` instead runs one untimed-pass child without tracing and
one child with the span tracer installed, checks that both produced the
same digests and replayed rounds, and reports the per-layer metrics.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every check passed.  A workload whose child process fails counts as one
failed check with no metrics, and the other workloads still run.
``--record FILE`` also appends the result, tagged with workload and
seed, to a JSON-lines file for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic_ns

import workloads

BENCH_DIR = Path(__file__).resolve().parent
#: set-up-only processes before and after the measuring one
SETUP_BEFORE, SETUP_AFTER = 4, 5
#: a child still running after this long is killed
CHILD_TIMEOUT_S = 170
#: layer self times must add up to the traced pass wall within this share
COVERAGE_TOLERANCE = 0.05


class ChildFailed(RuntimeError):
    pass


def spawn(job: dict) -> dict:
    """Run ``worker.py`` on ``job`` and return its JSON answer."""
    job = dict(job, t_spawn_ns=monotonic_ns())
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(job)],
                              cwd=workloads.ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{job['mode']} child timed out after {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"{job['mode']} child exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except json.JSONDecodeError:
        raise ChildFailed(f"{job['mode']} child printed no result") from None


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    base = {"workload": name, "seed": seed}
    speed = workloads.HostSpeed()

    def setup_samples(count: int) -> list[float]:
        """Set-up times of ``count`` fresh processes, each scaled by the
        speed samples taken right before and after it."""
        out, before = [], speed()
        for _ in range(count):
            setup_s = spawn(dict(base, mode="setup"))["setup_s"]
            after = speed()
            out.append(workloads.scaled(setup_s, before, after))
            before = after
        return out

    samples = setup_samples(SETUP_BEFORE)
    out = spawn(dict(base, mode="measure", seconds=seconds))
    samples += setup_samples(SETUP_AFTER)
    out["metrics"]["setup_s"] = statistics.median(samples)
    print(f"# {name} seed {seed}: {out['passes']} passes, {out['run_samples']} timed runs, "
          f"{out['warm_samples']} warm legs, reference loop {out['reference_s'] * 1e3:.2f} ms, "
          "scaled setup samples " + " ".join(f"{s:.3f}" for s in samples))
    return {"metrics": out["metrics"], "units": dict(workloads.END_TO_END),
            "attempted": out["attempted"], "failed": out["failed"],
            "problems": out["problems"]}


def per_layer(name: str, seed: int) -> dict:
    base = {"workload": name, "seed": seed}
    plain = spawn(dict(base, mode="measure", seconds=0, max_passes=1))
    traced = spawn(dict(base, mode="trace"))
    tally = workloads.Tally(plain["attempted"] + traced["attempted"],
                            plain["failed"] + traced["failed"],
                            plain["problems"] + traced["problems"])
    # Parity guard: a traced pass that computed anything else measured
    # a different program.
    want, got = plain["first_pass"], traced["first_pass"]
    tally.check(got["digests"] == want["digests"], "traced digests differ from untraced",
                runs=max(1, len(want["digests"])))
    tally.check(got["rounds_replayed"] == want["rounds_replayed"],
                f"traced run replayed {got['rounds_replayed']} rounds, "
                f"untraced {want['rounds_replayed']}")
    metrics = workloads.layer_metrics(traced, plain["pass_wall_s"][0])
    tally.check(abs(metrics["trace_coverage"] - 1) <= COVERAGE_TOLERANCE,
                f"layer self times cover {metrics['trace_coverage']:.3f} of the traced pass")
    print(f"# {name} seed {seed}: traced pass {traced['wall_s']:.3f} s, "
          f"untraced {plain['pass_wall_s'][0]:.3f} s, spans in {traced['spans_file']}")
    return {"metrics": metrics, "units": dict(workloads.PER_LAYER),
            "attempted": tally.attempted, "failed": tally.failed,
            "problems": tally.problems}


def result_line(out: dict) -> dict:
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": out["units"][name]}
                    for name, value in out["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload (default: run_seconds "
                             "in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--record", type=Path,
                        help="append each result to this JSON-lines file")
    args = parser.parse_args(argv)
    if not (workloads.ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {workloads.ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    lines = {}
    for name in names:
        try:
            out = (per_layer(name, args.seed) if args.trace
                   else end_to_end(name, args.seed, seconds))
        except ChildFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            out = {"metrics": {}, "units": {}, "attempted": 1, "failed": 1,
                   "problems": [f"child process failed: {exc}".splitlines()[0]]}
        for metric, value in out["metrics"].items():
            print(f"{name:<13} {metric:<36} {value:>16.6f} {out['units'][metric]}")
        for problem in out["problems"]:
            print(f"# {name}: {problem}")
        line = lines[name] = result_line(out)
        if args.record is not None:
            with args.record.open("a") as fh:
                fh.write(json.dumps({"workload": name, "seed": args.seed,
                                     "trace": args.trace, "result": line}) + "\n")
        if len(names) > 1:
            print(json.dumps(line))
    if len(names) == 1:
        final = lines[names[0]]
    else:
        final = {
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{name}/{metric}": value for name, line in lines.items()
                        for metric, value in line["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
