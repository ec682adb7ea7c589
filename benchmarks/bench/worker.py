"""One workload in a fresh interpreter: the child process of ``run.py``.

Invoked as ``python worker.py '<job json>'``; the job names a mode
(``setup``, ``measure`` or ``trace``), the workload, its seed and
``t_spawn_ns``, the parent's ``time.monotonic_ns()`` just before it
started this process.  Prints one JSON object as its last line.
"""

from __future__ import annotations

import json
import sys

import workloads


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    name, seed, mode = job["workload"], int(job["seed"]), job["mode"]
    if mode == "setup":
        out = {"setup_s": workloads.setup_only(name, seed, job["t_spawn_ns"])}
    elif mode == "measure":
        out = workloads.measure(name, seed, float(job["seconds"]),
                                max_passes=job.get("max_passes"),
                                t_spawn_ns=job["t_spawn_ns"])
    elif mode == "trace":
        out = workloads.trace(name, seed)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
