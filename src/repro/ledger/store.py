"""The append-only run ledger: one NDJSON record per executed run.

Design constraints, in order:

* **Crash-safe.**  A record is serialized to one line and written with a
  single ``os.write`` on an ``O_APPEND`` descriptor, then ``fsync``-ed
  before the append returns.  A crash mid-write can only ever truncate
  the *final* line; it can never corrupt earlier records or interleave
  two workers' lines (every sweep worker appends with its own one-shot
  descriptor, and POSIX ``O_APPEND`` makes each ``write`` atomic with
  respect to the file offset).
* **Tolerant on reload.**  :meth:`RunLedger.entries` skips unparseable
  lines (the truncated tail a crash leaves behind, or a foreign line)
  and counts them in :attr:`RunLedger.skipped_lines` instead of
  refusing the whole file.
* **Bounded.**  Past :attr:`RunLedger.max_bytes` the file rotates
  (``ledger.ndjsonl`` → ``ledger.ndjsonl.1`` → ``….2``), keeping
  :attr:`RunLedger.keep` rotated generations, so a long-lived checkout
  sweeping thousands of scenarios cannot grow the ledger unboundedly.

Record fields are stable and sorted (``sort_keys=True``) so a ledger
line is byte-reproducible from its payload — the replay audit
(:mod:`repro.ledger.audit`) depends on field-for-field comparison.
"""

from __future__ import annotations

import hashlib
import json
import os
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

__all__ = [
    "DEFAULT_LEDGER_KEEP",
    "DEFAULT_LEDGER_MAX_BYTES",
    "LEDGER_VERSION",
    "RunLedger",
    "record_from_result",
    "spec_digest",
]

#: bump when the record schema changes incompatibly
LEDGER_VERSION = 1

#: rotation threshold for one ledger file
DEFAULT_LEDGER_MAX_BYTES = 8 * 1024 * 1024

#: rotated generations kept next to the live file
DEFAULT_LEDGER_KEEP = 2


def spec_digest(spec_dict: dict) -> str:
    """Digest of a scenario spec's canonical JSON form (24 hex chars,
    the same width as cache keys)."""
    payload = json.dumps(spec_dict, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def record_from_result(spec: Any, result: dict, code: str,
                       timestamp: str | None = None) -> dict:
    """Build one ledger record from a finished ``run_scenario`` result.

    ``spec`` is a :class:`~repro.runner.scenarios.ScenarioSpec` (typed
    ``Any`` to keep this module import-light in workers); ``code`` is
    the package code digest the run executed under.  ``timestamp``
    defaults to UTC now — the only wall-clock field, present for humans
    and trend queries, never compared by the audit.
    """
    spec_dict = spec.as_dict()
    return {
        "v": LEDGER_VERSION,
        "ts": timestamp if timestamp is not None else (
            # human-facing timestamp, never compared by the audit
            datetime.now(timezone.utc).isoformat(timespec="seconds")),  # det-ok: DET001
        "name": spec_dict["name"],
        "spec": spec_dict,
        "spec_digest": spec_digest(spec_dict),
        "code_digest": code,
        "runtime": result.get("runtime", "sim"),
        "pace": spec.param("pace"),
        "digest": result["digest"],
        "events_executed": result["events_executed"],
        "now_ns": result["now_ns"],
        "wall_s": result["wall_s"],
        "metrics": result["metrics"],
        "round_template": result.get("round_template"),
    }


class RunLedger:
    """Crash-safe append-only NDJSON ledger with rotation.

    The ledger object is cheap, stateless between calls, and picklable
    (it holds only configuration), so sweep workers can construct one
    per append without coordination — concurrency safety comes from
    ``O_APPEND`` single-write semantics, not from shared state.
    """

    def __init__(self, path: str | Path,
                 max_bytes: int = DEFAULT_LEDGER_MAX_BYTES,
                 keep: int = DEFAULT_LEDGER_KEEP,
                 fsync: bool = True) -> None:
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.keep = keep
        self.fsync = fsync
        #: unparseable lines skipped by the last :meth:`entries` call
        self.skipped_lines = 0

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, record: dict) -> None:
        """Serialize ``record`` to one line and durably append it."""
        self.append_many([record])

    def append_many(self, records: list[dict]) -> None:
        """Durably append a batch of records with one write + fsync.

        The campaign fast path: a worker finishing a chunk of scenarios
        pays one ``open``/``write``/``fsync`` for the whole chunk
        instead of one per run.  The crash-safety contract is
        unchanged — the batch is a single ``O_APPEND`` write of whole
        newline-terminated lines, so a crash mid-write can still only
        truncate the *final* line of the file; every earlier record of
        the batch (and everything before it) survives, and reload skips
        the one torn tail.
        """
        if not records:
            return
        lines = "".join(
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
            for record in records
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._rotate_if_needed(len(lines))
        if self._tail_unterminated():
            # A crash left a partial final line; start on a fresh line so
            # the new records don't fuse with (and die alongside) it.
            lines = "\n" + lines
        fd = os.open(self.path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
        try:
            os.write(fd, lines.encode())
            if self.fsync:
                os.fsync(fd)
        finally:
            os.close(fd)

    def _tail_unterminated(self) -> bool:
        """True when the live file ends mid-line (a crash tail).

        Live writers always append whole newline-terminated lines, so an
        unterminated tail can only be the residue of a crash — checking
        it outside any lock is safe.
        """
        try:
            with open(self.path, "rb") as fh:
                fh.seek(0, os.SEEK_END)
                if fh.tell() == 0:
                    return False
                fh.seek(-1, os.SEEK_END)
                return fh.read(1) != b"\n"
        except OSError:
            return False

    def _rotated_path(self, generation: int) -> Path:
        return self.path.with_name(f"{self.path.name}.{generation}")

    def _rotate_if_needed(self, incoming: int) -> None:
        """Shift generations when the live file would exceed the cap."""
        if self.max_bytes <= 0:
            return
        try:
            size = self.path.stat().st_size
        except OSError:
            return
        if size + incoming <= self.max_bytes:
            return
        if self.keep <= 0:
            self.path.unlink(missing_ok=True)
            return
        self._rotated_path(self.keep).unlink(missing_ok=True)
        for generation in range(self.keep - 1, 0, -1):
            src = self._rotated_path(generation)
            if src.exists():
                src.replace(self._rotated_path(generation + 1))
        self.path.replace(self._rotated_path(1))

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def files(self, include_rotated: bool = True) -> list[Path]:
        """Existing ledger files, oldest generation first."""
        out: list[Path] = []
        if include_rotated:
            for generation in range(self.keep, 0, -1):
                path = self._rotated_path(generation)
                if path.exists():
                    out.append(path)
        if self.path.exists():
            out.append(self.path)
        return out

    def entries(self, name: str | None = None,
                include_rotated: bool = False) -> list[dict]:
        """Every parseable record, oldest first.

        A truncated final line (crash tail) or any other unparseable
        line is skipped and counted in :attr:`skipped_lines`; ``name``
        filters to one scenario.
        """
        self.skipped_lines = 0
        out: list[dict] = []
        for path in self.files(include_rotated=include_rotated):
            try:
                text = path.read_text()
            except OSError:
                continue
            for line in text.splitlines():
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    self.skipped_lines += 1
                    continue
                if not isinstance(record, dict) or "digest" not in record:
                    self.skipped_lines += 1
                    continue
                if name is not None and record.get("name") != name:
                    continue
                out.append(record)
        return out

    def stats(self) -> dict:
        """JSON-ready summary of the ledger files and their contents."""
        entries = self.entries(include_rotated=True)
        per_scenario: dict[str, int] = {}
        for record in entries:
            key = str(record.get("name"))
            per_scenario[key] = per_scenario.get(key, 0) + 1
        files = self.files(include_rotated=True)
        return {
            "path": str(self.path),
            "files": [str(p) for p in files],
            "total_bytes": sum(p.stat().st_size for p in files),
            "max_bytes": self.max_bytes,
            "entries": len(entries),
            "skipped_lines": self.skipped_lines,
            "scenarios": dict(sorted(per_scenario.items())),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RunLedger {self.path}>"
