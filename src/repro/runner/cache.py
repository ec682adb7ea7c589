"""Digest-keyed result cache for scenario sweeps.

A cached entry is keyed by ``sha256(spec JSON + code digest)``: the
scenario's full specification plus a digest over every ``.py`` file in
the ``repro`` package.  Editing any source file, or any field of the
spec, therefore invalidates exactly the runs whose results could have
changed — a warm re-sweep only re-executes what moved.  The cache is a
directory of small JSON files (default ``.repro_cache/``), one per
scenario, safe to delete wholesale at any time.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

from .scenarios import ScenarioSpec

__all__ = ["CheckCache", "ResultCache", "check_key", "code_digest",
           "result_key"]

#: bump to invalidate every existing cache entry on format changes
CACHE_FORMAT = 3


def _file_sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def code_digest(roots: tuple[Path, ...] | None = None) -> str:
    """Digest of every ``.py`` file under ``roots`` (default: the
    installed ``repro`` package), keyed by stable relative path."""
    if roots is None:
        roots = (Path(__file__).resolve().parent.parent,)
    h = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(_file_sha(path).encode())
    return h.hexdigest()


def result_key(spec: ScenarioSpec, code: str) -> str:
    """Cache key for one scenario under one code state."""
    payload = json.dumps(
        {"format": CACHE_FORMAT, "spec": spec.as_dict(), "code": code},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def check_key(spec: ScenarioSpec, code: str) -> str:
    """Check-report cache key for one scenario under one code state.

    Keyed on the full spec plus the whole-package code digest: any
    source edit anywhere in ``repro`` invalidates every cached report.
    Deliberately conservative — analyzer results depend on builders,
    VN/gateway internals, and the rule implementations alike, and a
    static check re-run costs milliseconds while a stale verdict could
    admit a broken configuration to a thousand-scenario sweep.
    """
    payload = json.dumps(
        {"format": CACHE_FORMAT, "kind": "checks",
         "spec": spec.as_dict(), "code": code},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


#: Default size cap for a cache directory (see ResultCache.max_bytes).
DEFAULT_CACHE_MAX_BYTES = 64 * 1024 * 1024


class _DirCache:
    """Shared machinery for a digest-keyed directory of JSON entries.

    Files are named ``<scenario>-<key>.json`` and hold one payload shape,
    ``{"key", "spec", "value"}``; a ``get`` serves ``value`` only when it
    is a :attr:`value_type`.  A ``put`` removes stale
    entries of the same scenario (older code states) so the directory
    never grows beyond one file per scenario.  On top of that, a size
    cap (``max_bytes``) evicts the oldest entries — by file mtime, i.e.
    least-recently-written digest first — so a long-lived checkout
    accumulating many scenario names still cannot grow unboundedly.
    Evictions are tallied in a ``_meta.json`` sidecar (never itself an
    entry) so ``repro cache stats`` can report them across processes.
    """

    #: type a stored ``value`` must have to be served by :meth:`get`
    value_type: type = dict

    def __init__(self, root: str | Path = ".repro_cache",
                 max_bytes: int = DEFAULT_CACHE_MAX_BYTES) -> None:
        self.root = Path(root)
        self.max_bytes = max_bytes
        # In-instance incremental index (filename -> byte size, oldest
        # first): loaded with one directory scan on the first write,
        # then maintained across puts, so storing N entries costs O(N)
        # instead of the O(N^2) a per-put rescan gives at campaign
        # scale.  Advisory only — other processes mutating the directory
        # at worst skew eviction order, never correctness.
        self._index: dict[str, int] | None = None
        self._index_total = 0
        self._by_scenario: dict[str, str] = {}

    def path_for(self, spec: ScenarioSpec, key: str) -> Path:
        return self.root / f"{spec.name}-{key}.json"

    @staticmethod
    def _scenario_of(filename: str) -> str | None:
        """Scenario name encoded in ``<scenario>-<24 hex>.json``, or
        ``None`` for files not following the entry naming scheme."""
        stem = filename[:-5] if filename.endswith(".json") else filename
        if len(stem) > 25 and stem[-25] == "-" and "-" not in stem[-24:]:
            return stem[:-25]
        return None

    # -- eviction bookkeeping ------------------------------------------
    @property
    def _meta_path(self) -> Path:
        return self.root / "_meta.json"

    def eviction_count(self) -> int:
        try:
            meta = json.loads(self._meta_path.read_text())
            return int(meta.get("evictions", 0))
        except (OSError, ValueError, TypeError):
            return 0

    def _count_evictions(self, n: int) -> None:
        if n <= 0:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        self._meta_path.write_text(json.dumps(
            {"evictions": self.eviction_count() + n}) + "\n")

    # -- entry lifecycle -----------------------------------------------
    def get(self, spec: ScenarioSpec, key: str) -> Any:
        """The stored value for ``key``, or ``None`` on miss/corruption."""
        path = self.path_for(spec, key)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict) or payload.get("key") != key:
            return None
        value = payload.get("value")
        return value if isinstance(value, self.value_type) else None

    def _load_index(self) -> None:
        """One-time directory scan seeding the incremental index."""
        if self._index is not None:
            return
        self._index = {}
        self._index_total = 0
        self._by_scenario = {}
        for path in self.entries():
            try:
                size = path.stat().st_size
            except OSError:
                continue
            self._index[path.name] = size
            self._index_total += size
            scenario = self._scenario_of(path.name)
            if scenario is not None:
                self._by_scenario[scenario] = path.name

    def _drop_index(self) -> None:
        """Forget the index after an out-of-band directory mutation."""
        self._index = None
        self._index_total = 0
        self._by_scenario = {}

    def put(self, spec: ScenarioSpec, key: str, value: Any) -> Path:
        return self.put_many([(spec, key, value)])[0]

    def put_many(self, items: list[tuple[ScenarioSpec, str, Any]]) -> list[Path]:
        """Store a batch of entries with O(1)-amortized bookkeeping.

        Stale same-scenario entries (older code states) are reaped via
        the index instead of a directory glob, and the size-cap
        eviction walks the index's oldest end instead of re-stat-ing
        every file.  The end state matches the equivalent sequence of
        single ``put`` calls exactly: the newest entry is never
        evicted, older batch entries are fair game once the cap is hit.
        """
        self._load_index()
        assert self._index is not None
        self.root.mkdir(parents=True, exist_ok=True)
        written: list[Path] = []
        for spec, key, value in items:
            filename = f"{spec.name}-{key}.json"
            stale = self._by_scenario.get(spec.name)
            # Only reap true older keys of THIS scenario, never entries
            # of another scenario whose name shares the prefix (the
            # index maps exact scenario names, so that holds by
            # construction).
            if stale is not None and stale != filename:
                (self.root / stale).unlink(missing_ok=True)
                self._index_total -= self._index.pop(stale, 0)
            data = json.dumps({"key": key, "spec": spec.as_dict(),
                               "value": value}, indent=2,
                              sort_keys=True) + "\n"
            path = self.root / filename
            path.write_text(data)
            size = len(data.encode())
            # re-insert at the newest end of the (insertion-ordered) index
            self._index_total -= self._index.pop(filename, 0)
            self._index[filename] = size
            self._index_total += size
            self._by_scenario[spec.name] = filename
            written.append(path)
        self._evict_indexed(
            protect={written[-1].name} if written else set())
        return written

    def _evict_indexed(self, protect: set[str]) -> int:
        """Evict oldest indexed entries until the total fits the cap."""
        assert self._index is not None
        if self.max_bytes is None or self.max_bytes <= 0:
            return 0
        removed = 0
        for filename in list(self._index):
            if self._index_total <= self.max_bytes:
                break
            if filename in protect:
                continue
            (self.root / filename).unlink(missing_ok=True)
            self._index_total -= self._index.pop(filename)
            scenario = self._scenario_of(filename)
            if scenario is not None and self._by_scenario.get(scenario) == filename:
                del self._by_scenario[scenario]
            removed += 1
        self._count_evictions(removed)
        return removed

    def clear(self) -> int:
        """Delete every entry (and the meta sidecar); returns how many
        entry files were removed."""
        n = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                if path.name == "_meta.json":
                    path.unlink(missing_ok=True)
                    continue
                path.unlink(missing_ok=True)
                n += 1
        self._drop_index()
        return n

    def entries(self) -> list[Path]:
        """Every cache file, oldest (by mtime) first."""
        if not self.root.is_dir():
            return []
        return sorted((p for p in self.root.glob("*.json")
                       if p.name != "_meta.json"),
                      key=lambda p: (p.stat().st_mtime, p.name))

    def stats(self) -> dict:
        """JSON-ready summary of the cache directory."""
        entries = self.entries()
        sizes = [p.stat().st_size for p in entries]
        per_scenario: dict[str, int] = {}
        for p in entries:
            # <scenario>-<24 hex chars>.json
            name = p.stem[:-25] if len(p.stem) > 25 else p.stem
            per_scenario[name] = per_scenario.get(name, 0) + 1
        return {
            "root": str(self.root),
            "entries": len(entries),
            "total_bytes": sum(sizes),
            "max_bytes": self.max_bytes,
            "evictions": self.eviction_count(),
            "scenarios": dict(sorted(per_scenario.items())),
            "oldest": entries[0].name if entries else None,
            "newest": entries[-1].name if entries else None,
        }


class ResultCache(_DirCache):
    """One JSON result file per scenario under ``root``; the value is a
    ``run_scenario`` result dict."""


class CheckCache(_DirCache):
    """Persistent static-check reports, one file per scenario, under
    ``<cache root>/checks/`` (the incremental ``repro check`` path).

    The value is the serialized diagnostic list of one
    ``check_scenario`` run.  Hits and misses are tallied in a
    ``_stats.json`` sidecar so a later ``repro cache stats`` invocation
    (a different process) can report whether the warm path actually
    engaged.
    """

    value_type = list

    def __init__(self, root: str | Path = ".repro_cache",
                 max_bytes: int = DEFAULT_CACHE_MAX_BYTES) -> None:
        super().__init__(Path(root) / "checks", max_bytes=max_bytes)

    @property
    def _stats_path(self) -> Path:
        return self.root / "_stats.json"

    def _tallies(self) -> dict:
        try:
            data = json.loads(self._stats_path.read_text())
            if isinstance(data, dict):
                return {"hits": int(data.get("hits", 0)),
                        "misses": int(data.get("misses", 0))}
        except (OSError, ValueError, TypeError):
            pass
        return {"hits": 0, "misses": 0}

    def _tally(self, field: str) -> None:
        tallies = self._tallies()
        tallies[field] += 1
        self.root.mkdir(parents=True, exist_ok=True)
        self._stats_path.write_text(json.dumps(tallies) + "\n")

    def get(self, spec: ScenarioSpec, key: str) -> list[dict] | None:
        """The cached diagnostic dicts, or ``None`` on miss/corruption."""
        report = super().get(spec, key)
        self._tally("misses" if report is None else "hits")
        return report

    def clear(self) -> int:
        # The tally sidecar goes first so the base sweep does not count
        # it as an evicted entry.
        self._stats_path.unlink(missing_ok=True)
        return super().clear()

    def entries(self) -> list[Path]:
        return [p for p in super().entries() if p.name != "_stats.json"]

    def stats(self) -> dict:
        out = super().stats()
        out.update(self._tallies())
        return out
