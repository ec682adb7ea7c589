"""Structured trace log with pluggable sinks.

Every architecturally interesting occurrence — frame on the bus, message
at a port, gateway decision, automaton transition, fault activation,
membership change — is *emitted* through the :class:`TraceLog` front-end
and consumed by whichever **sinks** are attached:

* :class:`MemorySink` — keep full :class:`TraceRecord` objects in memory
  (the historical behavior; what tests and trace queries use),
* :class:`CounterSink` — per-category record counts only, O(1) memory,
* :class:`DigestSink` — sha256 of the NDJSON export, hashed as records
  are emitted (plus per-category counts); keeps no records,
* :class:`StreamSink` — NDJSON records appended to a file,
* :class:`FlightRecorderSink` — a ring buffer of the last N records.

Observation cost is controlled in two layers.  A **per-category enable
mask** gates what is emitted at all, and the :meth:`TraceLog.wants`
guard tells hot call sites whether building a full record (detail dict,
source formatting) would be consumed by anyone — with only counting
sinks attached, ``wants()`` is False and the caller falls back to the
O(1) :meth:`TraceLog.tick` path, so full-record cost is paid exactly
when a sink or listener will read the record.  The canonical call-site
idiom on hot paths::

    tr = self.sim.trace
    if tr.wants(TraceCategory.FRAME_TX):
        tr.record(now, TraceCategory.FRAME_TX, self.name, sender=..., ...)
    else:
        tr.tick(TraceCategory.FRAME_TX)

Cold paths may call :meth:`TraceLog.record` unconditionally — it applies
the same gating internally and skips record construction when nothing
consumes records.

**Determinism guarantee.**  Sinks only *observe* the record stream; they
never feed back into the model.  With any sink configuration, a fixed
seed produces the same simulation, and with a :class:`MemorySink` the
stored record sequence is bit-identical to the pre-sink ``TraceLog``.

Records are cheap frozen dataclasses; categories are plain strings (see
:class:`TraceCategory` for the well-known ones) so applications can add
their own without touching the kernel.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from itertools import islice
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path
from typing import IO, Any

from ..errors import SimulationError
from .time import Instant

__all__ = [
    "TraceCategory",
    "TraceRecord",
    "TraceSink",
    "MemorySink",
    "CounterSink",
    "DigestSink",
    "StreamSink",
    "FlightRecorderSink",
    "TraceLog",
    "TRACE_MODES",
    "make_trace",
    "jsonable",
    "jsonl_sha256",
    "line_format",
    "record_to_json",
]


class TraceCategory:
    """Well-known trace categories (plain strings, open set)."""

    FRAME_TX = "frame.tx"
    FRAME_RX = "frame.rx"
    FRAME_BLOCKED = "frame.blocked"
    SLOT_START = "slot.start"
    SYNC_ROUND = "sync.round"
    MEMBERSHIP = "membership"
    PORT_SEND = "port.send"
    PORT_RECV = "port.recv"
    PORT_DROP = "port.drop"
    VN_DISPATCH = "vn.dispatch"
    GATEWAY_FORWARD = "gateway.forward"
    GATEWAY_BLOCK = "gateway.block"
    GATEWAY_ERROR = "gateway.error"
    GATEWAY_RESTART = "gateway.restart"
    AUTOMATON_TRANSITION = "automaton.transition"
    AUTOMATON_ERROR = "automaton.error"
    FAULT_INJECT = "fault.inject"
    FAULT_CLEAR = "fault.clear"
    PARTITION_WINDOW = "partition.window"
    JOB_ACTIVATION = "job.activation"
    APP = "app"
    FLOW_ORIGIN = "flow.origin"
    FLOW_HOP = "flow.hop"


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One trace entry: when, what, who, and free-form details."""

    time: Instant
    category: str
    source: str
    detail: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.detail[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.detail.get(key, default)


def jsonable(value: Any) -> Any:
    """Coerce a detail value to something JSON-native (stringify rest)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return str(value)


#: The compact encoder ``json.dumps(..., separators=(",", ":"))`` would
#: build afresh on every call; everything off the fast paths goes here.
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode
_int_repr = int.__repr__
_HEADER = ("time", "category", "source")
#: Structure caches, never keyed by values, so their size is bounded by
#: the model (the whole registry has ~100 entries): (category, source)
#: -> the ``,"category":..,"source":..`` fragment, and tuple(detail) ->
#: the detail keys in sorted order, each with its ``,"key":`` fragment.
_HEADS: dict[tuple[str, str], str] = {}
_FIELDS: dict[tuple, tuple[tuple[Any, str], ...] | None] = {}
#: lines hashed per chunk by :class:`DigestSink` and :func:`jsonl_sha256`
_DIGEST_CHUNK = 4096


def _head(category: Any, source: Any) -> str:
    head = f',"category":{_ENCODE(category)},"source":{_ENCODE(source)}'
    # Only exact strings are cached: 1, 1.0 and True are equal dict keys
    # but encode differently.
    if type(category) is str and type(source) is str:
        _HEADS[category, source] = head
    return head


def _fields(keys: tuple) -> tuple[tuple[Any, str], ...] | None:
    """Sorted detail keys with their encoded ``,"key":`` fragments, or
    None when a key shadows a header field."""
    order = sorted(keys)  # unorderable keys raise TypeError, as json.dumps did
    if any(k in _HEADER for k in keys):
        fields = None
    else:
        # _ENCODE({k: 0}) is '{<key>:0}': the key exactly as json writes it
        fields = tuple((k, "," + _ENCODE({k: 0})[1:-2]) for k in order)
    if all(type(k) is str for k in keys):
        _FIELDS[keys] = fields
    return fields


def _unshadowed(rec: TraceRecord) -> TraceRecord:
    """``rec`` with each detail entry named like a header field moved
    into that field (coerced, as detail values are): in the JSON object
    the detail value replaces the header value in the header's place."""
    rest = dict(rec.detail)
    head = [jsonable(rest.pop(name)) if name in rest else getattr(rec, name)
            for name in _HEADER]
    return TraceRecord(*head, detail=rest)


def record_to_json(rec: TraceRecord) -> str:
    """One NDJSON line for ``rec``: ``time``, ``category``, ``source``,
    then the detail keys in sorted order, values coerced by
    :func:`jsonable` — byte for byte ``json.dumps`` of that object with
    compact separators."""
    return _line(rec.time, rec.category, rec.source, rec.detail)


def _line(t: Any, category: Any, source: Any, detail: dict) -> str:
    """:func:`record_to_json` of the record with these fields."""
    try:
        head = _HEADS[category, source]
    except (KeyError, TypeError):  # TypeError: unhashable, never cached
        head = _head(category, source)
    keys = tuple(detail)
    try:
        fields = _FIELDS[keys]
    except KeyError:
        fields = _fields(keys)
    if fields is None:
        return record_to_json(_unshadowed(TraceRecord(t, category, source, detail)))
    # time is written as given, never coerced: a non-JSON time raises
    out = ['{"time":', _int_repr(t) if type(t) is int else _ENCODE(t), head]
    append = out.append
    for key, frag in fields:
        v = detail[key]
        append(frag)
        # exact types only: bool and IntEnum are int subclasses
        tv = type(v)
        if tv is int:
            append(_int_repr(v))
        elif tv is str:
            append(_encode_str(v))
        elif v is None:
            append("null")
        elif v is True:
            append("true")
        elif v is False:
            append("false")
        else:
            append(_ENCODE(jsonable(v)))
    append("}")
    return "".join(out)


def line_format(category: Any, source: Any, detail: dict,
                holes: tuple = ()) -> tuple[str, tuple] | None:
    """The :func:`record_to_json` line of a record with these fields as
    a ``%``-format with ``%d`` in place of the time and of the values of
    the detail keys in ``holes``: ``fmt % (time, *hole values)``, the
    hole values in the returned key order, is the line of that record
    when every one of them is an exact ``int``.  Returns ``(fmt, hole
    keys in line order)``, or None when a detail key shadows a header
    field (the line's layout then depends on the values)."""
    keys = tuple(detail)
    try:
        fields = _FIELDS[keys]
    except KeyError:
        fields = _fields(keys)
    if fields is None:
        return None
    out = ['{"time":%d', _head(category, source).replace("%", "%%")]
    order: list[Any] = []
    for key, frag in fields:
        out.append(frag.replace("%", "%%"))
        if key in holes:
            out.append("%d")
            order.append(key)
        else:
            # the fast paths of record_to_json write exactly these bytes
            out.append(_ENCODE(jsonable(detail[key])).replace("%", "%%"))
    out.append("}")
    return "".join(out), tuple(order)


def jsonl_sha256(records: Iterable[TraceRecord]) -> str:
    """sha256 hex digest of the JSONL text of ``records`` (one
    :func:`record_to_json` line each, ``"\\n"``-separated, no trailing
    newline), hashed in chunks so the whole text is never built — the
    reference for a stored trace; :class:`DigestSink` hashes the same
    bytes while the records are emitted."""
    sink = DigestSink()
    lines = map(record_to_json, records)
    while chunk := list(islice(lines, _DIGEST_CHUNK)):
        sink.write("\n".join(chunk))
    return sink.hexdigest()


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------
class TraceSink:
    """Consumer of the trace stream.

    ``needs_records`` declares whether the sink reads full
    :class:`TraceRecord` objects (:meth:`emit`) or only per-category
    occurrence ticks (:meth:`tick`).  The front-end builds records only
    when some attached sink (or listener) needs them.
    """

    #: Does this sink consume full records (True) or count-only ticks?
    needs_records: bool = True

    def emit(self, rec: TraceRecord) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def tick(self, category: str, n: int = 1) -> None:
        """Count-only notification (called instead of ``emit`` when the
        front-end skipped record construction)."""

    def close(self) -> None:
        """Release external resources (files); idempotent."""


class MemorySink(TraceSink):
    """Append every record to an in-memory list — today's full trace."""

    needs_records = True

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []

    def emit(self, rec: TraceRecord) -> None:
        self.records.append(rec)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def clear(self) -> None:
        self.records.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MemorySink n={len(self.records)}>"


class CounterSink(TraceSink):
    """Per-category record counts only; O(1) memory, O(1) per record."""

    needs_records = False

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def emit(self, rec: TraceRecord) -> None:
        c = self.counts
        c[rec.category] = c.get(rec.category, 0) + 1

    def tick(self, category: str, n: int = 1) -> None:
        c = self.counts
        c[category] = c.get(category, 0) + n

    def count(self, category: str) -> int:
        return self.counts.get(category, 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CounterSink total={self.total()}>"


class DigestSink(CounterSink):
    """sha256 of the trace's JSONL export, hashed as records arrive.

    Each record is encoded by :func:`record_to_json` when it is
    emitted; the lines are buffered and hashed ``"\\n"``-joined in
    chunks of ``_DIGEST_CHUNK`` — exactly the bytes :func:`jsonl_sha256`
    hashes over the stored records, without storing any.  Per-category
    counts are kept as a :class:`CounterSink` keeps them, so a trace
    whose only sink this is still answers ``len``/``count`` exactly.
    Bulk writers (round-template replay) append encoded text through
    :meth:`write` and add their counts to :attr:`counts` themselves.
    """

    needs_records = True

    def __init__(self) -> None:
        super().__init__()
        self._sha = hashlib.sha256()
        self._sep = ""
        #: encoded lines not hashed yet
        self._lines: list[str] = []

    def emit(self, rec: TraceRecord) -> None:
        self.emit_fields(rec.time, rec.category, rec.source, rec.detail)

    def emit_fields(self, time: Instant, category: str, source: str,
                    detail: dict[str, Any]) -> None:
        """:meth:`emit` of the record with these fields, without
        building it (:meth:`TraceLog.record` calls this when the sink is
        the trace's only consumer)."""
        lines = self._lines
        lines.append(_line(time, category, source, detail))
        c = self.counts
        c[category] = c.get(category, 0) + 1
        if len(lines) >= _DIGEST_CHUNK:
            self._flush()

    def _flush(self) -> None:
        if self._lines:
            self._update("\n".join(self._lines))
            self._lines.clear()

    def _update(self, text: str) -> None:
        self._sha.update((self._sep + text).encode())
        self._sep = "\n"

    def write(self, text: str) -> None:
        """Hash ``text`` — one or more complete, ``"\\n"``-joined,
        non-empty lines — after every line emitted before it."""
        self._flush()
        self._update(text)

    def hexdigest(self) -> str:
        """Digest of every line so far (more may follow)."""
        self._flush()
        return self._sha.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DigestSink total={self.total()}>"


class StreamSink(TraceSink):
    """NDJSON records appended to a file (path or open text handle).

    Buffered writes through the standard io stack; :meth:`close` flushes.
    The file is opened lazily on the first record so constructing a
    simulator with a stream trace does not touch the filesystem until
    something is emitted.
    """

    needs_records = True

    def __init__(self, target: str | Path | IO[str]) -> None:
        self._target = target
        self._fh: IO[str] | None = None
        self._owns_fh = False
        self._closed = False
        self.emitted = 0

    def _handle(self) -> IO[str]:
        if self._closed:
            raise SimulationError(
                "stream sink is closed (a re-opened path target would "
                "truncate the records already written)")
        if self._fh is None:
            if isinstance(self._target, (str, Path)):
                self._fh = open(self._target, "w")
                self._owns_fh = True
            else:
                self._fh = self._target
        return self._fh

    def emit(self, rec: TraceRecord) -> None:
        self._handle().write(record_to_json(rec) + "\n")
        self.emitted += 1

    def close(self) -> None:
        """Flush (and, for owned files, close) the handle; idempotent.

        A second close is a no-op, and a caller-owned handle that was
        already closed externally is tolerated — the double-exit paths
        (``with trace: ... trace.close()``, CLI plus executor cleanup)
        must never raise on the way out.
        """
        fh, self._fh = self._fh, None
        self._closed = True
        if fh is None:
            return
        if not fh.closed:
            fh.flush()
            if self._owns_fh:
                fh.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StreamSink emitted={self.emitted}>"


class FlightRecorderSink(TraceSink):
    """Bounded ring buffer of the last ``capacity`` records — O(1) memory.

    The flight recorder is for the runs you did *not* expect to care
    about: it rides along at full-record fidelity but only ever holds
    the most recent window, so it can stay attached to long runs that
    would overflow a :class:`MemorySink`.  On a fault (the
    :class:`~repro.faults.injector.FaultInjector` dumps any recorder
    with a ``dump_path``) or on demand, :meth:`dump`/:meth:`dump_to`
    write out the window as NDJSON — the last N records leading up to
    the interesting moment.
    """

    needs_records = True

    def __init__(self, capacity: int = 4096,
                 dump_path: str | Path | None = None) -> None:
        if capacity <= 0:
            raise SimulationError(f"flight recorder capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.dump_path = Path(dump_path) if dump_path is not None else None
        self.buffer: deque[TraceRecord] = deque(maxlen=capacity)
        self.seen = 0
        self.dumps = 0
        self._closed = False

    def emit(self, rec: TraceRecord) -> None:
        self.buffer.append(rec)
        self.seen += 1

    def records(self) -> list[TraceRecord]:
        """The retained window, oldest first."""
        return list(self.buffer)

    def dump(self) -> str:
        """The retained window as NDJSON text (oldest first)."""
        return "".join(record_to_json(rec) + "\n" for rec in self.buffer)

    def dump_to(self, path: str | Path | None = None) -> Path:
        """Write the window to ``path`` (default: ``dump_path``)."""
        target = Path(path) if path is not None else self.dump_path
        if target is None:
            raise SimulationError("flight recorder has no dump path configured")
        target.write_text(self.dump())
        self.dumps += 1
        return target

    def close(self) -> None:
        """Dump the final window to ``dump_path``, if one is configured.

        Idempotent: only the first close dumps, so the double-exit
        paths (context manager + explicit close) write the final
        window exactly once.  Explicit :meth:`dump_to` calls still
        work after close.
        """
        if self._closed:
            return
        self._closed = True
        if self.dump_path is not None and self.buffer:
            self.dump_to(self.dump_path)

    def __len__(self) -> int:
        return len(self.buffer)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FlightRecorderSink {len(self.buffer)}/{self.capacity} "
                f"seen={self.seen}>")


# ----------------------------------------------------------------------
# front-end
# ----------------------------------------------------------------------
class TraceLog:
    """Trace front-end: category mask + fan-out to the attached sinks.

    The default configuration (one :class:`MemorySink`, no mask) behaves
    exactly like the historical append-only ``TraceLog``: every query
    helper (:meth:`records`, :meth:`count`, :meth:`times`, :meth:`last`,
    iteration, ``len``) reads the memory sink's record list.
    """

    def __init__(self, enabled: bool = True,
                 sinks: Iterable[TraceSink] | None = None) -> None:
        self.enabled = enabled
        self._sinks: list[TraceSink] = (list(sinks) if sinks is not None
                                        else [MemorySink()])
        self._listeners: list[Callable[[TraceRecord], None]] = []
        #: None = every category enabled; else the enabled set.
        self._mask: frozenset[str] | None = None
        #: ``(time, category, source, detail)`` of every record a sink
        #: consumed, appended here while set (see :meth:`capture`).
        self._captured: list[tuple] | None = None
        self._rebuild()

    def _rebuild(self) -> None:
        self._record_sinks = [s for s in self._sinks if s.needs_records]
        self._tick_sinks = [s for s in self._sinks if not s.needs_records]
        # Cached: would a full record be consumed right now?
        self._consumes_records = bool(self._record_sinks or self._listeners)
        # A digest sink that is the only consumer takes the fields: no
        # TraceRecord is built for it.
        lone = (self._record_sinks[0]
                if len(self._record_sinks) == 1 and not self._listeners else None)
        self._lone_digest = lone if isinstance(lone, DigestSink) else None

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    @property
    def wants_records(self) -> bool:
        """Would any *sink* keep full records right now?

        Unlike :meth:`wants`, listeners do not count: the round-template
        engine uses this to decide whether replayed rounds must re-emit
        record prototypes (full-trace runs) or only bump tick counts
        (counter-mode runs).
        """
        return self.enabled and bool(self._record_sinks)

    def capture(self, into: list[tuple] | None) -> None:
        """Append the ``(time, category, source, detail)`` fields of
        every record the sinks consume to ``into`` (None stops).

        Unlike a listener, a capture keeps the lone-digest fast path: no
        :class:`TraceRecord` is built for it.  The round-template engine
        captures the records of the rounds it records this way.
        """
        self._captured = into

    @property
    def sinks(self) -> tuple[TraceSink, ...]:
        return tuple(self._sinks)

    def add_sink(self, sink: TraceSink) -> TraceSink:
        self._sinks.append(sink)
        self._rebuild()
        return sink

    def remove_sink(self, sink: TraceSink) -> None:
        self._sinks.remove(sink)
        self._rebuild()

    def set_mask(self, categories: Iterable[str] | None) -> None:
        """Enable only ``categories`` (None re-enables everything)."""
        self._mask = None if categories is None else frozenset(categories)

    def enable_only(self, *categories: str) -> None:
        self.set_mask(categories)

    def disable_categories(self, *categories: str) -> None:
        """Mask out ``categories`` (relative to the current mask)."""
        base = self._mask if self._mask is not None else frozenset(
            v for k, v in vars(TraceCategory).items() if not k.startswith("_")
        )
        self._mask = base - frozenset(categories)

    @property
    def mask(self) -> frozenset[str] | None:
        return self._mask

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()

    def __enter__(self) -> "TraceLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Flush and close every sink — also on the exception path, so a
        ``with make_trace(...) as trace:`` block never leaves a stream
        or flight-recorder file unflushed."""
        self.close()

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def wants(self, category: str) -> bool:
        """Would a full record of ``category`` be consumed?

        Hot call sites use this to skip detail-dict construction
        entirely; when it returns False they call :meth:`tick` instead
        so counting sinks stay exact.
        """
        if not self.enabled or not self._consumes_records:
            return False
        m = self._mask
        return m is None or category in m

    def tick(self, category: str, n: int = 1) -> None:
        """Count-only fast path: no record is built."""
        if not self.enabled:
            return
        m = self._mask
        if m is not None and category not in m:
            return
        for sink in self._tick_sinks:
            sink.tick(category, n)

    def record(self, time: Instant, category: str, source: str, **detail: Any) -> None:
        """Emit a record (gated by ``enabled`` and the category mask)."""
        if not self.enabled:
            return
        m = self._mask
        if m is not None and category not in m:
            return
        for sink in self._tick_sinks:
            sink.tick(category)
        if not self._consumes_records:
            return
        captured = self._captured
        if captured is not None:
            captured.append((time, category, source, detail))
        if self._lone_digest is not None:
            self._lone_digest.emit_fields(time, category, source, detail)
            return
        rec = TraceRecord(time=time, category=category, source=source, detail=detail)
        for sink in self._record_sinks:
            sink.emit(rec)
        for listener in self._listeners:
            listener(rec)

    def subscribe(self, listener: Callable[[TraceRecord], None]) -> Callable[[], None]:
        """Register a live listener; returns an unsubscribe function."""
        self._listeners.append(listener)
        self._rebuild()

        def unsubscribe() -> None:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass
            self._rebuild()

        return unsubscribe

    # ------------------------------------------------------------------
    # queries (read the memory sink, if one is attached)
    # ------------------------------------------------------------------
    @property
    def memory(self) -> MemorySink | None:
        """The first attached :class:`MemorySink`, if any."""
        for sink in self._sinks:
            if isinstance(sink, MemorySink):
                return sink
        return None

    @property
    def flight_recorder(self) -> FlightRecorderSink | None:
        """The first attached :class:`FlightRecorderSink`, if any."""
        for sink in self._sinks:
            if isinstance(sink, FlightRecorderSink):
                return sink
        return None

    def _stored(self) -> list[TraceRecord]:
        mem = self.memory
        return mem.records if mem is not None else []

    def _counter(self) -> CounterSink | None:
        """The sink whose per-category totals answer count queries: the
        first ticked :class:`CounterSink`, else — when no memory sink
        stores the records — the first :class:`DigestSink`."""
        for sink in self._tick_sinks:
            if isinstance(sink, CounterSink):
                return sink
        if self.memory is None:
            for sink in self._record_sinks:
                if isinstance(sink, DigestSink):
                    return sink
        return None

    def __len__(self) -> int:
        """Number of stored records — or, without a memory sink, of the
        records a :class:`DigestSink` hashed."""
        mem = self.memory
        if mem is not None:
            return len(mem.records)
        for sink in self._record_sinks:
            if isinstance(sink, DigestSink):
                return sink.total()
        return 0

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._stored())

    def records(
        self,
        category: str | None = None,
        source: str | None = None,
        since: Instant | None = None,
        until: Instant | None = None,
        predicate: Callable[[TraceRecord], bool] | None = None,
    ) -> list[TraceRecord]:
        """Filtered view of the stored trace (all filters optional, ANDed)."""
        if (category is None and source is None and since is None
                and until is None and predicate is None):
            return list(self._stored())
        out = []
        for rec in self._stored():
            if category is not None and rec.category != category:
                continue
            if source is not None and rec.source != source:
                continue
            if since is not None and rec.time < since:
                continue
            if until is not None and rec.time > until:
                continue
            if predicate is not None and not predicate(rec):
                continue
            out.append(rec)
        return out

    def count(self, category: str | None = None, source: str | None = None) -> int:
        """Number of records matching the filters.

        Falls back to the counting sink's per-category totals when no
        memory sink is attached (counters-only and digest-only runs);
        the source filter then requires the full trace and raises.
        """
        if self.memory is None:
            sink = self._counter()
            if sink is not None:
                if source is not None:
                    raise SimulationError(
                        "per-source counts need a MemorySink (counters-only "
                        "traces keep per-category totals)"
                    )
                return sink.total() if category is None else sink.count(category)
        return len(self.records(category=category, source=source))

    def category_counts(self) -> dict[str, int]:
        """Per-category record counts from whichever sink is cheapest."""
        sink = self._counter()
        if sink is not None:
            return dict(sink.counts)
        counts: dict[str, int] = {}
        for rec in self._stored():
            counts[rec.category] = counts.get(rec.category, 0) + 1
        return counts

    def times(self, category: str, source: str | None = None) -> list[Instant]:
        """Timestamps of matching records, in trace order."""
        return [r.time for r in self.records(category=category, source=source)]

    def last(self, category: str, source: str | None = None) -> TraceRecord | None:
        """Most recent matching record, or None."""
        matching = self.records(category=category, source=source)
        return matching[-1] if matching else None

    def clear(self) -> None:
        """Drop all stored records (sinks and listeners stay attached)."""
        mem = self.memory
        if mem is not None:
            mem.clear()

    def extend_from(self, records: Iterable[TraceRecord]) -> None:
        """Bulk-append pre-built records (used by trace merging in tests)."""
        mem = self.memory
        if mem is None:
            raise SimulationError("extend_from needs an attached MemorySink")
        mem.records.extend(records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = ",".join(type(s).__name__ for s in self._sinks) or "none"
        return f"<TraceLog n={len(self)} sinks=[{kinds}] enabled={self.enabled}>"


# ----------------------------------------------------------------------
# mode factory (shared by the CLI and benchmark harnesses)
# ----------------------------------------------------------------------
TRACE_MODES = ("full", "counters", "stream", "flight", "off")


def make_trace(mode: str = "full",
               stream_target: str | Path | IO[str] | None = None,
               flight_capacity: int = 4096) -> TraceLog:
    """Build a :class:`TraceLog` for one of the standard modes.

    * ``full``     — one :class:`MemorySink` (the default behavior),
    * ``counters`` — one :class:`CounterSink`; hot paths skip record
      construction entirely,
    * ``stream``   — NDJSON to ``stream_target`` plus a
      :class:`CounterSink` for cheap totals,
    * ``flight``   — :class:`FlightRecorderSink` ring buffer of the last
      ``flight_capacity`` records (dumped to ``stream_target`` on close
      or fault, when given) plus a :class:`CounterSink`,
    * ``off``      — no sinks, ``enabled=False``.
    """
    if mode == "full":
        return TraceLog()
    if mode == "counters":
        return TraceLog(sinks=[CounterSink()])
    if mode == "stream":
        if stream_target is None:
            raise SimulationError("trace mode 'stream' needs a stream_target")
        return TraceLog(sinks=[StreamSink(stream_target), CounterSink()])
    if mode == "flight":
        dump = None
        if stream_target is not None and isinstance(stream_target, (str, Path)):
            dump = stream_target
        return TraceLog(sinks=[FlightRecorderSink(flight_capacity, dump_path=dump),
                               CounterSink()])
    if mode == "off":
        return TraceLog(enabled=False, sinks=[])
    raise SimulationError(
        f"unknown trace mode {mode!r} (expected one of {', '.join(TRACE_MODES)})"
    )
