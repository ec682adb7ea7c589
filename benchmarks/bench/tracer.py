"""Outside-in span tracer for the ``repro`` packages.

:func:`install` imports every ``repro`` module and replaces each
function and method defined in ``src/repro`` with a thin wrapper, at
class or module level, before the benchmark builds any spec.  Nothing
under ``src/`` is edited: the wrappers live here and are attached at run
time.

Each wrapped function belongs to a *layer*, named after its package
(:func:`layer_of`).  A wrapper opens a span only when control crosses
from one layer into another, so calls inside a layer cost one identity
check and layer self times stay exact: a span's self time is its
duration minus the time its child spans cover, and every nanosecond of
a traced pass lands in exactly one layer.  Private methods are wrapped
too, because the kernel dispatches events to them: a layer's entry
point is whatever another layer calls.

A few functions always open a span of their own name (:data:`MARKS`),
so the benchmark can report inclusive times such as ``runner.build`` and
count calls such as ``ledger.append``.  Spans carry an id, the id of the
span that caused them, a name, start and end (``perf_counter_ns``) and
the id of the scenario run they belong to.  They are kept in memory and
written out once by :meth:`Tracer.write`; spans shorter than
``min_log_ns`` are counted in the layer totals but left out of the file,
which would otherwise hold millions of sub-microsecond entries.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import json
import pkgutil
import sys
import types
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

__all__ = ["MARKS", "ROOT", "Tracer", "install", "layer_of"]

#: module prefix -> layer, longest prefix first
_LAYERS = (
    ("repro.sim.round_template", "sim.round_template"),
    ("repro.sim.trace", "sim.trace"),
    ("repro.sim.metrics", "sim.trace"),
    ("repro.sim.flow", "sim.trace"),
    ("repro.sim", "sim"),
    ("repro.core_network", "core_network"),
    ("repro.gateway", "gateway"),
    ("repro.automata", "gateway"),
    ("repro.vn", "vn"),
    ("repro.messaging", "messaging"),
    ("repro.platform", "platform"),
    ("repro.apps", "apps"),
    ("repro.runner.cache", "runner.cache"),
    ("repro.runner", "runner"),
    ("repro.generate", "generate"),
    ("repro.check", "check"),
    ("repro.ledger", "ledger"),
    ("repro.analysis", "analysis"),
    ("repro.systems", "systems"),
    ("repro.spec", "spec"),
    ("repro.faults", "faults"),
    ("repro", "repro"),
)

#: name of the benchmark's own root span (not a ``repro`` layer)
ROOT = "bench"


def layer_of(module: str, func_name: str = "") -> str:
    """Layer of a function defined in ``module``.

    Round-template participant hooks (``rt_*`` methods) are part of the
    replay machinery wherever they are defined, so they are charged to
    ``sim.round_template`` rather than to their host layer.
    """
    if func_name.startswith("rt_"):
        module = "repro.sim.round_template"
    for prefix, layer in _LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            # interned: wrappers compare layers by identity
            return sys.intern(layer)
    raise ValueError(f"{module!r} is not a repro module")


class Tracer:
    """Span stack, per-layer self time, and the in-memory span log."""

    def __init__(self, min_log_ns: int = 100_000) -> None:
        self.min_log_ns = min_log_ns
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (keeps the wrappers)."""
        self.layer: str | None = None
        #: open spans: [span id, child time in ns]
        self._stack: list[list[int]] = []
        self._next_id = 1
        self.run = 0
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive_ns: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.dropped = 0
        self.trace_records = 0

    def span(self, name: str, layer: str, fn, args, kwargs):
        """Call ``fn`` inside a span of ``name`` charged to ``layer``."""
        stack = self._stack
        parent = stack[-1][0] if stack else 0
        sid = self._next_id
        self._next_id = sid + 1
        frame = [sid, 0]
        stack.append(frame)
        outer = self.layer
        self.layer = layer
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            self.layer = outer
            stack.pop()
            dur = t1 - t0
            self.self_ns[layer] += dur - frame[1]
            self.calls[name] += 1
            if name is not layer:
                self.inclusive_ns[name] += dur
            if stack:
                stack[-1][1] += dur
            if dur >= self.min_log_ns:
                self.spans.append((sid, parent, name, t0, t1, self.run))
            else:
                self.dropped += 1

    def root(self, fn, *args, **kwargs):
        """Run ``fn`` as the root span of a traced pass; returns
        ``(result, wall_ns)``."""
        t0 = perf_counter_ns()
        result = self.span(ROOT, ROOT, fn, args, kwargs)
        return result, perf_counter_ns() - t0

    def write(self, path: Path, **meta) -> None:
        """Write the span log as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(meta, min_span_ns=self.min_log_ns, dropped=self.dropped,
                   columns=["id", "parent", "name", "start_ns", "end_ns", "run"],
                   spans=self.spans)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def _new_run(tr: Tracer, args) -> None:
    tr.run += 1


def _count_records(tr: Tracer, args) -> None:
    trace = args[0].trace  # trace_digest(sim)
    tr.trace_records += len(trace) if trace.memory is not None else trace.count()


#: qualified function name -> (span name, hook run before the span);
#: these functions always open a span of their own name
MARKS = {
    "repro.runner.executor._execute_scenario": ("runner.run", _new_run),
    "repro.runner.scenarios.build_scenario": ("runner.build", None),
    "repro.runner.executor.trace_digest": ("runner.digest", _count_records),
    "repro.ledger.store.RunLedger.append_many": ("ledger.append", None),
}


def _wrapper(tr: Tracer, fn, qualname: str, layer: str):
    mark = MARKS.get(qualname)
    if mark is None:
        def wrapper(*args, **kwargs):
            if tr.layer is layer:
                return fn(*args, **kwargs)
            return tr.span(layer, layer, fn, args, kwargs)
    else:
        name, hook = mark

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(tr, args)
            return tr.span(name, layer, fn, args, kwargs)
    functools.update_wrapper(wrapper, fn)
    return wrapper


_SUSPENDABLE = inspect.CO_GENERATOR | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR


def _ours(fn, src: str) -> bool:
    """A plain function whose code lives under ``src`` (generators and
    coroutines return before their work is done, so they stay as is)."""
    return (isinstance(fn, types.FunctionType)
            and fn.__code__.co_filename.startswith(src)
            and not fn.__code__.co_flags & _SUSPENDABLE)


def _wrap_class(tr: Tracer, cls: type, src: str, done: set) -> None:
    if id(cls) in done or issubclass(cls, (BaseException, enum.Enum)):
        return
    done.add(id(cls))
    layer_mod = cls.__module__
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("__") and attr.endswith("__"):
            continue
        kind = None
        fn = raw
        if isinstance(raw, (staticmethod, classmethod)):
            kind, fn = type(raw), raw.__func__
        if not _ours(fn, src):
            continue
        qual = f"{layer_mod}.{fn.__qualname__}"
        wrapped = _wrapper(tr, fn, qual, layer_of(layer_mod, attr))
        setattr(cls, attr, kind(wrapped) if kind else wrapped)
    for inner in vars(cls).values():
        if isinstance(inner, type) and inner.__module__ == layer_mod:
            _wrap_class(tr, inner, src, done)


def install(tracer: Tracer) -> None:
    """Import every ``repro`` module and wrap its functions and methods
    for ``tracer``."""
    import repro

    src = str(Path(repro.__file__).resolve().parent)
    modules = [repro]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue  # importing it would run the CLI
        modules.append(importlib.import_module(info.name))
    wrapped: dict[int, object] = {}  # id(original function) -> wrapper
    done: set[int] = set()
    for module in modules:
        for obj in list(vars(module).values()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, type):
                _wrap_class(tracer, obj, src, done)
            elif _ours(obj, src):
                wrapped[id(obj)] = _wrapper(tracer, obj, f"{module.__name__}.{obj.__qualname__}",
                                            layer_of(module.__name__))
    # Rebind every module-level reference, including the copies
    # ``from .x import f`` made in other modules.
    for module in modules:
        namespace = vars(module)
        for name, obj in list(namespace.items()):
            if _ours(obj, src) and id(obj) in wrapped:
                namespace[name] = wrapped[id(obj)]
