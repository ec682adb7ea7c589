"""DET0xx — AST lint keeping nondeterminism out of the simulator core.

Golden-digest reproducibility (identical trace digests for identical
seeds) is enforced by machine, not by review: this lint walks every
package whose code runs inside the simulator — the kernel and network
layers, the platform and application jobs (whose fingerprints decide
round-template replay), fault injection, system assembly, messaging,
specifications and automata — and rejects sources of run-to-run
variation.

========  ==========================================================
DET001    wall-clock access (``time.time``, ``perf_counter_ns``,
          ``datetime.now`` ...) — simulated time comes from
          ``sim.now``; wall time is only sanctioned in the profiler
DET002    the stdlib ``random`` module — all randomness must flow
          through the seeded streams of :mod:`repro.sim.random`.
          The scenario generator (``repro.generate``) is linted in a
          relaxed mode instead: explicitly seeded ``random.Random(...)``
          instances are its sanctioned source of bounded randomness,
          but the module-level functions (``random.random``,
          ``random.randint`` — the process-global unseeded stream),
          unseeded ``Random()``, and ``random.seed`` remain DET002
DET003    iteration over a set/frozenset expression — set order
          depends on the per-process hash seed; wrap in ``sorted()``
DET004    environment-dependent values: ``uuid``/``secrets``,
          ``os.environ``/``getenv``, ``os.urandom``, directory
          listings (``os.listdir``/``os.walk``/``glob``/``iterdir``)
========  ==========================================================

Sanctioned files (``sim/random.py``, ``sim/clock.py``) are skipped
wholesale.  Individual lines are waived with a pragma comment::

    from time import perf_counter_ns  # det-ok: DET001 — profiler only

``# det-ok`` with no rule list waives every DET rule on that line.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from .diagnostics import Diagnostic, Severity, SourceLocation

__all__ = [
    "DEFAULT_LINT_FILES",
    "DEFAULT_LINT_PACKAGES",
    "SANCTIONED_FILES",
    "SEEDED_RANDOM_PACKAGES",
    "lint_source",
    "lint_file",
    "lint_paths",
]

#: Packages under ``src/repro/`` the lint guards by default.
DEFAULT_LINT_PACKAGES = ("sim", "core_network", "gateway", "vn", "ledger",
                         "generate", "platform", "apps", "faults",
                         "systems", "messaging", "spec", "automata")

#: Packages linted with the relaxed DET002 mode: seeded
#: ``random.Random(seed)`` is allowed, the global stream is not.
SEEDED_RANDOM_PACKAGES = ("generate",)

#: Individual files outside the guarded packages that feed digest-
#: compared artifacts and therefore ride along in the default lint.
DEFAULT_LINT_FILES = ("runner/telemetry.py",)

#: Files allowed to touch the forbidden APIs (relative suffix match).
#: The wall-clock runtime (the asyncio bridge) exists to gate virtual
#: time against the wall clock — its ``perf_counter_ns`` reads are the
#: feature, not a determinism leak (virtual-time behaviour stays
#: identical; see :mod:`repro.sim.runtime`).
SANCTIONED_FILES = (
    "sim/random.py",
    "sim/clock.py",
    "sim/runtime/asyncio_bridge.py",
)

_WALLCLOCK_FUNCS = {
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
}
_DATETIME_FUNCS = {"now", "utcnow", "today"}
_ENV_MODULES = {"uuid", "secrets", "glob"}
_OS_ENV_ATTRS = {"environ", "urandom", "getenv", "listdir", "walk", "scandir"}

_PRAGMA_RE = re.compile(r"#\s*det-ok(?::\s*(?P<rules>[A-Z0-9, ]+))?")


def _pragmas(source: str) -> dict[int, set[str] | None]:
    """line number -> waived rule ids (None = all rules)."""
    out: dict[int, set[str] | None] = {}
    for i, line in enumerate(source.splitlines(), start=1):
        m = _PRAGMA_RE.search(line)
        if not m:
            continue
        rules = m.group("rules")
        if rules is None:
            out[i] = None
        else:
            out[i] = {r.strip() for r in rules.split(",") if r.strip()}
    return out


class _Visitor(ast.NodeVisitor):
    def __init__(self, filename: str,
                 allow_seeded_random: bool = False) -> None:
        self.filename = filename
        self.allow_seeded_random = allow_seeded_random
        self.findings: list[tuple[str, int, str, str]] = []
        #: local aliases of the ``time`` module (``import time as t``).
        self._time_aliases: set[str] = set()
        self._datetime_aliases: set[str] = set()
        self._os_aliases: set[str] = set()
        self._random_aliases: set[str] = set()
        self._random_class_aliases: set[str] = set()

    # -- helpers --------------------------------------------------------
    def _add(self, rule: str, node: ast.AST, message: str, hint: str) -> None:
        self.findings.append((rule, getattr(node, "lineno", 0), message, hint))

    # -- imports --------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root == "time":
                self._time_aliases.add(alias.asname or "time")
            elif root == "datetime":
                self._datetime_aliases.add(alias.asname or "datetime")
            elif root == "os":
                self._os_aliases.add(alias.asname or "os")
            elif root == "random":
                if self.allow_seeded_random:
                    self._random_aliases.add(alias.asname or "random")
                else:
                    self._add("DET002", node,
                              "import of the stdlib 'random' module",
                              "use the seeded streams in repro.sim.random")
            elif root in _ENV_MODULES:
                self._add("DET004", node,
                          f"import of environment-dependent module {root!r}",
                          "derive identifiers/paths deterministically from the seed")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:  # relative import — e.g. `from .random import`
            self.generic_visit(node)
            return
        mod = (node.module or "").split(".")[0]
        names = {a.name for a in node.names}
        if mod == "random":
            if self.allow_seeded_random:
                for a in node.names:
                    if a.name == "Random":
                        self._random_class_aliases.add(a.asname or a.name)
                    else:
                        self._add(
                            "DET002", node,
                            f"import of random.{a.name} "
                            "(the process-global unseeded stream)",
                            "draw from an explicitly seeded random.Random")
            else:
                self._add("DET002", node,
                          "import from the stdlib 'random' module",
                          "use the seeded streams in repro.sim.random")
        elif mod == "time" and names & _WALLCLOCK_FUNCS:
            bad = ", ".join(sorted(names & _WALLCLOCK_FUNCS))
            self._add("DET001", node,
                      f"wall-clock import from 'time': {bad}",
                      "simulated time is sim.now; wall time breaks digest equality")
        elif mod == "datetime" and (names & {"datetime", "date"}):
            self._datetime_aliases.update(
                a.asname or a.name for a in node.names
                if a.name in ("datetime", "date"))
        elif mod in _ENV_MODULES:
            self._add("DET004", node,
                      f"import from environment-dependent module {mod!r}",
                      "derive identifiers/paths deterministically from the seed")
        elif mod == "os" and names & _OS_ENV_ATTRS:
            bad = ", ".join(sorted(names & _OS_ENV_ATTRS))
            self._add("DET004", node,
                      f"environment-dependent import from 'os': {bad}",
                      "the simulator core must not read the environment")
        self.generic_visit(node)

    # -- attribute access -----------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        base = node.value
        if isinstance(base, ast.Name):
            if base.id in self._time_aliases and node.attr in _WALLCLOCK_FUNCS:
                self._add("DET001", node,
                          f"wall-clock call time.{node.attr}",
                          "simulated time is sim.now")
            elif base.id in self._datetime_aliases and node.attr in _DATETIME_FUNCS:
                self._add("DET001", node,
                          f"wall-clock call datetime.{node.attr}",
                          "simulated time is sim.now")
            elif base.id in self._os_aliases and node.attr in _OS_ENV_ATTRS:
                self._add("DET004", node,
                          f"environment-dependent access os.{node.attr}",
                          "the simulator core must not read the environment")
        elif (isinstance(base, ast.Attribute)
              and isinstance(base.value, ast.Name)
              and base.value.id in self._datetime_aliases
              and node.attr in _DATETIME_FUNCS):
            self._add("DET001", node,
                      f"wall-clock call datetime.{base.attr}.{node.attr}",
                      "simulated time is sim.now")
        if node.attr == "iterdir":
            self._add("DET004", node,
                      "directory iteration via .iterdir() (filesystem order)",
                      "sort the entries before iterating")
        self.generic_visit(node)

    # -- calls (relaxed DET002 mode) -------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in self._random_aliases):
            if func.attr == "Random":
                if not node.args and not node.keywords:
                    self._add("DET002", node,
                              "unseeded random.Random()",
                              "pass an explicit seed: random.Random(seed)")
            else:
                self._add("DET002", node,
                          f"call of random.{func.attr} "
                          "(the process-global unseeded stream)",
                          "draw from an explicitly seeded random.Random")
        elif (isinstance(func, ast.Name)
              and func.id in self._random_class_aliases
              and not node.args and not node.keywords):
            self._add("DET002", node,
                      f"unseeded {func.id}()",
                      "pass an explicit seed: Random(seed)")
        self.generic_visit(node)

    # -- set iteration ---------------------------------------------------
    @staticmethod
    def _is_set_expr(node: ast.expr) -> bool:
        if isinstance(node, ast.Set):
            return True
        if isinstance(node, ast.SetComp):
            return True
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset")):
            return True
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return (_Visitor._is_set_expr(node.left)
                    or _Visitor._is_set_expr(node.right))
        return False

    def _check_iter(self, iter_node: ast.expr) -> None:
        if self._is_set_expr(iter_node):
            self._add("DET003", iter_node,
                      "iteration over a set expression (hash-seed order)",
                      "wrap the set in sorted() to fix the order")

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension_node(self, node: ast.AST) -> None:
        for gen in getattr(node, "generators", ()):
            self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = visit_comprehension_node
    visit_SetComp = visit_comprehension_node
    visit_DictComp = visit_comprehension_node
    visit_GeneratorExp = visit_comprehension_node


def lint_source(source: str, filename: str = "<string>",
                allow_seeded_random: bool | None = None) -> list[Diagnostic]:
    """Lint one source string; returns DET0xx diagnostics.

    ``allow_seeded_random`` switches DET002 to the relaxed mode of
    :data:`SEEDED_RANDOM_PACKAGES`; ``None`` infers it from the
    filename's path segments.
    """
    if allow_seeded_random is None:
        allow_seeded_random = _seeded_random_allowed(Path(filename))
    tree = ast.parse(source, filename=filename)
    visitor = _Visitor(filename, allow_seeded_random=allow_seeded_random)
    visitor.visit(tree)
    pragmas = _pragmas(source)
    diags: list[Diagnostic] = []
    for rule, line, message, hint in visitor.findings:
        if line in pragmas:
            waived = pragmas[line]  # None = waive every rule on the line
            if waived is None or rule in waived:
                continue
        diags.append(Diagnostic(
            rule=rule,
            severity=Severity.ERROR,
            message=message,
            location=SourceLocation(file=filename, line=line),
            hint=hint,
            target=filename,
        ))
    return diags


def _is_sanctioned(path: Path) -> bool:
    posix = path.as_posix()
    return any(posix.endswith(s) for s in SANCTIONED_FILES)


def _seeded_random_allowed(path: Path) -> bool:
    return any(part in SEEDED_RANDOM_PACKAGES for part in path.parts)


def lint_file(path: str | Path) -> list[Diagnostic]:
    p = Path(path)
    if _is_sanctioned(p):
        return []
    return lint_source(p.read_text(), filename=str(p))


def default_lint_roots() -> list[Path]:
    """The guarded package directories (plus guarded single files),
    resolved next to this package."""
    base = Path(__file__).resolve().parent.parent
    return ([base / pkg for pkg in DEFAULT_LINT_PACKAGES]
            + [base / f for f in DEFAULT_LINT_FILES])


def lint_paths(paths: list[str | Path] | None = None) -> list[Diagnostic]:
    """Lint files/directories (default: the guarded core packages)."""
    roots = [Path(p) for p in paths] if paths else default_lint_roots()
    diags: list[Diagnostic] = []
    for root in roots:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for f in files:
            if not _is_sanctioned(f):
                diags.extend(lint_source(f.read_text(), filename=str(f)))
    return diags
