"""Error containment: timed-automata monitors inside the gateway.

Sec. III-B.3 / IV-B.2: "A virtual gateway supports error containment,
when the selective redirection of information is controlled by error
detection mechanisms.  In the DECOS integrated architecture, virtual
gateways perform error containment in the temporal domain based on
temporal specifications at the port and link level."

A :class:`MessageMonitor` binds one deterministic timed automaton from
the link specification to the simulation: receptions are fed through
:meth:`on_message` *before* the instance may be dissected into the
repository; reaching the automaton's error state blocks the message
(the gateway stops forwarding) and triggers the configured error
handling — by default a restart of the gateway service after
``restart_delay``, the example the paper gives for the error state.

Timeout edges (``x >= tmax`` without a reception) are driven by the
simulation clock through the runtime's wake-up computation, so late and
omission failures are detected even though nothing arrives.
"""

from __future__ import annotations

from collections.abc import Callable, MutableMapping
from typing import Any

from ..automata import AutomatonRuntime, TimedAutomaton, Transition
from ..automata.expr import BinOp, Call, Const, Expr, Neg, Var
from ..sim import EventPriority, Simulator, TraceCategory

__all__ = ["MessageMonitor"]

_CMP_OPS = ("<", "<=", "==", "!=", ">=", ">")


class MessageMonitor:
    """One automaton runtime wired to the kernel and a gateway."""

    def __init__(
        self,
        sim: Simulator,
        automaton: TimedAutomaton,
        name: str = "",
        on_error: Callable[["MessageMonitor"], None] | None = None,
        can_send: Callable[[str], bool] | None = None,
        do_send: Callable[[str], None] | None = None,
        has_pending: Callable[[str | None], bool] | None = None,
        functions: dict[str, Callable[..., Any]] | None = None,
    ) -> None:
        self.sim = sim
        self.name = name or f"monitor.{automaton.name}"
        self._on_error_cb = on_error
        self._can_send = can_send or (lambda m: False)
        self._do_send = do_send or (lambda m: None)
        self._has_pending = has_pending or (lambda m: False)
        self._functions = dict(functions or {})
        self.variables: dict[str, Any] = {}
        self.violations = 0
        self.accepted = 0
        self.runtime = AutomatonRuntime(automaton, self)
        #: per-clock guard cut points (see :meth:`rt_fingerprint`);
        #: None marks an automaton whose guards resist the analysis.
        self._rt_cuts: dict[str, tuple[int, ...]] | None = self._clock_cuts()
        self._arm()

    # ------------------------------------------------------------------
    # AutomatonEnvironment protocol
    # ------------------------------------------------------------------
    def now(self) -> int:
        return self.sim.now

    def state_variables(self) -> MutableMapping[str, Any]:
        return self.variables

    def functions(self) -> dict[str, Callable[..., Any]]:
        return self._functions

    def can_send(self, message: str) -> bool:
        return self._can_send(message)

    def do_send(self, message: str) -> None:
        self._do_send(message)

    def has_pending(self, message: str | None) -> bool:
        return self._has_pending(message)

    def schedule_poll(self, at_time: int) -> None:
        at = max(at_time, self.sim.now)
        self.sim.at(at, self._poll, priority=EventPriority.SERVICE,
                    label=f"{self.name}.poll")

    def on_error(self, runtime: AutomatonRuntime, transition: Transition | None) -> None:
        self.violations += 1
        self.sim.metrics.inc("automaton.errors")
        self.sim.trace.record(
            self.sim.now, TraceCategory.AUTOMATON_ERROR, self.name,
            automaton=runtime.automaton.name,
            via=str(transition) if transition else "implicit",
        )
        if self._on_error_cb is not None:
            self._on_error_cb(self)

    # ------------------------------------------------------------------
    # gateway-facing API
    # ------------------------------------------------------------------
    def on_message(self, message: str) -> bool:
        """Feed a reception through the temporal specification.

        Returns True iff the reception conforms (the gateway may then
        dissect the instance); on False the automaton has entered its
        error state and ``on_error`` already fired.
        """
        accepted = self.runtime.on_message(message)
        if accepted:
            self.accepted += 1
            self.sim.metrics.inc("automaton.transitions")
            tr = self.sim.trace
            if tr.wants(TraceCategory.AUTOMATON_TRANSITION):
                tr.record(
                    self.sim.now, TraceCategory.AUTOMATON_TRANSITION, self.name,
                    location=self.runtime.location,
                )
            else:
                tr.tick(TraceCategory.AUTOMATON_TRANSITION)
            self._poll()  # service-completion edges fire immediately
        return accepted

    def restart(self) -> None:
        """The paper's example error handling: restart the service."""
        self.runtime.reset()
        self.sim.trace.record(
            self.sim.now, TraceCategory.GATEWAY_RESTART, self.name,
            automaton=self.runtime.automaton.name,
        )
        self._arm()

    @property
    def in_error(self) -> bool:
        return self.runtime.in_error

    def _poll(self) -> None:
        if not self.runtime.in_error:
            self.runtime.poll()

    def _arm(self) -> None:
        """Schedule the first time-driven wake-up (timeout detection)."""
        nxt = self.runtime.next_wakeup()
        if nxt is not None:
            self.schedule_poll(nxt)

    # ------------------------------------------------------------------
    # round-template support (consumed by the owning gateway's hooks)
    # ------------------------------------------------------------------
    def _clock_cuts(self) -> dict[str, tuple[int, ...]] | None:
        """Per-clock sorted guard cut points, or None if any guard resists
        the analysis (time-dependent built-ins, clocks in compound terms).

        Guard outcomes depend on a clock only through comparisons against
        statically evaluable constants, so the clock's *behavioural*
        state is the cell of the partition its valuation falls into —
        that cell, not the raw age, is what a round-template fingerprint
        must capture (a raw age grows every round and would make an idle
        monitor unreplayable for no behavioural reason).
        """
        auto = self.runtime.automaton
        clocks = set(auto.clocks)
        params = auto.parameters
        cuts: dict[str, set[int]] = {c: set() for c in auto.clocks}
        for t in auto.transitions:
            for term in t.guard.terms:
                if not self._collect_cuts(term, clocks, params, cuts):
                    return None
        return {c: tuple(sorted(cuts[c])) for c in auto.clocks}

    @classmethod
    def _collect_cuts(cls, term: Expr, clocks: set[str],
                      params: dict[str, int | float],
                      cuts: dict[str, set[int]]) -> bool:
        """Fold one guard term into ``cuts``; False = analysis defeat."""
        if isinstance(term, BinOp) and term.op in _CMP_OPS:
            for side, other in ((term.lhs, term.rhs), (term.rhs, term.lhs)):
                if isinstance(side, Var) and side.name in clocks:
                    v = cls._static_eval(other, params)
                    if v is None:
                        return False
                    if isinstance(v, float):
                        if not v.is_integer():
                            return False
                        v = int(v)
                    # A comparison flips where the integer valuation
                    # crosses the constant: `<`/`>=` cut at v, `<=`/`>`
                    # at v+1, equality needs both edges of the point.
                    if term.op in ("<", ">="):
                        cuts[side.name].add(v)
                    elif term.op in ("<=", ">"):
                        cuts[side.name].add(v + 1)
                    else:
                        cuts[side.name].update((v, v + 1))
                    return True
        if cls._mentions_time(term, clocks):
            return False
        return True  # pure state-variable term: values live in the fp

    @staticmethod
    def _mentions_time(term: Expr, clocks: set[str]) -> bool:
        if isinstance(term, Var):
            return term.name in clocks or term.name == "t_now"
        if isinstance(term, BinOp):
            return (MessageMonitor._mentions_time(term.lhs, clocks)
                    or MessageMonitor._mentions_time(term.rhs, clocks))
        if isinstance(term, Neg):
            return MessageMonitor._mentions_time(term.operand, clocks)
        if isinstance(term, Call):
            # horizon(m) and friends read time-varying environment state
            # the partition analysis cannot see: treat as time-dependent.
            return True
        return False

    @staticmethod
    def _static_eval(expr: Expr, params: dict[str, int | float]) -> int | float | None:
        if isinstance(expr, Const):
            v = expr.value
            return v if isinstance(v, (int, float)) else None
        if isinstance(expr, Var):
            return params.get(expr.name)
        if isinstance(expr, Neg):
            v = MessageMonitor._static_eval(expr.operand, params)
            return None if v is None else -v
        if isinstance(expr, BinOp) and expr.op in ("+", "-", "*", "/"):
            lhs = MessageMonitor._static_eval(expr.lhs, params)
            rhs = MessageMonitor._static_eval(expr.rhs, params)
            if lhs is None or rhs is None:
                return None
            return {"+": lhs + rhs, "-": lhs - rhs,
                    "*": lhs * rhs, "/": lhs / rhs if rhs else None}[expr.op]
        return None

    # ------------------------------------------------------------------
    # round-template participant protocol (see repro.sim.round_template)
    # ------------------------------------------------------------------
    def rt_state(self) -> dict[str, int]:
        rt = self.runtime
        out = {
            "accepted": self.accepted,
            "violations": self.violations,
            "transitions": rt.transitions_taken,
            "errors": rt.error_count,
        }
        for c in sorted(rt._clock_resets):
            out[f"clk.{c}"] = rt._clock_resets[c]
        return out

    def rt_check(self, delta: dict[str, int]) -> bool:
        # Monotonic statistics plus clock-reset instants, which only
        # move forward; a negative delta re-anchors a clock — discrete.
        return all(0 <= d <= 2**60 for d in delta.values())

    def rt_advance(self, delta: dict[str, int], k: int) -> None:
        rt = self.runtime
        self.accepted += delta["accepted"] * k
        self.violations += delta["violations"] * k
        rt.transitions_taken += delta["transitions"] * k
        rt.error_count += delta["errors"] * k
        for c in sorted(rt._clock_resets):
            rt._clock_resets[c] += delta["clk." + c] * k

    def rt_fingerprint(self, boundary: int, round_len: int) -> tuple | None:
        """Behavioural state at a round boundary, or None to veto.

        Clock valuations enter as partition-cell indices over the guard
        cut points; a cut falling *inside* the upcoming round means a
        guard outcome flips mid-round, so that boundary runs live.
        """
        cuts = self._rt_cuts
        if cuts is None or self.variables:
            return None
        rt = self.runtime
        cells = []
        for c in sorted(rt._clock_resets):
            age = boundary - rt._clock_resets[c]
            table = cuts.get(c, ())
            idx = 0
            for cut in table:
                if age >= cut:
                    idx += 1
                elif cut <= age + round_len:
                    return None  # flips mid-round
                else:
                    break
            cells.append((c, idx))
        return (rt.location, tuple(cells))

    def rt_headroom(self, boundary: int, round_len: int) -> int | None:
        """Whole rounds before any clock crosses its next guard cut."""
        cuts = self._rt_cuts
        if cuts is None:
            return 0
        best: int | None = None
        rt = self.runtime
        for c in sorted(rt._clock_resets):
            age = boundary - rt._clock_resets[c]
            for cut in cuts.get(c, ()):
                if age < cut:
                    h = (cut - age - 1) // round_len
                    if best is None or h < best:
                        best = h
                    break
        return best
