"""The runtime interface: pluggable notions of time for one kernel.

A :class:`Runtime` owns the *dispatch loop* of a
:class:`~repro.sim.kernel.Simulator`: how the next event is chosen is
fixed by the deterministic event queue, but *when* it executes — as fast
as Python allows, or interleaved with an asyncio event loop and
optionally paced against the wall clock — is the runtime's business.  The kernel keeps
everything else (virtual time, scheduling, RNG streams, trace, metrics)
and delegates ``run``/``run_until``/``run_for`` to its bound runtime.

Contract
--------
* A runtime is bound to exactly one simulator (:meth:`bind`); the
  kernel binds its runtime at construction or via
  :meth:`~repro.sim.kernel.Simulator.set_runtime`.
* ``run_until(t)`` must execute every pending event with ``time <= t``
  in exact ``(time, priority, seq)`` order and leave ``now == t`` —
  virtual-time behaviour (and therefore the trace digest) is identical
  across runtimes; only wall-clock pacing differs.
* Target validation (``t < now`` raises
  :class:`~repro.errors.ConfigurationError`) happens uniformly in the
  kernel facade, before any runtime is consulted.
* ``supports_round_templates`` declares whether the round-template
  fast-forward engine may arm under this runtime.  Only the simulated
  runtime says yes: bulk-replaying rounds is meaningless when sim time
  is gated against an external clock.
* A runtime whose loop can be cancelled mid-flight (KeyboardInterrupt,
  asyncio task cancellation) must flush the simulator's trace sinks
  before propagating, mirroring the CLI exit-path guarantee.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel import Simulator

__all__ = ["Runtime"]


class Runtime:
    """Base class for kernel execution runtimes (see module docs)."""

    #: Short identifier, reported as ``runtime`` in run results.
    name: str = "abstract"
    #: May :class:`~repro.sim.round_template.RoundTemplateEngine` arm?
    supports_round_templates: bool = False

    def __init__(self) -> None:
        self.sim: Simulator | None = None

    # ------------------------------------------------------------------
    def bind(self, sim: Simulator) -> None:
        """Attach to ``sim``; a runtime serves exactly one simulator."""
        if self.sim is not None and self.sim is not sim:
            raise ConfigurationError(
                f"runtime {self.name!r} is already bound to another simulator"
            )
        self.sim = sim

    def _bound(self) -> Simulator:
        if self.sim is None:
            raise ConfigurationError(
                f"runtime {self.name!r} is not bound to a simulator"
            )
        return self.sim

    # ------------------------------------------------------------------
    # the dispatch loop (implemented by subclasses)
    # ------------------------------------------------------------------
    def run(self, max_events: int | None = None) -> None:
        """Run until the event queue drains (or ``max_events`` executed)."""
        raise NotImplementedError

    def run_until(self, t: int) -> None:
        """Execute every event with ``time <= t``; leave ``now == t``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-ready runtime statistics (overridden by subclasses)."""
        return {"name": self.name}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
