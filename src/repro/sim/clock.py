"""Local clocks with drift, and the global-time abstraction.

Each DECOS component owns a :class:`LocalClock`: a linear map from the
simulator's perfect reference time to the component's *local* view,

    ``local(t) = state_local + (t - state_ref) * (1 + drift_ppm * 1e-6)``

re-anchored whenever fault-tolerant clock synchronization (core service
C2, :mod:`repro.core_network.sync`) applies a correction.  Drift is kept
in parts-per-million as an exact rational (ppm numerator over 10^6) so
local time stays integer-exact and reproducible.

The *precision* of the global time base — the maximum difference between
any two correct local clocks — is what the sync experiment (E1) measures
and what a TT schedule's inter-slot gaps must exceed.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import SimulationError
from .time import Duration, Instant

__all__ = ["LocalClock"]


class LocalClock:
    """A drifting local clock, correctable by a synchronization service.

    Parameters
    ----------
    drift_ppm:
        Constant rate deviation in parts per million.  Positive means the
        local clock runs fast relative to the reference.
    offset:
        Initial offset of local time from reference time at t=0.
    """

    def __init__(self, drift_ppm: float = 0.0, offset: Duration = 0) -> None:
        self._rate = 1 + Fraction(drift_ppm).limit_denominator(10**9) / 1_000_000
        self.drift_ppm = drift_ppm
        self._anchor_ref: Instant = 0
        self._anchor_local: Fraction = Fraction(offset)
        #: ``int(self._anchor_local)``, kept beside the exact anchor.
        self._anchor_local_int: int = int(self._anchor_local)
        self.corrections_applied = 0
        # Fast path: a perfect clock (the common case in large models)
        # needs no rational arithmetic at all — local time is reference
        # time plus the integer anchor.
        self._perfect = self._rate == 1

    # ------------------------------------------------------------------
    def local_time(self, ref_now: Instant) -> Instant:
        """Local clock reading at reference instant ``ref_now``."""
        if self._perfect:
            return self._anchor_local_int + (ref_now - self._anchor_ref)
        val = self._anchor_local + (ref_now - self._anchor_ref) * self._rate
        return int(val)  # truncation toward zero: clock granularity 1 ns

    def local_time_exact(self, ref_now: Instant) -> Fraction:
        """Exact (fractional) local time; used by the sync algorithm."""
        return self._anchor_local + (ref_now - self._anchor_ref) * self._rate

    def offset_from_reference(self, ref_now: Instant) -> int:
        """Signed deviation ``local - reference`` at ``ref_now`` (ns)."""
        return self.local_time(ref_now) - ref_now

    # ------------------------------------------------------------------
    def apply_correction(self, ref_now: Instant, correction: Duration) -> None:
        """State-correct the clock by ``correction`` ns at ``ref_now``.

        Used by the FTA synchronization round: the clock jumps, the rate
        keeps drifting as before.
        """
        self._set_anchor(ref_now, self.local_time_exact(ref_now) + correction)

    def set_local_time(self, ref_now: Instant, new_local: Instant) -> None:
        """Force the local reading to ``new_local`` at ``ref_now``."""
        self._set_anchor(ref_now, Fraction(new_local))

    def _set_anchor(self, ref_now: Instant, local: Fraction) -> None:
        self._anchor_local = local
        self._anchor_local_int = int(local)
        self._anchor_ref = ref_now
        self.corrections_applied += 1

    # ------------------------------------------------------------------
    def ref_time_for_local(self, local_target: Instant, ref_hint: Instant) -> Instant:
        """Reference instant at which this clock reads ``local_target``.

        Needed to schedule "act when *my* clock shows T" on the perfect
        event queue.  ``ref_hint`` must not be after the answer; the
        returned instant is the earliest reference time with
        ``local_time >= local_target``.
        """
        if self._perfect:
            t_fast = local_target - self._anchor_local_int + self._anchor_ref
            if t_fast < ref_hint:
                raise SimulationError(
                    f"local target {local_target} already passed "
                    f"(local now {self.local_time(ref_hint)})"
                )
            return t_fast
        cur = self.local_time_exact(ref_hint)
        if cur > local_target:
            raise SimulationError(
                f"local target {local_target} already passed (local now ~{float(cur):.0f})"
            )
        # Solve anchor_local + (t - anchor_ref)*rate >= local_target for t.
        delta = (Fraction(local_target) - self._anchor_local) / self._rate
        t = self._anchor_ref + delta
        # Round up to the next integer nanosecond.
        t_int = int(t)
        if t_int < t:
            t_int += 1
        return max(t_int, ref_hint)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LocalClock drift={self.drift_ppm}ppm corrections={self.corrections_applied}>"
