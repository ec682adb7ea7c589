"""Unit tests for LocalClock (repro.sim.clock)."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import SEC, LocalClock


def test_perfect_clock_tracks_reference():
    clk = LocalClock(drift_ppm=0.0)
    for t in (0, 1, 10**6, 10**9):
        assert clk.local_time(t) == t


def test_fast_clock_gains_time():
    clk = LocalClock(drift_ppm=100.0)  # +100 ppm
    assert clk.local_time(SEC) == SEC + 100_000  # gains 100 us per second


def test_slow_clock_loses_time():
    clk = LocalClock(drift_ppm=-50.0)
    assert clk.local_time(SEC) == SEC - 50_000


def test_initial_offset():
    clk = LocalClock(drift_ppm=0.0, offset=500)
    assert clk.local_time(0) == 500
    assert clk.offset_from_reference(0) == 500


def test_correction_shifts_local_time():
    clk = LocalClock(drift_ppm=0.0, offset=1_000)
    clk.apply_correction(10_000, -1_000)
    assert clk.local_time(10_000) == 10_000
    assert clk.local_time(20_000) == 20_000
    assert clk.corrections_applied == 1


def test_correction_does_not_change_rate():
    clk = LocalClock(drift_ppm=200.0)
    clk.apply_correction(SEC, -clk.offset_from_reference(SEC))
    # Immediately after correction local == ref, but it keeps drifting.
    assert clk.local_time(SEC) == SEC
    assert clk.local_time(2 * SEC) == 2 * SEC + 200_000


def test_set_local_time():
    clk = LocalClock(drift_ppm=0.0, offset=12345)
    clk.set_local_time(100, 100)
    assert clk.local_time(100) == 100


def test_ref_time_for_local_perfect_clock():
    clk = LocalClock(drift_ppm=0.0)
    assert clk.ref_time_for_local(5_000, ref_hint=0) == 5_000


def test_ref_time_for_local_with_drift_is_consistent():
    clk = LocalClock(drift_ppm=300.0)
    target = 10 * SEC
    t = clk.ref_time_for_local(target, ref_hint=0)
    # At the returned reference instant, the local clock reads >= target,
    # and one nanosecond earlier it read < target.
    assert clk.local_time(t) >= target
    assert clk.local_time(t - 1) < target


def test_ref_time_for_local_in_past_raises():
    clk = LocalClock(drift_ppm=0.0)
    with pytest.raises(SimulationError):
        clk.ref_time_for_local(100, ref_hint=200)


@given(
    drift=st.floats(min_value=-500, max_value=500, allow_nan=False),
    t=st.integers(min_value=0, max_value=10 * SEC),
)
@settings(max_examples=100, deadline=None)
def test_property_drift_bound(drift: float, t: int) -> None:
    """|local - ref| never exceeds |drift_ppm| * 1e-6 * elapsed (+1 ns)."""
    clk = LocalClock(drift_ppm=drift)
    dev = abs(clk.offset_from_reference(t))
    assert dev <= abs(drift) * 1e-6 * t + 1


@given(
    drift=st.floats(min_value=-500, max_value=500, allow_nan=False),
    t1=st.integers(min_value=0, max_value=SEC),
    dt=st.integers(min_value=0, max_value=SEC),
)
@settings(max_examples=100, deadline=None)
def test_property_monotonic(drift: float, t1: int, dt: int) -> None:
    """Local time is monotonically non-decreasing in reference time."""
    clk = LocalClock(drift_ppm=drift)
    assert clk.local_time(t1 + dt) >= clk.local_time(t1)


class _RationalClock:
    """Reference model: the exact rational map a LocalClock implements
    (``local = anchor_local + (ref - anchor_ref) * rate``)."""

    def __init__(self, drift_ppm: float, offset: int) -> None:
        self.rate = 1 + Fraction(drift_ppm).limit_denominator(10**9) / 1_000_000
        self.anchor_ref = 0
        self.anchor_local = Fraction(offset)

    def exact(self, ref: int) -> Fraction:
        return self.anchor_local + (ref - self.anchor_ref) * self.rate

    def local_time(self, ref: int) -> int:
        return int(self.exact(ref))

    def ref_time_for_local(self, target: int, hint: int) -> int:
        t = self.anchor_ref + (target - self.anchor_local) / self.rate
        return max(math.ceil(t), hint)


_CLOCK_OPS = st.lists(
    st.tuples(
        st.sampled_from(("correct", "set")),
        st.integers(min_value=0, max_value=SEC),          # ref advance
        st.integers(min_value=-10**6, max_value=10**6),   # correction / local shift
    ),
    max_size=8,
)


@given(
    drift=st.one_of(st.just(0.0),
                    st.floats(min_value=-500, max_value=500, allow_nan=False)),
    offset=st.integers(min_value=-SEC, max_value=SEC),
    ops=_CLOCK_OPS,
    probe=st.integers(min_value=0, max_value=SEC),
    ahead=st.integers(min_value=0, max_value=SEC),
)
@settings(max_examples=200, deadline=None)
def test_property_clock_matches_rational_model(drift: float, offset: int, ops,
                                               probe: int, ahead: int) -> None:
    """Perfect clocks answer from an integer anchor, drifting ones from
    exact Fractions; both must agree with the rational model after any
    sequence of corrections and forced settings."""
    clk = LocalClock(drift_ppm=drift, offset=offset)
    model = _RationalClock(drift, offset)
    ref = 0
    for op, advance, value in ops:
        ref += advance
        if op == "correct":
            clk.apply_correction(ref, value)
            model.anchor_local = model.exact(ref) + value
        else:
            new_local = clk.local_time(ref) + value
            clk.set_local_time(ref, new_local)
            model.anchor_local = Fraction(new_local)
        model.anchor_ref = ref
        assert clk.local_time(ref) == model.local_time(ref)
    hint = ref + probe
    assert clk.local_time(hint) == model.local_time(hint)
    assert clk.local_time_exact(hint) == model.exact(hint)
    target = math.ceil(model.exact(hint)) + ahead
    assert clk.ref_time_for_local(target, hint) == model.ref_time_for_local(target, hint)
