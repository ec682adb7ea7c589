"""Compiled round templates: steady-state fast-forward execution.

The paper's premise — every virtual network is an overlay on *one*
time-triggered physical network with a statically known TDMA schedule —
means that in steady state the simulation repeats itself every
communication round: the same controller slot actions, frame
transmissions, bus deliveries, and TT dispatches at the same offsets
within every round.  This module compiles that repetition into a
**round template** and lets the kernel *replay* whole rounds in bulk
instead of executing them event by event.

Eligibility (see DESIGN 6.w for the full table) is decided round by
round, not per simulator.  Templates live in a **bank** keyed by the
*phase-normalized* heap signature plus a participant **fingerprint**,
so rounds that recur at different offsets against the round grid
(drifting producers, window orbits) re-arm by re-timestamping the
template deltas against the observed boundary phase.  Every stateful
model object — controllers, buses, guardians, virtual networks,
partitions, jobs, gateways, their repositories and temporal monitors —
registers itself as one **participant**
(:meth:`RoundTemplateEngine.register_participant`): its per-round state
delta is checked and extrapolated, and its fingerprint vetoes rounds
whose hidden state (pending ET queues, message freshness, a halted job)
does not exactly match the compiled occurrence.

How it works
------------
The engine observes the simulation at **round boundaries** (multiples
of the cluster-cycle LCM; registered *label* periods are folded in only
when no cluster is registered, so ET/TT dispatch periods above the
cycle hyperperiod show up as far events instead of exploding the
round).  At every boundary it snapshots observable state (metric
counters, histograms, trace tick counts, and every registered
participant's ``rt_state()``) plus the exact trace records the round
emitted (captured as field tuples, see
:meth:`~repro.sim.trace.TraceLog.capture`).  A round whose closing
boundary is unvetoed compiles per bank key — immediately in
counter-trace runs (no records to prototype), or from two paired
occurrences of the same key in full-trace runs (record offsets must
match relative to each occurrence's phase, with an integer per-round
stride on whitelisted keys like ``cycle``).  The bank lives for one
``run_until`` call: :meth:`RoundTemplateEngine.end` frees it.

Replaying ``k`` rounds then means: bulk-emit ``k`` copies of the record
prototypes re-timestamped against the current boundary phase (the
timestamp grid is a preallocated numpy outer sum; a lone
:class:`~repro.sim.trace.DigestSink` takes them as encoded lines, see
:func:`line_plan`), bump tick counts, counters (numpy delta vector),
histogram buckets
(:meth:`~repro.sim.metrics.Histogram.bulk_apply`), ``events_executed``,
and every participant's statistics by ``k`` times the per-round delta,
advance the pending heap events by their observed successor strides,
and skip ahead.  Only *periodic* templates — every pending chain
advances by exactly one round length — replay ``k`` rounds at once;
any other template replays one round at a time, advancing each pending
event by its own observed stride.  Byte-for-byte trace parity is
*checked, not assumed*: templates are built from observed equality, the
boundary signature and fingerprint are re-verified before every replay
(the bank lookup *is* that verification), and any deviation — an
unregistered event, a non-linear state delta, a fingerprint mismatch —
falls back to event-by-event execution for that round.

Dynamic activity
----------------
Activity that is *not* part of the periodic round must either

* be a **participant** whose fingerprint vetoes the rounds it makes
  irregular — ET virtual networks veto on queued chunks, partitions on
  deferred work, jobs on due state changes, or
* **puncture** the fast path at the instant the dynamics change
  (:meth:`RoundTemplateEngine.puncture`) — the fault injector does this
  on every activation/deactivation, which drops every compiled template
  (a post-fault steady state may collide with a pre-fault bank key) and
  restarts recording from scratch, or
* simply schedule events with labels the engine does not know: an
  unregistered label pending at a round boundary blocks both recording
  and replay for that window (this is what makes one-shot test events
  safe by default).

Controllers on imperfect (drifting) clocks need no registration of
their own: their fingerprint vetoes every boundary, so such clusters
stay armed but run live.

The engine is **dormant until** :meth:`activate` is called.  Scenario
builders (:func:`repro.runner.scenarios.build_scenario`) and
:func:`repro.apps.build_car` activate it by default
(``--no-round-template`` opts out); hand-built simulators — unit tests
poking at model internals between events — keep exact event-by-event
execution unless they opt in.

Participant protocol (duck-typed)
---------------------------------
``rt_state() -> dict[str, int]``
    Integer-valued statistics snapshot with a *stable key set*.
``rt_check(delta: dict[str, int]) -> bool``
    True iff the per-round delta is legal to linearly extrapolate
    (every non-zero key is a plain monotonic statistic).
``rt_advance(delta: dict[str, int], k: int) -> None``
    Apply ``k`` rounds' worth of ``delta`` to the model state.
``rt_fingerprint(boundary: int, round_len: int) -> tuple | None``
    *(optional)* JSON-safe tuple of the hidden state that must match
    exactly for a compiled round to be replayed at this boundary (queue
    occupancy, freshness ages, value-driven mode bits — including
    look-ahead over the round when behaviour can change mid-round).
    ``None`` vetoes the boundary entirely: the round it opens runs live
    and is not recorded, and the round it closes is not compiled (its
    hidden exit state would not be recreated by a replay).
    :meth:`RoundTemplateEngine.stats` counts the vetoes per participant
    class under ``vetoes``.  A participant that can never be replayed
    declares the class attribute ``rt_fingerprint = None`` instead — a
    *permanent veto* (the base :class:`~repro.platform.job.Job` does).
    :meth:`RoundTemplateEngine.begin` then leaves the engine off for the
    whole run, no boundary is scanned, and
    :meth:`RoundTemplateEngine.stats` names the vetoing classes under
    ``static_veto``.  **Invariance contract**: a replay of ``k`` rounds
    re-verifies the fingerprint only at entry, so a participant's
    fingerprint must be invariant under its own round delta
    (``rt_advance(delta, 1)`` at ``B`` must reproduce the fingerprint
    at ``B + round_len``) — or the participant must bound the span via
    ``rt_headroom``.
``rt_headroom(boundary: int, round_len: int) -> int | None``
    *(optional)* Upper bound on the number of whole rounds from
    ``boundary`` over which the participant's behaviour is guaranteed
    phase-repeating (None = unbounded).  Used by model-driven
    participants whose behaviour changes at known future instants
    (scenario plan transitions, freshness expiry): a replay never
    extrapolates past the bound, and a bound of 0 forces the round to
    run live.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

import numpy as np

from .trace import _DIGEST_CHUNK, CounterSink, DigestSink, TraceRecord, line_format

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Simulator

__all__ = ["RoundTemplateEngine", "STRIDE_KEYS", "line_plan", "write_rounds"]

#: ``getattr`` default telling "no ``rt_fingerprint`` attribute" (no
#: constraint) apart from ``rt_fingerprint = None`` (permanent veto).
_ABSENT = object()

#: Trace-detail keys allowed to advance by a constant integer stride per
#: round (everything else must be bit-identical between rounds).
STRIDE_KEYS = ("cycle", "nominal")

#: Bound on the magnitude of a strided value's base and of stride times
#: round index, so the int64 arithmetic of a line replay is exact.
_INT64_SAFE = 1 << 62


def _canon(value: Any) -> Any:
    """Recursively turn lists into tuples, so participant fingerprints
    are hashable bank-key parts."""
    if isinstance(value, list):
        return tuple(_canon(v) for v in value)
    return value


def line_plan(protos: tuple) -> dict | None:
    """How to encode a template's replayed rounds straight to NDJSON.

    One round is one ``%``-format (the :func:`~repro.sim.trace.line_format`
    of every prototype, ``"\\n"``-joined) over one row of int64
    arguments: each record's time, then its strided values in line
    order.  Returns None — replay then builds records — when a detail
    key shadows a header field or a strided base or stride is not an
    exact ``int`` (a bool or an IntEnum).
    """
    fmts: list[str] = []
    tpos: list[int] = []
    spos: list[int] = []
    sbase: list[int] = []
    sstep: list[int] = []
    cats: dict[Any, int] = {}
    for _nrel, category, source, detail, strides in protos:
        by_key = {key: (bval, stride) for key, bval, stride in strides}
        made = line_format(category, source, detail, tuple(by_key))
        if made is None:
            return None
        fmt, order = made
        tpos.append(len(tpos) + len(spos))
        for key in order:
            bval, stride = by_key[key]
            if type(bval) is not int or type(stride) is not int:
                return None
            spos.append(len(tpos) + len(spos))
            sbase.append(bval)
            sstep.append(stride)
        fmts.append(fmt)
        cats[category] = cats.get(category, 0) + 1
    return {
        "fmt": "\n".join(fmts),
        "nargs": len(tpos) + len(spos),
        "tpos": np.asarray(tpos, dtype=np.intp),
        "spos": np.asarray(spos, dtype=np.intp),
        "sbase": sbase,
        "sstep": sstep,
        "cats": tuple(cats.items()),
        "per": max(1, _DIGEST_CHUNK // len(protos)),
    }


def write_rounds(sink: DigestSink, plan: dict, times: np.ndarray,
                 m0: int) -> bool:
    """Hash ``len(times)`` replayed rounds into ``sink`` — row ``j`` of
    ``times`` holds round ``j``'s record times, its strided values are
    those of round index ``m0 + j`` — and add their counts.  False
    (nothing written) when a strided value could leave int64."""
    k = len(times)
    sbase, sstep = plan["sbase"], plan["sstep"]
    if sbase:
        mmax = max(abs(m0), abs(m0 + k - 1))
        if (max(map(abs, sbase)) >= _INT64_SAFE
                or max(map(abs, sstep)) * mmax >= _INT64_SAFE):
            return False
    args = np.empty((k, plan["nargs"]), dtype=np.int64)
    args[:, plan["tpos"]] = times
    if sbase:
        m = np.arange(m0, m0 + k, dtype=np.int64)
        args[:, plan["spos"]] = (np.asarray(sbase, dtype=np.int64)
                                 + np.multiply.outer(m, np.asarray(sstep, dtype=np.int64)))
    per = plan["per"]
    for j in range(0, k, per):
        block = args[j:j + per]
        sink.write("\n".join([plan["fmt"]] * len(block)) % tuple(block.ravel().tolist()))
    counts = sink.counts
    for cat, n in plan["cats"]:
        counts[cat] = counts.get(cat, 0) + n * k
    return True


class RoundTemplateEngine:
    """Round-template compiler and fast-forward executor for one simulator."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._active = False
        self._round_len = 0
        self._cycle_periods: list[int] = []
        self._label_periods: list[int] = []
        self._participants: list[Any] = []
        self._labels: set[str] = set()
        self._hooks_cache: tuple[list[Any], list[Any], list[Any]] | None = None
        self._boundary = 0
        #: ``(time, category, source, detail)`` of each record the
        #: current round emitted (filled by the trace while a full-trace
        #: run is armed, see :meth:`~repro.sim.trace.TraceLog.capture`)
        self._capture: list[tuple] = []
        # template bank -------------------------------------------------
        self._bank: dict[tuple, dict] = {}
        self._cands: dict[tuple, dict] = {}
        self._prev: tuple | None = None
        self._armed = False
        # statistics ----------------------------------------------------
        self.rounds_replayed = 0
        self.replays = 0
        self.recordings = 0
        self.failed_recordings = 0
        self.punctures = 0
        #: bank size when the last run ended (the bank is freed then)
        self._bank_size = 0
        #: participant class -> boundaries it was the first to veto
        self._vetoes: dict[str, int] = {}

    # ------------------------------------------------------------------
    # configuration & registration
    # ------------------------------------------------------------------
    def activate(self) -> None:
        """Enable the fast path (dormant by default — see module docs)."""
        self._active = True

    @property
    def active(self) -> bool:
        return self._active

    @property
    def next_boundary(self) -> int:
        return self._boundary

    @property
    def round_length(self) -> int:
        return self._round_len

    @property
    def _part_hooks(self) -> tuple[list[Any], list[Any], list[Any]]:
        """Bound ``rt_fingerprint`` / ``rt_headroom`` methods of every
        participant that has one, plus the participants that declare a
        permanent veto (``rt_fingerprint = None``), cached until the
        next registration (the getattr probe per participant per
        boundary is measurable on hot runs)."""
        hooks = self._hooks_cache
        if hooks is None:
            fps: list[Any] = []
            hrs: list[Any] = []
            vetoes: list[Any] = []
            for p in self._participants:
                fn = getattr(p, "rt_fingerprint", _ABSENT)
                if fn is None:
                    vetoes.append(p)
                elif fn is not _ABSENT:
                    fps.append(fn)
                hr = getattr(p, "rt_headroom", None)
                if hr is not None:
                    hrs.append(hr)
            hooks = self._hooks_cache = (fps, hrs, vetoes)
        return hooks

    def register_cluster(self, cluster: Any) -> None:
        """Fold one TT cluster's round into the template domain.

        Registers the cluster's cycle length, every controller's slot and
        cycle-end event labels, and the controllers, bus, and guardian as
        participants.  A controller on an imperfect (drifting) clock
        needs no special casing: its fingerprint vetoes every boundary.
        """
        self._cycle_periods.append(cluster.schedule.cycle_length)
        for ctrl in cluster.controllers.values():
            self._labels.add(f"{ctrl.name}.cycle_end")
            for slot, _offset in ctrl._own_slots:
                self._labels.add(f"{ctrl.name}.slot{slot.slot_id}")
            self._participants.append(ctrl)
        self._participants.append(cluster.bus)
        self._participants.append(cluster.guardian)
        self._touch_config()

    def register_labels(self, labels: Any, period: int | None = None) -> None:
        """Declare event labels as template-covered; ``period`` (if any)
        sets the round length only while no cluster cycle is registered
        (see :meth:`_recompute_round_len`)."""
        self._labels.update(labels)
        if period is not None and period > 0:
            self._label_periods.append(period)
        self._touch_config()

    def register_participant(self, obj: Any) -> None:
        """Register an object implementing the participant protocol;
        deltas and fingerprints follow registration order."""
        if all(existing is not obj for existing in self._participants):
            self._participants.append(obj)
        self._touch_config()

    def puncture(self) -> None:
        """Drop every compiled template and restart recording (called at
        the instant the model's dynamics change, e.g. fault injection).
        The whole bank is dropped, not just the matching template: a
        post-fault steady state may collide with a pre-fault bank key,
        and a stale hit would replay the wrong deltas."""
        self._reset()
        self.punctures += 1

    def _recompute_round_len(self) -> None:
        """The round is the cluster-cycle LCM; label periods count only
        in cluster-less models (folding a long dispatch period into the
        round would explode it — such events show up as far events)."""
        periods = self._cycle_periods or self._label_periods
        length = 0
        for period in periods:
            length = math.lcm(length, period) if length else period
        self._round_len = length

    def _touch_config(self) -> None:
        """Registration changed mid-run: drop state, re-derive boundary."""
        self._hooks_cache = None
        self._recompute_round_len()
        self._reset()
        if self._round_len > 0:
            self._boundary = (self.sim._now // self._round_len + 1) * self._round_len

    def _reset(self) -> None:
        # The capture list stays installed in the trace across resets
        # (punctures, registrations): templates compiled after one must
        # still pair the records of their rounds.
        self._capture.clear()
        self._bank.clear()
        self._cands.clear()
        self._prev = None

    # ------------------------------------------------------------------
    # kernel entry points
    # ------------------------------------------------------------------
    def begin(self, t: int) -> "RoundTemplateEngine | None":
        """Arm the engine for one ``run_until(t)`` call; None = stay off.

        Recording always restarts from scratch: model state may have been
        mutated between runs (tests crash controllers, tweak queues), so
        a template from a previous run is never trusted.
        """
        if not self._active or self._round_len <= 0:
            return None
        self._reset()
        if self._part_hooks[2]:
            # A participant that always vetoes makes every boundary run
            # live: skip the per-boundary scans altogether.
            return None
        sim = self.sim
        if not sim._runtime.supports_round_templates:
            # Bulk round replay is only sound when nothing outside the
            # event queue observes intermediate instants; the asyncio
            # runtime hands every event to an external event loop.
            return None
        if sim.flows.enabled or sim._profiling:
            return None
        if sim.trace._listeners:
            # A live listener observes records one by one; bulk replay
            # would change what it sees relative to model state.
            return None
        # Recording is continuous: every live round is a potential
        # template occurrence, so a full trace captures the record
        # fields for the whole run (cleared at each boundary).
        if sim.trace.wants_records:
            sim.trace.capture(self._capture)
        self._armed = True
        self._boundary = (sim._now // self._round_len + 1) * self._round_len
        return self

    def end(self) -> None:
        """Close the run :meth:`begin` armed: stop the capture and free
        the bank, the candidates and the captured records.  The next
        ``begin`` would drop them anyway; freeing them here keeps a
        finished simulator from holding its templates until a cyclic
        garbage collection."""
        self.sim.trace.capture(None)
        self._armed = False
        self._bank_size = len(self._bank)
        self._reset()

    def on_boundary(self, t: int) -> None:
        """Called by the kernel with the queue drained up to (excluding)
        ``next_boundary``: compiles the round that just completed (if it
        was observed), then replays from the bank or runs the next round
        live.  Always either advances the boundary or replays, so kernel
        progress is guaranteed.

        The boundary's key both closes the recorded round and opens the
        next one.  A round compiles only if its exit is unvetoed: a
        vetoed exit means the round left hidden state behind (a queued
        chunk, deferred work) that replaying it would not recreate."""
        B = self._boundary
        L = self._round_len
        scan = self._scan(B)
        key = self._key(B, scan[0]) if scan is not None else None
        snap: dict | None = None
        prev = self._prev
        self._prev = None
        if prev is not None and key is not None:
            pkey, psnap, entry_B = prev
            snap = self._snapshot(scan[0])
            if snap is not None:
                records = list(self._capture)
                delta = self._delta(psnap, snap)
                if delta is not None:
                    self._compile(pkey, psnap, delta, records, entry_B)
                else:
                    self.failed_recordings += 1
        self._capture.clear()
        if key is None:
            self._boundary = B + L
            return
        near, far_min = scan
        tpl = self._bank.get(key)
        if tpl is not None:
            k = self._replay(tpl, near, far_min, B, t)
            if k:
                self.rounds_replayed += k
                self.replays += 1
                self._boundary = B + k * L
                return
            # No whole-round headroom: run this round live (the
            # template stays banked for the next occurrence).
            self._boundary = B + L
            return
        if snap is None:
            snap = self._snapshot(near)
        if snap is not None:
            self._prev = (key, snap, B)
        self._boundary = B + L

    # ------------------------------------------------------------------
    # observation machinery
    # ------------------------------------------------------------------
    def _scan(self, B: int) -> tuple[tuple, int | None] | None:
        """The pending queue's shape at boundary ``B``.

        Returns ``(near, far_min)`` where ``near`` is the sorted tuple
        of ``(time, priority, label)`` for every live event inside the
        next round and ``far_min`` is the earliest live event at or
        beyond the round's end (None if none) — or None if any in-round
        event carries an unregistered label.
        """
        horizon = B + self._round_len
        labels = self._labels
        near: list[tuple[int, int, int, str]] = []
        far_min: int | None = None
        for tm, pr, sq, ev in self.sim._queue._heap:
            if ev.cancelled:
                continue
            if tm >= horizon:
                if far_min is None or tm < far_min:
                    far_min = tm
            elif ev.label not in labels:
                return None
            else:
                near.append((tm, pr, sq, ev.label))
        near.sort()
        return tuple((tm, pr, label) for tm, pr, _sq, label in near), far_min

    def _snapshot(self, near: tuple) -> dict | None:
        """Full observable-state snapshot at a boundary whose in-round
        queue shape is ``near`` (None if the sink configuration is not
        template-compatible)."""
        sim = self.sim
        tick_sinks = tuple(sim.trace._tick_sinks)
        for sink in tick_sinks:
            if not isinstance(sink, CounterSink):
                return None  # unknown tick semantics — cannot bulk-apply
        return {
            "near": near,
            "ticks": tick_sinks,
            "tick_counts": [dict(s.counts) for s in tick_sinks],
            "counters": {name: c.value
                         for name, c in sim.metrics._counters.items()},
            "hists": {name: (h.count, h.total, h.minimum, h.maximum,
                             tuple(h.buckets))
                      for name, h in sim.metrics._histograms.items()},
            "events": sim.events_executed,
            "parts": [p.rt_state() for p in self._participants],
        }

    def _delta(self, prev: dict, cur: dict) -> dict | None:
        """Per-round delta between two boundary snapshots, or None if the
        round is not linearly replayable.  The round's exit may look
        different from its entry: the bank keys rounds by entry
        signature."""
        pt, ct = prev["ticks"], cur["ticks"]
        if len(pt) != len(ct) or any(a is not b for a, b in zip(pt, ct)):
            return None
        tick_deltas = []
        for pc, cc in zip(prev["tick_counts"], cur["tick_counts"]):
            tick_deltas.append({cat: n - pc.get(cat, 0)
                                for cat, n in cc.items()})
        pc_counters = prev["counters"]
        if tuple(pc_counters) != tuple(cur["counters"]):
            return None  # a counter was created mid-round
        counter_deltas = {name: v - pc_counters[name]
                          for name, v in cur["counters"].items()}
        ph = prev["hists"]
        hist_deltas: dict[str, tuple[int, int, tuple]] = {}
        for name, (hc, htot, hmin, hmax, hbuckets) in cur["hists"].items():
            p = ph.get(name)
            if p is None:
                return None  # histogram created mid-round
            if p[2] != hmin or p[3] != hmax:
                return None  # min/max moved — not linearly replayable
            bucket_delta = tuple(
                (i, b - pb) for i, (b, pb) in enumerate(zip(hbuckets, p[4]))
                if b != pb
            )
            hist_deltas[name] = (hc - p[0], htot - p[1], bucket_delta)
        part_deltas: list[dict[str, int]] = []
        for p_prev, p_cur, part in zip(prev["parts"], cur["parts"],
                                       self._participants):
            if tuple(p_prev) != tuple(p_cur):
                return None  # participant key set changed
            d = {key: v - p_prev[key] for key, v in p_cur.items()}
            if not part.rt_check(d):
                return None
            part_deltas.append(d)
        return {
            "ticks": tick_deltas,
            "counters": counter_deltas,
            "hists": hist_deltas,
            "events": cur["events"] - prev["events"],
            "parts": part_deltas,
        }

    def _make_tpl(self, delta: dict, protos: tuple, mbase: int,
                  strides: tuple) -> dict:
        return {
            "protos": protos,
            "ticks": delta["ticks"],
            "counters": delta["counters"],
            "hists": delta["hists"],
            "events": delta["events"],
            "parts": delta["parts"],
            "mbase": mbase,
            "periodic": all(s == self._round_len for s in strides),
            "strides": strides,
        }

    def _pair_records(self, r1s: list, r2s: list, B1: int, phi1: int,
                      B2: int, phi2: int, n: int) -> tuple | None:
        """Pair two occurrences' record lists into prototypes.

        Offsets are compared relative to each occurrence's boundary and
        phase; whitelisted detail keys may advance by an integer stride
        per round (``n`` = rounds between the occurrences).
        """
        L = self._round_len
        protos: list[tuple[int, str, str, dict, tuple]] = []
        for (t1, cat1, src1, dd1), (t2, cat2, src2, dd2) in zip(r1s, r2s):
            if cat1 != cat2 or src1 != src2:
                return None
            nrel = t2 - B2 - phi2
            if nrel != t1 - B1 - phi1:
                return None
            if not 0 <= nrel < L:
                return None
            if tuple(sorted(dd1)) != tuple(sorted(dd2)):
                return None
            strides: list[tuple[str, int, int]] = []
            for key, v2 in dd2.items():
                v1 = dd1[key]
                if v1 == v2:
                    continue
                if (key in STRIDE_KEYS and isinstance(v1, int)
                        and isinstance(v2, int) and (v2 - v1) % n == 0):
                    strides.append((key, v2, (v2 - v1) // n))
                else:
                    return None
            protos.append((nrel, cat1, src1, dd2, tuple(strides)))
        return tuple(protos)

    # ------------------------------------------------------------------
    # template bank
    # ------------------------------------------------------------------
    def _fingerprint(self, B: int) -> tuple | None:
        """Participant fingerprint tuple at boundary ``B`` (None vetoes
        the boundary: the round runs live and is never recorded).  The
        class of the first vetoing participant is counted in
        :attr:`_vetoes`."""
        L = self._round_len
        hooks, _headroom, static = self._part_hooks
        if static:
            self._veto(static[0])
            return None
        fps = []
        for fn in hooks:
            v = fn(B, L)
            if v is None:
                self._veto(getattr(fn, "__self__", fn))
                return None
            fps.append(_canon(v))
        return tuple(fps)

    def _veto(self, participant: Any) -> None:
        name = type(participant).__name__
        self._vetoes[name] = self._vetoes.get(name, 0) + 1

    def _key(self, B: int, near: tuple) -> tuple | None:
        fp = self._fingerprint(B)
        if fp is None:
            return None
        phi = near[0][0] - B if near else 0
        norm = tuple((tm - B - phi, pr, label) for tm, pr, label in near)
        return (norm, fp)

    def _successor_strides(self, near: tuple) -> list[int] | None:
        """Per-event heap advance for one replayed round, measured at the
        recorded round's *exit* boundary: each entry event's pending
        successor (same priority and label) minus its entry time.  None
        if any entry has no successor (one-shot chains) or ``(priority,
        label)`` is ambiguous."""
        want: dict[tuple[int, str], int] = {}
        for tm, pr, label in near:
            k = (pr, label)
            if k in want:
                return None  # ambiguous chain identity
            want[k] = tm
        succ: dict[tuple[int, str], int] = {}
        for tm2, pr2, _sq, ev in self.sim._queue._heap:
            if ev.cancelled:
                continue
            k = (pr2, ev.label)
            base = want.get(k)
            if base is None or tm2 <= base:
                continue
            cur = succ.get(k)
            if cur is None or tm2 < cur:
                succ[k] = tm2
        strides = []
        for tm, pr, label in near:
            s = succ.get((pr, label))
            if s is None:
                return None
            strides.append(s - tm)
        return strides

    def _compile(self, key: tuple, psnap: dict, delta: dict,
                    records: list, entry_B: int) -> None:
        """One fully observed round for ``key`` just completed (entry at
        ``entry_B``, exit now): compile it, or pair it with an earlier
        occurrence when record prototypes are needed."""
        near = psnap["near"]
        strides = self._successor_strides(near)
        if strides is None:
            self.failed_recordings += 1
            return
        phi = near[0][0] - entry_B if near else 0
        if not self.sim.trace.wants_records:
            # Counter-mode run: nothing to prototype — one observed
            # round whose delta passed every linearity check compiles
            # directly (the fingerprint guards hidden-state reuse).
            self._bank[key] = self._make_tpl(delta, (), entry_B, tuple(strides))
            self.recordings += 1
            return
        cur = {"delta": delta, "records": records, "B": entry_B,
               "phi": phi, "strides": list(strides)}
        cand = self._cands.get(key)
        if cand is None:
            self._cands[key] = cur
            return
        tpl = self._pair(cand, cur)
        if tpl is None:
            self._cands[key] = cur  # drift toward the newer occurrence
            self.failed_recordings += 1
            return
        self._bank[key] = tpl
        del self._cands[key]
        self.recordings += 1

    def _pair(self, cand: dict, cur: dict) -> dict | None:
        """Pair two occurrences of the same bank key into a template."""
        d1, d2 = cand["delta"], cur["delta"]
        if (d1["ticks"] != d2["ticks"] or d1["counters"] != d2["counters"]
                or d1["hists"] != d2["hists"] or d1["events"] != d2["events"]
                or d1["parts"] != d2["parts"]):
            return None
        if cand["strides"] != cur["strides"]:
            return None
        r1s, r2s = cand["records"], cur["records"]
        if len(r1s) != len(r2s):
            return None
        n = (cur["B"] - cand["B"]) // self._round_len
        if n < 1:
            return None
        protos = self._pair_records(r1s, r2s, cand["B"], cand["phi"],
                                    cur["B"], cur["phi"], n)
        if protos is None:
            return None
        return self._make_tpl(d2, protos, cur["B"], tuple(cur["strides"]))

    def _replay(self, tpl: dict, near: tuple, far_min: int | None,
                   B: int, t: int) -> int:
        L = self._round_len
        k = (t - B) // L
        if far_min is not None:
            k = min(k, (far_min - B - 1) // L)
        if k < 1:
            return 0
        phi = near[0][0] - B if near else 0
        if not tpl["periodic"]:
            # Chains off the round grid drift against it: one round at
            # a time, each pending event advanced by its own stride.
            k = 1
        # Model-driven participants bound how far extrapolation may run
        # past their last fingerprint check (rt_headroom); 0 forces the
        # round to run live.
        for fn in self._part_hooks[1]:
            h = fn(B, L)
            if h is not None and h < k:
                k = h
                if k < 1:
                    return 0
        self._apply(tpl, B, phi, k, near)
        return k

    # ------------------------------------------------------------------
    # bulk apply
    # ------------------------------------------------------------------
    def _prep(self, tpl: dict) -> dict:
        """Preallocate the numpy buffers a template's bulk apply uses
        (cached on the template; never serialized)."""
        counters = tpl["counters"]
        cnames = tuple(counters)
        npd = {
            "nrel": np.asarray([p[0] for p in tpl["protos"]], dtype=np.int64),
            "cnames": cnames,
            "cdelta": np.asarray([counters[n] for n in cnames],
                                 dtype=np.int64),
            "hists": [
                (name, dc, dtot,
                 np.asarray([i for i, _ in bucket_delta], dtype=np.int64),
                 np.asarray([db for _, db in bucket_delta], dtype=np.int64))
                for name, (dc, dtot, bucket_delta) in tpl["hists"].items()
            ],
            # Participants whose delta is all-zero for this template
            # need no rt_advance call (every implementation is a strict
            # ``+= delta * k`` accumulator); precompute the survivors.
            # Registration changes drop the whole bank, so the pairing
            # with _participants cannot go stale while "_np" lives.
            "padv": [
                (part, delta)
                for part, delta in zip(self._participants, tpl["parts"])
                if any(delta.values())
            ],
        }
        tpl["_np"] = npd
        return npd

    @staticmethod
    def _emit_rounds(protos: tuple, record_sinks: list, times: list,
                     m0: int) -> None:
        """Emit one record per prototype for each row of ``times``."""
        for j, row in enumerate(times):
            m = m0 + j
            for i, (_nrel, category, source, detail,
                    strides) in enumerate(protos):
                if strides:
                    detail = dict(detail)
                    for key, bval, stride in strides:
                        detail[key] = bval + stride * m
                rec = TraceRecord(time=row[i], category=category,
                                  source=source, detail=detail)
                for sink in record_sinks:
                    sink.emit(rec)

    def _apply(self, tpl: dict, B: int, phi: int, k: int,
               near: tuple) -> None:
        """Apply ``k`` rounds' worth of ``tpl`` starting at ``B`` with
        the observed boundary phase ``phi``."""
        from .kernel import PeriodicTask  # local import: kernel imports us

        sim = self.sim
        L = self._round_len
        trace = sim.trace
        npd = tpl.get("_np")
        if npd is None:
            npd = self._prep(tpl)

        # 1. trace records, byte-for-byte: the timestamp grid for all
        #    k rounds is one numpy outer sum (re-timestamped against the
        #    current phase), strided details re-derived exactly as live
        #    execution would have produced them.  A lone digest sink
        #    takes the rounds as encoded lines (see line_plan); any
        #    other sink gets records.
        record_sinks = trace._record_sinks if trace.enabled else ()
        protos = tpl["protos"]
        if record_sinks and protos:
            bases = B + phi + L * np.arange(k, dtype=np.int64)
            times = np.add.outer(bases, npd["nrel"])
            m0 = (B - tpl["mbase"]) // L
            sink = record_sinks[0]
            plan = None
            if len(record_sinks) == 1 and isinstance(sink, DigestSink):
                if "lines" not in npd:
                    npd["lines"] = line_plan(protos)
                plan = npd["lines"]
            if plan is None or not write_rounds(sink, plan, times, m0):
                self._emit_rounds(protos, record_sinks, times.tolist(), m0)

        # 2. tick counts (counter-mode sinks)
        if trace.enabled:
            for sink, dmap in zip(trace._tick_sinks, tpl["ticks"]):
                for cat, d in dmap.items():
                    if d:
                        sink.tick(cat, d * k)

        # 3. metrics (numpy delta vector + histogram bulk apply)
        if npd["cnames"]:
            vals = (npd["cdelta"] * k).tolist()
            counters = sim.metrics._counters
            for name, dv in zip(npd["cnames"], vals):
                if dv:
                    counters[name].value += dv
        hists = sim.metrics._histograms
        for name, dc, dtot, idx, db in npd["hists"]:
            if dc or dtot or idx.size:
                hists[name].bulk_apply(dc, dtot, idx, db, k)

        # 4. kernel accounting
        sim.events_executed += tpl["events"] * k

        # 5. participants (controllers, buses, guardians, VNs, gateways)
        for part, delta in npd["padv"]:
            part.rt_advance(delta, k)

        # 6. pending events advance by their observed successor strides:
        #    uniformly (one heap shift of k rounds) on a periodic
        #    template, per-event otherwise.
        queue = sim._queue
        horizon = B + L
        if tpl["periodic"]:
            shift = k * L
            for tm, _pr, _sq, ev in queue._heap:
                if ev.cancelled or tm >= horizon:
                    continue
                owner = getattr(ev.callback, "__self__", None)
                if isinstance(owner, PeriodicTask):
                    owner.next_time += shift
            queue.shift_span(horizon, shift)
        else:
            pending: dict[tuple[int, int, str], list[int]] = {}
            for (tm, pr, label), st in zip(near, tpl["strides"]):
                pending.setdefault((tm, pr, label), []).append(st * k)

            def _retime(tm: int, pr: int, ev: Any) -> int | None:
                lst = pending.get((tm, pr, ev.label))
                if not lst:
                    return None
                st = lst.pop(0)
                owner = getattr(ev.callback, "__self__", None)
                if isinstance(owner, PeriodicTask):
                    owner.next_time += st
                return tm + st

            queue.retime_span(horizon, _retime)
        # sim._now is deliberately left alone: the next executed event
        # (or the run_until tail) advances it, exactly as if the skipped
        # rounds had run.

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-ready engine statistics (for results and debugging)."""
        return {
            "active": self._active,
            "round_length_ns": self._round_len,
            "rounds_replayed": self.rounds_replayed,
            "replays": self.replays,
            "recordings": self.recordings,
            "failed_recordings": self.failed_recordings,
            "punctures": self.punctures,
            "bank_templates": len(self._bank) if self._armed else self._bank_size,
            "static_veto": sorted({type(p).__name__
                                   for p in self._part_hooks[2]}),
            "vetoes": dict(sorted(self._vetoes.items())),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "armed" if self._active else "dormant"
        return (f"<RoundTemplateEngine {state} L={self._round_len} "
                f"replayed={self.rounds_replayed} bank={len(self._bank)}>")
