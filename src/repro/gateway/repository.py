"""The gateway repository — the real-time database of Fig. 4/5.

"The virtual gateway ... dissects each message into convertible
elements and stores these convertible elements in a real-time database
denoted as the gateway repository" (Sec. IV).  Storage honours the
information semantics of each element (Fig. 5):

* **state** elements live in a state variable that is overwritten on
  every arrival (*update in place*), carrying two meta attributes: the
  static temporal-accuracy interval ``d_acc`` and the dynamic time of
  the last update ``t_update``.  A stored real-time image is
  *temporally accurate* while ``t_now < t_update + d_acc`` — note the
  paper's Eq. (1) prints the inequality inverted
  (``t_update + d_acc < t_now``), which would declare every *fresh*
  image inaccurate; we implement the evidently intended direction and
  record the deviation here.
* **event** elements live in a bounded queue and are consumed
  *exactly once* (relative values must each be applied once to keep
  sender/receiver state synchronization); queue sizes come from the
  interarrival/service-time relationship (Sec. IV).

Each element also carries the boolean request variable ``b_req``
(Sec. IV-A): the side sending into an event-triggered virtual network
sets it when a construction found the element missing, and the side
receiving from an event-triggered network may poll :meth:`is_requested`
to pull instances on demand.

``horizon`` implements Eq. (2): the remaining interval during which all
of a message's state elements stay temporally accurate.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Any

from ..errors import GatewayError
from ..messaging import Semantics

__all__ = ["StateEntry", "EventEntry", "GatewayRepository"]


@dataclass
class StateEntry:
    """State variable + meta information (Fig. 5, upper half)."""

    name: str
    d_acc: int | None = None
    value: dict[str, Any] | None = None
    t_update: int | None = None
    b_req: bool = False
    stores: int = 0

    def store(self, fields: dict[str, Any], now: int) -> None:
        self.value = dict(fields)  # update in place
        self.t_update = now
        self.stores += 1

    def temporally_accurate(self, now: int) -> bool:
        """Eq. (1), direction-corrected; None d_acc = never expires."""
        if self.value is None or self.t_update is None:
            return False
        if self.d_acc is None:
            return True
        return now < self.t_update + self.d_acc

    def remaining_validity(self, now: int) -> int | None:
        """ns until the image expires (None if never stored)."""
        if self.t_update is None:
            return None
        if self.d_acc is None:
            return 2**63 - 1
        return self.t_update + self.d_acc - now


@dataclass
class EventEntry:
    """Bounded exactly-once queue (Fig. 5, lower half)."""

    name: str
    depth: int = 16
    queue: deque = field(default_factory=deque)
    b_req: bool = False
    stores: int = 0
    drops: int = 0
    takes: int = 0

    def store(self, fields: dict[str, Any], now: int) -> bool:
        if len(self.queue) >= self.depth:
            self.drops += 1
            return False
        self.queue.append((dict(fields), now))
        self.stores += 1
        return True

    def take(self) -> dict[str, Any] | None:
        if not self.queue:
            return None
        fields, _ = self.queue.popleft()
        self.takes += 1
        return fields

    def __len__(self) -> int:
        return len(self.queue)


class GatewayRepository:
    """All convertible-element buffers of one virtual gateway."""

    def __init__(self) -> None:
        self._state: dict[str, StateEntry] = {}
        self._event: dict[str, EventEntry] = {}
        self._rt_entries: tuple[tuple[StateEntry, ...], tuple[EventEntry, ...]] | None = None
        self.stale_blocks = 0

    # ------------------------------------------------------------------
    # declaration
    # ------------------------------------------------------------------
    def declare(self, name: str, semantics: Semantics,
                d_acc: int | None = None, depth: int = 16) -> None:
        """Create the buffer for one convertible element (idempotent for
        identical declarations, error on semantic conflicts)."""
        self._rt_entries = None
        if semantics is Semantics.STATE:
            if name in self._event:
                raise GatewayError(f"element {name!r} already declared with event semantics")
            existing = self._state.get(name)
            if existing is None:
                self._state[name] = StateEntry(name=name, d_acc=d_acc)
            elif d_acc is not None and existing.d_acc is None:
                existing.d_acc = d_acc
            elif d_acc is not None and existing.d_acc != d_acc:
                raise GatewayError(
                    f"element {name!r} declared with conflicting d_acc "
                    f"({existing.d_acc} vs {d_acc})"
                )
        else:
            if name in self._state:
                raise GatewayError(f"element {name!r} already declared with state semantics")
            existing_e = self._event.get(name)
            if existing_e is None:
                self._event[name] = EventEntry(name=name, depth=depth)
            else:
                existing_e.depth = max(existing_e.depth, depth)

    def declared(self, name: str) -> bool:
        return name in self._state or name in self._event

    def semantics_of(self, name: str) -> Semantics:
        if name in self._state:
            return Semantics.STATE
        if name in self._event:
            return Semantics.EVENT
        raise GatewayError(f"element {name!r} not declared in repository")

    def names(self) -> list[str]:
        return sorted(set(self._state) | set(self._event))

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------
    def store(self, name: str, fields: dict[str, Any], now: int) -> bool:
        """Store one element instance; returns False on event overflow."""
        if name in self._state:
            self._state[name].store(fields, now)
            return True
        if name in self._event:
            return self._event[name].store(fields, now)
        raise GatewayError(f"element {name!r} not declared in repository")

    # ------------------------------------------------------------------
    # availability & retrieval (the m! edge semantics of Sec. IV-B.2)
    # ------------------------------------------------------------------
    def available(self, name: str, now: int) -> bool:
        """State: temporally accurate.  Event: non-empty queue."""
        if name in self._state:
            ok = self._state[name].temporally_accurate(now)
            if not ok and self._state[name].value is not None:
                self.stale_blocks += 1
            return ok
        if name in self._event:
            return len(self._event[name]) > 0
        raise GatewayError(f"element {name!r} not declared in repository")

    def all_available(self, names: Iterable[str], now: int,
                      set_requests: bool = True) -> bool:
        """Availability of a whole element set; on failure, sets the
        ``b_req`` request variables of the missing elements (Sec. IV-B.2)."""
        missing = [n for n in names if not self.available(n, now)]
        if missing and set_requests:
            for n in missing:
                self.request(n)
        return not missing

    def take(self, name: str, now: int) -> dict[str, Any] | None:
        """Retrieve for message construction: state elements are copied
        (a state variable serves many constructions), event elements are
        consumed exactly once."""
        if name in self._state:
            entry = self._state[name]
            if not entry.temporally_accurate(now):
                return None
            self.clear_request(name)
            return dict(entry.value or {})
        if name in self._event:
            fields = self._event[name].take()
            if fields is not None:
                self.clear_request(name)
            return fields
        raise GatewayError(f"element {name!r} not declared in repository")

    def peek_state(self, name: str) -> StateEntry:
        try:
            return self._state[name]
        except KeyError:
            raise GatewayError(f"no state element {name!r}") from None

    def peek_event(self, name: str) -> EventEntry:
        try:
            return self._event[name]
        except KeyError:
            raise GatewayError(f"no event element {name!r}") from None

    # ------------------------------------------------------------------
    # request variables (b_req)
    # ------------------------------------------------------------------
    def request(self, name: str) -> None:
        self._entry(name).b_req = True

    def clear_request(self, name: str) -> None:
        self._entry(name).b_req = False

    def is_requested(self, name: str) -> bool:
        return self._entry(name).b_req

    def requested(self) -> list[str]:
        return [n for n in self.names() if self._entry(n).b_req]

    def _entry(self, name: str):
        if name in self._state:
            return self._state[name]
        if name in self._event:
            return self._event[name]
        raise GatewayError(f"element {name!r} not declared in repository")

    # ------------------------------------------------------------------
    # Eq. (2)
    # ------------------------------------------------------------------
    def horizon(self, names: Iterable[str], now: int) -> int | None:
        """Remaining validity of a message's state elements (Eq. 2).

        ``horizon(m) = min over state elements c of (t_update^c + d_acc^c - t_now)``.
        Event elements do not constrain the horizon.  Returns None if
        some state element was never stored (no image to be valid).
        """
        best: int | None = None
        for n in names:
            if n in self._state:
                rem = self._state[n].remaining_validity(now)
                if rem is None:
                    return None
                best = rem if best is None else min(best, rem)
        return best

    # ------------------------------------------------------------------
    # round-template participant protocol (see repro.sim.round_template)
    # ------------------------------------------------------------------
    #: sentinel standing in for a never-stored ``t_update`` in integer
    #: round-template state; a None->timestamp transition then shows up
    #: as an astronomically large delta :meth:`rt_check` rejects.
    RT_T_UNSET = -(2**62)

    def _rt_sorted(self) -> tuple[tuple[StateEntry, ...], tuple[EventEntry, ...]]:
        """Entries in sorted-name order, cached between declarations —
        the participant hooks run every round boundary."""
        entries = self._rt_entries
        if entries is None:
            entries = self._rt_entries = (
                tuple(self._state[n] for n in sorted(self._state)),
                tuple(self._event[n] for n in sorted(self._event)),
            )
        return entries

    def rt_state(self) -> dict[str, int]:
        states, events = self._rt_sorted()
        out = {"stale_blocks": self.stale_blocks}
        for e in states:
            out[f"s.{e.name}.stores"] = e.stores
            out[f"s.{e.name}.t"] = (e.t_update if e.t_update is not None
                                    else self.RT_T_UNSET)
        for ev in events:
            out[f"e.{ev.name}.stores"] = ev.stores
            out[f"e.{ev.name}.takes"] = ev.takes
            out[f"e.{ev.name}.drops"] = ev.drops
        return out

    def rt_check(self, delta: dict[str, int]) -> bool:
        # Monotonic statistics plus ``t_update`` timestamps, which only
        # move forward: a negative delta is a re-anchoring event, an
        # astronomical one the unset-sentinel transition.
        return all(0 <= d <= 2**60 for d in delta.values())

    def rt_advance(self, delta: dict[str, int], k: int) -> None:
        states, events = self._rt_sorted()
        self.stale_blocks += delta["stale_blocks"] * k
        for e in states:
            e.stores += delta[f"s.{e.name}.stores"] * k
            dt = delta[f"s.{e.name}.t"]
            if dt and e.t_update is not None:
                e.t_update += dt * k
        for ev in events:
            ev.stores += delta[f"e.{ev.name}.stores"] * k
            ev.takes += delta[f"e.{ev.name}.takes"] * k
            ev.drops += delta[f"e.{ev.name}.drops"] * k

    def rt_fingerprint(self, boundary: int, round_len: int) -> tuple | None:
        """Behavioural repository state at a round boundary (None vetoes).

        A state entry's behaviour is its availability class — never
        stored, never expiring, stale, expiring within the upcoming
        round, or comfortably live — plus the ``b_req`` bit; the exact
        expiry instant is deliberately *not* keyed (it shrinks every
        round, which would defeat template reuse for no behavioural
        reason) and the live->stale flip is bounded by
        :meth:`rt_headroom` instead.  Queued event instances carry
        payload identity that replay cannot extrapolate: veto.
        """
        states, events = self._rt_sorted()
        cells = []
        for e in states:
            if e.value is None or e.t_update is None:
                cls = "unset"
            elif e.d_acc is None:
                cls = "inf"
            else:
                exp_rel = e.t_update + e.d_acc - boundary
                if exp_rel <= 0:
                    cls = "stale"
                elif exp_rel <= round_len:
                    cls = "edge"
                else:
                    cls = "live"
            cells.append((e.name, cls, int(e.b_req)))
        for ev in events:
            if ev.queue:
                return None
            cells.append((ev.name, "event", int(ev.b_req)))
        return tuple(cells)

    def rt_headroom(self, boundary: int, round_len: int) -> int | None:
        """Whole rounds before any live state image goes stale."""
        best: int | None = None
        for e in self._rt_sorted()[0]:
            if e.t_update is None or e.d_acc is None or e.value is None:
                continue
            exp_rel = e.t_update + e.d_acc - boundary
            if exp_rel <= 0:
                continue  # already stale; no upcoming flip
            h = (exp_rel - 1) // round_len
            if best is None or h < best:
                best = h
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GatewayRepository state={sorted(self._state)} event={sorted(self._event)}>"
