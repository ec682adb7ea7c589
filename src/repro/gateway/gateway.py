"""The virtual gateway — the paper's primary contribution (Sec. III/IV).

A :class:`VirtualGateway` interconnects the virtual networks of two
DASs by selectively redirecting information contained in messages.  Its
operation follows Fig. 4 exactly:

1. **Reception** — the gateway holds a link (set of ports) to each
   virtual network.  Arriving instances of exported messages are
   *tapped* at the architecture level on the gateway's host component.
2. **Filtering** — selective redirection: value- and time-domain
   filters decide forward/block (Sec. III-B.1).
3. **Error containment** — the link specification's deterministic timed
   automata monitor the temporal pattern; a violation (too-early, late,
   omission) drives the automaton into its error state, the message is
   blocked, and the gateway service restarts after ``restart_delay``
   (Sec. IV-B.2).
4. **Dissection** — accepted instances are dissected into convertible
   elements and stored in the :class:`~repro.gateway.repository.GatewayRepository`
   (update-in-place state variables with ``d_acc``/``t_update``;
   exactly-once event queues).  Transfer-semantics rules convert
   between event and state semantics on the way (Fig. 6's
   ``MovementEvent`` → ``MovementState``).
5. **Construction** — outgoing messages for the other virtual network
   are recombined from repository elements under the *destination's*
   syntactic specification and message name (naming resolution): for a
   TT destination the gateway acts as the message's producer and is
   sampled at the network's a-priori instants; for an ET destination a
   construction is attempted whenever a relevant element arrives
   (missing elements set their ``b_req`` request variables and the
   construction re-fires when they show up).

**Hidden vs visible** (Sec. III): a hidden gateway runs at the
architecture level — taps fire immediately at SERVICE priority.  Pass a
``partition`` to get a *visible* gateway: every reception defers into
the gateway job's next partition window, adding the application-level
latency that E5 measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING

from ..errors import GatewayError
from ..messaging import MessageInstance, MessageType, NameMapping, Semantics
from ..sim import EventPriority, FlowStage, Process, Simulator, TraceCategory
from ..spec import LinkSpec, TransferSemantics
from ..spec.transfer import ConversionState, DerivedElement
from ..vn import ETVirtualNetwork, TTVirtualNetwork, VirtualNetworkBase
from .elements import common_convertible_elements, construct, dissect
from .filters import Decision, FilterChain, MessageFilter
from .monitor import MessageMonitor
from .repository import GatewayRepository

if TYPE_CHECKING:  # pragma: no cover
    from ..platform.partition import Partition

__all__ = ["GatewaySide", "RedirectionRule", "VirtualGateway"]


@dataclass
class GatewaySide:
    """One of the gateway's two attachments (VN + link specification)."""

    vn: VirtualNetworkBase
    link: LinkSpec

    @property
    def das(self) -> str:
        return self.vn.das


@dataclass
class RedirectionRule:
    """Redirect ``src`` (on ``src_side``) to ``dst`` on the other side."""

    src: str
    dst: str
    src_side: str  # "a" or "b"
    filters: FilterChain = dc_field(default_factory=FilterChain)
    #: Sec. IV-A: "The gateway side receiving messages from an event-
    #: triggered virtual network can initiate receptions conditionally,
    #: based on the value of the request variable."  With conditional
    #: import on, an arriving instance is stored only while some element
    #: it supplies has its ``b_req`` set (a consumer asked for it).
    conditional_import: bool = False
    #: resolved during start():
    src_type: MessageType | None = None
    dst_type: MessageType | None = None
    needed_elements: tuple[str, ...] = ()
    forwarded: int = 0
    blocked_filter: int = 0
    blocked_monitor: int = 0
    blocked_halted: int = 0
    skipped_unrequested: int = 0
    #: flow id of the last instance stored via this rule — becomes the
    #: ``parent`` of the next constructed (child) flow, stitching
    #: cross-VN journeys across the store/construct boundary.
    last_flow: int | None = None


class VirtualGateway(Process):
    """Hidden (or, with a partition, visible) virtual gateway."""

    priority = EventPriority.SERVICE

    def __init__(
        self,
        sim: Simulator,
        name: str,
        host: str,
        side_a: GatewaySide,
        side_b: GatewaySide,
        restart_delay: int = 10_000_000,
        partition: "Partition | None" = None,
    ) -> None:
        super().__init__(sim, f"gateway.{name}")
        self.host = host
        self.sides: dict[str, GatewaySide] = {"a": side_a, "b": side_b}
        self.restart_delay = restart_delay
        self.partition = partition
        self.repository = GatewayRepository()
        self.rules: list[RedirectionRule] = []
        self.name_mapping = NameMapping(side_a.vn.namespace, side_b.vn.namespace)
        self._monitors: dict[tuple[str, str], MessageMonitor] = {}
        self._conversions: list[tuple[DerivedElement, ConversionState, str]] = []
        self._halted: set[tuple[str, str]] = set()
        self._rt_halted_fp: tuple[tuple[str, str], ...] = ()
        self._started_rules = False
        # statistics ----------------------------------------------------
        self.instances_received = 0
        self.instances_forwarded = 0
        self.instances_blocked = 0
        self.conversion_applications = 0
        self.restarts = 0
        m = sim.metrics
        self._m_received = m.counter("gateway.receptions")
        self._m_forwarded = m.counter("gateway.forwards")
        self._m_blocked = m.counter("gateway.blocks")
        self._m_restarts = m.counter("gateway.restarts")
        sim.register_checkable(self)
        # Gateway redirection reacts to message arrivals — steady-state
        # periodic redirection repeats at the hyperperiod.  The gateway,
        # its repository and each temporal monitor are round-template
        # participants whose fingerprints (halted rules, availability
        # classes, monitor locations and clock cells) force any
        # transient — restarts, expiring images, queued events — to run
        # live.
        sim.round_template.register_participant(self)
        sim.round_template.register_participant(self.repository)

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def add_rule(
        self,
        src: str,
        dst: str | None = None,
        direction: str = "a_to_b",
        filters: FilterChain | None = None,
        conditional_import: bool = False,
    ) -> RedirectionRule:
        """Declare one selective redirection; ``dst`` defaults to ``src``
        (coherent naming); different names realize renaming."""
        if direction not in ("a_to_b", "b_to_a"):
            raise GatewayError(f"direction must be a_to_b or b_to_a, got {direction!r}")
        if self._started_rules:
            raise GatewayError("rules must be added before start()")
        rule = RedirectionRule(
            src=src,
            dst=dst if dst is not None else src,
            src_side="a" if direction == "a_to_b" else "b",
            filters=filters if filters is not None else FilterChain(),
            conditional_import=conditional_import,
        )
        self.rules.append(rule)
        return rule

    def add_filter(self, rule: RedirectionRule, f: MessageFilter) -> None:
        rule.filters.add(f)

    # ------------------------------------------------------------------
    # startup: resolve rules, declare repository, wire taps & producers
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        if not self.rules:
            raise GatewayError(f"gateway {self.name!r} has no redirection rules")
        self._started_rules = True
        for rule in self.rules:
            self._resolve_rule(rule)
        self._setup_conversions()
        for rule in self.rules:
            self._wire_rule(rule)
        self._setup_monitors()

    def _resolve_rule(self, rule: RedirectionRule) -> None:
        src_side = self.sides[rule.src_side]
        dst_side = self.sides[self._other(rule.src_side)]
        rule.src_type = src_side.vn.namespace.lookup(rule.src)
        rule.dst_type = dst_side.vn.namespace.lookup(rule.dst)
        rule.needed_elements = tuple(
            e.name for e in rule.dst_type.convertible_elements()
        )
        if not rule.needed_elements:
            raise GatewayError(
                f"destination message {rule.dst!r} has no convertible elements"
            )
        # Naming-resolution table (Sec. III-A.1).
        if rule.src_side == "a":
            self.name_mapping.bind(rule.src, rule.dst)
        else:
            self.name_mapping.bind(rule.dst, rule.src)
        # Declare the source's convertible elements.
        for element in rule.src_type.convertible_elements():
            self.repository.declare(
                element.name, element.semantics,
                d_acc=self._d_acc_for(rule, element.name),
                depth=self._depth_for(rule, element.name),
            )
        # Declare destination elements not directly supplied (derived).
        for element in rule.dst_type.convertible_elements():
            self.repository.declare(
                element.name, element.semantics,
                d_acc=self._d_acc_for(rule, element.name),
                depth=self._depth_for(rule, element.name),
            )
        if not (
            common_convertible_elements(rule.src_type, rule.dst_type)
            or self._transfer_bridges(rule)
        ):
            raise GatewayError(
                f"rule {rule.src!r}->{rule.dst!r}: the message types share no "
                "convertible elements and no transfer-semantics rule bridges them"
            )

    def _transfer_bridges(self, rule: RedirectionRule) -> bool:
        assert rule.src_type is not None and rule.dst_type is not None
        src_names = {e.name for e in rule.src_type.convertible_elements()}
        for ts in self._all_transfer():
            for name in ts.names():
                de = ts.derived(name)
                if rule.dst_type.has_element(name):
                    source = de.source_element
                    if source in src_names:
                        return True
                    if source is None and ts.sources_for(name) & {
                        f.name for e in rule.src_type.convertible_elements() for f in e.fields
                    }:
                        return True
        return False

    def _d_acc_for(self, rule: RedirectionRule, element: str) -> int | None:
        """Temporal accuracy from whichever link spec declares the port."""
        for side_key in (rule.src_side, self._other(rule.src_side)):
            link = self.sides[side_key].link
            for port in link.ports:
                if port.message_type.has_element(element) and port.temporal_accuracy:
                    return port.temporal_accuracy
        return None

    def _depth_for(self, rule: RedirectionRule, element: str) -> int:
        for side_key in (rule.src_side, self._other(rule.src_side)):
            link = self.sides[side_key].link
            for port in link.ports:
                if port.message_type.has_element(element) and port.semantics is Semantics.EVENT:
                    return max(port.queue_depth, 1)
        return 16

    def _all_transfer(self) -> list[TransferSemantics]:
        return [side.link.transfer for side in self.sides.values()]

    def _setup_conversions(self) -> None:
        """Instantiate conversion state for derived elements the rules need."""
        needed: set[str] = set()
        direct: set[str] = set()
        for rule in self.rules:
            assert rule.src_type is not None
            needed.update(rule.needed_elements)
            direct.update(e.name for e in rule.src_type.convertible_elements())
        for ts in self._all_transfer():
            for name in ts.names():
                if name not in needed or name in direct:
                    continue
                de = ts.derived(name)
                source = de.source_element
                if source is None:
                    source = self._infer_source(ts, name)
                self._conversions.append((de, ConversionState(de), source))
                semantics = de.fields[0].semantics
                if not self.repository.declared(name):
                    self.repository.declare(name, semantics)

    def _infer_source(self, ts: TransferSemantics, derived_name: str) -> str:
        wanted = ts.sources_for(derived_name)
        for rule in self.rules:
            assert rule.src_type is not None
            for element in rule.src_type.convertible_elements():
                if wanted <= {f.name for f in element.fields}:
                    return element.name
        raise GatewayError(
            f"cannot infer the source element of derived element {derived_name!r}; "
            "set source= in the transfer semantics"
        )

    # ------------------------------------------------------------------
    def _wire_rule(self, rule: RedirectionRule) -> None:
        src_side = self.sides[rule.src_side]
        dst_side = self.sides[self._other(rule.src_side)]
        src_side.vn.tap(
            rule.src, self.host,
            lambda message, instance, arrival, r=rule: self._receive(r, instance, arrival),
        )
        dst_vn = dst_side.vn
        if isinstance(dst_vn, TTVirtualNetwork):
            dst_vn.attach_gateway_producer(
                rule.dst, self.host,
                provider=lambda r=rule: self._construct(r),
            )
            timing = None
            if dst_side.link.has_port(rule.dst):
                timing = dst_side.link.port(rule.dst).tt
            if timing is None:
                raise GatewayError(
                    f"TT destination {rule.dst!r} needs a TT port spec in the "
                    f"link specification of DAS {dst_side.das!r}"
                )
            dst_vn.set_timing(rule.dst, timing)
        elif isinstance(dst_vn, ETVirtualNetwork):
            priority = 100
            if dst_side.link.has_port(rule.dst):
                priority = dst_side.link.port(rule.dst).priority
            dst_vn.attach_gateway_producer(rule.dst, self.host, priority=priority)
        else:  # pragma: no cover - only two paradigms exist
            raise GatewayError(f"unsupported VN type {type(dst_vn).__name__}")

    def _setup_monitors(self) -> None:
        for rule in self.rules:
            link = self.sides[rule.src_side].link
            automaton = link.automaton_for_message(rule.src)
            if automaton is None or rule.src not in automaton.receive_messages():
                continue
            key = (rule.src_side, rule.src)
            if key in self._monitors:
                continue
            monitor = MessageMonitor(
                self.sim, automaton,
                name=f"{self.name}.monitor.{rule.src}",
                on_error=lambda m, k=key: self._on_monitor_error(k, m),
                can_send=lambda msg: self._can_send_message(msg),
                do_send=lambda msg: self._send_message(msg),
                functions={
                    "horizon": self._fn_horizon,
                    "requ": self._fn_requ,
                },
            )
            self._monitors[key] = monitor
            # Timeout polls are legitimate in-round events for the
            # round-template engine (the ``{gateway}.restart`` label
            # stays unregistered on purpose: restart rounds run live).
            self.sim.round_template.register_labels(
                {f"{self.name}.monitor.{rule.src}.poll"}
            )
            self.sim.round_template.register_participant(monitor)

    # ------------------------------------------------------------------
    # reception pipeline
    # ------------------------------------------------------------------
    def _receive(self, rule: RedirectionRule, instance: MessageInstance, arrival: int) -> None:
        if self.partition is not None:
            # Visible gateway: processing waits for the gateway job's
            # partition window (application level, Sec. III).
            self.partition.defer(lambda: self._process(rule, instance, arrival))
        else:
            self._process(rule, instance, arrival)

    def _flow_of(self, instance: MessageInstance) -> int | None:
        """The instance's flow id, when flow tracing is on (else None)."""
        if not self.sim.flows.enabled:
            return None
        return instance.meta.get("flow")

    def _flow_block(self, fid: int | None, message: str, reason: str) -> None:
        if fid is not None:
            self.sim.flows.hop(self.sim.now, self.name, fid,
                               FlowStage.GATEWAY_BLOCK,
                               message=message, reason=reason)

    def _process(self, rule: RedirectionRule, instance: MessageInstance, arrival: int) -> None:
        self.instances_received += 1
        self._m_received.inc()
        tr = self.sim.trace
        fid = self._flow_of(instance)
        if fid is not None:
            # arrival < now for visible gateways (partition defer): the
            # difference is the application-level reception latency.
            self.sim.flows.hop(self.sim.now, self.name, fid,
                               FlowStage.GATEWAY_RX,
                               message=rule.src, arrival=arrival)
        key = (rule.src_side, rule.src)
        if key in self._halted:
            rule.blocked_halted += 1
            self.instances_blocked += 1
            self._m_blocked.inc()
            if tr.wants(TraceCategory.GATEWAY_BLOCK):
                self.trace(TraceCategory.GATEWAY_BLOCK, message=rule.src, reason="halted")
            else:
                tr.tick(TraceCategory.GATEWAY_BLOCK)
            self._flow_block(fid, rule.src, "halted")
            return
        if rule.conditional_import and not self._import_requested(rule):
            # No consumer has requested any element this rule supplies:
            # skip the reception (resource saving, not an error).
            rule.skipped_unrequested += 1
            self._flow_block(fid, rule.src, "unrequested")
            return
        if rule.filters.decide(rule.src, instance, self.sim.now) is Decision.BLOCK:
            rule.blocked_filter += 1
            self.instances_blocked += 1
            self._m_blocked.inc()
            if tr.wants(TraceCategory.GATEWAY_BLOCK):
                self.trace(TraceCategory.GATEWAY_BLOCK, message=rule.src, reason="filtered")
            else:
                tr.tick(TraceCategory.GATEWAY_BLOCK)
            self._flow_block(fid, rule.src, "filtered")
            return
        monitor = self._monitors.get(key)
        if monitor is not None and not monitor.on_message(rule.src):
            rule.blocked_monitor += 1
            self.instances_blocked += 1
            self._m_blocked.inc()
            if tr.wants(TraceCategory.GATEWAY_BLOCK):
                self.trace(
                    TraceCategory.GATEWAY_BLOCK, message=rule.src,
                    reason="temporal violation",
                )
            else:
                tr.tick(TraceCategory.GATEWAY_BLOCK)
            self._flow_block(fid, rule.src, "temporal violation")
            return
        self._store(rule, instance, arrival)
        self._push_et_outputs(rule)

    def _store(self, rule: RedirectionRule, instance: MessageInstance, arrival: int) -> None:
        now = self.sim.now
        stored = dissect(instance)
        for element_name, fields in stored.items():
            self.repository.store(element_name, fields, now)
            for de, conv_state, source in self._conversions:
                if source == element_name:
                    derived = conv_state.apply(fields, now)
                    self.repository.store(de.name, derived, now)
                    self.conversion_applications += 1
        tr = self.sim.trace
        if tr.wants(TraceCategory.GATEWAY_FORWARD):
            self.trace(
                TraceCategory.GATEWAY_FORWARD, message=rule.src,
                elements=sorted(stored), stage="stored",
            )
        else:
            tr.tick(TraceCategory.GATEWAY_FORWARD)
        fid = self._flow_of(instance)
        if fid is not None:
            rule.last_flow = fid
            self.sim.flows.hop(now, self.name, fid, FlowStage.GATEWAY_STORED,
                               message=rule.src)

    def _push_et_outputs(self, rule: RedirectionRule) -> None:
        """Attempt constructions for ET destinations fed by this rule."""
        dst_side = self.sides[self._other(rule.src_side)]
        if not isinstance(dst_side.vn, ETVirtualNetwork):
            return
        instance = self._construct(rule)
        if instance is not None:
            dst_side.vn.send(rule.dst, instance, sender_job=self.name)

    # ------------------------------------------------------------------
    # construction pipeline
    # ------------------------------------------------------------------
    def _construct(self, rule: RedirectionRule) -> MessageInstance | None:
        now = self.sim.now
        assert rule.dst_type is not None
        if not self.repository.all_available(rule.needed_elements, now):
            return None
        instance = construct(
            rule.dst_type, lambda name: self.repository.take(name, now)
        )
        if instance is not None:
            rule.forwarded += 1
            self.instances_forwarded += 1
            self._m_forwarded.inc()
            tr = self.sim.trace
            if tr.wants(TraceCategory.GATEWAY_FORWARD):
                self.trace(
                    TraceCategory.GATEWAY_FORWARD, message=rule.dst, stage="constructed",
                )
            else:
                tr.tick(TraceCategory.GATEWAY_FORWARD)
            fl = self.sim.flows
            if fl.enabled:
                # The constructed message is a *child* flow: its parent
                # is the flow that last updated this rule's repository
                # elements, so cross-VN journeys chain through here.
                fid = fl.new_flow()
                instance.meta["flow"] = fid
                fl.origin(now, self.name, fid, rule.dst,
                          FlowStage.ORIGIN_GW_CONSTRUCT,
                          parent=rule.last_flow)
        return instance

    def _can_send_message(self, message: str) -> bool:
        rule = self._rule_for_dst(message)
        if rule is None:
            return False
        return self.repository.all_available(rule.needed_elements, self.sim.now)

    def _send_message(self, message: str) -> None:
        rule = self._rule_for_dst(message)
        if rule is None:
            raise GatewayError(f"automaton sends unknown message {message!r}")
        dst_side = self.sides[self._other(rule.src_side)]
        instance = self._construct(rule)
        if instance is not None and isinstance(dst_side.vn, ETVirtualNetwork):
            dst_side.vn.send(rule.dst, instance, sender_job=self.name)

    def _import_requested(self, rule: RedirectionRule) -> bool:
        """Is any element this rule supplies (directly or via conversion)
        currently requested (``b_req`` set)?"""
        assert rule.src_type is not None
        supplied = {e.name for e in rule.src_type.convertible_elements()}
        for de, _state, source in self._conversions:
            if source in supplied:
                supplied.add(de.name)
        return any(
            self.repository.declared(name) and self.repository.is_requested(name)
            for name in supplied
        )

    def _rule_for_dst(self, message: str) -> RedirectionRule | None:
        for rule in self.rules:
            if rule.dst == message:
                return rule
        return None

    # ------------------------------------------------------------------
    # guard functions exposed to automata (Sec. IV-B.2)
    # ------------------------------------------------------------------
    def _fn_horizon(self, message: str) -> int:
        """horizon(m): Eq. (2) over m's convertible state elements."""
        rule = self._rule_for_dst(str(message))
        if rule is None:
            raise GatewayError(f"horizon() of unknown message {message!r}")
        h = self.repository.horizon(rule.needed_elements, self.sim.now)
        return h if h is not None else -(2**62)

    def _fn_requ(self, element: str) -> bool:
        """requ(c): the b_req request variable of a convertible element."""
        return self.repository.is_requested(str(element))

    # ------------------------------------------------------------------
    # error handling (restart of the gateway service)
    # ------------------------------------------------------------------
    def _on_monitor_error(self, key: tuple[str, str], monitor: MessageMonitor) -> None:
        if key in self._halted:
            return
        self._halted.add(key)
        self._rt_halted_fp = tuple(sorted(self._halted))
        self.sim.metrics.inc("gateway.monitor_errors")
        self.trace(
            TraceCategory.GATEWAY_ERROR, message=key[1], side=key[0],
            violations=monitor.violations,
        )
        self.call_after(
            self.restart_delay,
            lambda: self._restart(key),
            label=f"{self.name}.restart",
        )

    def _restart(self, key: tuple[str, str]) -> None:
        monitor = self._monitors.get(key)
        if monitor is not None:
            monitor.restart()
        self._halted.discard(key)
        self._rt_halted_fp = tuple(sorted(self._halted))
        self.restarts += 1
        self._m_restarts.inc()
        self.trace(TraceCategory.GATEWAY_RESTART, message=key[1], side=key[0])

    def is_halted(self, message: str, side: str = "a") -> bool:
        return (side, message) in self._halted

    # ------------------------------------------------------------------
    # round-template participant protocol (see repro.sim.round_template)
    # ------------------------------------------------------------------
    def rt_state(self) -> dict[str, int]:
        state = {
            "received": self.instances_received,
            "forwarded": self.instances_forwarded,
            "blocked": self.instances_blocked,
            "conversions": self.conversion_applications,
            "restarts": self.restarts,
        }
        for i, rule in enumerate(self.rules):
            state[f"r{i}.forwarded"] = rule.forwarded
            state[f"r{i}.blocked_filter"] = rule.blocked_filter
            state[f"r{i}.blocked_monitor"] = rule.blocked_monitor
            state[f"r{i}.blocked_halted"] = rule.blocked_halted
            state[f"r{i}.skipped"] = rule.skipped_unrequested
        return state

    def rt_check(self, delta: dict[str, int]) -> bool:
        return all(d >= 0 for d in delta.values())

    def rt_advance(self, delta: dict[str, int], k: int) -> None:
        self.instances_received += delta["received"] * k
        self.instances_forwarded += delta["forwarded"] * k
        self.instances_blocked += delta["blocked"] * k
        self.conversion_applications += delta["conversions"] * k
        self.restarts += delta["restarts"] * k
        for i, rule in enumerate(self.rules):
            rule.forwarded += delta[f"r{i}.forwarded"] * k
            rule.blocked_filter += delta[f"r{i}.blocked_filter"] * k
            rule.blocked_monitor += delta[f"r{i}.blocked_monitor"] * k
            rule.blocked_halted += delta[f"r{i}.blocked_halted"] * k
            rule.skipped_unrequested += delta[f"r{i}.skipped"] * k

    def rt_fingerprint(self, boundary: int, round_len: int) -> tuple | None:
        # Value filters and conditional imports make forward/block
        # decisions from message payloads and repository request state;
        # replay would extrapolate their counters from stale values.
        for rule in self.rules:
            if len(rule.filters) or rule.conditional_import:
                return None
        return self._rt_halted_fp

    # ------------------------------------------------------------------
    @staticmethod
    def _other(side: str) -> str:
        return "b" if side == "a" else "a"

    def monitor_for(self, message: str, side: str = "a") -> MessageMonitor | None:
        return self._monitors.get((side, message))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<VirtualGateway {self.name!r} {self.sides['a'].das}<->{self.sides['b'].das} "
            f"rules={len(self.rules)} fwd={self.instances_forwarded}>"
        )
