"""Event-triggered virtual networks (CAN-style overlay).

"In non safety-critical (soft real-time) DASs ... the event-triggered
control paradigm may be preferred due to higher flexibility and
resource efficiency" (Sec. II-E).

Transmission discipline: jobs emit instances on demand (sender-push);
each message has a CAN-style arbitration **priority** (lower value wins).
Pending instances wait in a per-producing-component arbitration queue.
Whenever one of that component's TDMA slots opens with a byte
reservation for this VN, the controller pulls the highest-priority
chunks that fit (see ``register_chunk_source`` on the controller) —
i.e. arbitration happens per communication opportunity, within the
DAS's reserved share of the physical bandwidth.

Consequences the experiments rely on: latency is load-dependent (low-
priority messages starve under load — E2/E4 measure this), resources
can be "biased towards average demands, thus allowing timing failures
to occur during worst-case scenarios" (the overflow drops are exactly
those failures), and a babbling ET job saturates *only its own VN's*
reservation — the rest of the bus is untouched (temporal independence).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

from ..core_network import FrameChunk, Slot
from ..errors import ConfigurationError, PortError
from ..messaging import MessageInstance
from ..sim import FlowStage, TraceCategory
from ..spec import ControlParadigm
from .service import VirtualNetworkBase

if TYPE_CHECKING:  # pragma: no cover
    from ..platform.job import Job

__all__ = ["ETVirtualNetwork"]


class ETVirtualNetwork(VirtualNetworkBase):
    """Priority-arbitrated overlay for one non-safety-critical DAS."""

    paradigm = ControlParadigm.EVENT_TRIGGERED.value

    def __init__(self, sim, das, cluster, namespace=None,
                 pending_limit: int = 4096) -> None:
        super().__init__(sim, das, cluster, namespace)
        #: per-component arbitration heap: (priority, seq, chunk)
        self._pending: dict[str, list[tuple[int, int, FrameChunk]]] = {}
        self._seq = 0
        self._sources_installed: set[str] = set()
        self.pending_limit = pending_limit
        self.sends = 0
        self.arbitration_wins = 0
        self.send_drops = 0
        m = sim.metrics
        self._m_sends = m.counter("vn.et.sends")
        self._m_drops = m.counter("vn.et.send_drops")
        self._m_depth = m.histogram("vn.et.queue_depth")
        # ET sends are demand-driven: a fingerprinted round-template
        # participant (steady-state periodic senders repeat at the
        # hyperperiod; queued chunks veto).
        sim.round_template.register_participant(self)

    # ------------------------------------------------------------------
    # send path (sender-push)
    # ------------------------------------------------------------------
    def send(self, message: str, instance: MessageInstance,
             sender_job: str = "") -> bool:
        """Emit one instance on demand; returns False if the arbitration
        queue is saturated (the cost-efficiency trade of Sec. II-E)."""
        binding = self._producers.get(message)
        if binding is None:
            raise ConfigurationError(
                f"message {message!r} has no producer binding on VN {self.das!r}"
            )
        self._install_source(binding.component)
        queue = self._pending.setdefault(binding.component, [])
        tr = self.sim.trace
        if len(queue) >= self.pending_limit:
            self.send_drops += 1
            self._m_drops.inc()
            if tr.wants(TraceCategory.PORT_DROP):
                tr.record(
                    self.sim.now, TraceCategory.PORT_DROP, f"etvn.{self.das}",
                    reason="arbitration queue full", message=message,
                )
            else:
                tr.tick(TraceCategory.PORT_DROP)
            return False
        fl = self.sim.flows
        if fl.enabled:
            # Sender-push origination: the instance is born into the
            # network here (after the overflow check — a dropped send
            # never becomes a flow).
            fid = instance.meta.get("flow")
            if fid is None:
                fid = fl.new_flow()
                instance.meta["flow"] = fid
                fl.origin(self.sim.now, f"etvn.{self.das}", fid, message,
                          FlowStage.ORIGIN_ET_SEND, component=binding.component)
            fl.hop(self.sim.now, f"etvn.{self.das}", fid,
                   FlowStage.VN_SEND, message=message)
        chunk = self._encode_chunk(message, instance, sender_job or binding.job_name)
        self._seq += 1
        heapq.heappush(queue, (binding.priority, self._seq, chunk))
        self.sends += 1
        self._m_sends.inc()
        self._m_depth.observe(len(queue))
        if tr.wants(TraceCategory.VN_DISPATCH):
            tr.record(
                self.sim.now, TraceCategory.VN_DISPATCH, f"etvn.{self.das}",
                message=message, component=binding.component, priority=binding.priority,
            )
        else:
            tr.tick(TraceCategory.VN_DISPATCH)
        self._local_deliver(message, instance, binding.component)
        return True

    def send_from_port(self, job: "Job", message: str) -> int:
        """Drain a job's event output port into the network; returns the
        number of instances handed to arbitration."""
        port = job.port(message)
        count = 0
        while True:
            collect = getattr(port, "collect", None)
            if collect is None:
                raise PortError(f"port {message!r} is not an output event port")
            instance = collect()
            if instance is None:
                break
            if self.send(message, instance, sender_job=job.name):
                count += 1
        return count

    # ------------------------------------------------------------------
    # arbitration (pulled by the controller at slot time)
    # ------------------------------------------------------------------
    def _install_source(self, component: str) -> None:
        if component in self._sources_installed:
            return
        ctrl = self.cluster.controller(component)
        ctrl.register_chunk_source(
            self.das, lambda slot, budget, c=component: self._arbitrate(c, slot, budget)
        )
        self._sources_installed.add(component)

    def _arbitrate(self, component: str, slot: Slot, budget: int) -> list[FrameChunk]:
        queue = self._pending.get(component)
        if not queue:
            return []
        out: list[FrameChunk] = []
        used = 0
        # Highest priority (lowest value) first; a chunk that does not
        # fit the remaining budget blocks lower-priority ones behind it
        # (no reordering past a blocked head — CAN semantics).
        while queue:
            prio, seq, chunk = queue[0]
            if used + chunk.size_bytes() > budget:
                break
            heapq.heappop(queue)
            used += chunk.size_bytes()
            out.append(chunk)
            self.arbitration_wins += 1
        self.chunks_sent += len(out)
        self.bytes_sent += used
        return out

    # ------------------------------------------------------------------
    # round-template participant protocol
    # ------------------------------------------------------------------
    def rt_state(self) -> dict[str, int]:
        return {
            "sends": self.sends,
            "arbitration_wins": self.arbitration_wins,
            "send_drops": self.send_drops,
            "seq": self._seq,
            "chunks_sent": self.chunks_sent,
            "bytes_sent": self.bytes_sent,
            "instances_delivered": self.instances_delivered,
        }

    def rt_check(self, delta: dict[str, int]) -> bool:
        # Every key is a plain monotonic statistic (seq included: the
        # arbitration tie-breaker must keep advancing during replay).
        return True

    def rt_advance(self, delta: dict[str, int], k: int) -> None:
        self.sends += delta["sends"] * k
        self.arbitration_wins += delta["arbitration_wins"] * k
        self.send_drops += delta["send_drops"] * k
        self._seq += delta["seq"] * k
        self.chunks_sent += delta["chunks_sent"] * k
        self.bytes_sent += delta["bytes_sent"] * k
        self.instances_delivered += delta["instances_delivered"] * k

    def rt_fingerprint(self, boundary: int, round_len: int) -> tuple | None:
        # Chunks waiting in arbitration carry payload identity that
        # linear extrapolation cannot reproduce: veto the boundary so
        # the round runs live.  Empty queues — the steady-state norm at
        # boundaries, since sends drain at the component's next slot —
        # contribute nothing to the key.
        for queue in self._pending.values():
            if queue:
                return None
        return ()

    # ------------------------------------------------------------------
    def pending_count(self, component: str | None = None) -> int:
        if component is not None:
            return len(self._pending.get(component, ()))
        return sum(len(q) for q in self._pending.values())

    def _on_start(self) -> None:
        # Install sources for all known producers so reservations are
        # honored even before the first send.
        for binding in self._producers.values():
            self._install_source(binding.component)
