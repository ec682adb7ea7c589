"""Partitions: encapsulated execution environments within a component.

Sec. II-B: "Components ... provide encapsulated execution environments
denoted as partitions for jobs.  Each partition prevents temporal
interference (e.g., stealing processor time) and spatial interference
(e.g., overwriting data structures) between jobs."

Temporal partitioning follows the ARINC-653 idiom: the component's
processor time is divided into a periodic **major frame**; each
partition owns a fixed window (offset, duration) within it.  Job code —
periodic steps *and* message-delivery callbacks — runs only inside the
partition's window; work arriving between windows is deferred to the
next window start.  This deferral is exactly why a *visible* gateway
(a gateway job inside a partition) has higher redirection latency than
a *hidden* gateway at the architecture level (Sec. III) — experiment E5
measures the difference.

Spatial partitioning is modeled as memory-quota accounting plus owner
checks on :class:`MemoryRegion` writes: a job writing a region of a
foreign partition raises :class:`~repro.errors.PartitionViolationError`
instead of silently corrupting state.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ConfigurationError, PartitionViolationError
from ..sim import Simulator, TraceCategory

if TYPE_CHECKING:  # pragma: no cover
    from .job import Job

__all__ = ["PartitionWindow", "MemoryRegion", "Partition"]


@dataclass(frozen=True)
class PartitionWindow:
    """The partition's slice of the component's major frame."""

    offset: int
    duration: int

    def __post_init__(self) -> None:
        if self.offset < 0 or self.duration <= 0:
            raise ConfigurationError(
                f"invalid partition window (offset={self.offset}, duration={self.duration})"
            )

    def end(self) -> int:
        return self.offset + self.duration


class MemoryRegion:
    """A named block of state owned by one partition."""

    def __init__(self, partition: "Partition", name: str, size_bytes: int) -> None:
        self.partition = partition
        self.name = name
        self.size_bytes = size_bytes
        self.data: dict[str, object] = {}

    def write(self, job: "Job", key: str, value: object) -> None:
        """Write access is restricted to jobs of the owning partition."""
        if job.partition is not self.partition:
            self.partition.spatial_violations += 1
            raise PartitionViolationError(
                f"job {job.name!r} (partition {job.partition.name!r}) wrote "
                f"region {self.name!r} of partition {self.partition.name!r}"
            )
        self.data[key] = value

    def read(self, key: str, default: object = None) -> object:
        """Reads are unrestricted within the component (shared-nothing
        across components anyway; confidentiality is out of scope)."""
        return self.data.get(key, default)


class Partition:
    """One encapsulated execution environment on a component."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        das: str,
        window: PartitionWindow,
        memory_quota: int = 64 * 1024,
    ) -> None:
        self.sim = sim
        self.name = name
        self.das = das
        self.window = window
        self.memory_quota = memory_quota
        self.memory_used = 0
        self.jobs: list["Job"] = []
        self._inbox: list[Callable[[], None]] = []
        self._regions: dict[str, MemoryRegion] = {}
        self.windows_executed = 0
        self.deferred_executed = 0
        self.spatial_violations = 0
        self._in_window = False
        m = sim.metrics
        self._m_windows = m.counter("partition.windows")
        self._m_deferred = m.histogram("partition.deferred_per_window")
        # Deferred work makes a window's execution demand-shaped: a
        # fingerprinted round-template participant (its jobs register
        # themselves).
        sim.round_template.register_participant(self)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def bind_job(self, job: "Job") -> None:
        if job.das != self.das:
            raise ConfigurationError(
                f"job {job.name!r} of DAS {job.das!r} cannot run in partition "
                f"{self.name!r} of DAS {self.das!r} — partitions are per-DAS"
            )
        self.jobs.append(job)

    # ------------------------------------------------------------------
    # spatial partitioning
    # ------------------------------------------------------------------
    def allocate(self, name: str, size_bytes: int) -> MemoryRegion:
        if size_bytes <= 0:
            raise ConfigurationError("allocation size must be positive")
        if name in self._regions:
            raise ConfigurationError(f"region {name!r} already allocated")
        if self.memory_used + size_bytes > self.memory_quota:
            raise PartitionViolationError(
                f"partition {self.name!r} quota exceeded: "
                f"{self.memory_used}+{size_bytes} > {self.memory_quota}"
            )
        region = MemoryRegion(self, name, size_bytes)
        self._regions[name] = region
        self.memory_used += size_bytes
        return region

    def region(self, name: str) -> MemoryRegion:
        try:
            return self._regions[name]
        except KeyError:
            raise ConfigurationError(f"no region {name!r} in partition {self.name!r}") from None

    # ------------------------------------------------------------------
    # temporal partitioning
    # ------------------------------------------------------------------
    @property
    def in_window(self) -> bool:
        """Is the partition currently executing its window?"""
        return self._in_window

    def defer(self, work: Callable[[], None]) -> None:
        """Run ``work`` inside this partition's next window.

        If called *during* the window (a job reacting to work delivered
        in the same window), the work runs immediately — it is already
        on the partition's processor time.
        """
        if self._in_window:
            work()
            self.deferred_executed += 1
        else:
            self._inbox.append(work)

    def execute_window(self) -> None:
        """Called by the component scheduler at the window start.

        Drains deferred work first (message deliveries), then runs each
        job's periodic step.  Everything executes at APPLICATION
        priority within a single kernel event — the window's internal
        interleaving is not modeled below job granularity.
        """
        self._in_window = True
        self.windows_executed += 1
        self._m_windows.inc()
        self._m_deferred.observe(len(self._inbox))
        tr = self.sim.trace
        if tr.wants(TraceCategory.PARTITION_WINDOW):
            tr.record(
                self.sim.now, TraceCategory.PARTITION_WINDOW, self.name,
                das=self.das, deferred=len(self._inbox),
            )
        else:
            tr.tick(TraceCategory.PARTITION_WINDOW)
        try:
            pending, self._inbox = self._inbox, []
            for work in pending:
                work()
                self.deferred_executed += 1
            for job in self.jobs:
                if job.active:
                    job.step()
        finally:
            self._in_window = False

    def pending_work(self) -> int:
        return len(self._inbox)

    # ------------------------------------------------------------------
    # round-template participant protocol (see repro.sim.round_template)
    # ------------------------------------------------------------------
    def rt_state(self) -> dict[str, int]:
        return {
            "windows": self.windows_executed,
            "deferred": self.deferred_executed,
            "violations": self.spatial_violations,
        }

    def rt_check(self, delta: dict[str, int]) -> bool:
        return all(d >= 0 for d in delta.values())

    def rt_advance(self, delta: dict[str, int], k: int) -> None:
        self.windows_executed += delta["windows"] * k
        self.deferred_executed += delta["deferred"] * k
        self.spatial_violations += delta["violations"] * k

    def rt_fingerprint(self, boundary: int, round_len: int) -> tuple | None:
        """Deferred work queued for the next window carries payload
        identity bulk replay cannot reproduce: veto."""
        return None if self._inbox else ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Partition {self.name!r} das={self.das!r} jobs={len(self.jobs)}>"
