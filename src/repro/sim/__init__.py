"""Discrete-event simulation kernel (substrate S1).

Integer-nanosecond virtual time, a deterministic event queue, named RNG
streams, per-component drifting clocks, a structured trace log with
pluggable sinks, and an always-on metrics registry.  All other
subsystems of the DECOS reproduction are built on this package.
"""

from .clock import LocalClock
from .events import EventPriority, EventQueue, ScheduledEvent
from .flow import FlowStage, FlowTracer
from .kernel import PeriodicTask, Simulator
from .metrics import Counter, Histogram, Metrics
from .process import Process
from .random import RandomStreams
from .round_template import RoundTemplateEngine
from .runtime import AsyncioBridgedRuntime, AsyncPort, Runtime, SimulatedRuntime
from .time import (
    MS,
    NEVER,
    NS,
    SEC,
    US,
    ZERO,
    Duration,
    Instant,
    format_instant,
    ms,
    ns,
    sec,
    to_ms,
    to_seconds,
    to_us,
    us,
)
from .trace import (
    TRACE_MODES,
    CounterSink,
    DigestSink,
    FlightRecorderSink,
    MemorySink,
    StreamSink,
    TraceCategory,
    TraceLog,
    TraceRecord,
    TraceSink,
    make_trace,
)

__all__ = [
    "Simulator",
    "PeriodicTask",
    "Process",
    "EventPriority",
    "EventQueue",
    "ScheduledEvent",
    "RoundTemplateEngine",
    "Runtime",
    "SimulatedRuntime",
    "AsyncioBridgedRuntime",
    "AsyncPort",
    "LocalClock",
    "RandomStreams",
    "Counter",
    "Histogram",
    "Metrics",
    "TraceCategory",
    "TraceLog",
    "TraceRecord",
    "TraceSink",
    "MemorySink",
    "CounterSink",
    "DigestSink",
    "StreamSink",
    "FlightRecorderSink",
    "FlowStage",
    "FlowTracer",
    "TRACE_MODES",
    "make_trace",
    "Instant",
    "Duration",
    "NS",
    "US",
    "MS",
    "SEC",
    "NEVER",
    "ZERO",
    "ns",
    "us",
    "ms",
    "sec",
    "to_seconds",
    "to_us",
    "to_ms",
    "format_instant",
]
