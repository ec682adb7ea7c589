"""Pluggable execution runtimes for the simulation kernel.

One deterministic kernel, two notions of time:

==========================================  ================================
class                                       wall clock
==========================================  ================================
:class:`SimulatedRuntime` (default)         none: as fast as the host allows
:class:`AsyncioBridgedRuntime`              asyncio event loop, optionally
                                            paced (CLI ``--pace R``)
==========================================  ================================

See :mod:`repro.sim.runtime.base` for the interface contract.
"""

from __future__ import annotations

from .asyncio_bridge import AsyncioBridgedRuntime, AsyncPort
from .base import Runtime
from .simulated import SimulatedRuntime

__all__ = [
    "Runtime",
    "SimulatedRuntime",
    "AsyncioBridgedRuntime",
    "AsyncPort",
]
