"""Bound-vs-simulation cross-validation (``repro check bounds``).

The static flow bounds (:mod:`repro.check.flow_graph`) are only worth
gating on if they are *sound*: no observed behavior may exceed them.
This harness runs registry scenarios with flow tracing forced on and
compares every FlowTracer-observed quantity against its bound:

* per root message, the maximum observed origin-to-delivery latency
  (:meth:`FlowSet.end_to_end` semantics) vs. the maximum static
  ``e2e_bound`` over the message's flow paths, and
* per gateway, the maximum observed repository residence (parent's
  ``gw.stored`` to child's construction origin) vs. the gateway's
  static residence bound.

A measurement above its bound is a **violation** — the CI flow-bounds
job fails on any.  Alongside soundness the harness reports *tightness*
(bound / observed, 1.0 = exact): sound bounds are easy if vacuous, so
``BENCH_substrate.json``'s ``flow_bounds`` section records the minimum
tightness ratio, and a hard threshold floor (no violations, minimum
tightness >= 1.0) keeps the recorded bounds sound.

Flow tracing disables round-template fast-forward (the template engine
refuses bulk replay while ``sim.flows.enabled``), so every round runs
live and the observation set is complete, not a sampled subset.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any

from .flow_graph import FlowGraph

if TYPE_CHECKING:  # pragma: no cover
    from ..analysis.flows import FlowSet, Journey
    from ..runner.scenarios import ScenarioSpec

__all__ = ["validate_registry", "validate_scenario"]

#: Gateway Process names carry this prefix (``gateway.<name>``).  A
#: ``gw.stored`` hop's source IS the gateway's full name — the same
#: string :attr:`VirtualGateway.name` holds — so observed and static
#: residence maps share keys without translation.
_GATEWAY_SOURCE_PREFIX = "gateway."


def _tightness(bound: int | None, observed: int) -> float | None:
    """bound / observed; 1.0 when both are exactly zero (the bound is
    met with equality); None when nothing was observed or no finite
    bound exists (nothing to compare)."""
    if bound is None:
        return None
    if observed <= 0:
        return 1.0 if bound == 0 else None
    return bound / observed


def _flow_graph_of(sim: Any, horizon: int | None) -> FlowGraph:
    """Assemble one whole-cluster graph from a simulator's checkables."""
    from ..core_network.cluster import Cluster
    from ..gateway.gateway import VirtualGateway
    from ..systems.assembly import System
    from ..vn.service import VirtualNetworkBase

    vns: dict[str, Any] = {}
    gateways: list[Any] = []
    schedule = None
    frames: dict[str, int] = {}
    for obj in sim.checkables:
        if isinstance(obj, System):
            vns.update(obj.vns)
            gateways.extend(obj.gateways.values())
            schedule = obj.cluster.schedule
            frames.update((n, c.major_frame) for n, c in obj.components.items())
        elif isinstance(obj, VirtualNetworkBase):
            vns.setdefault(obj.das, obj)
        elif isinstance(obj, VirtualGateway):
            if obj not in gateways:
                gateways.append(obj)
        elif isinstance(obj, Cluster) and schedule is None:
            schedule = obj.schedule
    return FlowGraph(vns=vns, gateways=gateways, schedule=schedule,
                     major_frame_of=frames.get, horizon=horizon)


def _static_bounds(graph: FlowGraph) -> tuple[dict[str, int], dict[str, int | None]]:
    """(per-root-message e2e bound, per-gateway residence bound).

    The e2e map keeps the *maximum* finite bound over a message's
    delivery paths (the observed quantity is the latest delivery over
    all descendants, so the widest path bounds it); messages with any
    unbounded delivery path are omitted (nothing sound to compare).
    """
    e2e: dict[str, int] = {}
    unbounded: set[str] = set()
    for path in graph.paths():
        if path.terminal != "port":
            continue
        bound = path.e2e_bound()
        if bound is None:
            unbounded.add(path.root_message)
            continue
        cur = e2e.get(path.root_message)
        e2e[path.root_message] = bound if cur is None else max(cur, bound)
    for message in unbounded:
        e2e.pop(message, None)

    residence: dict[str, int | None] = {}
    for gw in graph.gateways:
        worst: int | None = 0
        for rule in gw.rules:
            bound = graph.residence_bound(gw, rule)
            if bound is None:
                worst = None
                break
            worst = max(worst, bound)
        residence[gw.name] = worst
    return e2e, residence


def _observed_e2e(flows: "FlowSet") -> dict[str, int]:
    """Max observed origin-to-latest-delivery per root message."""
    from ..sim.flow import FlowStage

    def latest_delivery(j: "Journey", seen: set[int]) -> int | None:
        if j.flow in seen:  # pragma: no cover - ids are acyclic
            return None
        seen.add(j.flow)
        latest: int | None = None
        for hop in j.hops:
            if hop.stage == FlowStage.PORT_RECV:
                latest = hop.time if latest is None else max(latest, hop.time)
        for cid in j.children:
            child = flows.journey(cid)
            if child is None:
                continue
            sub = latest_delivery(child, seen)
            if sub is not None:
                latest = sub if latest is None else max(latest, sub)
        return latest

    out: dict[str, int] = {}
    for j in flows.roots():
        latest = latest_delivery(j, set())
        if latest is None:
            continue
        latency = latest - j.origin_time
        cur = out.get(j.message)
        out[j.message] = latency if cur is None else max(cur, latency)
    return out


def _observed_residence(flows: "FlowSet") -> dict[str, int]:
    """Max observed gateway-repository residence per gateway name."""
    from ..sim.flow import FlowStage

    out: dict[str, int] = {}
    for j in flows.journeys():
        stored = j.first_hop(FlowStage.GATEWAY_STORED)
        if stored is None or not stored.source.startswith(_GATEWAY_SOURCE_PREFIX):
            continue
        name = stored.source
        for cid in j.children:
            child = flows.journey(cid)
            if child is None or child.origin_time < stored.time:
                continue
            residence = child.origin_time - stored.time
            cur = out.get(name)
            out[name] = residence if cur is None else max(cur, residence)
    return out


def validate_scenario(spec: "ScenarioSpec") -> dict:
    """Run one scenario with flow tracing on and compare observations
    against the static bounds.  Returns a JSON-ready result dict."""
    from ..analysis.flows import FlowSet
    from ..runner.scenarios import build_scenario

    run_spec = spec.with_param("flow_tracing", True)
    if run_spec.trace_mode != "full":
        # FlowSet reconstruction needs the in-memory trace.
        run_spec = replace(run_spec, trace_mode="full")
    sim = build_scenario(run_spec)
    graph = _flow_graph_of(sim, horizon=spec.horizon_ns)
    e2e_bounds, residence_bounds = _static_bounds(graph)

    sim.run_until(spec.horizon_ns)
    flows = FlowSet.from_trace(sim.trace)
    observed_e2e = _observed_e2e(flows)
    observed_res = _observed_residence(flows)

    violations: list[dict] = []
    e2e: dict[str, dict] = {}
    for message, observed in sorted(observed_e2e.items()):
        bound = e2e_bounds.get(message)
        entry = {"observed_ns": observed, "bound_ns": bound,
                 "tightness": _tightness(bound, observed)}
        e2e[message] = entry
        if bound is not None and observed > bound:
            violations.append({"kind": "end_to_end", "name": message,
                               "observed_ns": observed, "bound_ns": bound})

    residence: dict[str, dict] = {}
    for name, bound in sorted(residence_bounds.items()):
        observed = observed_res.get(name, 0)
        entry = {"observed_ns": observed, "bound_ns": bound,
                 "tightness": _tightness(bound, observed)}
        residence[name] = entry
        if bound is not None and observed > bound:
            violations.append({"kind": "residence", "name": name,
                               "observed_ns": observed, "bound_ns": bound})

    ratios = [entry["tightness"]
              for entry in list(e2e.values()) + list(residence.values())
              if entry["tightness"] is not None]
    return {
        "scenario": spec.name,
        "flows": len(flows),
        "end_to_end": e2e,
        "residence": residence,
        "violations": violations,
        "min_tightness": min(ratios) if ratios else None,
    }


def validate_registry(tokens: list[str] | None = None) -> dict:
    """Cross-validate every (filtered) registry scenario.

    Returns a JSON-ready summary: per-scenario results, the global
    violation count (must be zero for the bounds to be sound), and the
    minimum tightness ratio over all compared quantities.
    """
    from ..runner.scenarios import default_registry, filter_scenarios

    results = [validate_scenario(spec)
               for spec in filter_scenarios(default_registry(), tokens)]
    violations = sum(len(r["violations"]) for r in results)
    ratios = [r["min_tightness"] for r in results
              if r["min_tightness"] is not None]
    compared = sum(
        1
        for r in results
        for section in ("end_to_end", "residence")
        for entry in r[section].values()
        if entry["tightness"] is not None
    )
    return {
        "scenarios": {r["scenario"]: r for r in results},
        "scenario_count": len(results),
        "compared": compared,
        "violations": violations,
        "min_tightness": min(ratios) if ratios else None,
    }
