"""Where the traced run puts its spans, and how spans become layer metrics.

Each entry patches the attribute a layer is called through, so the engines
run unchanged and every argument and return value passes straight through.
Entry points the benchmark calls itself (``Fleet.run``, ``CohortFleet.run``,
``repro.experiments.run``) get their span in the workload code instead.
"""

from __future__ import annotations

import numpy as np

from spans import Patches, percentile_with_rule

#: Every per-layer metric, in report order: (name, unit, better).  Layers a
#: workload never enters report 0 calls and 0 seconds.
PER_LAYER = (
    ("core.plan.calls", "count", "lower"),
    ("core.plan.self_s", "s", "lower"),
    ("core.skp.calls", "count", "lower"),
    ("core.skp.self_s", "s", "lower"),
    ("core.skp.nodes_mean", "count", "lower"),
    ("core.skp.nodes_p99", "count", "lower"),
    ("core.skp.truncated_frac", "fraction", "lower"),
    ("core.order.self_s", "s", "lower"),
    ("core.arbitrate.calls", "count", "lower"),
    ("core.arbitrate.self_s", "s", "lower"),
    ("core.problem.calls", "count", "lower"),
    ("core.problem.self_s", "s", "lower"),
    ("planning.plan_view.calls", "count", "lower"),
    ("planning.plan_view.self_s", "s", "lower"),
    ("planning.victim.calls", "count", "lower"),
    ("planning.victim_memo_hit_ratio", "fraction", "higher"),
    ("network.submit.calls", "count", "lower"),
    ("network.submit.self_s", "s", "lower"),
    ("network.utilization", "fraction", "higher"),
    ("events.count", "count", "lower"),
    ("events.dispatch_self_s", "s", "lower"),
    ("megafleet.fold_self_s", "s", "lower"),
    ("megafleet.plans_per_request", "count", "lower"),
    ("simulation.self_s", "s", "lower"),
    ("experiments.overhead_s", "s", "lower"),
    ("prediction.update.calls", "count", "lower"),
    ("prediction.update.self_s", "s", "lower"),
    ("prediction.predict.calls", "count", "lower"),
    ("prediction.predict.self_s", "s", "lower"),
    ("gateway.handle.self_s", "s", "lower"),
    ("gateway.report.self_s", "s", "lower"),
    ("gateway.sessions.self_s", "s", "lower"),
    ("gateway.tiers.self_s", "s", "lower"),
    ("gateway.outside_handle_p50_ms", "ms", "lower"),
    ("gateway.outside_handle_p99_ms", "ms", "lower"),
    ("gateway.server_busy_frac", "fraction", "lower"),
    ("gateway.decision_p50_ms.light", "ms", "lower"),
    ("gateway.decision_p99_ms.light", "ms", "lower"),
    ("gateway.decision_p50_ms.heavy", "ms", "lower"),
    ("gateway.decision_p99_ms.heavy", "ms", "lower"),
    ("gateway.slo_ok_frac.heavy", "fraction", "higher"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("loadgen.backlog_max", "count", "lower"),
    ("serve.prefetch_useful_ratio", "fraction", "higher"),
    ("serve.pending_wait_frac", "fraction", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def install_core(patches: Patches, predictor: str | None) -> None:
    """Spans on the planner, planning state, uplink, lean simulator, engine
    and (when ``predictor`` names one) the online predictor's class."""
    from repro.core import kp, planner, skp
    from repro.core.types import PrefetchProblem
    from repro.distsys.network import ServerUplink
    from repro.distsys.planning import ClientPlanState
    from repro.experiments import engine
    from repro.simulation import prefetch_cache

    recorder = patches.recorder
    nodes = recorder.values["core.skp.nodes"]
    truncated = recorder.values["core.skp.truncated"]

    def count_nodes(_index, _args, kwargs, result) -> None:
        nodes.append(result.nodes)
        budget = kwargs.get("node_budget")
        truncated.append(1.0 if budget is not None and result.nodes > budget else 0.0)

    wrap = patches.wrap
    wrap(planner.Prefetcher, "plan", "core.plan")
    wrap(planner.Prefetcher, "demand_victim", "core.victim")
    wrap(planner, "solve_skp", "core.skp", count_nodes)
    wrap(skp, "canonical_order", "core.order")
    wrap(kp, "canonical_order", "core.order")
    wrap(planner, "arbitrate_prefetch", "core.arbitrate")
    wrap(planner, "arbitrate_demand", "core.arbitrate")
    wrap(PrefetchProblem, "from_validated", "core.problem")
    wrap(PrefetchProblem, "subproblem", "core.problem")
    wrap(ClientPlanState, "plan_view", "planning.plan_view")
    wrap(ClientPlanState, "demand_victim", "planning.victim")
    wrap(ServerUplink, "submit", "network.submit")
    wrap(prefetch_cache, "run_prefetch_cache", "simulation.run")
    wrap(engine, "run_cell", "experiments.cell")
    if predictor is not None:
        from repro.experiments.registry import PREDICTORS

        cls = type(PREDICTORS.create(predictor, 2))
        wrap(cls, "update", "prediction.update")
        wrap(cls, "predict", "prediction.predict")


def install_gateway(patches: Patches) -> None:
    """Spans on the gateway's own layers (in the serving process)."""
    from repro.gateway.cache import GatewayCacheHierarchy
    from repro.gateway.service import GatewayService
    from repro.gateway.sessions import GatewaySession, SessionStore

    wrap = patches.wrap
    wrap(GatewayService, "report_access", "gateway.report")
    wrap(GatewaySession, "report", "gateway.report")
    wrap(SessionStore, "get_or_create", "gateway.sessions")
    wrap(GatewayCacheHierarchy, "observe_access", "gateway.tiers")
    wrap(GatewayCacheHierarchy, "annotate", "gateway.tiers")


def _stat(summary: dict, name: str, field: str) -> float:
    return float(summary.get(name, {}).get(field, 0.0))


def layer_metrics(summary: dict, values: dict, facts: dict) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from a span summary plus run facts.

    ``facts`` carries what the engines' own results count (requests,
    events, uplink utilisation, serve outcomes) and what the workload
    measured itself (tracing overhead, generator and gateway figures).
    """
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    for layer in ("core.plan", "core.skp", "core.arbitrate", "core.problem",
                  "planning.plan_view", "network.submit",
                  "prediction.update", "prediction.predict"):
        out[f"{layer}.calls"] = _stat(summary, layer, "calls")
        out[f"{layer}.self_s"] = _stat(summary, layer, "self_s")
    for layer in ("core.order", "gateway.handle", "gateway.report",
                  "gateway.sessions", "gateway.tiers"):
        out[f"{layer}.self_s"] = _stat(summary, layer, "self_s")
    # Prefetcher.demand_victim is the victim solve the memo saves.
    out["core.plan.self_s"] += _stat(summary, "core.victim", "self_s")
    nodes = values.get("core.skp.nodes", [])
    if nodes:
        out["core.skp.nodes_mean"] = float(np.mean(nodes))
        out["core.skp.nodes_p99"] = percentile_with_rule(nodes, 99)
        out["core.skp.truncated_frac"] = float(np.mean(values["core.skp.truncated"]))
    victims = _stat(summary, "planning.victim", "calls")
    out["planning.victim.calls"] = victims
    if victims:
        solves = _stat(summary, "core.victim", "calls")
        out["planning.victim_memo_hit_ratio"] = 1.0 - solves / victims
    out["events.dispatch_self_s"] = _stat(summary, "events.run", "self_s")
    out["megafleet.fold_self_s"] = _stat(summary, "megafleet.run", "self_s")
    out["simulation.self_s"] = _stat(summary, "simulation.run", "self_s")
    out["experiments.overhead_s"] = _stat(summary, "experiments.run", "self_s")
    for name in ("events.count", "network.utilization", "megafleet.plans_per_request",
                 "trace.overhead_frac"):
        out[name] = float(facts.get(name, 0.0))
    scheduled = facts.get("prefetches_scheduled", 0)
    if scheduled:
        out["serve.prefetch_useful_ratio"] = facts["prefetches_used"] / scheduled
    if facts.get("requests"):
        out["serve.pending_wait_frac"] = facts["waits"] / facts["requests"]
    for name, value in facts.items():
        if name.startswith(("gateway.", "loadgen.")):
            out[name] = float(value)
    return out

