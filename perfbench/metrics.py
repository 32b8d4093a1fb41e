"""Turning a window (and, for a traced run, its spans) into metrics.

Wall-clock figures (``*_wall_*``, ``orders_per_s``, ``*.us_*``) and
simulated-time figures (``*_sim_*``, ``ems.*.sim_s_mean``) are computed
from separate measurements and never combined.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from common import Window, beyond, quantile
from repro.core.connection import ConnectionState

#: Every metric the benchmark can print, with its unit.
UNITS: Dict[str, str] = {
    # end to end
    "orders_per_s": "orders/s",
    "decision_wall_ms_p50": "ms",
    "decision_wall_ms_p90": "ms",
    "activate_sim_s_p50": "sim_s",
    "activate_sim_s_p99": "sim_s",
    "order_fail_ratio": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    # per layer
    "topo.graph.ksp.calls": "count",
    "topo.graph.ksp.us_p50": "us",
    "topo.graph.ksp.us_p99": "us",
    "topo.graph.sp.calls": "count",
    "topo.graph.self_share": "fraction",
    "core.routecache.hits": "count",
    "core.routecache.misses": "count",
    "core.routecache.hit_ratio": "fraction",
    "core.rwa.plan_batch.calls": "count",
    "core.rwa.plan_batch.us_p50": "us",
    "core.rwa.plan_batch.us_p99": "us",
    "core.rwa.self_share": "fraction",
    "core.rwa.contended": "count",
    "pipeline.rounds": "count",
    "pipeline.round_us_p50": "us",
    "pipeline.round_us_p99": "us",
    "pipeline.defers": "count",
    "pipeline.queue_depth_max": "count",
    "frontend.submit.calls": "count",
    "frontend.submit.us_p50": "us",
    "frontend.submit.us_p99": "us",
    "frontend.shed": "count",
    "frontend.throttled": "count",
    "frontend.queue_depth_max": "count",
    "core.provisioning.claim.us_p50": "us",
    "core.provisioning.release.us_p50": "us",
    "core.provisioning.self_share": "fraction",
    "ems.commands": "count",
    "ems.order.sim_s_mean": "sim_s",
    "ems.fxc.sim_s_mean": "sim_s",
    "ems.tune.sim_s_mean": "sim_s",
    "ems.roadm.sim_s_mean": "sim_s",
    "ems.equalize.sim_s_mean": "sim_s",
    "ems.verify.sim_s_mean": "sim_s",
    "core.grooming.claim_circuit.calls": "count",
    "core.grooming.claim_circuit.us_p50": "us",
    "core.grooming.line_fill": "fraction",
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "core.controller.teardown.us_p50": "us",
    "core.controller.restorations": "count",
    "core.controller.bridge_and_roll.calls": "count",
    "core.controller.restore_sim_s_p99": "sim_s",
    "core.controller.drop_ratio": "fraction",
    "faults.audit.calls": "count",
    "faults.audit.ms_p50": "ms",
    "faults.audit.self_share": "fraction",
    "optimize.snapshot.ms": "ms",
    "optimize.plan.ms": "ms",
    "optimize.execute.ms": "ms",
    "optimize.moves": "count",
    "optimize.moves_completed_ratio": "fraction",
    "optimize.reopt_wall_s": "s",
    "optimize.reclaim_ratio": "fraction",
    "optimize.audit_trips": "count",
    "slo.samples": "count",
    "slo.sample.us_p50": "us",
    "slo.actions": "count",
    "slo.sla_violation_min": "sim_min",
    "shard.place_orders.us_p50": "us",
    "shard.place_orders.us_p99": "us",
    "shard.sync_workers.us_p50": "us",
    "shard.rpc.calls": "count",
    "shard.rpc.us_p50": "us",
    "shard.rpc.us_p99": "us",
    "shard.cross_region_ratio": "fraction",
    "shard.unwinds": "count",
    "obs.histogram_samples": "count",
    "obs.spans_retained": "count",
    "layers.unattributed_share": "fraction",
    "trace.overhead_ratio": "ratio",
}

#: EMS stage -> the latency-model step whose samples it averages.
EMS_STAGES = {
    "order": "controller.order",
    "fxc": "fxc.connect",
    "tune": "ot.tune",
    "roadm": "roadm.add_drop",
    "equalize": "line.equalize",
    "verify": "verify.end_to_end",
}


def end_to_end(window: Window, setups: List[float],
               scale: float) -> Dict[str, float]:
    """The end-to-end metrics of one untraced window (RSS added later).

    Wall-clock figures are in reference seconds: host seconds times
    ``scale`` (see ``common.HostSpeed``).
    """
    decisions = window.decision_wall_s
    activations = window.activate_sim_s
    return {
        "orders_per_s": window.decided / (window.wall_s * scale),
        "decision_wall_ms_p50": 1e3 * scale * quantile(decisions, 0.50),
        "decision_wall_ms_p90": 1e3 * scale * quantile(decisions, 0.90),
        "activate_sim_s_p50": quantile(activations, 0.50),
        "activate_sim_s_p99": quantile(activations, 0.99),
        "order_fail_ratio": window.failed_orders / window.submitted,
        "setup_s": scale * statistics.median(setups),
    }


def describe_window(window: Window) -> Dict[str, object]:
    """Sample counts behind the percentiles, and the outcome mix."""
    return {
        "size": window.size,
        "cut_short": window.cut_short,
        "wall_s": round(window.wall_s, 3),
        "calibration_s": round(window.calibration_s, 3),
        "sim_s": round(window.sim_s, 1),
        "submitted": window.submitted,
        "decided_in_window": window.decided,
        "resolved": window.resolved,
        "decision_samples": len(window.decision_wall_s),
        "decision_beyond_p90": (
            beyond(window.decision_wall_s, 0.90) if window.decision_wall_s else 0
        ),
        "activation_samples": len(window.activate_sim_s),
        "activation_beyond_p99": (
            beyond(window.activate_sim_s, 0.99) if window.activate_sim_s else 0
        ),
        "outcomes": dict(sorted(window.outcomes.items())),
        "sim_events": window.events,
    }


class StateProbe:
    """Counters read from the program's own state around one window."""

    def __init__(self, workload) -> None:
        self.workload = workload
        handles = workload.handles()
        self.controllers = handles["controllers"]
        self.counters_before = self._counters()
        self.cache_before = handles["route_cache"]()
        self.live_before = {
            conn_id
            for controller in self.controllers
            for conn_id, conn in controller.connections.items()
            if conn.state is ConnectionState.UP
        }
        slo = getattr(workload, "slo", None)
        self.violation_before = slo.monitor.violation_minutes if slo else 0.0
        self.actions_before = len(slo.engine.records) if slo else 0
        self.placed_before = getattr(workload, "placed", 0)
        self.cross_before = getattr(workload, "cross", 0)

    def _counters(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for controller in self.controllers:
            for name, value in controller.metrics.counters().items():
                totals[name] = totals.get(name, 0.0) + value
        return totals

    def delta(self, name: str) -> float:
        """Change of one counter since the probe was taken."""
        return self._counters().get(name, 0.0) - self.counters_before.get(name, 0.0)

    def delta_prefix(self, prefix: str) -> float:
        """Change of every counter under ``prefix.`` since the probe."""
        return sum(
            value - self.counters_before.get(name, 0.0)
            for name, value in self._counters().items()
            if name.startswith(prefix + ".")
        )

    def ops_figures(self, window: Window) -> Dict[str, float]:
        """Restoration, drop, re-optimization and SLO figures (ops-churn64)."""
        workload = self.workload
        if not hasattr(workload, "cycles"):
            return {}
        cycles = [c for c in workload.cycles if c["window"] is window]
        restores = [value for w, value in workload.restore_sim_s if w is window]
        # Live at the start or brought up in the window, not released by
        # their customer, and not carrying traffic after the drain.
        carried = self.live_before | {
            conn_id for conn_id, w in workload.came_up.items() if w is window
        }
        lost = sum(
            1 for conn_id in carried - workload.torn
            if workload.controller.connection(conn_id).state
            is not ConnectionState.UP
        )
        moves = sum(c["moves"] for c in cycles)
        return {
            "core.controller.restore_sim_s_p99": (
                quantile(restores, 0.99) if restores else 0.0
            ),
            "core.controller.restore_samples": len(restores),
            "core.controller.drop_ratio": lost / max(1, len(self.live_before)),
            "core.controller.live_at_start": len(self.live_before),
            "optimize.cycles": len(cycles),
            "optimize.reopt_wall_s": (
                statistics.median(c["wall_s"] for c in cycles) if cycles else 0.0
            ),
            "optimize.reclaim_ratio": (
                statistics.median(c["reclaim"] for c in cycles) if cycles else 0.0
            ),
            "optimize.snapshot.ms": (
                1e3 * statistics.median(c["snapshot_s"] for c in cycles) if cycles else 0.0
            ),
            "optimize.plan.ms": (
                1e3 * statistics.median(c["plan_s"] for c in cycles) if cycles else 0.0
            ),
            "optimize.execute.ms": (
                1e3 * statistics.median(c["execute_s"] for c in cycles) if cycles else 0.0
            ),
            "optimize.moves": moves,
            "optimize.moves_completed_ratio": (
                sum(c["completed"] for c in cycles) / moves if moves else 0.0
            ),
            "optimize.audit_trips": sum(c["audit_trips"] for c in cycles),
            "optimize.rollbacks": sum(1 for c in cycles if c["rollback"]),
            "slo.sla_violation_min": (
                workload.slo.monitor.violation_minutes - self.violation_before
            ),
        }


def per_layer(workload, window: Window, tracer, probe: StateProbe,
              untraced: Window, ops: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric from one traced window.

    A layer the workload does not exercise reports zero calls and zero
    times.  The operations figures (restoration, drops, re-optimization,
    SLO minutes) come from the untraced window of the same run, so span
    recording does not inflate their wall times.
    """
    handles = workload.handles()
    calls = tracer.calls
    p = tracer.percentile_us
    hits, misses = (
        after - before
        for after, before in zip(handles["route_cache"](), probe.cache_before)
    )
    traced_rate = window.decided / window.wall_s
    rpc_calls = calls("shard.rpc") + tracer.tally.get("shard.rpc_many", 0)
    rpc_durations = tracer.durations_us("shard.rpc") + tracer.durations_us(
        "shard.rpc_many"
    )
    registries = [controller.metrics for controller in probe.controllers]
    ems_means = {}
    for stage, step in EMS_STAGES.items():
        samples = [
            value
            for registry in registries
            for value in registry.samples(f"step.{step}")
        ]
        ems_means[f"ems.{stage}.sim_s_mean"] = (
            statistics.fmean(samples) if samples else 0.0
        )
    grooming = [controller.grooming for controller in probe.controllers]
    placed = getattr(workload, "placed", 0) - probe.placed_before
    cross = getattr(workload, "cross", 0) - probe.cross_before
    slo = getattr(workload, "slo", None)
    figures = {
        "topo.graph.ksp.calls": calls("topo.graph.ksp"),
        "topo.graph.ksp.us_p50": p("topo.graph.ksp", 0.50),
        "topo.graph.ksp.us_p99": p("topo.graph.ksp", 0.99),
        "topo.graph.sp.calls": calls("topo.graph.sp"),
        "topo.graph.self_share": tracer.share("topo.graph"),
        "core.routecache.hits": hits,
        "core.routecache.misses": misses,
        "core.routecache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "core.rwa.plan_batch.calls": calls("core.rwa.plan_batch"),
        "core.rwa.plan_batch.us_p50": p("core.rwa.plan_batch", 0.50),
        "core.rwa.plan_batch.us_p99": p("core.rwa.plan_batch", 0.99),
        "core.rwa.self_share": tracer.share("core.rwa"),
        "core.rwa.contended": tracer.tally.get("core.rwa.contended", 0),
        "pipeline.rounds": calls("pipeline.round"),
        "pipeline.round_us_p50": p("pipeline.round", 0.50),
        "pipeline.round_us_p99": p("pipeline.round", 0.99),
        "pipeline.defers": probe.delta("pipeline.deferred"),
        "pipeline.queue_depth_max": tracer.tally.get("pipeline.queue_depth_max", 0),
        "frontend.submit.calls": calls("frontend.submit"),
        "frontend.submit.us_p50": p("frontend.submit", 0.50),
        "frontend.submit.us_p99": p("frontend.submit", 0.99),
        "frontend.shed": probe.delta("frontend.shed"),
        "frontend.throttled": probe.delta("frontend.throttled"),
        "frontend.queue_depth_max": tracer.tally.get("frontend.queue_depth_max", 0),
        "core.provisioning.claim.us_p50": p("core.provisioning.claim", 0.50),
        "core.provisioning.release.us_p50": p("core.provisioning.release", 0.50),
        "core.provisioning.self_share": tracer.share("core.provisioning"),
        "ems.commands": probe.delta_prefix("ems"),
        **ems_means,
        "core.grooming.claim_circuit.calls": calls("core.grooming.claim_circuit"),
        "core.grooming.claim_circuit.us_p50": p("core.grooming.claim_circuit", 0.50),
        "core.grooming.line_fill": statistics.fmean(
            engine.mean_line_fill() for engine in grooming
        ),
        "sim.events": window.events,
        "sim.ns_per_event": 1e9 * window.wall_s / max(1, window.events),
        "core.controller.teardown.us_p50": p("core.controller.teardown", 0.50),
        "core.controller.restorations": probe.delta("restoration.success"),
        "core.controller.bridge_and_roll.calls": calls("core.controller.bridge_and_roll"),
        "faults.audit.calls": calls("faults.audit"),
        "faults.audit.ms_p50": p("faults.audit", 0.50) / 1e3,
        "faults.audit.self_share": tracer.share("faults.audit"),
        "slo.samples": calls("slo.sample"),
        "slo.sample.us_p50": p("slo.sample", 0.50),
        "slo.actions": (len(slo.engine.records) - probe.actions_before) if slo else 0,
        "shard.place_orders.us_p50": p("shard.place_orders", 0.50),
        "shard.place_orders.us_p99": p("shard.place_orders", 0.99),
        "shard.sync_workers.us_p50": p("shard.sync_workers", 0.50),
        "shard.rpc.calls": rpc_calls,
        "shard.rpc.us_p50": quantile(rpc_durations, 0.50) if rpc_durations else 0.0,
        "shard.rpc.us_p99": quantile(rpc_durations, 0.99) if rpc_durations else 0.0,
        "shard.cross_region_ratio": cross / placed if placed else 0.0,
        "shard.unwinds": calls("shard.unwind"),
        "obs.histogram_samples": sum(
            len(registry.samples(name))
            for registry in registries
            for name in registry.histograms()
        ),
        "obs.spans_retained": sum(len(tracer_) for tracer_ in handles["tracers"]),
        "layers.unattributed_share": tracer.unattributed_share(),
        "trace.overhead_ratio": untraced.decided / untraced.wall_s / traced_rate,
    }
    for name in (
        "core.controller.restore_sim_s_p99", "core.controller.drop_ratio",
        "optimize.snapshot.ms", "optimize.plan.ms", "optimize.execute.ms",
        "optimize.moves", "optimize.moves_completed_ratio",
        "optimize.reopt_wall_s", "optimize.reclaim_ratio",
        "optimize.audit_trips", "slo.sla_violation_min",
    ):
        figures[name] = ops.get(name, 0.0)
    return figures
