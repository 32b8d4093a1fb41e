"""The benchmark workloads.

Each workload builds its network through the program's public entry
points, fills it during set-up, and then, inside the timed window, hands
the program only freshly generated orders.  Every input (arrival times,
tenants, endpoint pairs, rates, holding times, cut and degradation
schedules) comes from this file's own seeded generators; topologies use
a fixed topology seed so that ``--seed`` varies the traffic, not the
network being measured.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from common import Window, Workload, rng_for

from repro import api
from repro.core.admission import CustomerProfile
from repro.core.connection import ConnectionState
from repro.facade import GriphonNetwork, build_griphon_testbed
from repro.faults.audit import audit_network
from repro.faults.plan import DegradationPlan, DegradationSpec
from repro.optical.osnr import OsnrModel
from repro.pipeline import TicketState
from repro.shard.network import ShardedNetwork
from repro.sim.randomness import RandomStreams
from repro.slo.monitor import default_policies
from repro.topo.builders import attach_premises, install_pop_equipment
from repro.topo.generator import generate_backbone
from repro.topo.hierarchy import build_hierarchy
from repro.units import GBPS

#: Outcome classes that count against ``order_fail_ratio``.
FAILED_OUTCOMES = frozenset(
    {"Rejected", "Blocked", "Deferred", "QueueFull", "SetupFailed",
     "ServiceDegraded"}
)


def describe_graph(graph, core_kind: str = "roadm") -> Dict[str, object]:
    """Nodes, links, and average degree over core (PoP-to-PoP) links."""
    core = {node.name for node in graph.nodes if node.kind == core_kind}
    core_links = sum(
        1 for link in graph.links if link.a in core and link.b in core
    )
    return {
        "nodes": len(graph.nodes),
        "links": len(graph.links),
        "pops": len(core),
        "core_links": core_links,
        "avg_degree": round(2.0 * core_links / len(core), 3),
    }


def audit_violations(controller, label: str) -> List[str]:
    report = audit_network(controller)
    return [f"{label}: {violation}" for violation in report.violations]


#: Connection states with a workflow in flight.
TRANSITIONAL = frozenset({
    ConnectionState.REQUESTED, ConnectionState.SETTING_UP,
    ConnectionState.RESTORING, ConnectionState.TEARING_DOWN,
})


def settle(sim, controllers, step_s: float = 30.0, limit_s: float = 7200.0) -> bool:
    """Run the simulator until no connection has a workflow in flight.

    The final audit runs at such a quiescent point: the auditor reports a
    connection whose teardown has released its lightpath but not yet its
    NTE interfaces as dangling, so an audit mid-teardown is not a verdict
    on leaks.  Returns False when ``limit_s`` passes first.
    """
    end = sim.now + limit_s
    while sim.now < end:
        sim.run(until=sim.now + step_s)
        if not any(
            connection.state in TRANSITIONAL
            for controller in controllers
            for connection in controller.connections.values()
        ):
            return True
    return False


def controller_handles(net: GriphonNetwork) -> Dict[str, object]:
    """What the metrics read from a single-controller network."""
    def route_cache() -> Tuple[int, int]:
        stats = net.controller.planning.route_cache_stats()
        return stats["hits"], stats["misses"]

    return {
        "controllers": [net.controller],
        "route_cache": route_cache,
        "tracers": [net.tracer],
    }


# -- edge-testbed --------------------------------------------------------------


class EdgeTestbed(Workload):
    """The Fig. 4 testbed behind the frontend, hit by bursty Zipf traffic.

    Graph search is almost idle here (seven nodes, route-cache hits);
    the order path is kernel, frontend gates, pipeline rounds, EMS
    workflows and OTN grooming, and the long run shows telemetry growth
    in ``peak_rss_mb``.
    """

    name = "edge-testbed"
    ORDERS_PER_SECOND = 5000.0
    TENANTS = 1_000_000
    ZIPF_S = 1.1
    #: Mean arrivals per simulated second.  Each ``BURST_S`` window's
    #: arrivals land on one instant, so bursts overrun the shed threshold.
    ARRIVALS_PER_S = 20.0
    #: Order mix: (rate in Gbps, weight).  1G rides OTN/ODU0 circuits.
    RATE_MIX = ((1, 0.6), (10, 0.3), (40, 0.1))
    BURST_S = 3.0
    HOLD_MEAN_S = 30.0
    #: Equipment above the stock testbed complement, so that a share of
    #: orders activates and exercises provisioning and grooming.
    NTE_INTERFACES = 32
    OTS_10G = 24
    OTS_40G = 6
    WARMUP_S = 30.0
    PREMISES = ("PREMISES-A", "PREMISES-B", "PREMISES-C")

    def __init__(self, seed: int, zipf: Optional[array] = None) -> None:
        super().__init__(seed)
        self.zipf = zipf if zipf is not None else zipf_table(
            self.TENANTS, self.ZIPF_S
        )
        self.arrivals = rng_for(seed, "edge.arrivals")
        self.draws = rng_for(seed, "edge.orders")
        self.holds = rng_for(seed, "edge.holds")
        self.next_burst = 0.0
        self.registered: set = set()
        self.handed: Dict[str, tuple] = {}
        self.submitted_total = 0

    def build(self) -> None:
        self.net = build_griphon_testbed(
            seed=self.seed, nte_interfaces=self.NTE_INTERFACES,
            ots_per_node_10g=self.OTS_10G, ots_per_node_40g=self.OTS_40G,
        )
        self.frontend = self.net.enable_frontend(
            queue_capacity=64, shed_high=48, shed_low=16,
            bucket_rate=1.0, bucket_burst=8.0,
            capacity=32, round_size=8, round_interval=0.01,
        )
        self.frontend.add_listener(self._on_event)
        self.topology = describe_graph(self.net.inventory.graph)

    def warm_up(self) -> None:
        self._advance_to(self.WARMUP_S)

    def _advance_to(self, until: float) -> int:
        events = 0
        while self.next_burst < until:
            self._schedule_burst(self.next_burst)
            self.next_burst += self.BURST_S
            events += self.net.run(until=self.next_burst)
        return events

    def step(self) -> int:
        return self._advance_to(self.next_burst + self.BURST_S)

    def resume(self) -> None:
        while self.next_burst < self.net.sim.now:
            self.next_burst += self.BURST_S

    def _schedule_burst(self, at: float) -> None:
        count = poisson(self.arrivals, self.ARRIVALS_PER_S * self.BURST_S)
        entries = []
        for _ in range(count):
            tenant = f"tenant-{zipf_rank(self.zipf, self.draws)}"
            a, b = self.draws.sample(self.PREMISES, 2)
            rate = weighted(self.draws, self.RATE_MIX)
            hold = self.holds.expovariate(1.0 / self.HOLD_MEAN_S)
            entries.append((at, self._submit, (tenant, a, b, rate, hold)))
        self.net.sim.schedule_many(entries)

    def _submit(self, tenant, a, b, rate_gbps, hold) -> None:
        if tenant not in self.registered:
            self.net.controller.register_customer(
                CustomerProfile(
                    tenant, max_connections=4,
                    max_total_rate_bps=80 * GBPS, premises=[],
                )
            )
            self.registered.add(tenant)
        window = self.window if self.window is not None and self.window.open else None
        self.submitted_total += 1
        if window is not None:
            window.submitted += 1
        handed = self.speed.clock()
        ticket = self.frontend.submit(tenant, a, b, rate_gbps * GBPS)
        if ticket.future.done:
            if window is not None:
                window.decide(handed)
                self._conclude(window, ticket.outcome)
            return
        self.handed[ticket.request_id] = (handed, self.net.sim.now, hold, window)
        if window is not None:
            ticket.future.add_done_callback(
                lambda outcome, _w=window: self._conclude(_w, outcome)
            )

    def _on_event(self, ticket, event: str) -> None:
        entry = self.handed.get(ticket.request_id)
        if entry is None:
            return
        handed, submitted_at, hold, window = entry
        if event == "settled":
            if window is not None:
                window.decide(handed)
            if ticket.order_ticket.state is not TicketState.ACCEPTED:
                del self.handed[ticket.request_id]
        elif event == "active":
            if window is not None:
                window.activate_sim_s.append(self.net.sim.now - submitted_at)
            self.net.sim.schedule(hold, self._teardown, ticket)
            del self.handed[ticket.request_id]
        elif event in ("failed", "degraded"):
            del self.handed[ticket.request_id]

    @staticmethod
    def _conclude(window: Window, outcome) -> None:
        name = type(outcome).__name__
        if isinstance(outcome, api.Rejected):
            name = f"Rejected.{outcome.code}"
        window.outcome(name, name.split(".")[0] in FAILED_OUTCOMES)

    def _teardown(self, ticket) -> None:
        if self.draining:
            self.net.sim.schedule(60.0, self._teardown, ticket)
            return
        order = ticket.order_ticket
        connection = self.net.controller.connection(order.connection_id)
        if connection.state is ConnectionState.UP:
            self.net.pipeline.teardown(order)

    def drain(self) -> None:
        # No new arrivals or teardown requests: let queued orders settle
        # and every workflow finish.
        self.draining = True
        self.quiescent = settle(self.net.sim, [self.net.controller])

    def check(self) -> List[str]:
        problems = audit_violations(self.net.controller, "audit")
        counters = self.net.metrics.counters()
        submitted = counters.get("frontend.submitted", 0.0)
        admitted = counters.get("frontend.admitted", 0.0)
        shed = counters.get("frontend.shed", 0.0)
        throttled = counters.get("frontend.throttled", 0.0)
        if submitted != admitted + shed + throttled:
            problems.append(
                f"conservation: submitted {submitted} != admitted "
                f"{admitted} + shed {shed} + throttled {throttled}"
            )
        if submitted != self.submitted_total:
            problems.append(
                f"frontend counted {submitted} submissions, "
                f"benchmark handed {self.submitted_total}"
            )
        window = self.window
        if window is not None and window.resolved != window.submitted:
            problems.append(
                f"{window.submitted - window.resolved} window orders never "
                "reached a terminal outcome"
            )
        return problems

    def handles(self) -> Dict[str, object]:
        return controller_handles(self.net)


def zipf_table(size: int, exponent: float) -> array:
    """Cumulative Zipf weights for ranks ``0..size-1``."""
    return array("d", accumulate((rank + 1) ** -exponent for rank in range(size)))


def zipf_rank(table: array, rng) -> int:
    return min(bisect(table, rng.random() * table[-1]), len(table) - 1)


def poisson(rng, mean: float) -> int:
    """Arrivals in one unit of time of a Poisson process of rate ``mean``."""
    count, elapsed = 0, rng.expovariate(mean)
    while elapsed < 1.0:
        count += 1
        elapsed += rng.expovariate(mean)
    return count


def weighted(rng, choices) -> float:
    pick = rng.random() * sum(weight for _, weight in choices)
    for value, weight in choices:
        pick -= weight
        if pick < 0:
            return value
    return choices[-1][0]


# -- backbone512 ---------------------------------------------------------------


class Backbone512(Workload):
    """One controller over a generated 512-PoP mesh at degree 3-4.

    Uniformly random inter-DC 10G orders arrive open-loop (Poisson) at
    the order pipeline and hold for exponential times.  Nearly all the
    work is route search (``topo.graph``) and RWA (``core.rwa``).
    """

    name = "backbone512"
    ORDERS_PER_SECOND = 32.0
    TOPOLOGY_SEED = 512
    POPS = 512
    #: Waxman shape chosen here (not in the library) to hold the mean
    #: PoP degree near 3.2; the plane only sets link lengths.
    ALPHA, BETA, PLANE_KM = 0.05, 0.2, 2000.0
    TRANSPONDERS_10G = 2
    REGENS_10G = 8
    #: Offered load at about twice what the network carries: about 45%
    #: of orders are refused (see LEDGER.md, sizing choices).
    ARRIVALS_PER_S = 2.0
    HOLD_MEAN_S = 150.0
    #: Mean orders handed over by the warm-up: about the live count the
    #: arrival process sustains (150-160 measured at 1 and 2 orders/s).
    FILL_ORDERS = 150.0
    #: Inputs are handed over in slices of this many simulated seconds.
    SLICE_S = 5.0
    #: Simulated seconds the warm-up's fill gets to activate.
    SETTLE_S = 100.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.arrivals = rng_for(seed, "backbone.arrivals")
        self.pairs = rng_for(seed, "backbone.pairs")
        self.holds = rng_for(seed, "backbone.holds")
        self.next_arrival = 0.0
        self.handed: Dict[str, tuple] = {}

    def build(self) -> None:
        graph = generate_backbone(
            RandomStreams(self.TOPOLOGY_SEED), node_count=self.POPS,
            plane_km=self.PLANE_KM, alpha=self.ALPHA, beta=self.BETA,
        )
        pops = [node.name for node in graph.nodes]
        self.premises = attach_premises(graph, pops)
        self.net = GriphonNetwork(graph, seed=self.seed)
        install_pop_equipment(
            self.net.inventory, pops, self.premises,
            transponders_10g=self.TRANSPONDERS_10G, regens_10g=self.REGENS_10G,
        )
        self.net.finish_build()
        self.pipeline = self.net.enable_pipeline()
        self.pipeline.add_listener(self._on_event)
        self.service = self.net.service_for(
            "dc-operator", max_connections=10**6,
            max_total_rate_gbps=10.0**9,
        )
        self.topology = describe_graph(graph)

    def warm_up(self) -> None:
        # Start near the stationary state: about as many live orders as
        # the arrival process sustains, with exponential residual holds,
        # handed over during the first slice and left to activate before
        # arrivals start, so the window does not open on a backlog of
        # set-ups.
        count = poisson(rng_for(self.seed, "backbone.warm"), self.FILL_ORDERS)
        for index in range(count):
            at = self.SLICE_S * index / max(1, count)
            self._schedule_order(at)
        self.next_arrival = self.SETTLE_S
        self.net.run(until=self.SETTLE_S)
        self.step()

    def resume(self) -> None:
        if self.next_arrival < self.net.sim.now:
            self.next_arrival = self.net.sim.now + self.arrivals.expovariate(
                self.ARRIVALS_PER_S
            )

    def step(self) -> int:
        end = self.net.sim.now + self.SLICE_S
        while self.next_arrival < end:
            self._schedule_order(self.next_arrival)
            self.next_arrival += self.arrivals.expovariate(self.ARRIVALS_PER_S)
        return self.net.run(until=end)

    def _schedule_order(self, at: float) -> None:
        a, b = self.pairs.sample(self.premises, 2)
        hold = self.holds.expovariate(1.0 / self.HOLD_MEAN_S)
        self.net.sim.schedule_at(at, self._submit, a, b, hold)

    def _submit(self, a: str, b: str, hold: float) -> None:
        window = self.window if self.window is not None and self.window.open else None
        if window is not None:
            window.submitted += 1
        handed = self.speed.clock()
        ticket = self.service.submit_connection(a, b, 10)
        self.handed[ticket.order_id] = (handed, self.net.sim.now, hold, window)
        if ticket.settled:
            self._on_event(ticket, "settled")

    def _on_event(self, ticket, event: str) -> None:
        entry = self.handed.get(ticket.order_id)
        if entry is None:
            return
        handed, submitted_at, hold, window = entry
        if event == "settled":
            if window is not None:
                window.decide(handed)
            if ticket.state is not TicketState.ACCEPTED:
                self._finish(ticket, window, ticket.state.name)
        elif event == "active":
            if window is not None:
                window.activate_sim_s.append(self.net.sim.now - submitted_at)
            self.net.sim.schedule(hold, self._teardown, ticket)
            self._finish(ticket, window, "Active")
        elif event in ("failed", "degraded"):
            self._finish(ticket, window, event)

    def _finish(self, ticket, window: Optional[Window], name: str) -> None:
        del self.handed[ticket.order_id]
        if window is not None:
            window.outcome(name, name != "Active")

    def _teardown(self, ticket) -> None:
        if self.draining:
            self.net.sim.schedule(60.0, self._teardown, ticket)
            return
        connection = self.net.controller.connection(ticket.connection_id)
        if connection.state is ConnectionState.UP:
            self.pipeline.teardown(ticket)

    def drain(self) -> None:
        self.draining = True
        self.quiescent = settle(self.net.sim, [self.net.controller])

    def handles(self) -> Dict[str, object]:
        return controller_handles(self.net)

    def check(self) -> List[str]:
        problems = audit_violations(self.net.controller, "audit")
        window = self.window
        if window is not None and window.resolved != window.submitted:
            problems.append(
                f"{window.submitted - window.resolved} window orders never "
                "reached a terminal outcome"
            )
        return problems


# -- ops-churn64 ---------------------------------------------------------------


class OpsChurn64(Workload):
    """A 64-PoP mesh under churn, fiber cuts, gray failures and re-optimization.

    Orders take the serial controller path and are torn down after a
    holding time; links are cut and repaired on a schedule with
    auto-restore on; a gray-degradation plan runs under the default SLO
    policies; and every ``REOPT_EVERY_S`` the arrivals pause while one
    ``Reoptimizer`` cycle runs with an audit after each move.  This is
    the write side of the same layers backbone512 reads: release,
    restoration, bridge-and-roll, migration and audit.

    It is not listed in ``BENCHMARK.json``: restoration after a cut can
    lose a connection and fail the correctness gate (LEDGER.md, known
    defect 1).  ``ops-reopt64`` is the same workload without cuts.
    """

    name = "ops-churn64"
    ORDERS_PER_SECOND = 220.0
    TOPOLOGY_SEED = 64
    POPS = 64
    ALPHA, BETA, PLANE_KM = 0.15, 0.3, 2000.0
    TRANSPONDERS_10G = 8
    ARRIVALS_PER_S = 0.5
    HOLD_MEAN_S = 300.0
    CUT_EVERY_S = 600.0
    REPAIR_AFTER_S = 1200.0
    REOPT_EVERY_S = 1800.0
    DEGRADE_EVERY_S = 1200.0
    DEGRADE_FOR_S = 2400.0
    #: Simulated time the degradation plan and SLO monitor cover; longer
    #: than any window on current hosts, and the plan is an input that
    #: is generated whole at build time.
    HORIZON_S = 200_000.0
    SLICE_S = 60.0
    WARMUP_S = 900.0
    WATCHED_EVENTS = frozenset({
        "up", "setup-failed", "setup-degraded", "connection-failed",
        "restored",
    })

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.arrivals = rng_for(seed, "ops.arrivals")
        self.pairs = rng_for(seed, "ops.pairs")
        self.holds = rng_for(seed, "ops.holds")
        self.cuts = rng_for(seed, "ops.cuts")
        self.next_arrival = 0.0
        self.next_cut = self.CUT_EVERY_S
        self.next_reopt = self.REOPT_EVERY_S
        self.torn: set = set()
        #: Connection id -> the window it first came up in (None: warm-up).
        self.came_up: Dict[str, Optional[Window]] = {}
        self.pending_activation: Dict[str, tuple] = {}
        self.failed_at: Dict[str, float] = {}
        self.restore_sim_s: List[Tuple[Window, float]] = []
        self.cycles: List[dict] = []

    def build(self) -> None:
        graph = generate_backbone(
            RandomStreams(self.TOPOLOGY_SEED), node_count=self.POPS,
            plane_km=self.PLANE_KM, alpha=self.ALPHA, beta=self.BETA,
        )
        pops = [node.name for node in graph.nodes]
        self.core_links = sorted(link.key for link in graph.links)
        self.premises = attach_premises(graph, pops)
        # +3 dBm launch power gives the longer spans design margin, so the
        # SLO monitor sees erosion rather than links that start in breach.
        self.net = GriphonNetwork(
            graph, seed=self.seed, osnr_model=OsnrModel(launch_power_dbm=3.0)
        )
        install_pop_equipment(
            self.net.inventory, pops, self.premises,
            transponders_10g=self.TRANSPONDERS_10G,
        )
        self.net.finish_build()
        self.controller = self.net.controller
        self.controller.observers.append(self._on_controller_event)
        self.service = self.net.service_for(
            "dc-operator", max_connections=10**6,
            max_total_rate_gbps=10.0**9,
        )
        self.slo = self.net.enable_slo(
            plan=self._degradation_plan(),
            policies=default_policies(),
            horizon_s=self.HORIZON_S,
        )
        self.optimizer = self.net.enable_optimize(audit_each_move=True)
        self.topology = describe_graph(graph)

    def _degradation_plan(self) -> DegradationPlan:
        rng = rng_for(self.seed, "ops.degradations")
        plan = DegradationPlan()
        start = 300.0
        modes = ("osnr-drift", "amp-flap", "attenuation-creep")
        while start < self.HORIZON_S - self.DEGRADE_FOR_S:
            a, b = rng.choice(self.core_links)
            plan.add(DegradationSpec(
                link=f"{a}={b}", mode=modes[rng.randrange(3)],
                start_s=start, duration_s=self.DEGRADE_FOR_S,
                magnitude_db=rng.uniform(4.0, 9.0), period_s=600.0,
                rate_db_per_hour=3.0,
            ))
            start += rng.expovariate(1.0 / self.DEGRADE_EVERY_S)
        return plan

    def warm_up(self) -> None:
        while self.net.sim.now < self.WARMUP_S:
            self._slice()

    def step(self) -> int:
        if self.net.sim.now >= self.next_reopt:
            self._reoptimize()
            self.next_reopt = self.net.sim.now + self.REOPT_EVERY_S
        return self._slice()

    def _slice(self) -> int:
        sim = self.net.sim
        end = sim.now + self.SLICE_S
        while self.next_arrival < end:
            a, b = self.pairs.sample(self.premises, 2)
            hold = self.holds.expovariate(1.0 / self.HOLD_MEAN_S)
            sim.schedule_at(self.next_arrival, self._order, a, b, hold)
            self.next_arrival += self.arrivals.expovariate(self.ARRIVALS_PER_S)
        while self.next_cut < end:
            a, b = self.cuts.choice(self.core_links)
            sim.schedule_at(self.next_cut, self._cut, a, b)
            self.next_cut += self.CUT_EVERY_S
        return self.net.run(until=end)

    def _order(self, a: str, b: str, hold: float) -> None:
        window = self.window if self.window is not None and self.window.open else None
        if window is not None:
            window.submitted += 1
        handed = self.speed.clock()
        connection = self.service.request_connection(a, b, 10)
        if window is not None:
            window.decide(handed)
        if connection.state is ConnectionState.BLOCKED:
            if window is not None:
                window.outcome("Blocked", True)
            return
        self.pending_activation[connection.connection_id] = (
            self.net.sim.now, hold, window
        )

    def _cut(self, a: str, b: str) -> None:
        if (a, b) in self.controller.inventory.plant.failed_links():
            return
        self.controller.cut_link(a, b)
        self.net.sim.schedule(self.REPAIR_AFTER_S, self._repair, a, b)

    def _repair(self, a: str, b: str) -> None:
        self.controller.repair_link(a, b)

    def _on_controller_event(self, event: str, payload: dict) -> None:
        if event not in self.WATCHED_EVENTS:
            return
        conn_id = payload["connection"].connection_id
        now = self.net.sim.now
        if event in ("up", "restored"):
            self.came_up.setdefault(conn_id, self.window)
            # An order cut during its setup comes up through restoration.
            if event == "restored":
                failed = self.failed_at.pop(conn_id, None)
                if failed is not None and self.window is not None:
                    self.restore_sim_s.append((self.window, now - failed))
            entry = self.pending_activation.pop(conn_id, None)
            if entry is None:
                return
            ordered_at, hold, window = entry
            if window is not None:
                window.activate_sim_s.append(now - ordered_at)
                window.outcome("Active", False)
            self.net.sim.schedule(hold, self._teardown, conn_id)
        elif event in ("setup-failed", "setup-degraded"):
            entry = self.pending_activation.pop(conn_id, None)
            if entry is not None and entry[2] is not None:
                entry[2].outcome(event, True)
        elif event == "connection-failed":
            self.failed_at.setdefault(conn_id, now)

    def _teardown(self, conn_id: str) -> None:
        if self.draining:
            self.net.sim.schedule(60.0, self._teardown, conn_id)
            return
        connection = self.controller.connection(conn_id)
        if connection.state is ConnectionState.UP:
            self.torn.add(conn_id)
            self.service.teardown_connection(conn_id)
        elif connection.state is not ConnectionState.RELEASED:
            # Failed or mid-migration: the customer retries later.
            self.net.sim.schedule(60.0, self._teardown, conn_id)

    def _reoptimize(self) -> None:
        """One cycle with arrivals paused; each phase timed on the wall."""
        window = self.window if self.window is not None and self.window.open else None
        start = time.perf_counter()
        snapshot = self.optimizer.snapshot()
        planned = time.perf_counter()
        plan = self.optimizer.plan(snapshot)
        executing = time.perf_counter()
        done: Dict[str, object] = {}
        if plan.moves:
            self.optimizer.execute(plan, on_done=lambda r: done.update(report=r))
            while "report" not in done:
                self.net.run(until=self.net.sim.now + 30.0)
        end = time.perf_counter()
        report = done.get("report")
        self.cycles.append({
            "window": window,
            "snapshot_s": planned - start,
            "plan_s": executing - planned,
            "execute_s": end - executing,
            "wall_s": end - start,
            "moves": len(plan.moves),
            "completed": report.completed if report else 0,
            "audit_trips": len(report.audit_failures) if report else 0,
            "rollback": bool(report and report.rollback_triggered),
            # Customer teardowns continue during the cycle, so the plan's
            # own before/after count is the reclaim attributable to it.
            "reclaim": (
                (plan.wavelengths_before - plan.wavelengths_after)
                / plan.wavelengths_before if plan.wavelengths_before else 0.0
            ),
        })
        # Arrivals and cuts the maintenance pause skipped are not replayed.
        self.resume()

    def resume(self) -> None:
        now = self.net.sim.now
        if self.next_arrival < now:
            self.next_arrival = now + self.arrivals.expovariate(
                self.ARRIVALS_PER_S
            )
        while self.next_cut < now:
            self.next_cut += self.CUT_EVERY_S

    def drain(self) -> None:
        # Let every scheduled repair land, then every workflow finish.
        self.draining = True
        self.net.run(until=self.net.sim.now + self.REPAIR_AFTER_S + 60.0)
        self.quiescent = settle(self.net.sim, [self.controller])
        # Orders cut during set-up that no restoration brought back.
        for conn_id, (_, _, window) in list(self.pending_activation.items()):
            if self.controller.connection(conn_id).state is ConnectionState.FAILED:
                del self.pending_activation[conn_id]
                if window is not None:
                    window.outcome("Failed", True)

    def handles(self) -> Dict[str, object]:
        return controller_handles(self.net)

    def check(self) -> List[str]:
        problems = audit_violations(self.controller, "audit")
        if self.slo is not None and not self.slo.engine.audit_ok:
            problems.append("the SLO engine's audit failed")
        window = self.window
        if window is not None and window.resolved != window.submitted:
            problems.append(
                f"{window.submitted - window.resolved} window orders never "
                "reached a terminal outcome"
            )
        return problems


class OpsReopt64(OpsChurn64):
    """ops-churn64 without fiber cuts: churn, gray failures under the
    default SLO policies, and re-optimization cycles.

    Restoration after a cut can lose a connection and leave a dangling
    lightpath id behind (see LEDGER.md, known defect 1), which fails
    ops-churn64's correctness gate.  Until that is fixed, this workload
    keeps the release, bridge-and-roll, migration, audit and SLO layers
    under a passing gate; ops-churn64 still runs and still shows the
    defect.
    """

    name = "ops-reopt64"
    CUT_EVERY_S = float("inf")


# -- continental-pool ----------------------------------------------------------


class ContinentalPool(Workload):
    """A sharded 2-region x 256-PoP hierarchy planned by worker processes.

    Intra- and cross-region orders are placed in batches through
    ``ShardedNetwork.place_orders`` with ``backend="pool"`` and torn
    down after a holding time: worker RPCs, plant-mirror sync, gateway
    stitching and the cross-shard saga all run.  Three workers (two
    regions and a lightly loaded express unit) keep at most two busy at
    once on a 2-CPU host.
    """

    name = "continental-pool"
    ORDERS_PER_SECOND = 56.0
    TOPOLOGY_SEED = 256
    REGIONS = 2
    POPS_PER_REGION = 256
    #: Waxman shape chosen here (not in the library) to hold the mean
    #: regional PoP degree at 3-4.
    ALPHA, BETA = 0.065, 0.25
    #: Gateways terminate every cross-region segment, so their
    #: transponder pools bound cross-region concurrency.
    TRANSPONDERS_10G = 16
    REGENS_10G = 8
    BATCH_EVERY_S = 4.0
    ORDERS_PER_S = 2.0
    CROSS_REGION_SHARE = 0.25
    HOLD_MEAN_S = 120.0
    WARMUP_S = 120.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.arrivals = rng_for(seed, "continental.arrivals")
        self.pairs = rng_for(seed, "continental.pairs")
        self.holds = rng_for(seed, "continental.holds")
        self.next_batch = 0.0
        self.net: Optional[ShardedNetwork] = None
        self.pending: Dict[str, tuple] = {}
        self.placed = 0
        self.cross = 0

    def build(self) -> None:
        self.hierarchy = build_hierarchy(
            self.TOPOLOGY_SEED, regions=self.REGIONS,
            pops_per_region=self.POPS_PER_REGION, alpha=self.ALPHA,
            beta=self.BETA, with_premises=True,
        )
        self.net = ShardedNetwork(
            self.hierarchy, seed=self.seed, backend="pool",
            transponders_10g=self.TRANSPONDERS_10G,
            regens_10g=self.REGENS_10G,
        )
        self.net.order_listeners.append(self._on_order)
        self.net.register_customer(CustomerProfile(
            "dc-operator", max_connections=10**6,
            max_total_rate_bps=10.0**9 * GBPS,
        ))
        self.regions = [
            list(self.hierarchy.regions[name].premises)
            for name in self.hierarchy.region_names
        ]
        topology = describe_graph(self.hierarchy.graph)
        topology["regions"] = self.REGIONS
        topology["avg_degree_by_region"] = {
            name: describe_graph(self.hierarchy.region_graph(name))["avg_degree"]
            for name in self.hierarchy.region_names
        }
        self.topology = topology

    def close(self) -> None:
        if self.net is not None:
            self.net.close()

    def warm_up(self) -> None:
        while self.net.sim.now < self.WARMUP_S:
            self.step()

    def resume(self) -> None:
        while self.next_batch < self.net.sim.now:
            self.next_batch += self.BATCH_EVERY_S

    def step(self) -> int:
        at = self.next_batch
        events = self.net.run(until=at)
        count = poisson(self.arrivals, self.ORDERS_PER_S * self.BATCH_EVERY_S)
        if count:
            self._place_batch(count)
        self.next_batch = at + self.BATCH_EVERY_S
        return events

    def _place_batch(self, count: int) -> None:
        requests, holds = [], []
        for _ in range(count):
            home = self.pairs.randrange(self.REGIONS)
            if self.pairs.random() < self.CROSS_REGION_SHARE:
                away = (home + 1 + self.pairs.randrange(self.REGIONS - 1)) % self.REGIONS
                a = self.pairs.choice(self.regions[home])
                b = self.pairs.choice(self.regions[away])
                self.cross += 1
            else:
                a, b = self.pairs.sample(self.regions[home], 2)
            requests.append(("dc-operator", a, b, 10 * GBPS))
            holds.append(self.holds.expovariate(1.0 / self.HOLD_MEAN_S))
        window = self.window if self.window is not None and self.window.open else None
        if window is not None:
            window.submitted += count
        handed = self.speed.clock()
        orders = self.net.place_orders(requests)
        now = self.net.sim.now
        self.placed += count
        for order, hold in zip(orders, holds):
            if window is not None:
                window.decide(handed)
            if order.state is ConnectionState.BLOCKED:
                if window is not None:
                    window.outcome("Blocked", True)
            else:
                self.pending[order.order_id] = (now, hold, window)

    def _on_order(self, order, event: str) -> None:
        entry = self.pending.pop(order.order_id, None)
        if entry is None:
            return
        placed_at, hold, window = entry
        if event == "up":
            if window is not None:
                window.activate_sim_s.append(order.up_at - placed_at)
                window.outcome("Active", False)
            self.net.sim.schedule(hold, self._teardown, order)
        elif event == "blocked" and window is not None:
            window.outcome("SetupFailed", True)

    def _teardown(self, order) -> None:
        if self.draining:
            self.net.sim.schedule(60.0, self._teardown, order)
        elif order.state is ConnectionState.UP:
            self.net.teardown_order(order)

    def drain(self) -> None:
        self.draining = True
        self.quiescent = settle(self.net.sim, self._controllers())

    def _controllers(self) -> list:
        return list(self.net.controllers.values())

    def handles(self) -> Dict[str, object]:
        def route_cache() -> Tuple[int, int]:
            stats = self.net.route_cache_stats().values()
            return (
                sum(unit["hits"] for unit in stats),
                sum(unit["misses"] for unit in stats),
            )

        controllers = self._controllers()
        return {
            "controllers": controllers,
            "route_cache": route_cache,
            "tracers": [controller.tracer for controller in controllers],
        }

    def check(self) -> List[str]:
        problems = []
        for unit, report in self.net.audit_shards().items():
            problems.extend(f"audit {unit}: {v}" for v in report.violations)
        self.net.sync_workers()
        plants = self.net.plant_fingerprints()
        for unit, fingerprint in self.net.worker_fingerprints().items():
            if fingerprint["state"] != plants[unit]:
                problems.append(f"worker mirror of {unit} diverged from its plant")
        window = self.window
        if window is not None and window.resolved != window.submitted:
            problems.append(
                f"{window.submitted - window.resolved} window orders never "
                "reached a terminal outcome"
            )
        return problems


#: Workload name -> class.
WORKLOADS = {
    cls.name: cls
    for cls in (EdgeTestbed, Backbone512, OpsChurn64, OpsReopt64, ContinentalPool)
}


def shared_inputs(name: str) -> Dict[str, object]:
    """Generator tables built once per run, outside the timed set-ups."""
    if name == EdgeTestbed.name:
        return {"zipf": zipf_table(EdgeTestbed.TENANTS, EdgeTestbed.ZIPF_S)}
    return {}
