"""Per-layer spans for the traced run, recorded from the benchmark side.

:class:`LayerTracer` wraps the entry points of each program layer (class
methods and module functions, listed in :data:`TARGETS`) for the length
of the traced window and restores them afterwards; nothing under
``src/`` is edited.  Each call becomes a span with a name, a start, an
end and the span that was open when it began, so a layer's *self* time
is its spans' durations minus the time their child spans cover.  Spans
stay in memory as flat arrays and are written out once, at the end.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from array import array
from typing import Dict, List, Tuple

from common import quantile

#: (layer, span name, module, attribute).  The attribute is a method on a
#: class (``Class.method``) or a module-level function.  Private methods
#: appear where a layer's unit of work has no public entry point: the
#: pipeline's scheduling round, the SLO monitor's sample, the sharded
#: network's saga unwind.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("topo.graph", "topo.graph.ksp", "repro.topo.graph", "NetworkGraph.k_shortest_paths"),
    ("topo.graph", "topo.graph.sp", "repro.topo.graph", "NetworkGraph.shortest_path"),
    ("topo.graph", "topo.graph.disjoint", "repro.topo.graph", "NetworkGraph.disjoint_path"),
    ("core.rwa", "core.rwa.plan", "repro.core.rwa", "RwaEngine.plan"),
    ("core.rwa", "core.rwa.plan_batch", "repro.core.rwa", "RwaEngine.plan_batch"),
    ("core.rwa", "core.rwa.plan_explicit", "repro.core.rwa", "RwaEngine.plan_explicit"),
    ("pipeline", "pipeline.submit", "repro.pipeline.engine", "OrderPipeline.submit"),
    ("pipeline", "pipeline.round", "repro.pipeline.engine", "OrderPipeline._run_round"),
    ("frontend", "frontend.submit", "repro.frontend.service", "BodFrontend.submit"),
    ("core.provisioning", "core.provisioning.claim", "repro.core.provisioning", "LightpathProvisioner.claim"),
    ("core.provisioning", "core.provisioning.release", "repro.core.provisioning", "LightpathProvisioner.release"),
    ("core.grooming", "core.grooming.claim_circuit", "repro.core.grooming", "GroomingEngine.claim_circuit"),
    ("core.grooming", "core.grooming.release_circuit", "repro.core.grooming", "GroomingEngine.release_circuit"),
    ("core.controller", "core.controller.request", "repro.core.controller", "GriphonController.request_connection"),
    ("core.controller", "core.controller.open_order", "repro.core.controller", "GriphonController.open_order"),
    ("core.controller", "core.controller.admit_order", "repro.core.controller", "GriphonController.admit_order"),
    ("core.controller", "core.controller.launch_order", "repro.core.controller", "GriphonController.launch_order"),
    ("core.controller", "core.controller.teardown", "repro.core.controller", "GriphonController.teardown_connection"),
    ("core.controller", "core.controller.bridge_and_roll", "repro.core.controller", "GriphonController.bridge_and_roll"),
    ("core.controller", "core.controller.cut_link", "repro.core.controller", "GriphonController.cut_link"),
    ("core.controller", "core.controller.repair_link", "repro.core.controller", "GriphonController.repair_link"),
    ("faults.audit", "faults.audit", "repro.faults.audit", "audit_inventory"),
    ("optimize", "optimize.snapshot", "repro.optimize.runtime", "Reoptimizer.snapshot"),
    ("optimize", "optimize.plan", "repro.optimize.runtime", "Reoptimizer.plan"),
    ("optimize", "optimize.execute", "repro.optimize.runtime", "Reoptimizer.execute"),
    ("slo", "slo.sample", "repro.slo.monitor", "SlaMonitor._sample"),
    ("shard", "shard.place_orders", "repro.shard.network", "ShardedNetwork.place_orders"),
    ("shard", "shard.teardown_order", "repro.shard.network", "ShardedNetwork.teardown_order"),
    ("shard", "shard.sync_workers", "repro.shard.network", "ShardedNetwork.sync_workers"),
    ("shard", "shard.unwind", "repro.shard.network", "ShardedNetwork._unwind_claims"),
    ("shard", "shard.rpc", "repro.shard.workers", "ShardWorkerPool.call"),
    ("shard", "shard.rpc_many", "repro.shard.workers", "ShardWorkerPool.call_many"),
)


class LayerTracer:
    """Installs span-recording wrappers; derives per-layer figures."""

    def __init__(self, clock=time.perf_counter) -> None:
        #: Times the traced window, in seconds; spans use perf_counter_ns.
        self.clock = clock
        self.names: List[str] = [target[1] for target in TARGETS]
        self.layer_of: Dict[str, str] = {t[1]: t[0] for t in TARGETS}
        # One row per span, as parallel arrays (about 40 bytes a span).
        self.name_index = array("H")
        self.parent = array("l")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.self_ns = array("q")
        #: Extra per-name tallies taken at the span (RPC fan-out width,
        #: contended batch items).
        self.tally: Dict[str, int] = {}
        self._stack: List[list] = []
        self._restore: List[Tuple[object, str, object]] = []
        self.window_ns: Tuple[int, int] = (0, 0)
        self._layer_totals = None
        self._durations = None

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        for index, (_, name, module_name, attribute) in enumerate(TARGETS):
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
            else:
                owner, method = module, attribute
            original = owner.__dict__[method]
            self._restore.append((owner, method, original))
            setattr(owner, method, self._wrapper(index, name, original))
        self.window_ns = (int(self.clock() * 1e9), 0)

    def remove(self) -> None:
        # Calibration samples taken in the window are not run time.
        self.window_ns = (self.window_ns[0], int(self.clock() * 1e9))
        for owner, method, original in reversed(self._restore):
            setattr(owner, method, original)
        self._restore.clear()

    def _wrapper(self, index: int, name: str, original):
        stack = self._stack
        clock = time.perf_counter_ns
        record = self._record
        tally = self.tally
        def peak(key: str, value: int) -> None:
            tally[key] = max(tally.get(key, 0), value)

        if name == "shard.rpc_many":
            def note(args, result):
                tally[name] = tally.get(name, 0) + len(args[1])
        elif name == "core.rwa.plan_batch":
            def note(args, result):
                tally["core.rwa.contended"] = tally.get(
                    "core.rwa.contended", 0
                ) + sum(1 for item in result if item.contended)
        elif name == "pipeline.submit":
            def note(args, result):
                peak("pipeline.queue_depth_max", args[0].queue_depth())
        elif name == "frontend.submit":
            def note(args, result):
                peak("frontend.queue_depth_max", args[0].queue_depth())
        else:
            note = None

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [clock(), 0, len(self.start_ns)]
            self.start_ns.append(0)
            self.end_ns.append(0)
            self.self_ns.append(0)
            self.name_index.append(index)
            self.parent.append(parent[2] if parent is not None else -1)
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record(frame, end, parent)
            if note is not None:
                note(args, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        return wrapper

    def _record(self, frame, end: int, parent) -> None:
        start, child_ns, row = frame
        duration = end - start
        self.start_ns[row] = start
        self.end_ns[row] = end
        self.self_ns[row] = duration - child_ns
        if parent is not None:
            parent[1] += duration

    # -- derived figures -----------------------------------------------------

    @property
    def window_s(self) -> float:
        start, end = self.window_ns
        return max(1e-9, (end - start) / 1e9)

    def durations_us(self, name: str) -> List[float]:
        if self._durations is None:
            grouped: List[List[float]] = [[] for _ in self.names]
            for row, index in enumerate(self.name_index):
                grouped[index].append(
                    (self.end_ns[row] - self.start_ns[row]) / 1e3
                )
            self._durations = dict(zip(self.names, grouped))
        return self._durations[name]

    def calls(self, name: str) -> int:
        return len(self.durations_us(name))

    def self_s_by_layer(self) -> Dict[str, float]:
        if self._layer_totals is None:
            totals: Dict[str, float] = {}
            for row in range(len(self.name_index)):
                layer = self.layer_of[self.names[self.name_index[row]]]
                totals[layer] = totals.get(layer, 0.0) + self.self_ns[row] / 1e9
            self._layer_totals = totals
        return self._layer_totals

    def share(self, layer: str) -> float:
        return self.self_s_by_layer().get(layer, 0.0) / self.window_s

    def unattributed_share(self) -> float:
        return 1.0 - sum(self.self_s_by_layer().values()) / self.window_s

    def percentile_us(self, name: str, q: float) -> float:
        values = self.durations_us(name)
        return quantile(values, q) if values else 0.0

    def dump(self, path: str) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            for row in range(len(self.name_index)):
                parent = self.parent[row]
                out.write(json.dumps([
                    row,
                    parent if parent >= 0 else None,
                    self.names[self.name_index[row]],
                    self.start_ns[row],
                    self.end_ns[row],
                    self.self_ns[row],
                ]))
                out.write("\n")
