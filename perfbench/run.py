"""Repository benchmark: fresh orders through order -> ACTIVE, per workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload edge-testbed --seed 1 --seconds 15 --trace 0

``--trace 0`` builds the workload's network at least ``SETUPS`` times (the median
is ``setup_s``), runs one timed window of freshly generated orders with
no instrumentation, checks the result and prints the end-to-end
metrics.  A window hands over a fixed number of orders, about
``--seconds`` worth on the reference host, so a seed gives the same
inputs and the same simulated outcomes on any host.  Wall-clock figures
are in reference seconds: a fixed loop sampled through the run measures
the host's speed against the reference host (``common.HostSpeed``).  ``--trace 1`` runs an untraced window and then a traced one of
the same length on the same network, and prints the per-layer metrics
(see ``layers.py``); spans go to ``perfbench/out/``.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Progress and the run record go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Least set-ups per run; ``setup_s`` is their median.
SETUPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(factory, seconds: float, trace: bool, setups: int = SETUPS,
            spans_path=None, corrupt=None):
    """Set up, run the timed window(s), check; returns (result, record).

    ``result`` is the JSON object the run prints last; ``record`` adds
    the topology, sample counts, outcome mix and host facts.  ``corrupt``
    (for the smoke test) is applied to the workload before the check.
    """
    import metrics
    from common import HostSpeed, log, peak_rss_mb, timed_setups, usable_cpus

    workload = None
    speed = HostSpeed()
    try:
        workload, durations = timed_setups(factory, setups, speed)
        log(f"{workload.name}: set-ups {[round(d, 3) for d in durations]} s")
        gc.collect()
        probe = metrics.StateProbe(workload)
        window = workload.run_window(seconds, speed)
        scale = speed.scale
        untraced = metrics.end_to_end(window, durations, scale)
        ops = probe.ops_figures(window)
        layer_metrics = None
        if trace:
            from layers import LayerTracer

            probe = metrics.StateProbe(workload)
            tracer = LayerTracer(speed.clock)
            tracer.install()
            try:
                traced_window = workload.run_window(seconds, speed)
            finally:
                tracer.remove()
            layer_metrics = metrics.per_layer(
                workload, traced_window, tracer, probe, window, ops
            )
            if spans_path is not None:
                tracer.dump(str(spans_path))
        if corrupt is not None:
            corrupt(workload)
        problems = workload.check()
        if not workload.quiescent:
            problems.append("drain never reached a point with no workflow in flight")
    finally:
        if workload is not None:
            workload.close()
    untraced["peak_rss_mb"] = peak_rss_mb()

    record = {
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "topology": workload.topology,
        "state": "warm",
        "usable_cpus": usable_cpus(),
        "host_speed": {
            "calibration_ms_median": round(1e3 * statistics.median(speed.samples), 4),
            "calibration_samples": len(speed.samples),
            "scale": round(scale, 4),
            "setup_host_s": [round(d, 4) for d in durations],
        },
        "python": platform.python_version(),
        "window": metrics.describe_window(window),
        "end_to_end": untraced,
        "ops": ops,
        "per_layer": layer_metrics,
        "problems": problems[:20],
    }
    correct = not problems
    chosen = layer_metrics if trace else untraced
    result = {
        "correct": correct,
        "attempted": window.submitted,
        "failed": window.submitted - window.resolved,
        "metrics": {
            name: {"value": value, "unit": metrics.UNITS[name]}
            for name, value in sorted(chosen.items())
        } if correct else {},
    }
    return result, record


def main(argv) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from common import log

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r} "
            f"(known: {', '.join(workloads.WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    cls = workloads.WORKLOADS[args.workload]
    shared = workloads.shared_inputs(args.workload)
    spans_path = None
    if args.trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        spans_path = out / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    result, record = measure(
        lambda: cls(args.seed, **shared), args.seconds, bool(args.trace),
        spans_path=spans_path,
    )
    log(json.dumps(record, sort_keys=True, default=str))
    for problem in record["problems"]:
        log(f"check failed: {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
