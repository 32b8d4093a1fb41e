"""Smoke test of the benchmark itself, at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs with shrunken constants for a fraction of a second,
traced, and must emit every metric named in ``BENCHMARK.json`` with its
unit; a run whose network was corrupted (a leaked wavelength) must fail
the correctness gate; and the entry point must refuse to run without the
program's source next to it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = 0.4


class TinyEdge(workloads.EdgeTestbed):
    TENANTS = 1000
    WARMUP_S = 6.0


class TinyBackbone(workloads.Backbone512):
    POPS = 40
    ALPHA, BETA = 0.2, 0.3
    HOLD_MEAN_S = 40.0
    FILL_ORDERS = 20.0


class TinyOps(workloads.OpsChurn64):
    POPS = 24
    ALPHA, BETA = 0.3, 0.3
    ARRIVALS_PER_S = 0.2
    REOPT_EVERY_S = 600.0
    HORIZON_S = 20_000.0


class TinyOpsReopt(workloads.OpsReopt64):
    POPS = 24
    ALPHA, BETA = 0.3, 0.3
    ARRIVALS_PER_S = 0.2
    REOPT_EVERY_S = 600.0
    HORIZON_S = 20_000.0


class TinyContinental(workloads.ContinentalPool):
    POPS_PER_REGION = 12
    ALPHA, BETA = 0.3, 0.4
    WARMUP_S = 20.0


TINY = {
    "edge-testbed": lambda: TinyEdge(
        1, zipf=workloads.zipf_table(TinyEdge.TENANTS, TinyEdge.ZIPF_S)
    ),
    "backbone512": lambda: TinyBackbone(1),
    "ops-churn64": lambda: TinyOps(1),
    "ops-reopt64": lambda: TinyOpsReopt(1),
    "continental-pool": lambda: TinyContinental(1),
}


def test_tiny_workloads_cover_every_workload():
    assert sorted(TINY) == sorted(workloads.WORKLOADS)
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(TINY)


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_named_metric_is_emitted_with_its_unit(name):
    _, record = run.measure(TINY[name], SECONDS, trace=True, setups=2)
    for kind, emitted in (
        ("end_to_end", record["end_to_end"]),
        ("per_layer", record["per_layer"]),
    ):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        assert set(emitted) == set(declared), kind
        for metric, unit in declared.items():
            assert metrics.UNITS[metric] == unit, metric
            assert isinstance(emitted[metric], (int, float)), metric
    assert record["window"]["submitted"] > 0
    assert record["topology"]["links"] > 0


def leak_a_wavelength(workload) -> None:
    """Occupy a free channel that no lightpath owns."""
    controller = workload.handles()["controllers"][0]
    plant = controller.inventory.plant
    link = next(iter(controller.inventory.graph.links))
    dwdm = plant.dwdm_link(link.a, link.b)
    dwdm.occupy(min(dwdm.free_channels()), "leaked-by-test")


def test_a_corrupted_run_fails_the_gate():
    result, record = run.measure(
        TINY["edge-testbed"], SECONDS, trace=False, setups=1,
        corrupt=leak_a_wavelength,
    )
    assert result["correct"] is False
    assert result["metrics"] == {}
    assert any("leaked-by-test" in problem for problem in record["problems"])


def test_a_clean_run_passes_the_gate():
    result, _ = run.measure(TINY["edge-testbed"], SECONDS, trace=False, setups=1)
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "edge-testbed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
