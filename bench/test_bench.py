"""Tests of the benchmark itself: ``python -m pytest bench``."""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path
import subprocess
import sys

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _pick(items, *keys):
    return [item for item in items if item.key in keys]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_and_seed_only_respells(workload):
    a = workloads.build_items(workload, 7)
    b = workloads.build_items(workload, 7)
    assert [(i.key, i.argv) for i in a] == [(i.key, i.argv) for i in b]
    other = workloads.build_items(workload, 8)
    # Another seed runs the same mathematical inputs, in another order.
    assert sorted(i.key for i in a) == sorted(i.key for i in other)
    assert len({i.key for i in a}) == len(a)
    assert [i.key for i in a] != [i.key for i in other]


def test_seed_changes_spelling():
    def spelled(seed):
        return {i.key: i.argv for i in workloads.build_items("classify-mix", seed)}
    assert spelled(1) != spelled(2)
    assert spelled(1).keys() == spelled(2).keys()


def test_workloads_and_metric_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        run.per_layer_units()


def test_printed_result_line_has_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "presentations",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_tiny_smoke_run_has_no_failures():
    items = workloads.build_items("classify-mix", 5)
    small = _pick(items, "classify Z2xZ2", "classify catalog cyclic-3",
                  "classify missing exponent")
    small += [i for i in workloads.build_items("square-sweep", 5)
              if i.key in ("construct Z4xZ2 b=1", "construct S3",
                             "construct Z8 b=2 cap 100")]
    record = run.measure("square-sweep", 5, 0, trace=False, items=small)
    assert record["failed_ratio"] == 0, record["failures"]
    assert record["attempted"] >= len(small)


def test_traced_run_layers_sum_to_wall_time():
    items = _pick(workloads.build_items("presentations", 2),
                  "presentation S4", "subgroups Z2xZ4", "wreath Z3 n=2",
                  "presentation triangle (3,3,3)")
    record = run.measure("presentations", 2, 0, trace=True, items=items)
    metrics = {k: v["value"] for k, v in record["metrics"].items()}
    assert record["failed"] == 0, record["failures"]
    layers = sum(metrics[f"{layer}.self_s"] for layer in run.tracing.LAYERS)
    assert layers + metrics["unattributed.self_s"] == \
        pytest.approx(metrics["trace.wall_s"])
    assert metrics["fpgroup.coset_enumeration.calls"] == 2
    assert metrics["fpgroup.errors"] == 1  # the capped infinite group
    assert all(v == 0 for k, v in metrics.items()
               if k.startswith("hilbcover.") and not k.endswith("_s"))


def test_wrong_expectation_is_reported_against_the_item():
    items = workloads.build_items("square-sweep", 1)
    [z4] = _pick(items, "construct Z4 b=2")
    wrong = dataclasses.replace(
        z4, check=workloads._check_construction((2, 2), 2, "Z4"))
    record = run.measure("square-sweep", 1, 0, trace=False, items=[wrong])
    assert record["failed"] >= 1
    assert all(f.startswith("construct Z4 b=2: ") for f in record["failures"])


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.1, 10.0, 9.9, 10.0]
    assert run.verdict(base, [v * 0.8 for v in base], "lower", 0.1) == "improved"
    assert run.verdict(base, [v * 1.2 for v in base], "higher", 0.1) == "improved"
    assert run.verdict(base, [v * 1.2 for v in base], "lower", 0.1) == "worse"
    assert run.verdict(base, base[::-1], "lower", 0.1) == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert run.verdict(noisy, noisy[::-1], "lower", 0.1) == "unresolved"
