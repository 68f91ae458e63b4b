"""Tiny-size smoke test of the benchmark.

    python3 -m pytest perfbench/tests -q

Checks that every metric BENCHMARK.json names is printed with its unit,
that the layers' self times sum to the phase roots, that no wrapper
survives a traced run, and that the command refuses to run without the
program's source.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import cases  # noqa: E402
import tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _spec:
    SPEC = json.load(_spec)


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(cases.CASES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(cases.CASES))
def test_every_metric_printed_with_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))


def test_per_layer_metrics_cover_every_layer():
    names = {m["name"] for m in SPEC["per_layer"]}
    for layer in tracer.LAYERS:
        assert f"{layer}.calls" in names and f"{layer}.self_s" in names


def test_layer_map_names_known_metrics():
    with open(os.path.join(BENCH, "layer_map.json")) as f:
        layer_map = json.load(f)["map"]
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]} | {"recovery_s", "tx_failed_share"}
    workloads = set(cases.CASES)
    for entry in layer_map:
        assert set(entry["layer_metrics"]) <= per_layer
        assert set(entry["moves"]) <= end_to_end
        assert {entry["workload"], *entry.get("also", []), *entry["flat"]} <= workloads


def _wrappers_left() -> "list[str]":
    left = []
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, tracer.MARK):
                left.append(f"{name}.{attr}")
            if isinstance(value, type):
                for cls_attr, raw in vars(value).items():
                    fn = getattr(raw, "__func__", raw)
                    if hasattr(fn, tracer.MARK):
                        left.append(f"{name}.{attr}.{cls_attr}")
    return left


def test_self_times_sum_to_root_and_wrappers_are_removed():
    t = tracer.Tracer()
    t.install()
    try:
        assert len(t._patched) >= sum(len(v) for v in tracer.LAYERS.values())
        assert _wrappers_left()
        prep = t.phase("setup", lambda: cases.setup_flood_crash_n4(5, tiny=True))
        t.phase("run", lambda: cases.drive(prep))
        t.phase("collect", lambda: cases.collect(prep))
    finally:
        t.uninstall()
    assert _wrappers_left() == []
    for layer, targets in tracer.LAYERS.items():
        for module_name, qualname in targets:
            owner = importlib.import_module(module_name)
            for part in qualname.split("."):
                owner = getattr(owner, part)
            assert not hasattr(owner, tracer.MARK), (layer, qualname)

    totals = t.totals()
    phases = [v for name, v in totals.items() if name.startswith("phase.")]
    assert len(phases) == 3
    root = sum(v["inclusive_s"] for v in phases)
    assert sum(v["self_s"] for v in totals.values()) == pytest.approx(root, rel=1e-9)
    # the fault-bound workload exercises every layer but gossip (TVPR on)
    quiet = {name for name in tracer.LAYERS if totals.get(name, {}).get("calls", 0) == 0}
    assert quiet == {"net.gossip"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("uber_n16", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
