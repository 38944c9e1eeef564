"""The benchmark's own tests, at tiny input sizes.

    python3 -m pytest perfbench -q

(run from the repository root; the repository's own suite lives in tests/).
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

TINY = 0.02

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("PYTHONPATH", os.path.join(ROOT, "src"))


def bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.05", "--trace", str(trace), "--scale", str(TINY)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        assert f"  {metric['name']} " in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("thick-barrier", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("workload", ["paper-tables", "thick-barrier", "cross-check"])
def test_traced_call_counts_repeat_exactly(workload):
    def calls():
        layers = workloads.run(workload, seed=5, seconds=0.05, trace=True, scale=TINY)["layers"]
        return {k: v for k, v in layers.items() if k.endswith((".calls", ".typed_errors", ".uncaught",
                                                               ".nonfinite", "per_grid_point"))}

    first = calls()
    assert any(first.values())
    assert calls() == first


def test_self_times_add_up_to_the_root_duration():
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    tables = workloads.PaperTables(seed=0, scale=TINY)
    tracer = spans.Tracer()
    tracer.install()
    try:
        root = tracer.open(spans.ROOT)
        workloads.ThickBarrier(seed=1, scale=TINY).run_pass()
        tables.run_pass()
        tracer.close(root)
    finally:
        tracer.uninstall()
        tables.cleanup()
    name_id, parent, start, end = tracer.arrays()
    per_name = spans.self_times(tracer.names, name_id, parent, start, end)
    assert per_name["closed_form.transmission"][0] > 0 and per_name["cli.main"][0] == 4
    total_self = sum(own for _, own in per_name.values())
    assert total_self == pytest.approx(end[0] - start[0], rel=1e-9)
    duration = end - start
    children = np.bincount(parent[parent >= 0], weights=duration[parent >= 0], minlength=len(duration))
    assert (children <= duration + 1e-12).all()


def test_tracer_uninstall_restores_the_library():
    import qbarrier.closed_form
    import qbarrier.resonance

    original = qbarrier.closed_form.transmission
    tracer = spans.Tracer()
    tracer.install()
    assert qbarrier.resonance.transmission is qbarrier.closed_form.transmission is not original
    tracer.uninstall()
    assert qbarrier.resonance.transmission is qbarrier.closed_form.transmission is original


def test_tail_has_ten_samples_above_it():
    assert workloads.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert workloads.tail([float(i) for i in range(20)]) == (19.0, 100.0)
    value, percentile = workloads.tail([float(i) for i in range(100)])
    assert value == 89.0 and percentile == 90.0
