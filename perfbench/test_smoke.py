"""Smoke test of the benchmark itself, at tiny shapes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

WORKLOADS = list(run.WORKLOAD_WHY)


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(HERE / "run.py"), "--seconds", "1", "--size", "tiny", *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted(workload):
    proc = bench("--workload", workload, "--seed", "3", "--trace", "0")
    out = result(proc)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert list(out["metrics"]) == [name for name, *_ in run.END_TO_END]
    units = {name: unit for name, unit, *_ in run.END_TO_END}
    for name, metric in out["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0, name
    for name in [*units, "failed_ratio"]:  # the human table names every metric too
        assert f"  {name} " in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_is_emitted(workload):
    out = result(bench("--workload", workload, "--seed", "3", "--trace", "1"))
    assert out["correct"]
    assert list(out["metrics"]) == [name for name, *_ in run.PER_LAYER]
    fits = out["metrics"]["simulator.fit_logistic.calls"]["value"]
    assert (fits > 0) == (workload == "desk")


@pytest.mark.parametrize("fault", ["outside", "short"])
@pytest.mark.parametrize("workload", ["scaled", "churn"])
def test_broken_selector_counts_as_failed_and_the_run_carries_on(workload, fault):
    out = result(bench("--workload", workload, "--seed", "3", "--trace", "0", "--fault", fault))
    assert not out["correct"]
    # Every 2nd round breaks; the rest complete and are measured.
    assert 0 < out["failed"] < out["attempted"]
    assert out["metrics"]["episodes_per_s"]["value"] > 0


def test_same_seed_repeats_count_metrics():
    first, second = (result(bench("--workload", "churn", "--seed", "5")) for _ in range(2))
    for name in ("identify_acc", "select_value_mean", "final_rare_acc", "final_full_acc"):
        assert first["metrics"][name] == second["metrics"][name]


def test_manifest_matches_the_committed_file():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == run.manifest()


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__", ".out"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "desk", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
