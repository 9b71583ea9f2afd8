"""Short end-to-end runs of every workload through the real command."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")

sys.path.insert(0, BENCH)
import run  # noqa: E402
from ermibench.workloads import WORKLOADS  # noqa: E402


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def invoke(workload, trace=0, seconds=1, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "5",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def test_metric_tables_match_benchmark_json():
    s = spec()
    assert [(m["name"], m["unit"]) for m in s["end_to_end"]] == list(
        run.END_TO_END.items()
    )
    assert [(m["name"], m["unit"]) for m in s["per_layer"]] == list(
        run.PER_LAYER.items()
    )
    # elastic-step runs by hand only: a shrink can fail a queued call
    # (README.md, "Defects the benchmark found"), so its failure count
    # is not the same from run to run.
    gated = [w["name"] for w in s["workloads"]]
    assert gated == [name for name in WORKLOADS if name != "elastic-step"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_smoke(workload):
    proc = invoke(workload)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout.splitlines()[-2][:2000]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name]
        assert metric["value"] > 0, name


def test_traced_smoke_reports_every_layer():
    proc = invoke("dcs-mix", trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert set(metrics) == set(run.PER_LAYER)
    # The store carries the DCS calls; the epoch is watch-cached.
    assert metrics["kvstore.ops_per_call"]["value"] > 1.0
    assert metrics["handler.us.set_data"]["value"] > 0
    assert metrics["balancer.epoch_reads_per_call"]["value"] == 0
    assert metrics["batching.coalesce_ratio"]["value"] == 1.0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "unary-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
