"""Smoke test of the benchmark command: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# oracles.pure_queries per unit on the seed code
PURE_QUERIES = {"sampled-binary": 3311440, "exact-binary": 0, "sampled-kaction": 1573930}


def bench(cwd, workload, trace, timeout=180):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    done = bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    if trace:
        assert result["metrics"]["oracles.pure_queries"]["value"] == PURE_QUERIES[workload]
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(tmp_path, WORKLOADS[0], 0, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.xfail(strict=True, reason=(
    "known defect: simulate_plane_flow steps toward the best response off the "
    "band, so on about 1 game in 300 a player that slips off runs away from "
    "the plane; plane-flow stays out of the exact-binary workload until fixed"))
def test_plane_flow_stays_in_band():
    for path in (ROOT / "src", ROOT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from largegames import runner
    import workloads

    config = workloads._config("plane-flow", 20, step_h=1e-3, horizon=1.0)
    report, _, trajectory = runner.run_one(config, 1911581043)
    assert workloads.check_run(config, report, trajectory) == []
