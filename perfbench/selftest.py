"""Self-test of the benchmark at tiny input sizes.

Run from the checkout root (a few seconds per workload)::

    python3 -m pytest -q perfbench/selftest.py

The file is named so that the repository's own test collection does not
pick it up: it starts processes and a service and belongs to the
benchmark, not to the program's tier-1 suite.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_bench(workload: str, seed: int = 3, trace: int = 0, *extra: str,
              cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counters_of(workload: str, seed: int, trace: int = 0) -> dict:
    path = common.WORK_ROOT / f"{workload}-seed{seed}-trace{trace}" / "counters.json"
    return json.loads(path.read_text())


def test_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"]]
             + [m["name"] for m in spec["per_layer"]])
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert tuple(w["name"] for w in spec["workloads"]) == common.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == common.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == common.PER_LAYER
    assert any(m["name"] == "setup_s" and m["better"] == "lower"
               for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_every_end_to_end_metric_with_its_unit(workload):
    out = last_json(run_bench(workload))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == common.END_TO_END
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload):
    proc = run_bench(workload, 3, 1)
    out = last_json(proc)
    assert out["correct"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == common.PER_LAYER
    assert "residual (outside every span)" in proc.stdout
    assert "tracing overhead" in proc.stdout


@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_wrong_expectation_raises_error_rate(workload):
    out = last_json(run_bench(workload, 3, 0, "--break-expectation"))
    assert not out["correct"]
    assert out["failed"] >= 1


@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_counters_repeat_for_one_seed(workload):
    last_json(run_bench(workload, 5))
    first = counters_of(workload, 5)
    last_json(run_bench(workload, 5))
    assert counters_of(workload, 5) == first
    assert first


def test_seed_changes_the_inputs(tmp_path):
    import inputs

    size = inputs.SIZES["tiny"]

    def churn_bytes(seed, name):
        out = tmp_path / name
        out.mkdir()
        files = inputs.replay_churn(out, seed, size)
        return pathlib.Path(files[0]["path"]).read_bytes()

    assert churn_bytes(1, "a") == churn_bytes(1, "b")
    assert churn_bytes(1, "c") != churn_bytes(2, "d")
    one = inputs.service_mix(1, size, 4)
    two = inputs.service_mix(2, size, 4)
    assert one["sites"][0]["frames"] != two["sites"][0]["frames"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
