"""The benchmark's own smoke test.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at its tiny size in both modes, checks that each
metric is reported with its unit and that no op fails, that the exact
counters repeat across two traced runs, and that the default seeds give
the counts recorded in README.md.
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

from run import END_TO_END_UNITS  # noqa: E402
from tracing import EXACT, UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"], proc.stderr
    assert res["attempted"] >= 1 and res["failed"] == 0
    return res


def units(res):
    return {k: m["unit"] for k, m in res["metrics"].items()}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_tiny(name):
    res = result("--workload", name, "--seconds", "1", "--size", "tiny")
    assert units(res) == END_TO_END_UNITS
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_tiny_counters_repeat(name):
    runs = [result("--workload", name, "--seconds", "1", "--size", "tiny",
                   "--trace", "1") for _ in range(2)]
    for res in runs:
        assert units(res) == UNITS
    first, second = ({k: r["metrics"][k]["value"] for k in EXACT} for r in runs)
    assert first == second


def test_parent_counts_map_mmse():
    size = 64
    res = result("--workload", "map_mmse_e8", "--seconds", "1",
                 "--size", str(size), "--trace", "1")
    trials = 2 * size  # Z8 and E8
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["lattice.search_calls"] == 4 * trials
    assert m["lattice.closest_point_calls"] == 3 * trials
    assert m["scheme.map_decode_calls"] == trials


def test_parent_counts_sandwich():
    res = result("--workload", "sandwich_e8", "--seconds", "1",
                 "--size", "200000", "--trace", "1")
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["lattice.batch_rows"] == 400_000
    assert m["lattice.hard_rows"] == 68_613
    assert m["sampler.table_points"] == 2_654_137


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "map_mmse_e8", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
