"""Smoke test of the benchmark itself (not part of the tier-1 suite).

Runs every workload once at its minimum size, untraced and traced, and
checks that each metric BENCHMARK.json names is emitted with its unit and
that every output passed its checks.  Takes about two minutes, most of it
the one full-horizon roll solve per run:

    python3 -m pytest benchmarks/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, section):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "all", "--smoke",
         "--seed", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    for workload in SPEC["workloads"]:
        for metric in SPEC[section]:
            got = result["metrics"][f"{workload['name']}/{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    for f in (ROOT / "benchmarks").glob("*.py"):
        (tmp_path / "benchmarks" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "roll_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
