"""Smoke test of the benchmark: every workload at a seconds-long size.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def run_tiny(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        fields = line.split("\t")
        if len(fields) == 3:
            printed[fields[0]] = fields[2]
    blobs = {}
    for line in lines[:-1]:
        if line.startswith("{"):
            blobs.update(json.loads(line))
    return printed, blobs, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric_and_tracing_keeps_outputs(workload):
    plain, plain_blobs, plain_result = run_tiny(workload, 0)
    traced, traced_blobs, traced_result = run_tiny(workload, 1)

    for printed, result, declared in ((plain, plain_result, SPEC["end_to_end"]),
                                      (traced, traced_result, SPEC["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert printed["failed_share"] == "1"
        for metric in declared:
            assert printed[metric["name"]] == metric["unit"], metric["name"]
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert set(result["metrics"]) == {m["name"] for m in declared}

    digests = traced_blobs["digests"]
    assert digests["traced_curve_sha256"] == digests["curve_sha256"]
    assert digests["traced_votes_sha256"] == digests["votes_sha256"]
    assert plain_blobs["digests"]["curve_sha256"] == digests["curve_sha256"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "many-blocks", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
