"""Smoke test of the benchmark itself, at the smallest workload sizes.

    python3 -m pytest -q perfbench/test_smoke.py      # from the checkout root

Checks that every metric BENCHMARK.json names is printed with its unit, that
the checks pass at the seed commit, and that a corrupted reference hash is
counted in the error rate.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, ".perfbench_smoke")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _bench(workload: str, trace: int, *extra: str, seed: int = 11):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--size", "smoke", "--seconds", "1",
         "--seed", str(seed), "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _error_rate(lines) -> float:
    line, = [x for x in lines if x.startswith("error_rate: ")]
    return float(line.split()[1])


# seed 11 also compares the summaries with reference.json; seed 12 shows the
# workload checks hold on inputs the reference was not recorded from
@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace, kind, seed):
    lines, result = _bench(workload, trace, seed=seed)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert _error_rate(lines) == 0.0
    assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
    for m in SPEC[kind]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(x.startswith(f"{m['name']}: ") and x.split()[2] == m["unit"]
                   for x in lines), m["name"]


def test_corrupted_reference_hash_counts_as_error():
    with open(os.path.join(ROOT, "perfbench", "reference.json")) as fh:
        reference = json.load(fh)
    reference["certify"]["smoke"]["dispersion"]["sha256"] = "0" * 64
    os.makedirs(SCRATCH, exist_ok=True)
    path = os.path.join(SCRATCH, "corrupted_reference.json")
    try:
        with open(path, "w") as fh:
            json.dump(reference, fh)
        lines, result = _bench("certify", 0, "--reference", path)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert _error_rate(lines) > 0.0
    assert any(x.startswith("FAILED certify/dispersion: sha256") for x in lines)
