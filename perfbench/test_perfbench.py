"""Smoke and self-tests for the benchmark.

    python3 -m pytest perfbench -q

The smoke test runs every workload once at its tiny size, untraced and
traced, the way the benchmark is invoked, and checks that every metric
named in BENCHMARK.json is printed with its unit.  The self-tests show
that a corrupted answer, or an operation that raises, counts as a
failed operation.
"""

from __future__ import annotations

import dataclasses
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
from spans import _conv_products  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.NAMES)
def test_smoke(workload, trace):
    result = _bench("--workload", workload, "--seed", "7", "--seconds", "0.1",
                    "--trace", str(trace), "--tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == named
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace:
        accounted = result["metrics"]["trace_accounted_frac"]["value"]
        assert 0.95 < accounted < 1.05


def test_workload_names_match_benchmark_json():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.NAMES


def test_same_seed_same_batch():
    for name, workload in WORKLOADS.items():
        a = workload.batch(random.Random(f"{name}:5"), False)
        b = workload.batch(random.Random(f"{name}:5"), False)
        assert a == b
        assert [op.kind for op in a] == [
            op.kind for op in workload.batch(random.Random(f"{name}:6"), False)
        ]


def _corrupt(name, result):
    if name == "rediscover":
        coeffs, eq, verified = result
        return (coeffs[:-1] + (coeffs[-1] + 1,), eq, verified)
    if name == "count":
        return result[:3] + (result[3] + 1,) + result[4:]
    if name == "guess-rec":
        polys, extended = result
        return polys, extended[:-1] + (extended[-1] + 1,)
    return dataclasses.replace(result, domain_size=result.domain_size + 1)


@pytest.mark.parametrize("name", run.NAMES)
def test_corrupted_answer_counts_as_failure(name):
    workload = WORKLOADS[name]
    ops = workload.batch(random.Random(f"{name}:1"), True)
    _, _, results = run._run_batch(workload, ops)
    assert run.count_failures(workload, ops, [results]) == 0
    bad = [_corrupt(name, results[0])] + results[1:]
    assert run.count_failures(workload, ops, [bad]) == 1
    # A later batch that disagrees with the checked first one also fails.
    assert run.count_failures(workload, ops, [results, bad]) == 1


def test_raising_operation_counts_as_failure():
    workload = WORKLOADS["count"]._replace(run=lambda *args: 1 // 0)
    ops = workload.batch(random.Random("count:1"), True)
    _, _, results = run._run_batch(workload, ops)
    assert run.count_failures(workload, ops, [results]) == len(ops)


def test_conv_products_matches_the_loop():
    for la in range(6):
        for lb in range(6):
            for n in range(9):
                loop = sum(min(lb, n - i) for i in range(min(la, n)))
                assert _conv_products(None, [1] * la, [1] * lb, n) == loop


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in ("run.py", "workloads.py", "spans.py"):
        (tmp_path / "perfbench" / f).write_text((HERE / f).read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "count",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_refuses_mixed_backends(tmp_path):
    files = []
    for backend in ("pure", "compiled"):
        record = {"provenance": {"workload": "count", "backend": backend},
                  "result": {"metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}}
        files.append(tmp_path / f"{backend}.json")
        files[-1].write_text(json.dumps(record))
    assert compare.main(["--base", str(files[0]), "--new", str(files[0])]) == 0
    assert compare.main(["--base", str(files[0]), "--new", str(files[1])]) == 2
