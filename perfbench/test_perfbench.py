"""Self-test of the benchmark on tiny graphs (n=500).

Checks that every metric BENCHMARK.json names is emitted with its unit, in
both modes and on both substrates, and that the correctness gates trip on a
perturbed result. Run with ``python -m pytest perfbench -q``; it is not part
of the ``tests/`` suite or the ``benchmarks/`` reproduction tables.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run  # perfbench/run.py; pytest puts this directory on sys.path
from repro.core.local_tpa import LocalTPA
from repro.core.tpa import SparkTPA

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {
    "local": run.Workload(
        "tiny-local", "local", 500, 4_000, 3, 6, 1e-9, 7,
        rounds=2, setup_reps=2, n_check=3,
    ),
    "spark": run.Workload("tiny-spark", "spark", 500, 4_000, 3, 6, 1e-2, 7, rounds=2, n_check=3),
}


@pytest.fixture(scope="module")
def session():
    spark, seconds = run.start_spark(cores=2, driver_memory="1g")
    yield spark, seconds
    run.stop_spark(spark)


def _run(request, substrate: str, trace: bool) -> dict:
    spark, seconds = request.getfixturevalue("session") if substrate == "spark" else (None, 0.0)
    return run.run(TINY[substrate], 1, 0.2, trace, spark, seconds)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("substrate", ["local", "spark"])
def test_every_metric_emitted_with_unit(request, substrate, trace):
    result = _run(request, substrate, trace)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    json.dumps(result)  # the record is printed as JSON
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        layer = "local_cpi.iterations" if substrate == "local" else "cpi.supersteps"
        assert m[f"{layer}.preprocess"] == m["iterations.closed_form"]
        assert m[f"{layer}.query"] == TINY[substrate].S - 1
        assert result["detail"]["iterations"]["preprocess_match"]
        if substrate == "spark":
            assert m["tpa.query.jobs"] > m["tpa.family.jobs"] > 0
            assert m["cpi.superstep.shuffle_write_bytes"] > 0
        else:
            assert 0 < m["linalg.push.useful_frac"] <= 1


def test_theorem2_gate_trips_on_perturbed_result(request, monkeypatch):
    query = LocalTPA.query
    bound = 2 * (1 - run.C) ** TINY["local"].S

    def perturbed(self, seed, deadline=None):
        r = query(self, seed).copy()
        r[0] += 2 * bound
        return r

    monkeypatch.setattr(LocalTPA, "query", perturbed)
    result = _run(request, "local", False)
    assert not result["correct"]
    assert result["failed"] == TINY["local"].n_check


def test_spark_vs_local_gate_trips_on_perturbed_result(request, monkeypatch):
    query_np = SparkTPA.query_np

    def perturbed(self, seed):
        return query_np(self, seed) + np.eye(1, self.n).ravel() * 1e-6

    monkeypatch.setattr(SparkTPA, "query_np", perturbed)
    result = _run(request, "spark", False)
    assert not result["correct"]
    assert result["failed"] == TINY["spark"].n_check
    assert all(c["l1"] <= 2 * (1 - run.C) ** TINY["spark"].S for c in result["detail"]["checks"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "local-friendster", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
