"""Smoke test for the benchmark suite: the local-table bench runs end to end
at a tiny scale and prints one table per local key of the CLI registry."""
import os
import subprocess
import sys
from pathlib import Path

from repro.experiments.cli import TABLES

ROOT = Path(__file__).resolve().parents[1]


def test_local_bench_prints_every_table():
    env = {
        **os.environ,
        "BENCH_SF": "0.02",
        "BENCH_SEEDS": "1",
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]),
    }
    cmd = [sys.executable, "-m", "pytest", "benchmarks/bench_tables.py", "--benchmark-only"]
    proc = subprocess.run(
        [*cmd, "-q", "-p", "no:cacheprovider"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    groups = [line.strip("- ") for line in proc.stdout.splitlines() if line.startswith("-")]
    local = [key for key, table in TABLES.items() if table.datasets]
    assert [g for g in groups if g in TABLES] == local
