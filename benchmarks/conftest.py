"""Benchmark-suite plumbing: a terminal-summary hook that prints every
benchmark's table rows (``extra_info["rows"]``) as one DataFrame per table
(``extra_info["table"]``) — this is what lands in ``bench_output.txt`` and
what EXPERIMENTS.md quotes as the measured numbers. ``bench_mean_s`` is the
benchmark's own wall-clock for the test that produced the row.
"""
from collections import defaultdict


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    bs = getattr(config, "_benchmarksession", None)
    if bs is None or not bs.benchmarks:
        return
    import pandas as pd

    groups = defaultdict(list)
    for bm in bs.benchmarks:
        for row in bm.extra_info["rows"]:
            groups[bm.extra_info["table"]].append({**row, "bench_mean_s": bm.stats.mean})
    tr = terminalreporter
    tr.write_sep("=", "reproduction tables (benchmark extra_info)")
    with pd.option_context("display.width", 220, "display.max_columns", 50):
        for table, rows in groups.items():
            tr.write_line("")
            tr.write_sep("-", table)
            tr.write_line(pd.DataFrame(rows).to_string(float_format=lambda v: f"{v:.6g}"))
