"""Every local evaluation table (Table II, Figs. 1a/1b/1c and 3–8), one
benchmark per (table, dataset).

Each test builds its table once through the CLI's registry
``repro.experiments.cli.TABLES`` and stores the rows in ``extra_info``;
``conftest.py`` prints them as one DataFrame per table. The main comparison
behind Figs. 1a/1b/1c, 3 and 4 runs once per dataset and is cached, so the
Fig. 1a test of a dataset carries the time of all five.

Knobs: ``BENCH_SF`` (dataset scale, default 1.0), ``BENCH_SEEDS`` (query
seeds) and ``BENCH_CAP`` (per-phase deadline seconds); the last two default
to the harness defaults in ``repro.experiments.runner``.
"""
import argparse
import os

import pytest

from repro.experiments.cli import TABLES
from repro.experiments.runner import N_SEEDS, TIME_CAP

BENCH_SF = float(os.environ.get("BENCH_SF", "1.0"))
BENCH_SEEDS = int(os.environ.get("BENCH_SEEDS", N_SEEDS))
BENCH_CAP = float(os.environ.get("BENCH_CAP", TIME_CAP))


def _check_fig3(df):
    """Every method with a preprocessing phase stores data wherever it ran."""
    cells = df[["TPA", "NB-LIN", "BEAR-APPROX", "HubPPR"]].stack()
    assert (cells[cells != "OOT"] > 0).all()


def _check_fig5(df):
    """The paper's headline: the stranger term rescues the ranking."""
    assert (df["TPA rho"] > df["TPA-NA rho"]).all()


CHECKS = {"fig3": _check_fig3, "fig5": _check_fig5}
CASES = [(key, ds) for key, table in TABLES.items() for ds in table.datasets]


@pytest.mark.parametrize("key,dataset", CASES, ids=[f"{k}-{d}" for k, d in CASES])
def test_table(benchmark, key, dataset):
    args = argparse.Namespace(
        sf=BENCH_SF, seeds=BENCH_SEEDS, cap=BENCH_CAP, datasets=[dataset]
    )
    df = benchmark.pedantic(TABLES[key].build, args=(args,), rounds=1, iterations=1)
    if key in CHECKS:
        CHECKS[key](df)
    rows = df.reset_index(drop=df.index.name is None).to_dict("records")
    benchmark.extra_info.update(table=key, rows=rows)
