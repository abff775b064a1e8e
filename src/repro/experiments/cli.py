"""Print one table of the evaluation (DESIGN.md §5):

    python -m repro.experiments.cli <table> [--sf 1.0 --seeds 3 --cap 120 --datasets ...]

``<table>`` is a key of ``TABLES``. Each entry builds its table via
``repro.experiments.tables`` (or ``spark_scale`` for ``spark-scale``, which
starts and stops its own SparkSession) and prints it under its title. The
benchmark suite (``benchmarks/bench_tables.py``) builds the local tables
through the same registry, one dataset at a time.
"""
from __future__ import annotations

import argparse
from typing import Callable, NamedTuple

import pandas as pd

from repro.experiments import tables as t
from repro.experiments.datasets import DATASET_ORDER
from repro.experiments.runner import N_SEEDS, TIME_CAP

__all__ = ["TABLES", "Table", "main", "print_df"]


def _main_kw(a: argparse.Namespace) -> dict:
    """Arguments of the cached main comparison (Fig. 1a/1b/1c, 3, 4)."""
    return {"datasets": a.datasets, "sf": a.sf, "n_seeds": a.seeds, "time_cap": a.cap}


def _columns(df: pd.DataFrame, suffix: str) -> pd.DataFrame:
    return df[[c for c in df.columns if c.endswith(suffix)]]


def _spark_scale(a: argparse.Namespace) -> pd.DataFrame:
    from pyspark.sql import SparkSession

    from repro.experiments.spark_scale import spark_scale_table

    spark = (
        SparkSession.builder.appName("tpa-spark-scale")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    try:
        return spark_scale_table(spark)
    finally:
        spark.stop()


class Table(NamedTuple):
    title: str
    build: Callable[[argparse.Namespace], pd.DataFrame]
    datasets: tuple[str, ...] = tuple(DATASET_ORDER)  # ``--datasets`` default


TABLES = {
    "table2": Table(
        "Table II — dataset statistics",
        lambda a: t.datasets_table(a.datasets, sf=a.sf),
    ),
    "fig1a": Table(
        "Fig. 1(a) — preprocessing time [s]",
        lambda a: t.preprocessing_table(**_main_kw(a)),
    ),
    "fig1b": Table(
        "Fig. 1(b) — online time per query [s]",
        lambda a: t.online_table(**_main_kw(a)),
    ),
    "fig1c": Table(
        "Fig. 1(c) — L1 error",
        lambda a: _columns(t.accuracy_table(**_main_kw(a)), " L1"),
    ),
    "fig3": Table(
        "Fig. 3 — preprocessed data [bytes]",
        lambda a: t.memory_table(**_main_kw(a)),
    ),
    "fig4": Table(
        "Fig. 4 — Spearman correlation",
        lambda a: _columns(t.accuracy_table(**_main_kw(a)), " rho"),
    ),
    "fig5": Table(
        "Fig. 5 — stranger approximation ablation",
        lambda a: t.stranger_effect_table(a.datasets, sf=a.sf, n_seeds=a.seeds),
    ),
    "fig6": Table(
        "Fig. 6 — neighbor approximation on real-like vs random graphs",
        lambda a: t.neighbor_effect_table(a.datasets, sf=a.sf, n_seeds=a.seeds),
    ),
    "fig7": Table(
        "Fig. 7 — effect of S",
        lambda a: t.effect_of_S_table(a.datasets, sf=a.sf, n_seeds=a.seeds),
        t.SWEEP_DATASETS,
    ),
    "fig8": Table(
        "Fig. 8 — effect of T",
        lambda a: t.effect_of_T_table(a.datasets, sf=a.sf, n_seeds=a.seeds),
        t.SWEEP_DATASETS,
    ),
    "spark-scale": Table("TS — distributed TPA scalability", _spark_scale, datasets=()),
}


def print_df(df: pd.DataFrame, title: str) -> None:
    print(f"\n=== {title} ===")
    with pd.option_context("display.width", 200, "display.max_columns", 50):
        print(df.to_string(float_format=lambda v: f"{v:.6g}"))


def main(argv: list[str] | None = None) -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("table", choices=list(TABLES), help="table to print")
    p.add_argument("--sf", type=float, default=1.0, help="dataset scale factor")
    p.add_argument("--seeds", type=int, default=N_SEEDS, help="number of random seed nodes")
    p.add_argument("--cap", type=float, default=TIME_CAP, help="per-phase deadline seconds")
    p.add_argument(
        "--datasets", nargs="*", default=None, help="subset of dataset names (default: the table's)"
    )
    a = p.parse_args(argv)
    table = TABLES[a.table]
    a.datasets = a.datasets or list(table.datasets)
    print_df(table.build(a), table.title)


if __name__ == "__main__":
    main()
