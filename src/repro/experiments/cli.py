"""Print one table of the evaluation (DESIGN.md §5):

    python -m repro.experiments.cli <table> [--sf 1.0 --seeds 5 --cap 60 --datasets ...]

``<table>`` is a key of ``TABLES``. Each entry builds its table via
``repro.experiments.tables`` (or ``spark_scale`` for ``spark-scale``, which
starts and stops its own SparkSession) and prints it under its title.
"""
from __future__ import annotations

import argparse

import pandas as pd

from repro.experiments import tables as t

__all__ = ["TABLES", "main", "print_df"]


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


# table name -> (printed title, builder from the parsed arguments)
TABLES = {
    "table2": ("Table II — dataset statistics", lambda a: t.datasets_table(sf=a.sf)),
    "fig1a": (
        "Fig. 1(a) — preprocessing time [s]",
        lambda a: t.preprocessing_table(**_main_kw(a)),
    ),
    "fig1b": ("Fig. 1(b) — online time per query [s]", lambda a: t.online_table(**_main_kw(a))),
    "fig1c": (
        "Fig. 1(c) — L1 error",
        lambda a: _columns(t.accuracy_table(**_main_kw(a)), " L1"),
    ),
    "fig3": ("Fig. 3 — preprocessed data [bytes]", lambda a: t.memory_table(**_main_kw(a))),
    "fig4": (
        "Fig. 4 — Spearman correlation",
        lambda a: _columns(t.accuracy_table(**_main_kw(a)), " rho"),
    ),
    "fig5": (
        "Fig. 5 — stranger approximation ablation",
        lambda a: t.stranger_effect_table(datasets=a.datasets, sf=a.sf, n_seeds=a.seeds),
    ),
    "fig6": (
        "Fig. 6 — neighbor approximation on real-like vs random graphs",
        lambda a: t.neighbor_effect_table(datasets=a.datasets, sf=a.sf, n_seeds=a.seeds),
    ),
    "fig7": (
        "Fig. 7 — effect of S",
        lambda a: t.effect_of_S_table(a.datasets or t.SWEEP_DATASETS, sf=a.sf, n_seeds=a.seeds),
    ),
    "fig8": (
        "Fig. 8 — effect of T",
        lambda a: t.effect_of_T_table(a.datasets or t.SWEEP_DATASETS, sf=a.sf, n_seeds=a.seeds),
    ),
    "spark-scale": ("TS — distributed TPA scalability", _spark_scale),
}


def print_df(df: pd.DataFrame, title: str) -> None:
    print(f"\n=== {title} ===")
    with pd.option_context("display.width", 200, "display.max_columns", 50):
        print(df.to_string(float_format=lambda v: f"{v:.6g}"))


def main(argv: list[str] | None = None) -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("table", choices=list(TABLES), help="table to print")
    p.add_argument("--sf", type=float, default=1.0, help="dataset scale factor")
    p.add_argument("--seeds", type=int, default=5, help="number of random seed nodes")
    p.add_argument("--cap", type=float, default=60.0, help="per-phase deadline seconds")
    p.add_argument("--datasets", nargs="*", default=None, help="subset of dataset names")
    a = p.parse_args(argv)
    title, build = TABLES[a.table]
    print_df(build(a), title)


if __name__ == "__main__":
    main()
