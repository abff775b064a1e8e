"""Spark edge DataFrames ``(src, dst)`` for the TPA reproduction — thin
wrappers over the numpy generators in ``repro.graph.generators``.

The paper evaluates on directed graphs; DCSBM provides the power-law +
block-wise structure its approximations rely on (DESIGN.md §4), ER is the
Fig. 6 "random graph" counterpart. Both are deterministic in ``seed``.
"""
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def dcsbm_edges(
    spark: SparkSession,
    *,
    n: int,
    m: int,
    n_blocks: int = 32,
    p_in: float = 0.8,
    seed: int = 0,
) -> DataFrame:
    """Directed DCSBM graph as an edge DataFrame (src, dst)."""
    from repro.graph.generators import dcsbm

    _, src, dst, _ = dcsbm(n, m, n_blocks=n_blocks, p_in=p_in, seed=seed)
    return spark.createDataFrame(pd.DataFrame({"src": src, "dst": dst}))


def erdos_renyi_edges(
    spark: SparkSession, *, n: int, m: int, seed: int = 0
) -> DataFrame:
    """Uniform random directed graph as an edge DataFrame (src, dst)."""
    from repro.graph.generators import erdos_renyi

    _, src, dst = erdos_renyi(n, m, seed=seed)
    return spark.createDataFrame(pd.DataFrame({"src": src, "dst": dst}))
