"""Distributed graph substrate: Spark DataFrame graph operations.

A graph is an edge DataFrame ``(src: long, dst: long)``; a score vector is a
*sparse* DataFrame ``(id: long, score: double)`` holding only non-zero
entries. One CPI step is one Pregel/GraphX-style superstep expressed in
Catalyst: ``edges ⋈ scores on src → groupBy(dst).sum((1-c)·w·score)`` — a
shuffle join plus a shuffle aggregation (broadcast joins are disabled by the
session fixture, so the shuffle path is what runs).

Every operation here is mirrored by a DuckDB SQL statement in the oracle
tests (tests/test_oracle_graph.py): a wrong join or aggregation is caught by
result diffing, not just by "it ran".
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

__all__ = [
    "edges_from_numpy",
    "out_degrees",
    "normalize_edges",
    "propagate",
    "seed_vector_df",
    "uniform_vector_df",
    "sum_vectors",
    "scale_vector",
    "l1_norm",
    "vector_to_numpy",
    "shuffle_partitions",
]


@contextmanager
def shuffle_partitions(spark: SparkSession, n: int):
    """Temporarily set ``spark.sql.shuffle.partitions`` — iterative graph
    jobs on small-to-medium vectors drown in task overhead at the session
    default (64); CPI runs its supersteps at ``repro.core.cpi.PARTITIONS``
    and restores the session value afterwards."""
    key = "spark.sql.shuffle.partitions"
    old = spark.conf.get(key)
    spark.conf.set(key, str(n))
    try:
        yield
    finally:
        spark.conf.set(key, old)


def edges_from_numpy(spark: SparkSession, src: np.ndarray, dst: np.ndarray) -> DataFrame:
    """Edge DataFrame from numpy endpoint arrays (Arrow-accelerated)."""
    pdf = pd.DataFrame({"src": np.asarray(src, np.int64), "dst": np.asarray(dst, np.int64)})
    return spark.createDataFrame(pdf)


def out_degrees(edges: DataFrame) -> DataFrame:
    """``(id, out_deg)`` for every node with at least one out-edge."""
    return edges.groupBy(F.col("src").alias("id")).agg(F.count("*").alias("out_deg"))


def normalize_edges(edges: DataFrame) -> DataFrame:
    """Row-normalised edges ``(src, dst, w)`` with ``w = 1/out_deg(src)``.

    This is Ã in edge form; dangling nodes simply contribute no rows. The
    result is persisted and materialised — it is reused every iteration.
    """
    deg = out_degrees(edges)
    norm = (
        edges.join(deg, edges["src"] == deg["id"], "inner")
        .select("src", "dst", (F.lit(1.0) / F.col("out_deg")).alias("w"))
        .persist()
    )
    norm.count()  # materialise so iteration timing excludes normalisation
    return norm


def propagate(norm_edges: DataFrame, x: DataFrame, c: float) -> DataFrame:
    """One CPI superstep: ``x' = (1-c)·Ãᵀ x`` as join + aggregate."""
    return (
        norm_edges.join(x, norm_edges["src"] == x["id"], "inner")
        .groupBy(F.col("dst").alias("id"))
        .agg((F.lit(1.0 - c) * F.sum(F.col("w") * F.col("score"))).alias("score"))
    )


def seed_vector_df(spark: SparkSession, seeds) -> DataFrame:
    """Sparse seed vector: ``1 / |seeds|`` at each seed node."""
    seeds = [int(s) for s in np.atleast_1d(seeds)]
    val = 1.0 / len(seeds)
    pdf = pd.DataFrame({"id": np.asarray(seeds, np.int64), "score": val})
    return spark.createDataFrame(pdf)


def uniform_vector_df(spark: SparkSession, n: int) -> DataFrame:
    """Dense uniform vector ``1/n`` at every node 0..n-1 (PageRank seed)."""
    return spark.range(n).select(F.col("id").cast("long"), F.lit(1.0 / n).alias("score"))


def sum_vectors(vectors: list[DataFrame]) -> DataFrame:
    """Entry-wise sum of sparse vectors: union-all then one aggregation.

    CPI's result literally is a sum of interim vectors, so accumulating this
    way needs a single shuffle instead of one per iteration.
    """
    if not vectors:
        raise ValueError("sum_vectors needs at least one vector")
    acc = vectors[0]
    for v in vectors[1:]:
        acc = acc.unionByName(v)
    return acc.groupBy("id").agg(F.sum("score").alias("score"))


def scale_vector(x: DataFrame, factor: float) -> DataFrame:
    """``factor · x``."""
    return x.select("id", (F.col("score") * F.lit(float(factor))).alias("score"))


def l1_norm(x: DataFrame) -> float:
    """‖x‖₁ (one small aggregation job)."""
    row = x.agg(F.sum(F.abs(F.col("score"))).alias("n")).collect()[0]
    return float(row["n"] or 0.0)


def vector_to_numpy(x: DataFrame, n: int) -> np.ndarray:
    """Densify a sparse score vector to a length-n numpy array."""
    pdf = x.toPandas()
    out = np.zeros(n)
    if len(pdf):
        out[pdf["id"].to_numpy(np.int64)] = pdf["score"].to_numpy(np.float64)
    return out
