"""Distributed graph substrate: Spark DataFrame graph operations.

A graph is an edge DataFrame ``(src: long, dst: long)``; a score vector is a
*sparse* DataFrame ``(id: long, score: double)`` holding only non-zero
entries. One CPI step is one Pregel/GraphX-style superstep expressed in
Catalyst: ``edges ⋈ scores on src → groupBy(dst).sum((1-c)·w·score)`` — a
sort-merge join plus a shuffle aggregation (broadcast joins are disabled by
the session fixture, so the shuffle path is what runs).

The substrate has one partitioning: ``PARTITIONS`` hash partitions. Ã is
cached hash-partitioned by ``src`` into them, and every superstep's
aggregation leaves its vector hash-partitioned by ``id`` into them, so the
join of the next superstep reads both sides in place and the ``groupBy(dst)``
is a superstep's only shuffle. ``shuffle_partitions`` holds the session at
that count, with adaptive query execution off: AQE would coalesce the small
aggregate into fewer partitions, and the next join would have to shuffle the
vector again.

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
    "PARTITIONS",
]

# Hash partitions of the cached edges and of every superstep's shuffle. The
# session default (64) drowns the small-to-medium vectors of iterative
# supersteps in task overhead; a constant (not the host's parallelism) keeps
# plans and summation order the same on every host.
PARTITIONS = 8


@contextmanager
def shuffle_partitions(spark: SparkSession):
    """Run the enclosed Spark work at ``PARTITIONS`` shuffle partitions with
    adaptive query execution off (the module docstring says why), and
    restore the session's values afterwards, also when the work raises."""
    settings = {
        "spark.sql.shuffle.partitions": str(PARTITIONS),
        "spark.sql.adaptive.enabled": "false",
    }
    old = {key: spark.conf.get(key) for key in settings}
    for key, value in settings.items():
        spark.conf.set(key, value)
    try:
        yield
    finally:
        for key, value in old.items():
            spark.conf.set(key, value)


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
    result is persisted and materialised — it is reused every iteration —
    hash-partitioned by ``src`` into ``PARTITIONS`` partitions, the
    partitioning every superstep's join expects.
    """
    with shuffle_partitions(edges.sparkSession):
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
