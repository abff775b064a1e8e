"""Distributed TPA (Algorithms 2 and 3) over the Spark edge substrate.

Preprocessing (Algorithm 2) runs PageRank-CPI and keeps only the tail
iterations T..∞ — one pass over the graph per iteration, O(m) each (Lemma 5),
entirely seed-independent. The online phase (Algorithm 3) runs just S
supersteps from the seed, scales the family vector by the closed-form α
(Lemma 3), and merges with the precomputed stranger vector.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.cpi import cpi_spark
from repro.core.local_cpi import DEFAULT_C, DEFAULT_EPS
from repro.core.local_tpa import check_args, neighbor_scale
from repro.deadline import Deadline
from repro.graph.edges import (
    normalize_edges,
    scale_vector,
    seed_vector_df,
    shuffle_partitions,
    sum_vectors,
    uniform_vector_df,
    vector_to_numpy,
)

__all__ = ["SparkTPA"]


class SparkTPA:
    """Two Phase Approximation on Spark DataFrames.

    ``edges`` is the raw edge DataFrame; it is row-normalised (and persisted)
    at construction. ``n`` is the node-id domain size (ids 0..n-1).
    """

    name = "TPA-Spark"

    def __init__(
        self,
        spark: SparkSession,
        edges: DataFrame,
        n: int,
        *,
        c: float = DEFAULT_C,
        S: int = 4,
        T: int = 10,
        eps: float = DEFAULT_EPS,
    ) -> None:
        self.family_scale = 1.0 + neighbor_scale(c, S, T)  # 1 + α; checks c, S, T
        self.spark = spark
        self.n = n
        self.c = c
        self.S = S
        self.T = T
        self.eps = eps
        self.norm_edges = normalize_edges(edges)
        self.r_stranger: DataFrame | None = None

    # -- Algorithm 2 -------------------------------------------------------
    def preprocess(self, deadline: Deadline | None = None) -> DataFrame:
        """Stranger vector: iterations T..∞ of CPI with the PageRank seed.
        ``deadline`` is checked before each superstep."""
        q = uniform_vector_df(self.spark, self.n)
        self.r_stranger = cpi_spark(
            self.spark,
            self.norm_edges,
            q,
            c=self.c,
            eps=self.eps,
            s_iter=self.T,
            deadline=deadline,
        )
        return self.r_stranger

    # -- Algorithm 3 -------------------------------------------------------
    def family(self, seed: int, deadline: Deadline | None = None) -> DataFrame:
        """r_family: S supersteps of CPI from the seed (iterations 0..S-1)."""
        check_args(self.c, self.S, self.T, self.n, seed)
        q = seed_vector_df(self.spark, seed)
        return cpi_spark(
            self.spark,
            self.norm_edges,
            q,
            c=self.c,
            eps=self.eps,
            s_iter=0,
            t_iter=self.S - 1,
            deadline=deadline,
        )

    def query(self, seed: int, deadline: Deadline | None = None) -> DataFrame:
        """r_TPA = (1+α)·r_family + r̃_stranger as a sparse vector DataFrame.
        ``deadline`` is checked before each family superstep."""
        if self.r_stranger is None:
            raise RuntimeError("call preprocess() before query()")
        scaled = scale_vector(self.family(seed, deadline), self.family_scale)
        with shuffle_partitions(self.spark):
            return sum_vectors([scaled, self.r_stranger]).localCheckpoint(eager=True)

    # -- conveniences --------------------------------------------------------
    def query_np(self, seed: int) -> np.ndarray:
        """Dense numpy result, for metric computation against the oracle."""
        return vector_to_numpy(self.query(seed), self.n)

    @property
    def preprocessed_bytes(self) -> int:
        """Stranger vector footprint: one (long, double) row per node."""
        return 0 if self.r_stranger is None else int(self.r_stranger.count()) * 16
