"""Distributed CPI (Algorithm 1) as iterative DataFrame message passing.

Each iteration is one superstep (join + shuffle aggregation); the interim
vector is ``localCheckpoint``-ed eagerly so lineage stays O(1) across the
potentially ~150 iterations a 1e-9 tolerance needs. Supersteps run inside
``shuffle_partitions``, the substrate's one partitioning (``PARTITIONS``,
re-exported from ``repro.graph.edges``): the checkpointed vector keeps the
cached edges' hash partitioning, so the join shuffles neither side and a
superstep is one shuffle and two Spark jobs (checkpoint, ``l1_norm``).
The loop itself — window ``[s_iter, t_iter]`` and stop rules — is
``local_cpi.iterates``, shared with the numpy substrate: TPA's family part is
``[0, S-1]``, the stranger preprocessing is ``[T, ∞)``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.core.local_cpi import DEFAULT_C, DEFAULT_EPS, MAX_ITER, iterates
from repro.deadline import Deadline
from repro.graph.edges import (
    PARTITIONS,
    l1_norm,
    propagate,
    scale_vector,
    shuffle_partitions,
    sum_vectors,
)

__all__ = ["cpi_spark", "PARTITIONS"]


def cpi_spark(
    spark: SparkSession,
    norm_edges: DataFrame,
    q: DataFrame,
    *,
    c: float = DEFAULT_C,
    eps: float = DEFAULT_EPS,
    s_iter: int = 0,
    t_iter: int | None = None,
    max_iter: int = MAX_ITER,
    deadline: Deadline | None = None,
) -> DataFrame:
    """CPI-IMPL on Spark: returns the (sparse) vector Σ_{i=s_iter}^{t_iter} x⁽ⁱ⁾.

    ``q`` is the seed vector DataFrame (id, score) with q-values; internally
    x⁽⁰⁾ = c·q, exactly as Algorithm 1. The returned DataFrame is
    checkpointed and safe to reuse after this function returns.
    ``deadline`` is checked before each superstep; expiry raises
    ``OutOfTime``.
    """

    def step(x: DataFrame) -> DataFrame:
        if deadline is not None:
            deadline.check()
        return propagate(norm_edges, x, c).localCheckpoint(eager=True)

    with shuffle_partitions(spark):
        parts = list(
            iterates(
                scale_vector(q, c).localCheckpoint(eager=True),
                step,
                l1_norm,  # ‖x⁽ⁱ⁾‖₁, the convergence condition (lines 8-10)
                eps=eps,
                s_iter=s_iter,
                t_iter=t_iter,
                max_iter=max_iter,
            )
        )
        if not parts:
            return scale_vector(q.limit(0), 0.0).localCheckpoint(eager=True)
        return sum_vectors(parts).localCheckpoint(eager=True)
