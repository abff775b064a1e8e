"""Distributed CPI vs the local reference: the Spark DataFrame implementation
must be numerically identical (≤1e-10 L1) on every window configuration."""
import numpy as np
import pytest

from repro.core.cpi import PARTITIONS, cpi_spark
from repro.core.local_cpi import DEFAULT_C, cpi, seed_vector, uniform_vector
from repro.graph import generators as gen
from repro.graph.edges import (
    edges_from_numpy,
    l1_norm,
    normalize_edges,
    propagate,
    scale_vector,
    seed_vector_df,
    shuffle_partitions,
    uniform_vector_df,
    vector_to_numpy,
)
from repro.graph.linalg import LocalGraph

N, M = 150, 1200


@pytest.fixture(scope="module")
def setup(spark):
    n, src, dst, _ = gen.dcsbm(N, M, n_blocks=4, seed=5)
    g = LocalGraph(n, src, dst)
    norm = normalize_edges(edges_from_numpy(spark, src, dst))
    return g, norm


class TestSparkCpi:
    def test_family_window(self, spark, setup):
        g, norm = setup
        got = vector_to_numpy(
            cpi_spark(spark, norm, seed_vector_df(spark, 7), s_iter=0, t_iter=3), g.n
        )
        ref = cpi(g, seed_vector(g.n, 7), s_iter=0, t_iter=3)
        assert np.abs(got - ref).sum() < 1e-10

    def test_mid_window(self, spark, setup):
        g, norm = setup
        got = vector_to_numpy(
            cpi_spark(spark, norm, seed_vector_df(spark, 7), s_iter=4, t_iter=8), g.n
        )
        ref = cpi(g, seed_vector(g.n, 7), s_iter=4, t_iter=8)
        assert np.abs(got - ref).sum() < 1e-10

    def test_converged_full(self, spark, setup):
        g, norm = setup
        got = vector_to_numpy(
            cpi_spark(spark, norm, seed_vector_df(spark, 7), eps=1e-3), g.n
        )
        ref = cpi(g, seed_vector(g.n, 7), eps=1e-3)
        assert np.abs(got - ref).sum() < 1e-10

    def test_pagerank_tail(self, spark, setup):
        g, norm = setup
        got = vector_to_numpy(
            cpi_spark(spark, norm, uniform_vector_df(spark, g.n), s_iter=5, eps=1e-3),
            g.n,
        )
        ref = cpi(g, uniform_vector(g.n), s_iter=5, eps=1e-3)
        assert np.abs(got - ref).sum() < 1e-10

    def test_empty_window_returns_zero_vector(self, spark, setup):
        g, norm = setup
        out = cpi_spark(
            spark, norm, seed_vector_df(spark, 0), s_iter=5, t_iter=4, eps=1e-3
        )
        assert l1_norm(out) == 0.0

    def test_negative_s_iter_raises(self, spark, setup):
        _, norm = setup
        with pytest.raises(ValueError):
            cpi_spark(spark, norm, seed_vector_df(spark, 0), s_iter=-1)

    def test_max_iter_truncation(self, spark, setup):
        g, norm = setup
        got = vector_to_numpy(
            cpi_spark(spark, norm, seed_vector_df(spark, 3), eps=0.0, max_iter=3), g.n
        )
        ref = cpi(g, seed_vector(g.n, 3), s_iter=0, t_iter=2)
        assert np.abs(got - ref).sum() < 1e-10

    def test_result_reusable_after_return(self, spark, setup):
        """localCheckpoint must make the result independent of the loop's
        intermediate frames — consuming it twice gives identical rows."""
        g, norm = setup
        out = cpi_spark(spark, norm, seed_vector_df(spark, 7), s_iter=0, t_iter=2)
        a = vector_to_numpy(out, g.n)
        b = vector_to_numpy(out, g.n)
        assert np.array_equal(a, b)

    def test_shuffle_partitions_restored(self, spark, setup):
        """Shuffle partitions and AQE are back to the session's values after
        ``cpi_spark``, after ``normalize_edges`` and after a ``cpi_spark``
        that raises."""
        g, norm = setup
        session = {"spark.sql.shuffle.partitions": "13", "spark.sql.adaptive.enabled": "true"}
        original = {k: spark.conf.get(k) for k in session}

        def restored() -> bool:
            return all(spark.conf.get(k) == v for k, v in session.items())

        try:
            for k, v in session.items():
                spark.conf.set(k, v)
            cpi_spark(spark, norm, seed_vector_df(spark, 0), s_iter=0, t_iter=1)
            assert restored()
            # Other edges than ``setup``'s: unpersisting equal data would
            # drop the cache entry they share.
            normalize_edges(edges_from_numpy(spark, g.src[::2], g.dst[::2])).unpersist()
            assert restored()
            with pytest.raises(ValueError):
                cpi_spark(spark, norm, seed_vector_df(spark, 0), s_iter=-1)
            assert restored()
        finally:
            for k, v in original.items():
                spark.conf.set(k, v)


def _exchanges(plan) -> int:
    """Exchange nodes in a physical plan. A cached relation is a leaf
    (``InMemoryTableScan``), so the plan it caches is not walked."""
    children = plan.children()
    below = sum(_exchanges(children.apply(i)) for i in range(children.size()))
    return below + plan.nodeName().startswith("Exchange")


class TestPartitioning:
    """One partitioning for the substrate: Ã cached by ``src`` at
    ``PARTITIONS``, so a superstep shuffles only its ``groupBy(dst)``."""

    def test_normalized_edges_at_substrate_partitions(self, setup):
        _, norm = setup
        assert norm.rdd.getNumPartitions() == PARTITIONS

    def test_superstep_has_one_exchange(self, spark, setup):
        """``propagate`` on a checkpointed iterate, built as ``cpi_spark``
        builds it, joins both sides in place."""
        _, norm = setup
        with shuffle_partitions(spark):
            x0 = scale_vector(seed_vector_df(spark, 7), DEFAULT_C).localCheckpoint(eager=True)
            x1 = propagate(norm, x0, DEFAULT_C).localCheckpoint(eager=True)
            plan = propagate(norm, x1, DEFAULT_C)._jdf.queryExecution().executedPlan()
        assert _exchanges(plan) == 1

    def test_family_window_two_jobs_per_superstep(self, spark, setup):
        """Two more supersteps in a window cost at most four more jobs: one
        checkpoint and one ``l1_norm`` collect each."""
        _, norm = setup
        sc = spark.sparkContext
        jobs = []
        try:
            for t_iter in (1, 3):
                group = f"test-family-window-{t_iter}"
                sc.setJobGroup(group, "jobs per superstep")
                cpi_spark(spark, norm, seed_vector_df(spark, 7), s_iter=0, t_iter=t_iter)
                sc._jsc.sc().listenerBus().waitUntilEmpty()  # the tracker lags the jobs
                jobs.append(len(sc.statusTracker().getJobIdsForGroup(group)))
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert jobs[0] > 0 and jobs[1] - jobs[0] <= 2 * 2
