"""Distributed TPA (Algorithms 2–3 on Spark) vs the local reference, plus
its accuracy bound against exact RWR."""
import numpy as np
import pytest

from repro.core import cpi as spark_cpi
from repro.core.local_cpi import exact_rwr
from repro.core.local_tpa import LocalTPA
from repro.core.tpa import SparkTPA
from repro.deadline import Deadline, OutOfTime
from repro.graph import generators as gen
from repro.graph.edges import edges_from_numpy, vector_to_numpy
from repro.graph.linalg import LocalGraph
from repro.metrics import l1_error, spearman

N, M, S, T, EPS = 150, 1200, 3, 8, 1e-4


@pytest.fixture(scope="module")
def g():
    n, src, dst, _ = gen.dcsbm(N, M, n_blocks=4, seed=6)
    return LocalGraph(n, src, dst)


@pytest.fixture(scope="module")
def spark_tpa(spark, g):
    tpa = SparkTPA(
        spark, edges_from_numpy(spark, g.src, g.dst), g.n, S=S, T=T, eps=EPS
    )
    tpa.preprocess()
    return tpa


@pytest.fixture(scope="module")
def local_tpa(g):
    t = LocalTPA(g, S=S, T=T, eps=EPS)
    t.preprocess()
    return t


class TestSparkTPA:
    def test_stranger_matches_local(self, g, spark_tpa, local_tpa):
        got = vector_to_numpy(spark_tpa.r_stranger, g.n)
        assert np.abs(got - local_tpa.r_stranger).sum() < 1e-10

    def test_query_matches_local(self, g, spark_tpa, local_tpa):
        for s in (0, 77):
            assert np.abs(spark_tpa.query_np(s) - local_tpa.query(s)).sum() < 1e-10

    def test_theorem2_bound(self, g, spark_tpa):
        """‖r_exact − r_TPA‖₁ ≤ 2(1-c)^S holds for the distributed result."""
        r = spark_tpa.query_np(42)
        exact = exact_rwr(g, 42)
        assert l1_error(r, exact) <= 2 * 0.85**S + 1e-6

    def test_ranking_quality(self, g, spark_tpa):
        r = spark_tpa.query_np(42)
        assert spearman(r, exact_rwr(g, 42)) > 0.85

    def test_query_requires_preprocess(self, spark, g):
        t = SparkTPA(spark, edges_from_numpy(spark, g.src, g.dst), g.n, S=S, T=T)
        with pytest.raises(RuntimeError):
            t.query(0)

    def test_preprocessed_bytes(self, g, spark_tpa):
        """16 bytes (long + double) per node reached by the stranger tail."""
        assert spark_tpa.preprocessed_bytes == spark_tpa.r_stranger.count() * 16

    def test_invalid_window_rejected(self, spark, g):
        with pytest.raises(ValueError):
            SparkTPA(spark, edges_from_numpy(spark, g.src, g.dst), g.n, S=5, T=4)

    def test_invalid_c_rejected(self, spark, g):
        with pytest.raises(ValueError):
            SparkTPA(spark, edges_from_numpy(spark, g.src, g.dst), g.n, c=1.5)

    def test_unknown_seed_rejected(self, g, spark_tpa):
        """A seed outside 0..n-1 raises instead of returning a score row for
        a node that does not exist."""
        for seed in (-1, g.n):
            with pytest.raises(ValueError, match="not a node id"):
                spark_tpa.query(seed)

    def test_expired_deadline_stops_before_second_superstep(self, spark, g, monkeypatch):
        """``Deadline`` is checked once per superstep, in both phases."""
        supersteps = []
        real_propagate = spark_cpi.propagate

        def counting_propagate(*args):
            supersteps.append(args)
            return real_propagate(*args)

        monkeypatch.setattr(spark_cpi, "propagate", counting_propagate)
        t = SparkTPA(spark, edges_from_numpy(spark, g.src, g.dst), g.n, S=S, T=T, eps=EPS)
        with pytest.raises(OutOfTime):
            t.preprocess(Deadline(0.0))
        assert len(supersteps) < 2 and t.r_stranger is None
        t.r_stranger = t.family(0)  # any vector: the query must stop in its family part
        supersteps.clear()
        with pytest.raises(OutOfTime):
            t.query(0, Deadline(0.0))
        assert len(supersteps) < 2

    def test_unbounded_deadline_changes_nothing(self, spark, g, spark_tpa):
        t = SparkTPA(spark, edges_from_numpy(spark, g.src, g.dst), g.n, S=S, T=T, eps=EPS)
        t.preprocess(Deadline(None))
        assert np.array_equal(
            vector_to_numpy(t.r_stranger, g.n), vector_to_numpy(spark_tpa.r_stranger, g.n)
        )
        assert np.array_equal(
            vector_to_numpy(spark_tpa.query(77, Deadline(None)), g.n), spark_tpa.query_np(77)
        )
