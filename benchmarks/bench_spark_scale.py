"""TS: distributed Spark TPA scalability — preprocessing and online time
across growing DCSBM graphs (the paper's "only TPA reaches billion scale"
claim, scaled to this machine; Theorem 3's O(m)-per-iteration is checked
via the per-edge-per-iteration cost in ``extra_info``).

Each size runs ``spark_scale_table`` for that one size, so the bench and the
table share one sweep; ``extra_info`` carries the table's row.
"""
import pytest

from repro.core.tpa import SparkTPA
from repro.experiments.spark_scale import DEFAULT_SIZES, spark_scale_table
from repro.synth_data import dcsbm_edges


@pytest.fixture(scope="module")
def warm_spark(spark):
    """Run ~30 supersteps on a throwaway graph first, so JVM JIT warm-up is
    not billed to the smallest measured size (it distorted it ~4× otherwise)."""
    edges = dcsbm_edges(spark, n=500, m=4_000, seed=99)
    tpa = SparkTPA(spark, edges, 500, S=4, T=6, eps=1e-2)
    tpa.preprocess()
    tpa.query(0)
    tpa.norm_edges.unpersist()
    return spark


@pytest.mark.parametrize("n,m", DEFAULT_SIZES, ids=[f"n{n}_m{m}" for n, m in DEFAULT_SIZES])
def test_spark_tpa_scale(benchmark, warm_spark, n, m):
    df = benchmark.pedantic(
        spark_scale_table, args=(warm_spark,), kwargs={"sizes": [(n, m)]}, rounds=1, iterations=1
    )
    benchmark.extra_info.update(table="spark-scale", rows=df.to_dict("records"))
