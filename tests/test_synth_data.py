"""Tests for the Spark graph wrappers in ``repro.synth_data``."""
from repro import synth_data


class TestGraphWrappers:
    def test_dcsbm_edges_schema(self, spark):
        df = synth_data.dcsbm_edges(spark, n=100, m=600, seed=1)
        assert set(df.columns) == {"src", "dst"}
        pdf = df.toPandas()
        assert pdf["src"].between(0, 99).all()
        assert pdf["dst"].between(0, 99).all()

    def test_dcsbm_edges_deterministic(self, spark):
        a = synth_data.dcsbm_edges(spark, n=100, m=600, seed=2).toPandas()
        b = synth_data.dcsbm_edges(spark, n=100, m=600, seed=2).toPandas()
        assert a.equals(b)

    def test_er_edges(self, spark):
        df = synth_data.erdos_renyi_edges(spark, n=100, m=600, seed=1)
        pdf = df.toPandas()
        assert abs(len(pdf) - 600) <= 160
        assert (pdf["src"] != pdf["dst"]).all()
