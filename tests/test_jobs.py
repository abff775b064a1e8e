"""Smoke tests for the table CLI (``python -m repro.experiments.cli``).

Local tables run in-process with a tiny --sf; the ``spark-scale`` table
manages its own SparkSession lifecycle (it would stop the shared test
session), so its library function is exercised instead —
``spark_scale_table`` at miniature size here, and SparkTPA throughout
tests/test_spark_tpa.py.
"""
from repro.experiments import cli


def run_table(capsys, table: str, *argv: str) -> str:
    cli.main([table, *argv])
    return capsys.readouterr().out


TINY = ("--sf", "0.01", "--seeds", "1", "--cap", "20",
        "--datasets", "slashdot-lite")


class TestLocalJobs:
    def test_table2(self, capsys):
        out = run_table(capsys, "table2", "--sf", "0.01")
        assert "slashdot-lite" in out and "friendster-lite" in out

    def test_fig1a(self, capsys):
        out = run_table(capsys, "fig1a", *TINY)
        assert "preprocessing time" in out and "TPA" in out

    def test_fig1b(self, capsys):
        out = run_table(capsys, "fig1b", *TINY)
        assert "online time" in out

    def test_fig1c(self, capsys):
        out = run_table(capsys, "fig1c", *TINY)
        assert "L1 error" in out

    def test_fig3(self, capsys):
        out = run_table(capsys, "fig3", *TINY)
        assert "preprocessed data" in out

    def test_fig4(self, capsys):
        out = run_table(capsys, "fig4", *TINY)
        assert "Spearman" in out

    def test_fig5(self, capsys):
        out = run_table(capsys, "fig5", *TINY[:4], "--datasets", "slashdot-lite")
        assert "stranger approximation" in out

    def test_fig6(self, capsys):
        out = run_table(capsys, "fig6", *TINY[:4], "--datasets", "slashdot-lite")
        assert "neighbor approximation" in out

    def test_fig7(self, capsys):
        out = run_table(capsys, "fig7", *TINY[:4], "--datasets", "pokec-lite")
        assert "effect of S" in out

    def test_fig8(self, capsys):
        out = run_table(capsys, "fig8", *TINY[:4], "--datasets", "pokec-lite")
        assert "effect of T" in out


class TestSparkScaleFunction:
    def test_tiny_sweep(self, spark):
        from repro.experiments.spark_scale import spark_scale_table

        df = spark_scale_table(
            spark, sizes=[(100, 600), (200, 1200)], eps=1e-2, n_seeds=1, S=2, T=4
        )
        assert len(df) == 2
        assert (df["pre_time_s"] > 0).all()
        assert (df["online_time_s"] > 0).all()
        assert (df["stranger_bytes"] > 0).all()
        assert df["edges"].tolist() == [600, 1200]
