"""Tests for TPA (Algorithms 2–3): the paper's lemma/theorem bounds, the
decomposition algebra, and the ablations' qualitative behaviour."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.local_cpi import cpi, exact_rwr, pagerank, seed_vector
from repro.core.local_tpa import LocalTPA, neighbor_scale
from repro.metrics import l1_error, spearman

from helpers import C, dense_exact_rwr, messy_graphs, small_dcsbm, small_er


@pytest.fixture(scope="module")
def g():
    return small_dcsbm(n=400, m=3200)


@pytest.fixture(scope="module")
def tpa(g):
    t = LocalTPA(g, c=C, S=4, T=10)
    t.preprocess()
    return t


@pytest.fixture(scope="module")
def exact(g):
    return {s: exact_rwr(g, s) for s in (0, 17, 200)}


class TestNeighborScale:
    def test_closed_form(self):
        d = 1 - C
        assert neighbor_scale(C, 4, 10) == pytest.approx(
            (d**4 - d**10) / (1 - d**4)
        )

    def test_equals_norm_ratio(self, g):
        """α = ‖r_neighbor‖₁/‖r_family‖₁ measured on a real graph (Lemma 3)."""
        q = seed_vector(g.n, 17)
        fam = cpi(g, q, s_iter=0, t_iter=3)
        nei = cpi(g, q, s_iter=4, t_iter=9)
        assert neighbor_scale(C, 4, 10) == pytest.approx(
            nei.sum() / fam.sum(), rel=1e-10
        )

    def test_T_equals_S_gives_zero(self):
        assert neighbor_scale(C, 4, 4) == 0.0

    def test_invalid_S(self):
        with pytest.raises(ValueError):
            neighbor_scale(C, 0, 5)

    def test_invalid_T(self):
        with pytest.raises(ValueError):
            neighbor_scale(C, 5, 4)

    def test_invalid_c(self, g):
        with pytest.raises(ValueError):
            LocalTPA(g, c=1.5)

    def test_unknown_seed_rejected(self, g, tpa):
        """A seed outside 0..n-1 raises instead of wrapping around to node n-1."""
        for seed in (-1, g.n):
            with pytest.raises(ValueError, match="not a node id"):
                tpa.query(seed)


class TestAlgorithm2:
    def test_stranger_is_pagerank_tail(self, g, tpa):
        ref = pagerank(g, s_iter=10, eps=1e-9)
        assert np.allclose(tpa.r_stranger, ref)

    def test_stranger_norm(self, g, tpa):
        """‖p_stranger‖₁ = (1-c)^T (PageRank analogue of Lemma 3)."""
        assert tpa.r_stranger.sum() == pytest.approx((1 - C) ** 10, rel=1e-4)

    def test_stranger_seed_independent(self, g):
        """Preprocessing never looks at a seed — same result for any query."""
        t1 = LocalTPA(g, S=4, T=10)
        t1.preprocess()
        t2 = LocalTPA(g, S=4, T=10)
        t2.preprocess()
        assert np.array_equal(t1.r_stranger, t2.r_stranger)

    def test_bytes_accounting(self, g, tpa):
        assert tpa.preprocessed_bytes == g.n * 8

    def test_bytes_zero_before_preprocess(self, g):
        assert LocalTPA(g).preprocessed_bytes == 0


class TestAlgorithm3:
    def test_query_requires_preprocess(self, g):
        with pytest.raises(RuntimeError):
            LocalTPA(g).query(0)

    def test_family_norm(self, g, tpa):
        fam = tpa.family(17)
        assert fam.sum() == pytest.approx(1 - (1 - C) ** 4, rel=1e-12)

    def test_decomposition(self, g, tpa):
        """r_TPA = r_family + α·r_family + r̃_stranger, exactly."""
        fam = tpa.family(17)
        expected = fam * (1 + neighbor_scale(C, 4, 10)) + tpa.r_stranger
        assert np.allclose(tpa.query(17), expected)

    def test_na_omits_stranger(self, g, tpa):
        assert np.allclose(tpa.query(17) - tpa.query_na(17), tpa.r_stranger)

    def test_total_mass_close_to_one(self, g, tpa):
        """‖r_TPA‖₁ = 1 by construction on dangling-free graphs."""
        assert tpa.query(17).sum() == pytest.approx(1.0, abs=1e-4)


class TestBounds:
    def test_theorem2_total_bound(self, g, exact):
        """‖r_CPI − r_TPA‖₁ ≤ 2(1-c)^S for several S, T."""
        for S, T in [(2, 6), (4, 10), (6, 12)]:
            t = LocalTPA(g, S=S, T=T)
            t.preprocess()
            for s, ex in exact.items():
                assert l1_error(t.query(s), ex) <= 2 * (1 - C) ** S + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(gg=messy_graphs(), data=st.data(), S=st.integers(1, 5), extra=st.integers(0, 6))
    def test_theorem2_on_messy_graphs(self, gg, data, S, extra):
        """Theorem 2 holds with dangling nodes, duplicate edges and self-loops,
        from sink and isolated seeds too, where the frontier empties mid-query."""
        t = LocalTPA(gg, S=S, T=S + extra)
        t.preprocess()
        for s in (data.draw(st.integers(0, gg.n - 1)), gg.n - 2, gg.n - 1):
            assert l1_error(t.query(s), dense_exact_rwr(gg, s)) <= 2 * (1 - C) ** S + 1e-9

    def test_lemma2_stranger_bound(self, g):
        """‖r_stranger − p_stranger‖₁ ≤ 2(1-c)^T."""
        for T in (5, 10, 15):
            p_str = pagerank(g, s_iter=T, eps=1e-12)
            r_str = cpi(g, seed_vector(g.n, 17), s_iter=T, eps=1e-12)
            assert np.abs(r_str - p_str).sum() <= 2 * (1 - C) ** T + 1e-9

    def test_lemma4_neighbor_bound(self, g):
        """‖r_neighbor − α·r_family‖₁ ≤ 2(1-c)^S − 2(1-c)^T."""
        S, T = 4, 10
        q = seed_vector(g.n, 17)
        fam = cpi(g, q, s_iter=0, t_iter=S - 1)
        nei = cpi(g, q, s_iter=S, t_iter=T - 1)
        approx = neighbor_scale(C, S, T) * fam
        bound = 2 * (1 - C) ** S - 2 * (1 - C) ** T
        assert np.abs(nei - approx).sum() <= bound + 1e-9

    def test_error_decreases_with_S(self, g, exact):
        errs = []
        for S in (1, 3, 5, 7):
            t = LocalTPA(g, S=S, T=10)
            t.preprocess()
            errs.append(np.mean([l1_error(t.query(s), ex) for s, ex in exact.items()]))
        assert errs == sorted(errs, reverse=True)


class TestAblationShapes:
    def test_stranger_term_lifts_spearman(self, g, tpa, exact):
        """Fig. 5's shape: TPA ranking accuracy >> TPA-NA's."""
        for s, ex in exact.items():
            assert spearman(tpa.query(s), ex) > spearman(tpa.query_na(s), ex) + 0.1

    def test_na_l1_better_on_structured_graph(self):
        """Fig. 6's shape: TPA-NA has lower L1 error on the DCSBM graph than
        on an ER twin of the same size."""
        g_real = small_dcsbm(n=600, m=4800, seed=3)
        g_rand = small_er(n=600, m=4800, seed=3)
        errs = {}
        for label, gg in [("real", g_real), ("rand", g_rand)]:
            t = LocalTPA(gg, S=4, T=10)
            t.preprocess()
            seeds = [5, 50, 500]
            errs[label] = np.mean(
                [l1_error(t.query_na(s), exact_rwr(gg, s)) for s in seeds]
            )
        assert errs["real"] < errs["rand"]

    def test_tpa_beats_na_rarely_in_l1(self, g, tpa, exact):
        """The stranger term adds mass where NA had zero: L1 should not get
        dramatically worse (paper: small L1 improvement)."""
        for s, ex in exact.items():
            assert l1_error(tpa.query(s), ex) <= l1_error(tpa.query_na(s), ex) + 0.05
