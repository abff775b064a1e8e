"""Tests for CPI (Algorithm 1) on the local substrate: Theorem 1 (CPI equals
the power-iteration fixed point), the interim-norm identity ‖x⁽ⁱ⁾‖₁=c(1-c)ⁱ,
iteration-window slicing, and closed-form answers on analytic graphs."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.local_cpi import (
    cpi,
    exact_rwr,
    interim_vectors,
    iterates,
    n_iterations_to_converge,
    pagerank,
    seed_vector,
    uniform_vector,
)
from repro.graph import generators as gen

from helpers import (
    C,
    dense_exact_pagerank,
    dense_exact_rwr,
    graph_from,
    messy_graphs,
    small_dcsbm,
)


@pytest.fixture(scope="module")
def g():
    return small_dcsbm()


class TestSeedVectors:
    def test_single_seed(self):
        q = seed_vector(5, 2)
        assert q[2] == 1.0 and q.sum() == 1.0

    def test_multiple_seeds(self):
        q = seed_vector(6, [1, 3, 5])
        assert q[1] == q[3] == q[5] == pytest.approx(1 / 3)
        assert q.sum() == pytest.approx(1.0)

    def test_uniform(self):
        q = uniform_vector(8)
        assert np.allclose(q, 1 / 8)


class TestTheorem1:
    """CPI = PI: converged CPI equals the dense linear-system solution."""

    def test_rwr_matches_dense_solve(self, g):
        for s in (0, 7, 123):
            r = exact_rwr(g, s)
            assert np.abs(r - dense_exact_rwr(g, s)).sum() < 1e-9

    def test_pagerank_matches_dense_solve(self, g):
        p = pagerank(g, eps=1e-12)
        assert np.abs(p - dense_exact_pagerank(g)).sum() < 1e-9

    def test_rwr_satisfies_fixed_point(self, g):
        """r = (1-c)Ãᵀr + c q directly."""
        s = 11
        r = exact_rwr(g, s)
        q = seed_vector(g.n, s)
        assert np.allclose(r, (1 - C) * g.push(r) + C * q, atol=1e-10)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_property_random_graphs(self, seed):
        gg = graph_from(gen.erdos_renyi(40, 160, seed=seed))
        r = exact_rwr(gg, 0)
        assert np.abs(r - dense_exact_rwr(gg, 0)).sum() < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(gg=messy_graphs(), data=st.data())
    def test_property_messy_graphs(self, gg, data):
        """Dangling nodes, duplicate edges, self-loops; sink and isolated seeds."""
        for s in (data.draw(st.integers(0, gg.n - 1)), gg.n - 2, gg.n - 1):
            assert np.abs(exact_rwr(gg, s) - dense_exact_rwr(gg, s)).sum() < 1e-9


class TestInterimNorms:
    def test_norm_identity(self, g):
        """Lemma 3's ingredient: ‖x⁽ⁱ⁾‖₁ = c(1-c)ⁱ on dangling-free graphs."""
        xs = interim_vectors(g, seed_vector(g.n, 0), upto=10)
        for i, x in enumerate(xs):
            assert x.sum() == pytest.approx(C * (1 - C) ** i, rel=1e-12)

    def test_norm_leaks_with_dangling(self):
        gg = graph_from(gen.chain(4))
        xs = interim_vectors(gg, seed_vector(4, 3), upto=2)
        # seed 3 is dangling: all mass leaks after iteration 0
        assert xs[0].sum() == pytest.approx(C)
        assert xs[1].sum() == 0.0

    def test_nonnegative(self, g):
        xs = interim_vectors(g, seed_vector(g.n, 0), upto=6)
        for x in xs:
            assert (x >= 0).all()

    def test_lemma1_bound(self, g):
        """‖x⁽ⁱ⁾ − x′⁽ⁱ⁾‖₁ ≤ 2c(1-c)ⁱ between RWR and PageRank interims."""
        xs = interim_vectors(g, seed_vector(g.n, 0), upto=8)
        xps = interim_vectors(g, uniform_vector(g.n), upto=8)
        for i, (x, xp) in enumerate(zip(xs, xps)):
            assert np.abs(x - xp).sum() <= 2 * C * (1 - C) ** i + 1e-12


class TestWindows:
    def test_full_split_reassembles(self, g):
        """family + neighbor + stranger = full CPI (the paper's partition)."""
        q = seed_vector(g.n, 9)
        S, T = 4, 10
        fam = cpi(g, q, s_iter=0, t_iter=S - 1)
        nei = cpi(g, q, s_iter=S, t_iter=T - 1)
        str_ = cpi(g, q, s_iter=T, eps=1e-12)
        full = cpi(g, q, eps=1e-12)
        assert np.abs(fam + nei + str_ - full).sum() < 1e-9

    def test_family_norm_lemma3(self, g):
        q = seed_vector(g.n, 9)
        for S in (1, 2, 4, 6):
            fam = cpi(g, q, s_iter=0, t_iter=S - 1)
            assert fam.sum() == pytest.approx(1 - (1 - C) ** S, rel=1e-12)

    def test_neighbor_norm_lemma3(self, g):
        q = seed_vector(g.n, 9)
        S, T = 4, 10
        nei = cpi(g, q, s_iter=S, t_iter=T - 1)
        assert nei.sum() == pytest.approx((1 - C) ** S - (1 - C) ** T, rel=1e-12)

    def test_empty_window(self, g):
        q = seed_vector(g.n, 0)
        assert cpi(g, q, s_iter=5, t_iter=4).sum() == 0.0

    def test_single_iteration_window(self, g):
        q = seed_vector(g.n, 0)
        only0 = cpi(g, q, s_iter=0, t_iter=0)
        assert np.allclose(only0, C * q)

    def test_negative_s_iter_raises(self, g):
        with pytest.raises(ValueError):
            cpi(g, seed_vector(g.n, 0), s_iter=-1)

    def test_iterates_is_substrate_free(self):
        """The loop only needs a step and a norm: halving a float from 1.0
        yields the window from i=1 until the norm drops below eps; an empty
        window yields nothing."""
        def half(x):
            return x / 2

        assert list(iterates(1.0, half, abs, eps=0.1, s_iter=1)) == [0.5, 0.25, 0.125, 0.0625]
        assert list(iterates(1.0, half, abs, eps=0.0, t_iter=2)) == [1.0, 0.5, 0.25]
        assert list(iterates(1.0, half, abs, eps=0.0, s_iter=3, t_iter=2)) == []

    def test_max_iter_truncates(self, g):
        q = seed_vector(g.n, 0)
        r = cpi(g, q, eps=0.0, max_iter=3)
        ref = cpi(g, q, s_iter=0, t_iter=2)
        assert np.allclose(r, ref)


class TestClosedForms:
    def test_cycle_rwr(self):
        """On a directed n-cycle from seed 0: r[k] = c(1-c)^k / (1-(1-c)^n)."""
        n = 6
        gg = graph_from(gen.cycle(n))
        r = exact_rwr(gg, 0)
        denom = 1 - (1 - C) ** n
        for k in range(n):
            assert r[k] == pytest.approx(C * (1 - C) ** k / denom, rel=1e-9)

    def test_cycle_pagerank_uniform(self):
        gg = graph_from(gen.cycle(7))
        p = pagerank(gg, eps=1e-12)
        assert np.allclose(p, 1 / 7, atol=1e-10)

    def test_complete_graph_rwr_symmetry(self):
        """All non-seed nodes are equivalent by symmetry."""
        gg = graph_from(gen.complete(5))
        r = exact_rwr(gg, 0)
        assert np.allclose(r[1:], r[1])
        assert r[0] > r[1]

    def test_two_node_closed_form(self):
        """0↔1: r0 = c/(1-(1-c)²)·1, r1 = (1-c)·r0... solved directly."""
        gg = graph_from((2, np.array([0, 1]), np.array([1, 0])))
        r = exact_rwr(gg, 0)
        d = 1 - C
        r0 = C / (1 - d * d)
        assert r[0] == pytest.approx(r0, rel=1e-10)
        assert r[1] == pytest.approx(d * r0, rel=1e-10)

    def test_sums_to_one_without_dangling(self, g):
        assert exact_rwr(g, 3).sum() == pytest.approx(1.0, abs=1e-9)

    def test_pagerank_sums_to_one(self, g):
        assert pagerank(g, eps=1e-12).sum() == pytest.approx(1.0, abs=1e-9)


class TestConvergence:
    def test_iteration_count_formula(self):
        """Lemma 5: iterations = log_{1-c}(ε/c)."""
        assert n_iterations_to_converge(0.15, 1e-9) == 116
        assert n_iterations_to_converge(0.15, 1e-6) == 74

    def test_looser_eps_converges_faster(self, g):
        q = seed_vector(g.n, 0)
        loose = cpi(g, q, eps=1e-3)
        tight = cpi(g, q, eps=1e-12)
        # loose truncates the series: strictly less mass accumulated
        assert loose.sum() < tight.sum()
        assert np.abs(loose - tight).sum() < 1e-2

    def test_truncation_error_bound(self, g):
        """Stopping at ‖x⁽ⁱ⁾‖₁<ε leaves at most ε·(1-c)/c mass un-accumulated."""
        q = seed_vector(g.n, 0)
        eps = 1e-4
        approx = cpi(g, q, eps=eps)
        exact = cpi(g, q, eps=1e-14)
        assert np.abs(approx - exact).sum() <= eps * (1 - C) / C + 1e-12
