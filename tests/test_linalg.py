"""Unit tests for the local graph substrate (LocalGraph)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import generators as gen
from repro.graph.linalg import FRONTIER_CUTOVER, LocalGraph

from helpers import graph_from, messy_graphs, small_dcsbm


@pytest.fixture(scope="module")
def g() -> LocalGraph:
    return small_dcsbm()


class TestConstruction:
    def test_degrees(self):
        gg = graph_from(gen.cycle(4))
        assert (gg.out_deg == 1).all() and (gg.in_deg == 1).all()

    def test_m(self, g):
        assert g.m == len(g.src)

    def test_edge_w_is_inverse_out_degree(self, g):
        assert np.allclose(g.edge_w, 1.0 / g.out_deg[g.src])

    def test_dangling_inv_out_zero(self):
        gg = graph_from(gen.chain(5))
        assert gg.inv_out[4] == 0.0
        assert gg.n_dangling == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            LocalGraph(3, np.array([0, 5]), np.array([1, 2]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            LocalGraph(3, np.array([0, 1]), np.array([1]))


class TestSpMV:
    def test_push_matches_dense(self, g):
        A = g.dense_transition_T()
        rng = np.random.default_rng(0)
        x = rng.random(g.n)
        assert np.allclose(g.push(x), A @ x)

    def test_pull_matches_dense(self, g):
        A = g.dense_transition_T()
        rng = np.random.default_rng(1)
        x = rng.random(g.n)
        assert np.allclose(g.pull(x), A.T @ x)

    def test_push_preserves_l1_without_dangling(self, g):
        assert g.n_dangling == 0
        x = np.random.default_rng(2).random(g.n)
        assert np.isclose(g.push(x).sum(), x.sum())

    def test_push_leaks_mass_with_dangling(self):
        gg = graph_from(gen.chain(4))
        x = np.ones(4)
        assert gg.push(x).sum() == pytest.approx(3.0)

    @pytest.mark.parametrize("x", [np.zeros(3), np.ones(3)])
    def test_push_and_pull_without_edges_are_float_zeros(self, x):
        """With no edges every node is dangling: all mass leaks, and the
        zero result is float64 like any other (``np.bincount`` of no edges
        returns integers)."""
        gg = LocalGraph(3, [], [])
        for y in (gg.push(x), gg.pull(x)):
            assert y.dtype == np.float64 and np.array_equal(y, np.zeros(3))

    def test_push_linear(self, g):
        rng = np.random.default_rng(4)
        x, y = rng.random(g.n), rng.random(g.n)
        assert np.allclose(g.push(x + 2 * y), g.push(x) + 2 * g.push(y))

    def test_column_stochastic(self, g):
        """Ãᵀ columns sum to 1 for non-dangling sources."""
        A = g.dense_transition_T()
        assert np.allclose(A.sum(axis=0), 1.0)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000), n=st.integers(10, 60))
    def test_property_push_matches_dense(self, seed, n):
        spec = gen.erdos_renyi(n, 4 * n, seed=seed)
        gg = graph_from(spec)
        x = np.random.default_rng(seed).random(n)
        assert np.allclose(gg.push(x), gg.dense_transition_T() @ x)

    @settings(max_examples=60, deadline=None)
    @given(gg=messy_graphs(max_n=40), data=st.data())
    def test_property_push_bitwise_equals_dense_kernel(self, gg, data):
        """Whichever edges ``push`` reads, its bits equal the all-edge kernel's,
        for supports of 0, 1, 3 and all nodes and just below and above the
        frontier cut-over, with negative values and −0.0 entries."""
        order = np.array(data.draw(st.permutations(range(gg.n))))
        vals = data.draw(
            st.lists(
                st.floats(-1e3, 1e3, allow_nan=False).filter(bool), min_size=gg.n, max_size=gg.n
            )
        )
        out_edges = np.concatenate([[0], np.cumsum(gg.out_deg[order])])  # of each prefix
        below = int(np.searchsorted(FRONTIER_CUTOVER * out_edges, gg.m)) - 1
        frontier_runs = False
        for size in sorted({0, 1, 3, below, below + 1, gg.n} & set(range(gg.n + 1))):
            x = np.zeros(gg.n)
            x[order[:size]] = vals[:size]
            if size < gg.n:
                x[order[size]] = -0.0
            got = gg.push(x)
            want = np.bincount(gg.dst, weights=x[gg.src] * gg.edge_w, minlength=gg.n)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            frontier_runs |= 0 < FRONTIER_CUTOVER * out_edges[size] < gg.m
        # The frontier branch ran iff some support was under the cut-over.
        assert (gg._out_index is not None) == frontier_runs

    def test_frontier_push_sums_in_edge_list_order(self):
        """Node 9 receives 1, 1e16 and −1e16 in that edge order, which sums to 0
        in floating point; summed by source (−1e16, 1e16, 1) it would be 1."""
        filler = np.arange(10, 50)
        gg = LocalGraph(50, np.r_[2, 1, 0, filler], np.r_[9, 9, 9, np.roll(filler, 1)])
        x = np.zeros(50)
        x[:3] = [-1e16, 1e16, 1.0]
        assert gg.push(x)[9] == 0.0 and gg._out_index is not None

    def test_out_index_lazy_and_shared_with_out_csr(self, monkeypatch):
        """Construction and a dense push build no out-edge index; a one-hot
        push builds it with one argsort, and ``out_csr`` reads through it."""
        argsorts = []
        real_argsort = np.argsort

        def counting_argsort(*args, **kwargs):
            argsorts.append(args)
            return real_argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting_argsort)
        gg = small_dcsbm()
        assert gg._out_index is None
        gg.push(np.ones(gg.n))
        assert gg._out_index is None and not argsorts
        gg.push(np.eye(1, gg.n, 5).ravel())
        indptr, order = gg._out_index
        csr_indptr, nbrs = gg.out_csr
        assert csr_indptr is indptr and np.array_equal(nbrs, gg.dst[order])
        assert len(argsorts) == 1


class TestAdjacency:
    def test_out_neighbors(self):
        gg = graph_from(gen.cycle(5))
        assert list(gg.out_neighbors(2)) == [3]

    def test_in_neighbors(self):
        gg = graph_from(gen.cycle(5))
        assert list(gg.in_neighbors(0)) == [4]

    def test_star_neighbors(self):
        gg = graph_from(gen.star(5))
        assert sorted(gg.out_neighbors(0)) == [1, 2, 3, 4]
        assert sorted(gg.in_neighbors(0)) == [1, 2, 3, 4]

    def test_csr_consistent_with_edges(self, g):
        indptr, nbrs = g.out_csr
        assert indptr[-1] == g.m
        # every edge appears exactly once
        rebuilt = sorted(
            (u, int(v))
            for u in range(g.n)
            for v in nbrs[indptr[u] : indptr[u + 1]]
        )
        assert rebuilt == sorted(zip(g.src.tolist(), g.dst.tolist()))


class TestTraversal:
    def test_bfs_reaches_all_in_cycle(self):
        gg = graph_from(gen.cycle(6))
        assert len(gg.bfs(0)) == 6

    def test_bfs_respects_allowed(self):
        gg = graph_from(gen.cycle(6))
        allowed = np.array([True, True, True, False, False, False])
        visited = gg.bfs(0, allowed=allowed)
        assert set(visited.tolist()) == {0, 1, 2}

    def test_bfs_start_disallowed(self):
        gg = graph_from(gen.cycle(6))
        allowed = np.zeros(6, dtype=bool)
        assert len(gg.bfs(0, allowed=allowed)) == 0

    def test_components_single(self):
        gg = graph_from(gen.cycle(6))
        comps = gg.connected_components()
        assert len(comps) == 1 and len(comps[0]) == 6

    def test_components_disconnected(self):
        # two disjoint 2-cycles
        gg = LocalGraph(4, np.array([0, 1, 2, 3]), np.array([1, 0, 3, 2]))
        comps = gg.connected_components()
        assert sorted(len(c) for c in comps) == [2, 2]

    def test_components_with_mask(self):
        gg = graph_from(gen.cycle(6))
        allowed = np.array([True, True, False, True, True, False])
        comps = gg.connected_components(allowed=allowed)
        assert sorted(len(c) for c in comps) == [2, 2]

    def test_components_cover_all_nodes(self, g):
        comps = g.connected_components()
        total = np.concatenate(comps)
        assert len(total) == g.n
        assert len(np.unique(total)) == g.n
