"""Shared fixtures/builders for the test suite: tiny deterministic graphs
with known closed-form RWR answers, plus a dense reference solver."""
from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.graph import generators as gen
from repro.graph.linalg import LocalGraph

C = 0.15


def graph_from(spec) -> LocalGraph:
    """Build a LocalGraph from a generator tuple (n, src, dst[, block])."""
    n, src, dst = spec[0], spec[1], spec[2]
    return LocalGraph(n, src, dst)


def small_dcsbm(n: int = 300, m: int = 2400, seed: int = 1) -> LocalGraph:
    return graph_from(gen.dcsbm(n, m, n_blocks=6, seed=seed))


def small_er(n: int = 300, m: int = 2400, seed: int = 1) -> LocalGraph:
    return graph_from(gen.erdos_renyi(n, m, seed=seed))


@st.composite
def messy_graphs(draw, max_n: int = 12) -> LocalGraph:
    """Small graphs shaped like real edge lists, built without a generator:
    duplicate edges and self-loops in shuffled order, nodes with no out-edge,
    a sink ``n-2`` (in-edges only) and an isolated node ``n-1``."""
    n = draw(st.integers(3, max_n))
    edges = draw(
        st.lists(st.tuples(st.integers(0, n - 3), st.integers(0, n - 2)), max_size=6 * n)
    )
    edges += [(0, 0), (0, n - 2), (0, n - 2)]  # a self-loop; a duplicate edge into the sink
    src, dst = np.array(draw(st.permutations(edges))).T
    return LocalGraph(n, src, dst)


def dense_exact_rwr(g: LocalGraph, seed: int, c: float = C) -> np.ndarray:
    """Reference solution by dense linear solve of (I − (1-c)Ãᵀ) r = c q."""
    A = g.dense_transition_T()
    q = np.zeros(g.n)
    q[seed] = 1.0
    return np.linalg.solve(np.eye(g.n) - (1 - c) * A, c * q)


def dense_exact_pagerank(g: LocalGraph, c: float = C) -> np.ndarray:
    A = g.dense_transition_T()
    q = np.full(g.n, 1.0 / g.n)
    return np.linalg.solve(np.eye(g.n) - (1 - c) * A, c * q)
