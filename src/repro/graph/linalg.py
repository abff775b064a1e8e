"""Local (numpy) graph substrate: COO/CSR storage, transition SpMV, BFS.

This is the single-core comparator substrate — the paper ran every method
(TPA included) single-core in MATLAB/C++, so baselines and the exact-RWR
oracle run here. The distributed substrate lives in ``repro.graph.edges``.

The transition operator is ``y = Ãᵀ x`` where ``Ã`` is the row-normalised
adjacency matrix: ``y[v] = Σ_{u→v} x[u] / out_deg(u)``, computed by one
weighted ``np.bincount`` — no scipy required. ``push`` reads only the
out-edges of ``x``'s support when they are a small share of the m edges (a
TPA family query from one seed), and all m edges otherwise; both read their
edges in input order, so they return the same bits. Dangling nodes
(out-degree 0) propagate nothing, i.e. their probability mass leaks, which is
the convention the paper's normalisation implies.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["LocalGraph"]

# ``push`` reads only the support's out-edges when there are fewer than
# m / FRONTIER_CUTOVER of them. Reading k such edges costs as much as the
# all-edge kernel at k ≈ m/5 when the edge list is grouped by source (as the
# generators write it) and at k ≈ m/20 when it is shuffled, as gathers then
# miss the cache; 8 keeps both within about 2× of the faster kernel.
FRONTIER_CUTOVER = 8


@dataclass
class LocalGraph:
    """Immutable directed graph over node ids ``0..n-1`` with O(m) SpMV.

    ``out_csr``/``in_csr`` adjacency is built lazily (first access) because
    only push-style baselines and random walks need it. So is ``_out_index``,
    the edge ids grouped by source (the stable ``argsort(src)`` that
    ``out_csr`` is read through), which ``push`` builds on its first
    frontier-sized input.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    _out_index: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)
    _out_csr: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)
    _in_csr: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)
    _und_csr: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        if len(self.src) != len(self.dst):
            raise ValueError("src and dst must have equal length")
        if len(self.src) and (self.src.max() >= self.n or self.dst.max() >= self.n):
            raise ValueError("edge endpoint out of range")
        self.out_deg = np.bincount(self.src, minlength=self.n).astype(np.float64)
        self.in_deg = np.bincount(self.dst, minlength=self.n).astype(np.float64)
        # 1/out_deg with 0 for dangling nodes: they propagate nothing.
        self.inv_out = np.zeros(self.n, dtype=np.float64)
        nz = self.out_deg > 0
        self.inv_out[nz] = 1.0 / self.out_deg[nz]
        # Per-edge transition weight w(u→v) = 1/out_deg(u).
        self.edge_w = self.inv_out[self.src]

    # -- basic properties -------------------------------------------------
    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.src)

    @property
    def n_dangling(self) -> int:
        """Number of nodes with no out-edge."""
        return int((self.out_deg == 0).sum())

    # -- SpMV --------------------------------------------------------------
    def push(self, x: np.ndarray) -> np.ndarray:
        """``Ãᵀ x``: propagate scores one step along out-edges.

        When ``x``'s support has k out-edges with 0 < k < m / FRONTIER_CUTOVER,
        only they are read, in O(n + k log k); otherwise all m edges are (k = 0
        too, as ``np.bincount`` of no edges would return integers). Either way
        each node sums its in-coming scores in edge-list order, so both give
        the same bits: an edge left out adds ±0.0 to a sum that starts at +0.0
        and so is never −0.0. The result is float64 on a graph with no edges
        too, where ``np.bincount`` returns integers.
        """
        support = np.flatnonzero(x != 0)
        if not 0 < FRONTIER_CUTOVER * self.out_deg[support].sum() < self.m:
            y = np.bincount(self.dst, weights=x[self.src] * self.edge_w, minlength=self.n)
            return y.astype(np.float64, copy=False)
        indptr, order = self._out_edge_ids()
        starts = indptr[support]
        lens = indptr[support + 1] - starts
        # Positions starts[j] .. starts[j] + lens[j] - 1 of ``order``, for every j.
        pos = np.arange(lens.sum()) + np.repeat(starts - (np.cumsum(lens) - lens), lens)
        e = np.sort(order[pos], kind="stable")
        return np.bincount(self.dst[e], weights=x[self.src[e]] * self.edge_w[e], minlength=self.n)

    def pull(self, x: np.ndarray) -> np.ndarray:
        """``Ã x``: y[u] = Σ_{u→v} x[v]/out_deg(u) — the adjoint direction,
        used by backward push (HubPPR) and tests; float64 like ``push``."""
        y = np.bincount(self.src, weights=x[self.dst] * self.edge_w, minlength=self.n)
        return y.astype(np.float64, copy=False)

    def dense_transition_T(self) -> np.ndarray:
        """Dense ``Ãᵀ`` (n×n) — tests only; O(n²) memory."""
        a = np.zeros((self.n, self.n))
        np.add.at(a, (self.dst, self.src), self.edge_w)
        return a

    # -- adjacency ---------------------------------------------------------
    @staticmethod
    def _csr(n: int, key: np.ndarray, val: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(key, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=n), out=indptr[1:])
        return indptr, val[order]

    def _out_edge_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, edge ids): u's out-edges are ids[indptr[u]:indptr[u+1]],
        in edge-list order."""
        if self._out_index is None:
            self._out_index = self._csr(self.n, self.src, np.arange(self.m))
        return self._out_index

    @property
    def out_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, neighbors): out-neighbors of u are nbrs[indptr[u]:indptr[u+1]]."""
        if self._out_csr is None:
            indptr, order = self._out_edge_ids()
            self._out_csr = indptr, self.dst[order]
        return self._out_csr

    @property
    def in_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, neighbors): in-neighbors of v."""
        if self._in_csr is None:
            self._in_csr = self._csr(self.n, self.dst, self.src)
        return self._in_csr

    @property
    def und_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Undirected adjacency (edges in both directions) for BFS/partition."""
        if self._und_csr is None:
            k = np.concatenate([self.src, self.dst])
            v = np.concatenate([self.dst, self.src])
            self._und_csr = self._csr(self.n, k, v)
        return self._und_csr

    def out_neighbors(self, u: int) -> np.ndarray:
        indptr, nbrs = self.out_csr
        return nbrs[indptr[u] : indptr[u + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        indptr, nbrs = self.in_csr
        return nbrs[indptr[v] : indptr[v + 1]]

    # -- traversal ---------------------------------------------------------
    def bfs(self, start: int, allowed: np.ndarray | None = None) -> np.ndarray:
        """Undirected BFS from ``start`` restricted to ``allowed`` nodes;
        returns visited node ids in visit order."""
        indptr, nbrs = self.und_csr
        seen = np.zeros(self.n, dtype=bool)
        if allowed is not None:
            seen[~allowed] = True  # treat disallowed as already seen
        if seen[start]:
            return np.empty(0, dtype=np.int64)
        seen[start] = True
        frontier = np.array([start], dtype=np.int64)
        out = [frontier]
        while len(frontier):
            cand = np.concatenate([nbrs[indptr[u] : indptr[u + 1]] for u in frontier])
            cand = np.unique(cand)
            cand = cand[~seen[cand]]
            seen[cand] = True
            if len(cand):
                out.append(cand)
            frontier = cand
        return np.concatenate(out)

    def connected_components(self, allowed: np.ndarray | None = None) -> list[np.ndarray]:
        """Undirected connected components over ``allowed`` nodes (all if None)."""
        if allowed is None:
            allowed = np.ones(self.n, dtype=bool)
        remaining = allowed.copy()
        comps: list[np.ndarray] = []
        while True:
            seeds = np.flatnonzero(remaining)
            if len(seeds) == 0:
                return comps
            comp = self.bfs(int(seeds[0]), allowed=remaining)
            remaining[comp] = False
            comps.append(comp)
