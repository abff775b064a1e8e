"""TPA (Algorithms 2 and 3) on the local numpy substrate.

Preprocessing (seed-independent): ``r̃_stranger = p_stranger``, the tail
(iterations T..∞) of CPI started from the PageRank seed vector.

Online (per seed): compute only the family part (iterations 0..S-1), scale it
by ``α = ((1-c)^S − (1-c)^T) / (1 − (1-c)^S)`` to stand in for the neighbor
part (Lemma 3), and add the precomputed stranger vector.

``query_na`` returns TPA-NA (no stranger term), the Fig. 5/6 ablation.
"""
from __future__ import annotations

import numpy as np

from repro.core.local_cpi import DEFAULT_C, DEFAULT_EPS, cpi, pagerank, seed_vector
from repro.graph.linalg import LocalGraph

__all__ = ["LocalTPA", "check_args", "neighbor_scale"]


def check_args(c: float, S: int, T: int, n: int = 0, seed: int | None = None) -> None:
    """TPA's argument check, shared by ``LocalTPA`` and ``SparkTPA``: raise
    ``ValueError`` unless c ∈ (0, 1), 1 ≤ S ≤ T and, when a seed is given,
    it is a node id in 0..n-1."""
    if not 0 < c < 1:
        raise ValueError("restart probability c must be in (0, 1)")
    if S < 1:
        raise ValueError("S must be >= 1 (the family part needs x^(0))")
    if T < S:
        raise ValueError("T must be >= S")
    if seed is not None and not 0 <= seed < n:
        raise ValueError(f"seed {seed} is not a node id in 0..{n - 1}")


def neighbor_scale(c: float, S: int, T: int) -> float:
    """α = ‖r_neighbor‖₁ / ‖r_family‖₁ = ((1-c)^S − (1-c)^T)/(1 − (1-c)^S)."""
    check_args(c, S, T)
    d = 1.0 - c
    return (d**S - d**T) / (1.0 - d**S)


class LocalTPA:
    """Two Phase Approximation for RWR (single-core reference).

    Parameters mirror the paper: restart probability ``c`` (0.15), starting
    iteration of the neighbor part ``S``, starting iteration of the stranger
    part ``T`` (Table II per dataset), convergence tolerance ``eps`` (1e-9).
    """

    name = "TPA"

    def __init__(
        self,
        graph: LocalGraph,
        *,
        c: float = DEFAULT_C,
        S: int = 4,
        T: int = 10,
        eps: float = DEFAULT_EPS,
    ) -> None:
        self.family_scale = 1.0 + neighbor_scale(c, S, T)  # 1 + α; checks c, S, T
        self.graph = graph
        self.c = c
        self.S = S
        self.T = T
        self.eps = eps
        self.r_stranger: np.ndarray | None = None

    # -- Algorithm 2 -------------------------------------------------------
    def preprocess(self, deadline=None) -> np.ndarray:
        """Compute the approximate stranger vector p_stranger (iterations
        T..∞ of PageRank-CPI). ``deadline`` is accepted for interface parity
        with the baselines; one CPI run is never interrupted mid-way."""
        self.r_stranger = pagerank(self.graph, c=self.c, eps=self.eps, s_iter=self.T)
        return self.r_stranger

    # -- Algorithm 3 -------------------------------------------------------
    def family(self, seed: int) -> np.ndarray:
        """r_family: iterations 0..S-1 of CPI from the seed."""
        check_args(self.c, self.S, self.T, self.graph.n, seed)
        q = seed_vector(self.graph.n, seed)
        return cpi(self.graph, q, c=self.c, eps=self.eps, s_iter=0, t_iter=self.S - 1)

    def query(self, seed: int, deadline=None) -> np.ndarray:
        """r_TPA = r_family + α·r_family + r̃_stranger."""
        if self.r_stranger is None:
            raise RuntimeError("call preprocess() before query()")
        return self.family(seed) * self.family_scale + self.r_stranger

    def query_na(self, seed: int, deadline=None) -> np.ndarray:
        """r_TPA-NA = r_family + α·r_family (stranger term omitted)."""
        return self.family(seed) * self.family_scale

    # -- accounting ----------------------------------------------------------
    @property
    def preprocessed_bytes(self) -> int:
        """Size of preprocessed data: the stranger vector only (Theorem 4's
        O(n) term; the graph itself is common to every method)."""
        return 0 if self.r_stranger is None else int(self.r_stranger.nbytes)
