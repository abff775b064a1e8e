"""CPI (Algorithm 1) and exact RWR/PageRank on the local numpy substrate.

CPI interprets RWR as score propagation: ``x⁽⁰⁾ = c·q``,
``x⁽ⁱ⁾ = (1-c)·Ãᵀ x⁽ⁱ⁻¹⁾``, and ``r = Σ x⁽ⁱ⁾`` over a window
``[s_iter, t_iter]`` of iterations. With the full window this equals the
power-iteration fixed point (paper Theorem 1), so ``exact_rwr`` here is the
ground-truth provider (the paper used BePI, also an exact solver).
"""
from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import TypeVar

import numpy as np

from repro.graph.linalg import LocalGraph

__all__ = [
    "cpi",
    "iterates",
    "exact_rwr",
    "pagerank",
    "seed_vector",
    "uniform_vector",
    "interim_vectors",
    "n_iterations_to_converge",
]

DEFAULT_C = 0.15
DEFAULT_EPS = 1e-9
MAX_ITER = 10_000

V = TypeVar("V")  # a score vector of whichever substrate runs the loop


def seed_vector(n: int, seeds) -> np.ndarray:
    """Seed vector q: 1/|S| at each seed node (Algorithm 1, line 1)."""
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
    q = np.zeros(n)
    q[seeds] = 1.0 / len(seeds)
    return q


def uniform_vector(n: int) -> np.ndarray:
    """PageRank seed vector (1/n)·1 — every node is a seed (Algorithm 2)."""
    return np.full(n, 1.0 / n)


def iterates(
    x: V,
    step: Callable[[V], V],
    norm: Callable[[V], float],
    *,
    eps: float,
    s_iter: int = 0,
    t_iter: int | None = None,
    max_iter: int = MAX_ITER,
) -> Iterator[V]:
    """Algorithm 1's loop on any substrate: yield each ``x⁽ⁱ⁾`` with ``i`` in
    the window ``[s_iter, t_iter]``, starting from ``x = x⁽⁰⁾`` and moving on
    by ``x = step(x)``.

    Iterations stop early once ``norm(x⁽ⁱ⁾) < eps`` (the convergence
    condition), at ``t_iter`` when given (inclusive, matching the paper's
    window notation: family = iterations 0..S-1 is ``t_iter=S-1``), or after
    ``max_iter`` iterations. An empty window (``t_iter < s_iter``) yields
    nothing and runs no step.
    """
    if s_iter < 0:
        raise ValueError("s_iter must be >= 0")
    if t_iter is not None and t_iter < s_iter:
        return
    for i in range(max_iter):
        if i >= s_iter:
            yield x
        if norm(x) < eps:
            return
        if t_iter is not None and i >= t_iter:
            return
        x = step(x)


def cpi(
    graph: LocalGraph,
    q: np.ndarray,
    *,
    c: float = DEFAULT_C,
    eps: float = DEFAULT_EPS,
    s_iter: int = 0,
    t_iter: int | None = None,
    max_iter: int = MAX_ITER,
) -> np.ndarray:
    """CPI-IMPL (Algorithm 1): return ``Σ_{i=s_iter}^{t_iter} x⁽ⁱ⁾`` with the
    stop rules of ``iterates``."""
    r = np.zeros(graph.n)
    window = _iterates(graph, q, c, eps=eps, s_iter=s_iter, t_iter=t_iter, max_iter=max_iter)
    for x in window:
        r += x
    return r


def interim_vectors(
    graph: LocalGraph, q: np.ndarray, *, c: float = DEFAULT_C, upto: int = 10
) -> list[np.ndarray]:
    """The interim score vectors ``x⁽⁰⁾..x⁽ᵘᵖᵗᵒ⁾`` — test/analysis helper."""
    return list(_iterates(graph, q, c, eps=0.0, t_iter=upto))


def _iterates(graph: LocalGraph, q: np.ndarray, c: float, **window) -> Iterator[np.ndarray]:
    """``iterates`` on numpy: ``x⁽⁰⁾ = c·q``, step ``x ↦ (1-c)·Ãᵀx``, L1 norm."""
    return iterates(
        c * np.asarray(q, dtype=np.float64),
        lambda x: (1.0 - c) * graph.push(x),
        lambda x: np.abs(x).sum(),
        **window,
    )


def exact_rwr(
    graph: LocalGraph,
    seed: int,
    *,
    c: float = DEFAULT_C,
    eps: float = 1e-12,
    max_iter: int = MAX_ITER,
) -> np.ndarray:
    """Exact RWR vector for one seed (converged CPI; Theorem 1 ⇒ exact)."""
    return cpi(graph, seed_vector(graph.n, seed), c=c, eps=eps, max_iter=max_iter)


def pagerank(
    graph: LocalGraph,
    *,
    c: float = DEFAULT_C,
    eps: float = DEFAULT_EPS,
    s_iter: int = 0,
    t_iter: int | None = None,
    max_iter: int = MAX_ITER,
) -> np.ndarray:
    """PageRank via CPI with the uniform seed vector; ``s_iter``/``t_iter``
    select a window of iterations (Algorithm 2 uses ``s_iter=T``)."""
    return cpi(
        graph,
        uniform_vector(graph.n),
        c=c,
        eps=eps,
        s_iter=s_iter,
        t_iter=t_iter,
        max_iter=max_iter,
    )


def n_iterations_to_converge(c: float, eps: float) -> int:
    """Closed-form iteration count: ‖x⁽ⁱ⁾‖₁ = c(1-c)ⁱ < eps (Lemma 5)."""
    return int(np.ceil(np.log(eps / c) / np.log(1.0 - c)))
