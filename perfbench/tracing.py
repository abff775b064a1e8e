"""Layer tracing from outside the program.

``Tracer.install()`` replaces the public functions of the ``repro`` layers
(``graph.linalg``, ``core.local_cpi``, ``core.local_tpa``, ``graph.edges``,
``core.cpi``, ``core.tpa``) with wrappers that record a ``Span`` per call,
everywhere the function is referenced, and ``uninstall()`` puts the originals
back. Nothing under ``src/`` is edited.

On Spark every span runs under its own job group, so the jobs and the shuffle
bytes of a span are read back from the status store when its phase ends.
A CPI superstep is not one call: ``propagate`` only builds a plan, which
``cpi_spark`` checkpoints and then measures with ``l1_norm``. A superstep span
therefore opens at ``propagate`` and closes when the next ``l1_norm`` returns;
each superstep runs exactly one of each.
"""
from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    """One traced interval; ``jobs``/``shuffle_*``/``tasks_failed`` count only
    the Spark jobs run in this span's own job group (children excluded)."""

    name: str
    start: float
    parent: Span | None = None
    end: float = float("nan")
    children: list[Span] = field(default_factory=list)
    group: str | None = None
    edges_scanned: int = 0
    useful_edges: int = 0
    jobs: int = 0
    shuffle_read: int = 0
    shuffle_write: int = 0
    tasks_failed: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def walk(self):
        """This span and all its descendants."""
        yield self
        for c in self.children:
            yield from c.walk()

    def find(self, name: str) -> list[Span]:
        """Descendants (self included) with the given name."""
        return [s for s in self.walk() if s.name == name]

    def total(self, attr: str) -> int:
        """Sum of a counter over this span and its descendants."""
        return sum(getattr(s, attr) for s in self.walk())


class Tracer:
    """Records spans for calls into the repro layers while installed.

    ``sc`` is the SparkContext whose job groups are set per span, or None
    for a numpy-only run.
    """

    def __init__(self, sc=None) -> None:
        self.sc = sc
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._next_group = 0

    # -- spans ---------------------------------------------------------------
    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent)
        if parent:
            parent.children.append(span)
        else:
            self.roots.append(span)
        if self.sc is not None:
            span.group = f"perfbench-{self._next_group}"
            self._next_group += 1
            self.sc.setJobGroup(span.group, name)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        """Close ``span`` and any span left open above it on the stack."""
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            top.end = now
            if top is span:
                break
        if self.sc is not None and self._stack:
            self.sc.setJobGroup(self._stack[-1].group, self._stack[-1].name)

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    @contextmanager
    def phase(self, name: str):
        """Root span for one benchmark phase; Spark job counters are read
        once it ends, outside the timed region of the caller."""
        with self.span(name) as root:
            yield root
        if self.sc is not None:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
            self._collect_jobs(root)

    def phases(self, name: str) -> list[Span]:
        return [r for r in self.roots if r.name == name]

    # -- Spark job and stage counters ---------------------------------------
    def _collect_jobs(self, root: Span) -> None:
        from py4j.protocol import Py4JJavaError

        jsc = self.sc._jsc.sc()
        jsc.listenerBus().waitUntilEmpty()  # status store lags the actions
        store = jsc.statusStore()
        tracker = self.sc.statusTracker()
        no_quantiles = self.sc._gateway.new_array(self.sc._gateway.jvm.double, 0)
        for span in root.walk():
            for job in tracker.getJobIdsForGroup(span.group):
                span.jobs += 1
                for stage in tracker.getJobInfo(job).stageIds:
                    try:
                        attempts = store.stageData(stage, False, None, False, no_quantiles)
                    except Py4JJavaError:  # skipped stage: never submitted
                        continue
                    for k in range(attempts.size()):
                        a = attempts.apply(k)
                        span.shuffle_read += a.shuffleReadBytes()
                        span.shuffle_write += a.shuffleWriteBytes()
                        span.tasks_failed += a.numFailedTasks()

    # -- wrappers ------------------------------------------------------------
    def _replace(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap_function(self, module: str, attr: str, make):
        """Wrap ``module.attr`` in every repro module that imported it."""
        orig = getattr(sys.modules[module], attr)
        wrapper = functools.wraps(orig)(make(orig))
        for name, mod in list(sys.modules.items()):
            if name.startswith("repro") and getattr(mod, attr, None) is orig:
                self._replace(mod, attr, wrapper)

    def _wrap_method(self, cls, attr: str, make):
        orig = cls.__dict__[attr]
        self._replace(cls, attr, functools.wraps(orig)(make(orig)))

    def _spanning(self, name: str):
        def make(orig):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return orig(*args, **kwargs)

            return wrapper

        return make

    def install(self) -> None:
        """Wrap every traced layer function."""
        from repro.core.local_tpa import LocalTPA
        from repro.core.tpa import SparkTPA  # also loads repro.core.cpi
        from repro.graph.linalg import LocalGraph

        self._wrap_method(LocalGraph, "__post_init__", self._spanning("linalg.graph_build"))
        self._wrap_method(LocalGraph, "push", self._push)
        self._wrap_function("repro.core.local_cpi", "cpi", self._spanning("local_cpi.cpi"))
        for m in ("preprocess", "family", "query"):
            self._wrap_method(LocalTPA, m, self._spanning(f"local_tpa.{m}"))
        self._wrap_function("repro.graph.edges", "normalize_edges", self._spanning("edges.normalize"))
        self._wrap_function("repro.graph.edges", "vector_to_numpy", self._spanning("edges.densify"))
        self._wrap_function("repro.graph.edges", "l1_norm", self._l1_norm)
        self._wrap_function("repro.graph.edges", "propagate", self._propagate)
        self._wrap_function("repro.graph.edges", "sum_vectors", self._sum_vectors)
        self._wrap_function("repro.core.cpi", "cpi_spark", self._spanning("cpi.cpi_spark"))
        for m in ("preprocess", "family", "query", "query_np"):
            self._wrap_method(SparkTPA, m, self._spanning(f"tpa.{m}"))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _push(self, orig):
        def push(graph, x):
            with self.span("linalg.push") as s:
                y = orig(graph, x)
            # The dense kernel reads every edge; the useful ones leave a
            # non-zero entry of x. Counted after the span closes.
            s.edges_scanned = graph.m
            s.useful_edges = int(graph.out_deg[np.asarray(x) != 0].sum())
            return y

        return push

    def _propagate(self, orig):
        def propagate(*args, **kwargs):
            self._open("cpi.superstep")  # closed by the next l1_norm
            return orig(*args, **kwargs)

        return propagate

    def _l1_norm(self, orig):
        def l1_norm(x):
            parent = self._stack[-1] if self._stack else None
            with self.span("edges.l1_norm"):
                out = orig(x)
            if parent is not None and parent.name == "cpi.superstep":
                self._close(parent)
            return out

        return l1_norm

    def _sum_vectors(self, orig):
        def sum_vectors(vectors):
            if self._stack and self._stack[-1].name == "cpi.cpi_spark":
                self._open("cpi.window_sum")  # closed when cpi_spark returns
            return orig(vectors)

        return sum_vectors
