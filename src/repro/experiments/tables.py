"""Table builders — one per table/figure of the evaluation section.

Each returns a pandas DataFrame whose printed rows are the reproduction of
the corresponding paper figure (figures themselves are out of scope; see
DESIGN.md §5). The main-comparison tables (Fig. 1a/1b/1c, 3, 4) share one
cached run per (datasets, sf, seeds, cap) so the CLI and benchmarks don't
recompute each other's work.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

from repro.core.local_cpi import exact_rwr
from repro.core.local_tpa import LocalTPA
from repro.experiments.datasets import DATASET_ORDER, DATASETS, er_twin, load_local
from repro.experiments.runner import (
    C,
    EPS,
    MethodRow,
    exact_vectors,
    pick_seeds,
    run_dataset,
)
from repro.metrics import l1_error, spearman

__all__ = [
    "datasets_table",
    "main_rows",
    "preprocessing_table",
    "online_table",
    "accuracy_table",
    "memory_table",
    "stranger_effect_table",
    "neighbor_effect_table",
    "effect_of_S_table",
    "effect_of_T_table",
    "format_table",
    "SWEEP_DATASETS",
    "S_VALUES",
    "T_VALUES",
]

# The Fig. 7 and Fig. 8 sweeps. T=5 is where pokec-lite and livejournal-lite
# reach their L1 minimum; None means T=∞ (no stranger term).
SWEEP_DATASETS = ("livejournal-lite", "pokec-lite")
S_VALUES = (1, 2, 3, 4, 5, 6, 7, 8)
T_VALUES = (4, 5, 6, 8, 10, 15, 20, 30, None)

_MAIN_CACHE: dict[tuple, list[MethodRow]] = {}


def datasets_table(sf: float = 1.0) -> pd.DataFrame:
    """Table II: dataset statistics of the synthetic substitutes."""
    rows = []
    for name in DATASET_ORDER:
        g, spec = load_local(name, sf)
        paper = DATASETS[name]
        rows.append(
            {
                "dataset": name,
                "nodes": g.n,
                "edges": g.m,
                "S": spec.S,
                "T": spec.T,
                "paper_nodes": paper.paper_n,
                "paper_edges": paper.paper_m,
            }
        )
    return pd.DataFrame(rows)


def main_rows(
    datasets: list[str] | None = None,
    *,
    sf: float = 1.0,
    n_seeds: int = 5,
    time_cap: float | None = 60.0,
    methods: list[str] | None = None,
) -> list[MethodRow]:
    """Run (or fetch cached) the main comparison over all methods/datasets."""
    datasets = DATASET_ORDER if datasets is None else datasets
    key = (tuple(datasets), sf, n_seeds, time_cap, tuple(methods or ()))
    if key not in _MAIN_CACHE:
        rows: list[MethodRow] = []
        for name in datasets:
            g, spec = load_local(name, sf)
            rows.extend(
                run_dataset(
                    name, g, spec, methods=methods, n_seeds=n_seeds, time_cap=time_cap
                )
            )
        _MAIN_CACHE[key] = rows
    return _MAIN_CACHE[key]


def _pivot(rows: list[MethodRow], value: str) -> pd.DataFrame:
    df = pd.DataFrame(
        [
            {"dataset": r.dataset, "method": r.method, value: getattr(r, value)}
            for r in rows
        ]
    )
    out = df.pivot_table(
        index="dataset", columns="method", values=value, aggfunc="first", dropna=False
    )
    # preserve run order of datasets
    order = [d for d in dict.fromkeys(r.dataset for r in rows)]
    return out.reindex(order)


def preprocessing_table(**kw) -> pd.DataFrame:
    """Fig. 1(a): preprocessing wall-clock seconds (NaN = no prep / OOT)."""
    return _pivot(main_rows(**kw), "pre_time")


def online_table(**kw) -> pd.DataFrame:
    """Fig. 1(b): online wall-clock seconds per query (NaN = OOT)."""
    return _pivot(main_rows(**kw), "online_time")


def accuracy_table(**kw) -> pd.DataFrame:
    """Fig. 1(c) + Fig. 4: L1 error and Spearman correlation vs exact RWR."""
    rows = main_rows(**kw)
    l1 = _pivot(rows, "l1").add_suffix(" L1")
    sp = _pivot(rows, "spearman").add_suffix(" rho")
    return pd.concat([l1, sp], axis=1)


def memory_table(**kw) -> pd.DataFrame:
    """Fig. 3: preprocessed-data size in bytes (0/NaN = no prep / OOT)."""
    return _pivot(main_rows(**kw), "bytes")


def stranger_effect_table(
    datasets: list[str] | None = None, *, sf: float = 1.0, n_seeds: int = 5
) -> pd.DataFrame:
    """Fig. 5: TPA vs TPA-NA accuracy — the stranger approximation's value."""
    datasets = DATASET_ORDER if datasets is None else datasets
    rows = []
    for name in datasets:
        g, spec = load_local(name, sf)
        seeds = pick_seeds(g, n_seeds)
        exact = exact_vectors(g, seeds)
        tpa = LocalTPA(g, c=C, S=spec.S, T=spec.T, eps=EPS)
        tpa.preprocess()
        rec = {"dataset": name}
        for label, fn in [("TPA", tpa.query), ("TPA-NA", tpa.query_na)]:
            l1s = [l1_error(fn(int(s)), exact[int(s)]) for s in seeds]
            sps = [spearman(fn(int(s)), exact[int(s)]) for s in seeds]
            rec[f"{label} L1"] = float(np.mean(l1s))
            rec[f"{label} rho"] = float(np.mean(sps))
        rows.append(rec)
    return pd.DataFrame(rows).set_index("dataset")


def neighbor_effect_table(
    datasets: list[str] | None = None, *, sf: float = 1.0, n_seeds: int = 5
) -> pd.DataFrame:
    """Fig. 6: TPA-NA on block-structured (DCSBM) vs random (ER twin) graphs.

    The neighbor approximation leans on block-wise structure, so TPA-NA
    should show lower L1 error on the structured graph than on its
    same-size random twin."""
    datasets = DATASET_ORDER if datasets is None else datasets
    rows = []
    for name in datasets:
        g, spec = load_local(name, sf)
        twin = er_twin(name, sf)
        rec = {"dataset": name}
        for label, graph in [("real", g), ("random", twin)]:
            seeds = pick_seeds(graph, n_seeds)
            exact = exact_vectors(graph, seeds)
            tpa = LocalTPA(graph, c=C, S=spec.S, T=spec.T, eps=EPS)
            tpa.preprocess()
            l1s = [l1_error(tpa.query_na(int(s)), exact[int(s)]) for s in seeds]
            sps = [spearman(tpa.query_na(int(s)), exact[int(s)]) for s in seeds]
            rec[f"{label} L1"] = float(np.mean(l1s))
            rec[f"{label} rho"] = float(np.mean(sps))
        rows.append(rec)
    return pd.DataFrame(rows).set_index("dataset")


def effect_of_S_table(
    datasets: list[str] = SWEEP_DATASETS,
    *,
    S_values: tuple[int, ...] = S_VALUES,
    T: int = 10,
    sf: float = 1.0,
    n_seeds: int = 5,
) -> pd.DataFrame:
    """Fig. 7: sweep S at fixed T=10 — online time vs L1 error trade-off."""
    rows = []
    for name in datasets:
        g, spec = load_local(name, sf)
        seeds = pick_seeds(g, n_seeds)
        exact = exact_vectors(g, seeds)
        for S in S_values:
            tpa = LocalTPA(g, c=C, S=S, T=max(T, S), eps=EPS)
            tpa.preprocess()
            times, l1s = [], []
            for s in seeds:
                t0 = time.perf_counter()
                r = tpa.query(int(s))
                times.append(time.perf_counter() - t0)
                l1s.append(l1_error(r, exact[int(s)]))
            rows.append(
                {
                    "dataset": name,
                    "S": S,
                    "online_time": float(np.mean(times)),
                    "L1": float(np.mean(l1s)),
                }
            )
    return pd.DataFrame(rows)


def effect_of_T_table(
    datasets: list[str] = SWEEP_DATASETS,
    *,
    T_values: tuple = T_VALUES,
    S: int = 4,
    sf: float = 1.0,
    n_seeds: int = 5,
) -> pd.DataFrame:
    """Fig. 8: sweep T at fixed S=4 — L1 error dips then rebounds; Spearman
    stays high for any finite T. ``T=None`` means ∞ (no stranger term)."""
    rows = []
    for name in datasets:
        g, spec = load_local(name, sf)
        seeds = pick_seeds(g, n_seeds)
        exact = exact_vectors(g, seeds)
        for T in T_values:
            if T is None:
                tpa = LocalTPA(g, c=C, S=S, T=10_000, eps=EPS)
                tpa.r_stranger = np.zeros(g.n)  # T=∞: stranger part vanishes
            else:
                tpa = LocalTPA(g, c=C, S=S, T=max(T, S), eps=EPS)
                tpa.preprocess()
            l1s, sps = [], []
            for s in seeds:
                r = tpa.query(int(s))
                l1s.append(l1_error(r, exact[int(s)]))
                sps.append(spearman(r, exact[int(s)]))
            rows.append(
                {
                    "dataset": name,
                    "T": float("inf") if T is None else T,
                    "L1": float(np.mean(l1s)),
                    "rho": float(np.mean(sps)),
                }
            )
    return pd.DataFrame(rows)


def format_table(df: pd.DataFrame, title: str) -> str:
    """Markdown-ish rendering used by EXPERIMENTS.md."""
    return f"### {title}\n\n{df.to_string(float_format=lambda v: f'{v:.6g}')}\n"
