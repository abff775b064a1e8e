"""Table builders — one per table/figure of the evaluation section.

Each returns a pandas DataFrame whose printed rows are the reproduction of
the corresponding paper figure (figures themselves are out of scope; see
DESIGN.md §5). The main-comparison tables (Fig. 1a/1b/1c, 3, 4) share one
cached run per (datasets, sf, seeds, cap), and every table scores against
the exact vectors ``runner.seeds_and_exact`` caches per (dataset, sf,
seeds), so the CLI and benchmarks don't recompute each other's work.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.local_tpa import LocalTPA
from repro.experiments.datasets import DATASET_ORDER, DATASETS, er_twin, load_local
from repro.experiments.runner import (
    N_SEEDS,
    TIME_CAP,
    MethodRow,
    build_method,
    exact_vectors,
    pick_seeds,
    run_dataset,
    score,
    seeds_and_exact,
)

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


def datasets_table(datasets: list[str] | None = None, *, sf: float = 1.0) -> pd.DataFrame:
    """Table II: dataset statistics of the synthetic substitutes."""
    rows = []
    for name in DATASET_ORDER if datasets is None else datasets:
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
    n_seeds: int = N_SEEDS,
    time_cap: float | None = TIME_CAP,
    methods: list[str] | None = None,
) -> list[MethodRow]:
    """Run (or fetch cached) the main comparison over all methods/datasets."""
    datasets = DATASET_ORDER if datasets is None else datasets
    key = (tuple(datasets), sf, n_seeds, time_cap, tuple(methods or ()))
    if key not in _MAIN_CACHE:
        rows: list[MethodRow] = []
        for name in datasets:
            rows.extend(
                run_dataset(name, sf=sf, methods=methods, n_seeds=n_seeds, time_cap=time_cap)
            )
        _MAIN_CACHE[key] = rows
    return _MAIN_CACHE[key]


def _pivot(rows: list[MethodRow], value: str) -> pd.DataFrame:
    """One cell per (dataset, method); a phase that did not run reads the
    row's status (``OOT``, ``OOT-online``)."""
    df = pd.DataFrame(
        [
            {
                "dataset": r.dataset,
                "method": r.method,
                value: r.status if getattr(r, value) is None else getattr(r, value),
            }
            for r in rows
        ]
    )
    out = df.pivot(index="dataset", columns="method", values=value)
    # preserve run order of datasets
    order = [d for d in dict.fromkeys(r.dataset for r in rows)]
    return out.reindex(order).infer_objects()


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
    datasets: list[str] | None = None, *, sf: float = 1.0, n_seeds: int = N_SEEDS
) -> pd.DataFrame:
    """Fig. 5: TPA vs TPA-NA accuracy — the stranger approximation's value."""
    datasets = DATASET_ORDER if datasets is None else datasets
    rows = []
    for name in datasets:
        g, spec = load_local(name, sf)
        seeds, exact = seeds_and_exact(name, sf, n_seeds)
        tpa = build_method("TPA", g, spec)
        tpa.preprocess()
        rec = {"dataset": name}
        for label, fn in [("TPA", tpa.query), ("TPA-NA", tpa.query_na)]:
            _, rec[f"{label} L1"], rec[f"{label} rho"] = score(fn, seeds, exact)
        rows.append(rec)
    return pd.DataFrame(rows).set_index("dataset")


def neighbor_effect_table(
    datasets: list[str] | None = None, *, sf: float = 1.0, n_seeds: int = N_SEEDS
) -> pd.DataFrame:
    """Fig. 6: TPA-NA on block-structured (DCSBM) vs random (ER twin) graphs.

    The neighbor approximation leans on block-wise structure, so TPA-NA
    should show lower L1 error on the structured graph than on its
    same-size random twin. TPA-NA omits the stranger term, so neither graph
    is preprocessed."""
    datasets = DATASET_ORDER if datasets is None else datasets
    rows = []
    for name in datasets:
        g, spec = load_local(name, sf)
        twin = er_twin(name, sf)
        twin_seeds = pick_seeds(twin, n_seeds).tolist()
        rec = {"dataset": name}
        for label, graph, (seeds, exact) in [
            ("real", g, seeds_and_exact(name, sf, n_seeds)),
            ("random", twin, (twin_seeds, exact_vectors(twin, twin_seeds))),
        ]:
            tpa = build_method("TPA", graph, spec)
            _, rec[f"{label} L1"], rec[f"{label} rho"] = score(tpa.query_na, seeds, exact)
        rows.append(rec)
    return pd.DataFrame(rows).set_index("dataset")


def effect_of_S_table(
    datasets: list[str] = SWEEP_DATASETS,
    *,
    S_values: tuple[int, ...] = S_VALUES,
    T: int = 10,
    sf: float = 1.0,
    n_seeds: int = N_SEEDS,
) -> pd.DataFrame:
    """Fig. 7: sweep S at fixed T=10 — online time vs L1 error trade-off.
    The stranger vector depends on T only, so each (dataset, T) preprocesses
    once and the S values share it."""
    rows = []
    for name in datasets:
        g, _ = load_local(name, sf)
        seeds, exact = seeds_and_exact(name, sf, n_seeds)
        strangers: dict[int, np.ndarray] = {}
        for S in S_values:
            tpa = LocalTPA(g, S=S, T=max(T, S))
            if tpa.T not in strangers:
                strangers[tpa.T] = tpa.preprocess()
            tpa.r_stranger = strangers[tpa.T]
            online_time, l1, _ = score(tpa.query, seeds, exact)
            rows.append({"dataset": name, "S": S, "online_time": online_time, "L1": l1})
    return pd.DataFrame(rows)


def effect_of_T_table(
    datasets: list[str] = SWEEP_DATASETS,
    *,
    T_values: tuple = T_VALUES,
    S: int = 4,
    sf: float = 1.0,
    n_seeds: int = N_SEEDS,
) -> pd.DataFrame:
    """Fig. 8: sweep T at fixed S=4 — L1 error dips then rebounds; Spearman
    stays high for any finite T. ``T=None`` means ∞ (no stranger term)."""
    rows = []
    for name in datasets:
        g, _ = load_local(name, sf)
        seeds, exact = seeds_and_exact(name, sf, n_seeds)
        for T in T_values:
            if T is None:
                tpa = LocalTPA(g, S=S, T=10_000)
                tpa.r_stranger = np.zeros(g.n)  # T=∞: stranger part vanishes
            else:
                tpa = LocalTPA(g, S=S, T=max(T, S))
                tpa.preprocess()
            _, l1, rho = score(tpa.query, seeds, exact)
            rows.append(
                {"dataset": name, "T": float("inf") if T is None else T, "L1": l1, "rho": rho}
            )
    return pd.DataFrame(rows)


def format_table(df: pd.DataFrame, title: str) -> str:
    """Markdown-ish rendering used by EXPERIMENTS.md."""
    return f"### {title}\n\n{df.to_string(float_format=lambda v: f'{v:.6g}')}\n"
