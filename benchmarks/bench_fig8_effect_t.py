"""T8 (paper Fig. 8): effect of T (S fixed at 4) on the LiveJournal and
Pokec substitutes — L1 error dips at a small finite T then rebounds;
Spearman stays high for every finite T and collapses at T=∞.

Benchmarks the T-dependent preprocessing (the stranger tail from iteration
T); both accuracy metrics ride in ``extra_info``.
"""
import numpy as np
import pytest

from repro.core.local_tpa import LocalTPA
from repro.experiments.runner import C, EPS
from repro.experiments.tables import SWEEP_DATASETS, T_VALUES
from repro.metrics import l1_error, spearman

import bench_utils as bu

S_FIXED = 4


@pytest.mark.parametrize("dataset", SWEEP_DATASETS)
@pytest.mark.parametrize("T", T_VALUES)
def test_effect_of_T(benchmark, dataset, T):
    g, _ = bu.graph_and_spec(dataset)
    if T is None:
        tpa = LocalTPA(g, c=C, S=S_FIXED, T=10_000, eps=EPS)
        benchmark.pedantic(
            lambda: setattr(tpa, "r_stranger", np.zeros(g.n)), rounds=1, iterations=1
        )
    else:
        tpa = LocalTPA(g, c=C, S=S_FIXED, T=max(T, S_FIXED), eps=EPS)
        benchmark.pedantic(tpa.preprocess, rounds=1, iterations=1)

    seeds = [int(s) for s in bu.seeds_for(dataset)]
    exact = bu.exact_for(dataset)
    rs = {s: tpa.query(s) for s in seeds}
    benchmark.extra_info.update(
        {
            "dataset": dataset,
            "T": "inf" if T is None else T,
            "S": S_FIXED,
            "mean_L1": float(np.mean([l1_error(rs[s], exact[s]) for s in seeds])),
            "mean_spearman": float(
                np.mean([spearman(rs[s], exact[s]) for s in seeds])
            ),
        }
    )
