"""T7 (paper Fig. 7): effect of S (T fixed at 10) on the LiveJournal and
Pokec substitutes — online time grows with S while L1 error falls.

Benchmarks the online query at each S (that IS the figure's x-axis cost);
the L1 error rides in ``extra_info``. The stranger vector is S-independent,
so preprocessing is shared across the sweep.
"""
import itertools

import numpy as np
import pytest

from repro.core.local_tpa import LocalTPA
from repro.experiments.runner import C, EPS
from repro.experiments.tables import S_VALUES, SWEEP_DATASETS
from repro.metrics import l1_error

import bench_utils as bu

_stranger_cache: dict = {}
T_FIXED = 10


def _tpa_with_S(dataset: str, S: int) -> LocalTPA:
    g, _ = bu.graph_and_spec(dataset)
    t = LocalTPA(g, c=C, S=S, T=T_FIXED, eps=EPS)
    if dataset not in _stranger_cache:
        t.preprocess()
        _stranger_cache[dataset] = t.r_stranger
    else:
        t.r_stranger = _stranger_cache[dataset]
    return t


@pytest.mark.parametrize("dataset", SWEEP_DATASETS)
@pytest.mark.parametrize("S", S_VALUES)
def test_effect_of_S(benchmark, dataset, S):
    tpa = _tpa_with_S(dataset, S)
    seeds = [int(s) for s in bu.seeds_for(dataset)]
    exact = bu.exact_for(dataset)
    cycle = itertools.cycle(seeds)

    benchmark.pedantic(lambda: tpa.query(next(cycle)), rounds=len(seeds), iterations=1)

    l1 = float(np.mean([l1_error(tpa.query(s), exact[s]) for s in seeds]))
    benchmark.extra_info.update({"dataset": dataset, "S": S, "T": T_FIXED, "mean_L1": l1})
