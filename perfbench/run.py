"""TPA benchmark: one workload per process, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload local-friendster --seed 1 --seconds 8 --trace 0

Each run generates its graph (fixed per workload) and its query seeds (from
``--seed``), warms up on a throwaway graph, then times set-up, preprocessing
(Algorithm 2) and a closed loop of one client issuing queries (Algorithm 3)
for ``--seconds``. Outputs are checked afterwards, outside every timed region:
Theorem 2's ``‖r_TPA − r_exact‖₁ ≤ 2(1-c)^S`` on the first ``n_check`` query
seeds, and on Spark also equality with ``LocalTPA`` within 1e-9 L1.

Reported times are host-normalised with a reference kernel timed between
the program's operations (see ``HostSpeed``); the record keeps them raw.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` the layers are wrapped (see ``tracing.py``) and it holds the
per-layer metrics. The line before it is a JSON record of the run: host and
set-up fingerprint, sample counts, measured against closed-form iteration
counts, and every correctness check. See README.md for what each metric is
expected to move.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core.local_cpi import exact_rwr, n_iterations_to_converge  # noqa: E402
from repro.core.local_tpa import LocalTPA  # noqa: E402
from repro.core.tpa import SparkTPA  # noqa: E402
from repro.experiments.datasets import DATASETS  # noqa: E402
from repro.experiments.runner import pick_seeds  # noqa: E402
from repro.graph.edges import edges_from_numpy, vector_to_numpy  # noqa: E402
from repro.graph.generators import dcsbm  # noqa: E402
from repro.graph.linalg import LocalGraph  # noqa: E402
from repro.metrics import l1_error, spearman  # noqa: E402
from tracing import Tracer  # noqa: E402

C = 0.15
SPARK_EQ_TOL = 1e-9  # Spark ≡ LocalTPA, L1
N_QUERY_SEEDS = 2000  # cycled if a run issues more queries
REF_NOMINAL_MS = 10.0  # reference-kernel time that host-normalised times assume
WARM_UP_EDGES = 64_000
REF_SHARE = 0.1  # reference-kernel time ÷ timed program time, kept up through a run


@dataclass(frozen=True)
class Workload:
    """A graph, TPA's parameters, and how many times each phase repeats."""

    name: str
    substrate: str  # "local" (LocalTPA) or "spark" (SparkTPA)
    n: int
    m: int
    S: int
    T: int
    eps: float
    graph_seed: int
    n_blocks: int = 32
    p_in: float = 0.8
    alpha_out: float = 0.7
    alpha_in: float = 0.9
    rounds: int = 3  # of set-up, preprocess and a share of the query loop
    setup_reps: int = 1  # per round
    preprocess_reps: int = 1  # per round
    n_check: int = 8  # query seeds checked against exact RWR

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        _, src, dst, _ = dcsbm(
            self.n,
            self.m,
            n_blocks=self.n_blocks,
            p_in=self.p_in,
            alpha_out=self.alpha_out,
            alpha_in=self.alpha_in,
            seed=self.graph_seed,
        )
        return src, dst


def _friendster() -> Workload:
    s = DATASETS["friendster-lite"]
    return Workload(
        "local-friendster", "local", s.n, s.m, s.S, s.T, 1e-9, s.seed,
        n_blocks=s.n_blocks, p_in=s.p_in, alpha_out=s.alpha_out, alpha_in=s.alpha_in,
        rounds=5, setup_reps=8, preprocess_reps=2, n_check=6,
    )


WORKLOADS = {
    w.name: w
    for w in [
        _friendster(),
        Workload(
            "spark-64k", "spark", 8_000, 64_000, 4, 10, 2e-2, 8_100,
            rounds=2, setup_reps=2, n_check=6,
        ),
    ]
}


# -- host speed --------------------------------------------------------------
class HostSpeed:
    """Times a fixed reference kernel between the program's timed operations.

    The kernel has the shape of one dense push (a gather and a weighted
    ``bincount`` over 2M random edges of a 65k-node graph) on data fixed by
    the benchmark, so no change to the program can move it. The host is
    shared: this kernel and the program's own times drift together by ±25 %
    over minutes. ``factor()`` is ``REF_NOMINAL_MS`` ÷ the kernel's median
    over the run; multiplying a time by it gives the time on a host where the
    kernel takes ``REF_NOMINAL_MS``, which removes most of that drift.
    """

    def __init__(self, share: float = REF_SHARE) -> None:
        rng = np.random.default_rng(2018)
        n, m = 1 << 16, 1 << 21
        self._n = n
        self._src = rng.integers(0, n, m)
        self._dst = rng.integers(0, n, m)
        self._w = rng.random(m)
        self._x = rng.random(n)
        self.share = share
        self.samples: list[float] = []
        self.sampled = 0.0  # sum of samples
        self.timed = 0.0  # program time the samples keep up with
        self._kernel()  # first call pays for page faults; not a sample

    def _kernel(self) -> np.ndarray:
        return np.bincount(self._dst, weights=self._x[self._src] * self._w, minlength=self._n)

    def sample(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.sampled += dt
        return dt

    def after(self, seconds: float) -> float:
        """Account ``seconds`` of timed program work, then sample the kernel
        until its time is ``share`` of all program time so far. Returns the
        seconds spent sampling."""
        self.timed += seconds
        spent = 0.0
        while self.sampled < self.share * self.timed:
            spent += self.sample()
        return spent

    def ref_ms(self) -> float:
        """The kernel's median time; 0 when it was never sampled."""
        return float(np.median(self.samples)) * 1e3 if self.samples else 0.0

    def factor(self) -> float:
        """``REF_NOMINAL_MS`` ÷ the kernel's median; 1 when it was never sampled."""
        return REF_NOMINAL_MS / self.ref_ms() if self.samples else 1.0


# -- Spark session -----------------------------------------------------------
def start_spark(cores: int = 4, driver_memory: str = "2g"):
    """Local Spark session with the test suite's settings; every file it
    writes stays under ``.bench_build``. Returns (session, seconds)."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts  # spark-submit's own JVM
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join(
        [
            "--master", f"local[{min(cores, os.cpu_count() or 1)}]",
            "--driver-memory", driver_memory,
            "--driver-java-options", java_opts,
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    t0 = time.perf_counter()
    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", str(BUILD / "spark-local"))
        .config("spark.sql.warehouse.dir", str(BUILD / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark, time.perf_counter() - t0


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# -- phases ------------------------------------------------------------------
def _build(w: Workload, spark, src, dst):
    """Set-up: ingest plus normalisation, returning the TPA object."""
    if spark is None:
        return LocalTPA(LocalGraph(w.n, src, dst), c=C, S=w.S, T=w.T, eps=w.eps)
    return SparkTPA(spark, edges_from_numpy(spark, src, dst), w.n, c=C, S=w.S, T=w.T, eps=w.eps)


def _query(tpa, seed: int) -> np.ndarray:
    """One query as the user receives it: a dense score vector."""
    return tpa.query_np(seed) if isinstance(tpa, SparkTPA) else tpa.query(seed)


def warm_up(w: Workload, spark) -> float:
    """Run TPA on a throwaway graph so JIT and lazy set-up are not timed.

    The graph has the workload's spec and TPA parameters, another seed, and
    at most ``WARM_UP_EDGES`` edges. That is all of spark-64k: the JVM goes on
    compiling through the first preprocessing at full size, which a smaller
    graph left to the first timed round."""
    m = min(w.m, WARM_UP_EDGES)
    tw = replace(w, name="warm-up", n=max(500, w.n * m // w.m), m=m, graph_seed=w.graph_seed + 1)
    src, dst = tw.edges()
    t0 = time.perf_counter()
    tpa = _build(tw, spark, src, dst)
    tpa.preprocess()
    _query(tpa, int(src[0]))
    if spark is not None:
        tpa.norm_edges.unpersist()
    return time.perf_counter() - t0


def _phase(tracer: Tracer | None, name: str):
    return tracer.phase(name) if tracer else nullcontext()


def run(w: Workload, seed: int, seconds: float, trace: bool, spark=None,
        session_s: float = 0.0) -> dict:
    """Run one workload; return the result record (see module docstring)."""
    src, dst = w.edges()
    ref_graph = LocalGraph(w.n, src, dst)  # query seeds and scoring only
    seeds = [int(s) for s in pick_seeds(ref_graph, N_QUERY_SEEDS, seed=seed)]
    warmup_s = warm_up(w, spark)

    # The kernel is the numpy substrate's own kind of work. Spark times, set by
    # JVM scheduling over four cores, did not follow it: over ten runs,
    # normalising widened their spread. So a Spark run never samples it.
    host = HostSpeed(REF_SHARE if spark is None else 0.0)
    tracer = Tracer(spark.sparkContext if spark else None) if trace else None
    if tracer:
        tracer.install()
    attempted, failures = 0, []

    # Rounds spread every timed phase over the whole run, so a burst of load
    # on the host moves one sample of each median, not a whole metric.
    setup_times, pre_times, latencies, results = [], [], [], {}
    loop_s, i, tpa = 0.0, 0, None
    for r in range(w.rounds):
        for _ in range(w.setup_reps):
            if tpa is not None and spark is not None:
                tpa.norm_edges.unpersist()
            with _phase(tracer, "setup"):
                t0 = time.perf_counter()
                tpa = _build(w, spark, src, dst)
                setup_times.append(time.perf_counter() - t0)
            host.after(setup_times[-1])
            attempted += 1

        for _ in range(w.preprocess_reps):
            with _phase(tracer, "preprocess"):
                t0 = time.perf_counter()
                tpa.preprocess()
                pre_times.append(time.perf_counter() - t0)
            host.after(pre_times[-1])
            attempted += 1

        loop_start, loop_ref = time.perf_counter(), 0.0
        min_queries = -(-w.n_check * (r + 1) // w.rounds)
        while i < min_queries or time.perf_counter() - loop_start < seconds / w.rounds:
            s = seeds[i % len(seeds)]
            i += 1
            attempted += 1
            try:
                with _phase(tracer, "query"):
                    t0 = time.perf_counter()
                    out = _query(tpa, s)
                    latencies.append(time.perf_counter() - t0)
                loop_ref += host.after(latencies[-1])
            except Exception:  # a failed query is counted, and the loop goes on
                traceback.print_exc()
                failures.append(f"query {s} raised")
                continue
            if len(results) < w.n_check:
                results[s] = out
        loop_s += time.perf_counter() - loop_start - loop_ref
    if tracer:
        tracer.uninstall()

    checks, stranger_l1 = check(w, tpa, ref_graph, results, failures)
    bound = 2 * (1 - C) ** w.S
    closed_form = n_iterations_to_converge(C, w.eps)
    lat = np.asarray(latencies)
    f = host.factor()
    detail = {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "fingerprint": fingerprint(w, spark, seed),
        "samples": {
            "setup_s": len(setup_times),
            "preprocess_s": len(pre_times),
            "query_latency": len(lat),
        },
        "raw_setup_s": setup_times,
        "raw_preprocess_s": pre_times,
        # Not an end-to-end metric: a Spark run has too few samples beyond it.
        "query_p95_ms": float(np.percentile(lat, 95)) * 1e3 if len(lat) else None,
        "query_beyond_p95": int((lat > np.percentile(lat, 95)).sum()) if len(lat) else 0,
        # Times as measured, before the host-speed factor is applied.
        "host_ref_kernel_ms": host.ref_ms(),
        "host_ref_samples": len(host.samples),
        "host_factor": f,
        "raw": {
            "setup_s": float(np.median(setup_times)),
            "preprocess_s": float(np.median(pre_times)),
            "query_p50_ms": float(np.percentile(lat, 50)) * 1e3 if len(lat) else None,
            "queries_per_s": len(lat) / loop_s,
        },
        "spark_session_s": session_s,
        "warmup_s": warmup_s,
        "theorem2_bound": bound,
        "closed_form_iterations": closed_form,
        "stranger_vs_local_l1": stranger_l1,
        "checks": checks,
        "failures": failures,
    }
    if trace:
        metrics, iterations = layer_metrics(tracer, w, setup_times, pre_times, lat, host)
        metrics["spark.session_s"] = (session_s, "s")
        metrics["spark.warmup_s"] = (warmup_s if spark else 0.0, "s")
        detail["iterations"] = iterations
        if not iterations["preprocess_match"]:
            print(f"warning: measured preprocess iterations {iterations} differ from "
                  f"the closed form {closed_form}", file=sys.stderr)
        failures.extend(["failed Spark task"] * int(metrics["spark.tasks_failed"][0]))
    else:
        metrics = {
            "setup_s": (float(np.median(setup_times)) * f, "s"),
            "preprocess_s": (float(np.median(pre_times)) * f, "s"),
            "query_p50_ms": (float(np.percentile(lat, 50)) * 1e3 * f, "ms"),
            "queries_per_s": (len(lat) / loop_s / f, "1/s"),
            "l1_error": (float(np.mean([c["l1"] for c in checks])), "L1"),
            "spearman": (float(np.mean([c["spearman"] for c in checks])), "rho"),
            "preprocessed_bytes": (float(tpa.preprocessed_bytes), "bytes"),
        }
    if spark is not None:
        tpa.norm_edges.unpersist()
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }


def check(w: Workload, tpa, ref_graph: LocalGraph, results: dict, failures: list):
    """Score the checked queries against exact RWR (Theorem 2) and, on Spark,
    against LocalTPA on the same graph. Appends one entry per failing
    operation to ``failures``; returns (per-seed records, stranger L1)."""
    bound = 2 * (1 - C) ** w.S
    ref = stranger_l1 = None
    if isinstance(tpa, SparkTPA):
        ref = LocalTPA(ref_graph, c=C, S=w.S, T=w.T, eps=w.eps)
        ref.preprocess()
        stranger_l1 = l1_error(vector_to_numpy(tpa.r_stranger, w.n), ref.r_stranger)
        if not stranger_l1 <= SPARK_EQ_TOL:
            failures.append(f"stranger vector differs from LocalTPA by {stranger_l1:.3g} L1")
    checks = []
    for s, r in results.items():
        exact = exact_rwr(ref_graph, s, c=C)
        rec = {"seed": s, "l1": l1_error(r, exact), "spearman": spearman(r, exact)}
        ok = rec["l1"] <= bound
        if ref is not None:
            rec["vs_local_l1"] = l1_error(r, ref.query(s))
            ok = ok and rec["vs_local_l1"] <= SPARK_EQ_TOL
        if not ok:
            failures.append(f"query {s} incorrect: {rec}")
        checks.append(rec)
    return checks, stranger_l1


def layer_metrics(tracer: Tracer, w: Workload, setup_times, pre_times, lat, host: HostSpeed):
    """Per-layer metrics from the traced phases; 0 for a layer the workload
    does not run. Returns (metrics, iteration record)."""
    setups = tracer.phases("setup")
    pres = tracer.phases("preprocess")
    queries = tracer.phases("query")

    def med(values) -> float:
        return float(np.median(values)) if len(values) else 0.0

    f = host.factor()

    def secs(span, name) -> float:
        return sum(s.seconds for s in span.find(name))

    def count(span, name) -> int:
        return len(span.find(name))

    def jobs(span, name) -> int:
        return sum(s.total("jobs") for s in span.find(name))

    def over(phases, f) -> float:
        return med([f(p) for p in phases])

    def useful_frac(phases) -> float:
        pushes = [s for p in phases for s in p.find("linalg.push")]
        scanned = sum(s.edges_scanned for s in pushes)
        return sum(s.useful_edges for s in pushes) / scanned if scanned else 0.0

    supersteps = [s for p in pres for s in p.find("cpi.superstep")]
    pre_iters = over(pres, lambda p: count(p, "linalg.push") + count(p, "cpi.superstep"))
    m = {
        # numpy substrate
        "linalg.graph_build_s": (over(setups, lambda p: secs(p, "linalg.graph_build")), "s"),
        "linalg.push.calls": (over(queries, lambda q: count(q, "linalg.push")), "count"),
        "linalg.push.s": (over(queries, lambda q: secs(q, "linalg.push")), "s"),
        "linalg.push.edges_scanned": (over(queries, lambda q: q.total("edges_scanned")), "count"),
        "linalg.push.useful_frac": (useful_frac(queries), "ratio"),
        "linalg.push.preprocess_s": (over(pres, lambda p: secs(p, "linalg.push")), "s"),
        "linalg.push.preprocess_useful_frac": (useful_frac(pres), "ratio"),
        "local_cpi.iterations.preprocess": (over(pres, lambda p: count(p, "linalg.push")), "count"),
        "local_cpi.iterations.query": (over(queries, lambda q: count(q, "linalg.push")), "count"),
        "local_cpi.self_s.preprocess": (
            over(pres, lambda p: secs(p, "local_cpi.cpi") - secs(p, "linalg.push")), "s"),
        "local_cpi.self_s.query": (
            over(queries, lambda q: secs(q, "local_cpi.cpi") - secs(q, "linalg.push")), "s"),
        "local_tpa.family_s": (over(queries, lambda q: secs(q, "local_tpa.family")), "s"),
        "local_tpa.merge_s": (
            over(queries, lambda q: secs(q, "local_tpa.query") - secs(q, "local_tpa.family")), "s"),
        # Spark substrate
        "edges.normalize_s": (over(setups, lambda p: secs(p, "edges.normalize")), "s"),
        "edges.normalize.jobs": (over(setups, lambda p: jobs(p, "edges.normalize")), "count"),
        "edges.normalize.shuffle_bytes": (over(setups, lambda p: sum(
            s.total("shuffle_write") for s in p.find("edges.normalize"))), "bytes"),
        "edges.l1_norm.calls": (over(pres, lambda p: count(p, "edges.l1_norm")), "count"),
        "edges.l1_norm.s": (over(pres, lambda p: secs(p, "edges.l1_norm")), "s"),
        "edges.l1_norm.jobs": (over(pres, lambda p: jobs(p, "edges.l1_norm")), "count"),
        "cpi.supersteps.preprocess": (over(pres, lambda p: count(p, "cpi.superstep")), "count"),
        "cpi.supersteps.query": (over(queries, lambda q: count(q, "cpi.superstep")), "count"),
        "cpi.superstep_s": (med([s.seconds for s in supersteps]), "s"),
        "cpi.superstep.jobs": (med([s.total("jobs") for s in supersteps]), "count"),
        "cpi.superstep.shuffle_read_bytes": (
            med([s.total("shuffle_read") for s in supersteps]), "bytes"),
        "cpi.superstep.shuffle_write_bytes": (
            med([s.total("shuffle_write") for s in supersteps]), "bytes"),
        "cpi.window_sum_s": (over(pres, lambda p: secs(p, "cpi.window_sum")), "s"),
        "tpa.preprocess.jobs": (over(pres, lambda p: p.total("jobs")), "count"),
        "tpa.family_s": (over(queries, lambda q: secs(q, "tpa.family")), "s"),
        "tpa.family.jobs": (over(queries, lambda q: jobs(q, "tpa.family")), "count"),
        "tpa.merge_s": (
            over(queries, lambda q: secs(q, "tpa.query") - secs(q, "tpa.family")), "s"),
        "edges.densify_s": (over(queries, lambda q: secs(q, "edges.densify")), "s"),
        "tpa.query.jobs": (over(queries, lambda q: q.total("jobs")), "count"),
        "spark.tasks_failed": (sum(r.total("tasks_failed") for r in tracer.roots), "count"),
        # both substrates
        "iterations.closed_form": (n_iterations_to_converge(C, w.eps), "count"),
        # the end-to-end times, host-normalised as in an untraced run
        "trace.setup_s": (med(setup_times) * f, "s"),
        "trace.preprocess_s": (med(pre_times) * f, "s"),
        "trace.query_p50_ms": (float(np.percentile(lat, 50)) * 1e3 * f if len(lat) else 0.0, "ms"),
        "host.ref_kernel_ms": (host.ref_ms(), "ms"),
    }
    query_iters = over(queries, lambda q: count(q, "linalg.push") + count(q, "cpi.superstep"))
    iterations = {
        "preprocess_measured": pre_iters,
        "preprocess_match": pre_iters == n_iterations_to_converge(C, w.eps),
        "query_measured": query_iters,
        "query_expected": w.S - 1,  # family window 0..S-1 needs S-1 pushes
    }
    return {k: (float(v), u) for k, (v, u) in m.items()}, iterations


# -- fingerprint -------------------------------------------------------------
def fingerprint(w: Workload, spark, seed: int) -> dict:
    import pyspark

    src_hash = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        src_hash.update(p.relative_to(ROOT).as_posix().encode())
        src_hash.update(p.read_bytes())
    commit = None  # outside a git checkout, src_sha256 identifies the code
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    fp = {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyspark": pyspark.__version__,
        "java": None,
        "master": None,
        "shuffle_partitions": None,
        "driver_memory": None,
        "workload": w.name,
        "seed": seed,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }
    if spark is not None:
        sc = spark.sparkContext
        fp.update(
            java=sc._jvm.System.getProperty("java.version"),
            master=sc.master,
            shuffle_partitions=spark.conf.get("spark.sql.shuffle.partitions"),
            driver_memory=sc.getConf().get("spark.driver.memory"),
        )
    return fp


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]

    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(BUILD / "tmp")
    spark, session_s = start_spark() if w.substrate == "spark" else (None, 0.0)
    try:
        result = run(w, args.seed, args.seconds, bool(args.trace), spark, session_s)
    finally:
        if spark is not None:
            stop_spark(spark)
    print(json.dumps(result.pop("detail")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
