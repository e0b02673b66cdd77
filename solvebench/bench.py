"""Workloads, closed-loop measurement, correctness checks and reporting.

A run is a closed loop with one caller: set up an instance through the
public path (``cli.generate_instance`` -> ``models.tau_heuristic`` ->
``models.build_problem``), then call ``solver.solve`` with the norm bound
left unset, so the solve includes the operator-norm estimate; the next
instance starts only after the previous solve returns. Each solve is checked
outside the timed region: termination, KKT violation and recovery error.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np

import augdual
from augdual import cli, models, oracle, solver

from tracing import Tracer, patched

OUT_DIR = Path(__file__).resolve().parent / "out"
# setup_s is the median, over rounds, of the per-instance time of setting up
# instances back to back. A round follows every solve, so the rounds sample
# the machine across the whole run, as the solve times do, rather than in
# one burst that a few seconds of host noise can shift; a round sets up
# instances until SETUP_ROUND_S has passed (at least one).
SETUP_ROUND_S = 0.005
# Share of a traced run's time given to its untraced phase; the two traced
# passes over the same instances take the rest.
UNTRACED_SHARE = 1.0 / 3.0
CAPPED_WARNING = "operator norm power iteration did not reach tolerance"
PRIMAL_TOL = 1e-6
# A solve fails above this KKT violation, relative to max(1, ||b||).
KKT_RTOL = 1e-5


@dataclass(frozen=True)
class Workload:
    """One instance family and how it is solved and judged."""

    name: str
    why: str
    instance: dict  # InstanceSpec fields except the seed
    accelerated: bool
    # A converged solve is unrecovered above this error to the planted truth.
    recovery_rtol: float = 1e-3
    max_iter: int = 100_000


# Sizes keep one solve under a second on the numpy Jacobi fallback, so a
# 35 s run holds 35-90 solves and its median moves little between seeds.
# A Jacobi sweep costs about the square of the smaller side, so completion
# and RPCA use thin matrices. Square 14x14 RPCA took ~2 s per solve, and 17
# solves a run left its median at the mercy of which instances were drawn.
# Over 150 instance seeds the 24x12 completion family ran 43-54 iterations
# (quartiles, at most 318); over 72 the 24x8 RPCA family ran 166-196 (at
# most 1130; one instance stopped 4e-2 from the truth).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="l1_bregman",
            why="Dense 300x1400 aug_l1 (3.4 MB, above one core's L2), plain "
            "descent: norm estimate, then matvecs; no SVD. ~0.5 s/solve at the seed",
            instance=dict(kind="aug_l1", m=300, n=1400, k=30),
            accelerated=False,
        ),
        Workload(
            name="mc_svt",
            why="24x12 rank-1 completion, p=0.9, accelerated SVT: SVD-bound; "
            "norm estimate stops after 3 power iterations. ~0.4 s/solve at the seed",
            instance=dict(kind="matrix_completion", rows=24, cols=12, rank=1, p=0.9),
            accelerated=True,
        ),
        Workload(
            name="rpca_pair",
            why="24x8 rank-1 RPCA, k=2, lam=0.35, accelerated: SVD of a full "
            "matrix, soft threshold, pair points. ~0.6-0.8 s/solve at the seed",
            instance=dict(kind="rpca", rows=24, cols=8, rank=1, k=2, lam=0.35),
            accelerated=True,
        ),
    )
}


def instance_seed(seed: int, index: int) -> int:
    """Seed of the index-th instance of a run with the given workload seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Solve:
    """Outcome of one set-up and solve."""

    solve_s: float = 0.0
    iterations: int = 0
    error: Optional[str] = None
    kkt: float = float("nan")
    rel_error: float = float("nan")
    unrecovered: bool = False
    capped_warnings: int = 0
    span: int = -1  # root span of the solve in a traced pass

    @property
    def failed(self) -> bool:
        return self.error is not None


def set_up(w: Workload, seed: int, index: int, tracer: Optional[Tracer] = None):
    """Generate an instance, set tau and build its ProblemSpec."""
    span = tracer.span("setup") if tracer else contextlib.nullcontext(-1)
    with span:
        model, truth = cli.generate_instance(
            cli.InstanceSpec(seed=instance_seed(seed, index), **w.instance)
        )
        magnitude = (
            float(np.max(np.abs(truth.data)))
            if isinstance(model, models.AugL1Model)
            else None
        )
        tau = models.tau_heuristic(model, magnitude=magnitude)
        problem = models.build_problem(dataclasses.replace(model, tau=tau))
    return problem, truth


def setup_round(w: Workload, seed: int) -> float:
    """Per-instance time of one round of back-to-back set-ups."""
    count = 0
    start = perf_counter()
    while True:
        set_up(w, seed, count)
        count += 1
        elapsed = perf_counter() - start
        if elapsed >= SETUP_ROUND_S:
            return elapsed / count


def solve_one(w: Workload, seed: int, index: int, tracer: Optional[Tracer] = None) -> Solve:
    problem, truth = set_up(w, seed, index, tracer)
    out = Solve()
    config = solver.SolveConfig(
        primal_tol=PRIMAL_TOL, accelerated=w.accelerated, max_iter=w.max_iter
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        span = tracer.span("solver.solve") if tracer else contextlib.nullcontext(-1)
        start = perf_counter()
        try:
            with span as sid:
                x, y, trace = solver.solve(problem, config)
        except Exception as exc:  # a raised error is a counted failure
            out.solve_s = perf_counter() - start
            out.error = f"raised {type(exc).__name__}: {exc}"
            return out
        out.solve_s = perf_counter() - start
    out.span = sid
    out.capped_warnings = sum(CAPPED_WARNING in str(c.message) for c in caught)
    out.iterations = len(trace.records)
    paused = tracer.paused() if tracer else contextlib.nullcontext()
    with paused:
        out.kkt = oracle.kkt_residual(problem, x, y).max_violation
        out.rel_error = (x - truth).norm() / truth.norm()
    out.unrecovered = not out.rel_error <= w.recovery_rtol
    kkt_tol = KKT_RTOL * max(1.0, problem.b.norm())
    if trace.termination != "feasibility_tol":
        out.error = f"termination {trace.termination}"
    elif not out.kkt <= kkt_tol:
        out.error = f"KKT violation {out.kkt:.3e} above {kkt_tol:.3e}"
    return out


def closed_loop(w: Workload, seed: int, seconds: float, solves: Optional[int] = None,
                setup_rounds: Optional[list] = None):
    """Solve instances 0, 1, ... one after another until ``seconds`` have
    passed (at least one), or exactly ``solves`` of them when given. With
    ``setup_rounds``, a set-up round is timed after each solve into it."""
    results = []
    start = perf_counter()
    while True:
        results.append(solve_one(w, seed, len(results)))
        if setup_rounds is not None:
            setup_rounds.append(setup_round(w, seed))
        if solves is not None:
            if len(results) >= solves:
                return results
        elif perf_counter() - start >= seconds:
            return results


def _tail_percentile(count: int) -> Optional[int]:
    """Highest reported percentile that leaves at least 10 samples beyond it."""
    for pct in (99, 95, 90, 75):
        if count * (100 - pct) / 100 >= 10:
            return pct
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(w: Workload, seed: int, seconds: float, solves: Optional[int] = None):
    """Closed-loop run; returns (metrics, details, results)."""
    rounds = []
    results = closed_loop(w, seed, seconds, solves, setup_rounds=rounds)
    times = [r.solve_s for r in results]
    ok = [r for r in results if not r.failed]
    metrics = {
        "solve_s.p50": (statistics.median(times), "s"),
        "setup_s": (statistics.median(rounds), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    details = {
        "solves": (len(results), "count"),
        "setup_rounds": (len(rounds), "count"),
        "solves_per_s": (len(ok) / sum(times), "1/s"),
        "failed_frac": (sum(r.failed for r in results) / len(results), "frac"),
        "unrecovered_frac": (sum(r.unrecovered for r in results) / len(results), "frac"),
        "iterations.p50": (statistics.median(r.iterations for r in results), "count"),
        "numerics.power_iteration.capped": (
            sum(r.capped_warnings for r in results) / len(results), "count/solve"),
    }
    pct = _tail_percentile(len(times))
    if pct is not None:
        details[f"solve_s.p{pct}"] = (float(np.percentile(times, pct)), "s")
    return metrics, details, results


def traced_pass(w: Workload, seed: int, count: int):
    tracer = Tracer()
    with patched(tracer):
        results = [solve_one(w, seed, index, tracer) for index in range(count)]
    return tracer, results


def exact_counts(tracer: Tracer, results) -> list:
    """Per-solve counts that must repeat exactly between traced passes."""
    tab = tracer.table()
    svd, point = tracer.name_id("numerics.svd"), tracer.name_id("linop.point")
    power_iters = {}
    for sid, attrs in tracer.attrs.items():
        if "iters" in attrs:
            root = int(tab["root"][sid])
            power_iters[root] = power_iters.get(root, 0) + attrs["iters"]
    counts = []
    for r in results:
        in_solve = tab["root"] == r.span
        counts.append(
            {
                "iterations": r.iterations,
                "svd_calls": int(np.count_nonzero(in_solve & (tab["name"] == svd))),
                "point_constructions": int(np.count_nonzero(in_solve & (tab["name"] == point))),
                "power_iterations": power_iters.get(r.span, 0),
            }
        )
    return counts


def layer_metrics(tracer: Tracer, results, untraced) -> dict:
    """Per-layer metrics of one traced pass, per solve unless stated."""
    tab = tracer.table()
    names = tab["name"]
    solve_id = tracer.name_id("solver.solve")
    setup_id = tracer.name_id("setup")
    root_name = names[tab["root"]]
    in_solve = root_name == solve_id
    in_setup = root_name == setup_id
    n = len(results)
    setups = int(np.count_nonzero(names == setup_id))

    def mask(name, within=in_solve):
        return within & (names == tracer.name_id(name))

    def per_solve_count(name):
        return np.count_nonzero(mask(name)) / n

    def total(name, col="dur", within=in_solve):
        return float(tab[col][mask(name, within)].sum())

    def attr_sum(key):
        return sum(
            a[key] for sid, a in tracer.attrs.items() if key in a and in_solve[sid]
        )

    solve_total = total("solver.solve")
    norm_total = total("numerics.norm_estimate")
    iterations = sum(r.iterations for r in results)
    svd_calls = np.count_nonzero(mask("numerics.svd"))
    computed = attr_sum("computed")
    capped = sum(
        1
        for sid, a in tracer.attrs.items()
        if in_solve[sid] and a.get("converged") is False
    )
    ok = [r for r in results if not r.failed]
    traced_p50 = statistics.median(r.solve_s for r in results)
    untraced_p50 = statistics.median(r.solve_s for r in untraced[: len(results)])
    return {
        "numerics.svd.calls": (svd_calls / n, "count/solve"),
        "numerics.svd.s": (total("numerics.svd") / n, "s/solve"),
        "numerics.svd.us_per_call": (
            1e6 * total("numerics.svd") / svd_calls if svd_calls else 0.0, "us"),
        "numerics.svd.gflop_computed": (attr_sum("flops") / 1e9 / n, "GFLOP/solve"),
        "prox.svt.calls": (per_solve_count("prox.svt"), "count/solve"),
        "prox.svt.self_s": (total("prox.svt", "self") / n, "s/solve"),
        "prox.svt.kept_frac": (attr_sum("kept") / computed if computed else 0.0, "frac"),
        "numerics.norm_estimate.s": (norm_total / n, "s/solve"),
        "numerics.power_iteration.iters": (attr_sum("iters") / n, "count/solve"),
        "numerics.power_iteration.capped": (capped / n, "count/solve"),
        "linop.apply.calls": (per_solve_count("linop.apply"), "count/solve"),
        "linop.apply.s": (total("linop.apply") / n, "s/solve"),
        "linop.adjoint.calls": (per_solve_count("linop.adjoint"), "count/solve"),
        "linop.adjoint.s": (total("linop.adjoint") / n, "s/solve"),
        "linop.apply.mb_computed": (attr_sum("bytes") / 1e6 / n, "MB/solve"),
        "linop.point.constructions": (per_solve_count("linop.point"), "count/solve"),
        "linop.point.s": (total("linop.point") / n, "s/solve"),
        "solver.regularizer_prox.self_s": (
            total("solver.regularizer_prox", "self") / n, "s/solve"),
        "solver.self_s": (total("solver.solve", "self") / n, "s/solve"),
        "solver.self_share": (total("solver.solve", "self") / solve_total, "frac"),
        "solver.iterations": (iterations / n, "count/solve"),
        "solver.us_per_iter": (1e6 * (solve_total - norm_total) / max(iterations, 1), "us"),
        "cli.generate_instance.s": (
            total("cli.generate_instance", within=in_setup) / setups, "s/setup"),
        "models.tau_heuristic.s": (
            total("models.tau_heuristic", within=in_setup) / setups, "s/setup"),
        "models.build_problem.s": (
            total("models.build_problem", within=in_setup) / setups, "s/setup"),
        "oracle.kkt.max": (max((r.kkt for r in ok), default=0.0), "norm"),
        "oracle.rel_error.p50": (
            statistics.median(r.rel_error for r in ok) if ok else 0.0, "ratio"),
        "oracle.rel_error.max": (max((r.rel_error for r in ok), default=0.0), "ratio"),
        "trace.overhead": (traced_p50 / untraced_p50 - 1.0, "ratio"),
    }


def self_time_ranking(tracer: Tracer, n: int) -> list:
    """(layer, self seconds per solve), largest first, inside solves."""
    tab = tracer.table()
    in_solve = tab["name"][tab["root"]] == tracer.name_id("solver.solve")
    sums = np.bincount(tab["name"][in_solve], weights=tab["self"][in_solve],
                       minlength=len(tracer.names))
    ranking = [(tracer.names[i], float(s) / n) for i, s in enumerate(sums) if s > 0]
    return sorted(ranking, key=lambda item: -item[1])


def traced(w: Workload, seed: int, seconds: float, solves: Optional[int] = None):
    """Untraced phase, then two traced passes over the same instances.

    Returns (metrics, details, all results, self-check problems)."""
    untraced = closed_loop(w, seed, seconds * UNTRACED_SHARE, solves)
    count = len(untraced)
    tracer, first = traced_pass(w, seed, count)
    repeat_tracer, second = traced_pass(w, seed, count)
    counts = exact_counts(tracer, first)
    problems = []
    if counts != exact_counts(repeat_tracer, second):
        problems.append("traced passes disagree on exact counts")
    if [r.iterations for r in untraced] != [c["iterations"] for c in counts]:
        problems.append("traced iterations differ from the untraced run")
    metrics = layer_metrics(tracer, first, untraced)
    details = {
        "traced_solves": (count, "count"),
        "self_check": ("ok" if not problems else "; ".join(problems), ""),
    }
    for name, self_s in self_time_ranking(tracer, count)[:6]:
        details[f"self_s.{name}"] = (self_s, "s/solve")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(
        OUT_DIR / f"spans_{w.name}_seed{seed}.npz",
        {"workload": w.name, "seed": seed, "counts": counts, "machine": machine_info()},
    )
    return metrics, details, untraced + first + second, problems


def blas_threads() -> Optional[int]:
    """Thread count OpenBLAS reports, read from the loaded library."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "kernel_compiled": augdual.KERNEL_COMPILED,
    }


def run(w: Workload, seed: int, seconds: float, trace: bool, solves: Optional[int] = None):
    """One benchmark run; returns the result object and the printable details."""
    if trace:
        metrics, details, results, problems = traced(w, seed, seconds, solves)
    else:
        metrics, details, results = end_to_end(w, seed, seconds, solves)
        problems = []
    failed = sum(r.failed for r in results)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    failures = sorted({r.error for r in results if r.failed})
    return result, details, failures


def _print_table(title: str, rows: dict):
    print(title)
    for name, (value, unit) in rows.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<34} {shown:>14} {unit}")


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload in its own process; prints each one's output."""
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
             "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            check=False,
        )
        code = code or proc.returncode
    return code


def main(argv=None, workloads=None) -> int:
    workloads = WORKLOADS if workloads is None else workloads
    parser = argparse.ArgumentParser(description="augdual time-to-tolerance benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    w = workloads[args.workload]
    result, details, failures = run(w, args.seed, args.seconds, bool(args.trace))
    print(f"workload {w.name}: {w.why}")
    print("machine " + json.dumps(machine_info(), sort_keys=True))
    _print_table("metrics", {k: (m["value"], m["unit"]) for k, m in result["metrics"].items()})
    _print_table("details", details)
    for failure in failures:
        print(f"failure: {failure}")
    print(json.dumps(result))
    return 0
