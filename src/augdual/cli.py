"""Batch front end: instance generation, experiment execution from JSON
configs, and trace/report emission.

Subcommands:

* ``augdual gen --spec <file> --out <dir>``: synthesize a seeded instance
  and store it (JSON metadata plus CSV numeric payload).
* ``augdual solve --config <file>``: build, validate, solve, and write the
  trace CSV, report JSON, and optional solution JSON.
* ``augdual check --problem <file> --solution <file>``: KKT residual of a
  stored solution.
* ``augdual props --seed <int>``: run the property suites on seeded
  random inputs and print pass/fail.

Randomness comes from numpy's default PCG64 generator seeded per instance,
so instances are reproducible bit for bit. Exit codes: 0 success, 2
configuration error, 3 suspected infeasible, 4 max_iter without tolerance,
5 numerical failure (an SVD that does not converge, or a non-finite
iterate or residual).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from . import gauge as gauge_mod
from .linop import BlockSum, Dense, Point, SamplingMask, adjoint_consistency_check
from .models import (
    AugL1Model,
    MatrixCompletionModel,
    RpcaModel,
    build_problem,
    tau_heuristic,
)
from .oracle import kkt_residual
from .prox import NormSpec, moreau_residual, prox_norm
from .solver import (
    ConfigurationError,
    SolveConfig,
    SolveTrace,
    default_step_size,
    estimated_bound,
    solve,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_MAX_ITER = 4
EXIT_NUMERICAL = 5

_FLOAT_FMT = "%.16e"  # 17 significant digits: exact round trip for doubles


@dataclass(frozen=True)
class InstanceSpec:
    """Synthetic instance description (exact-data regime, seeded)."""

    kind: str
    seed: int
    n: int = 0
    m: int = 0
    k: int = 0
    rows: int = 0
    cols: int = 0
    rank: int = 0
    p: float = 1.0
    lam: float = 0.25

    def __post_init__(self):
        if self.kind == "aug_l1":
            if not (1 <= self.k <= self.n) or self.m < 1:
                raise ValueError("aug_l1 needs 1 <= k <= n and m >= 1")
        elif self.kind == "matrix_completion":
            if not (1 <= self.rank <= min(self.rows, self.cols)):
                raise ValueError("rank must satisfy 1 <= r <= min(rows, cols)")
            if not (0.0 < self.p <= 1.0):
                raise ValueError("sample ratio must satisfy 0 < p <= 1")
        elif self.kind == "rpca":
            if not (1 <= self.rank <= min(self.rows, self.cols)):
                raise ValueError("rank must satisfy 1 <= r <= min(rows, cols)")
            if not (1 <= self.k <= self.rows * self.cols):
                raise ValueError("sparse entry count out of range")
            if self.lam <= 0:
                raise ValueError("lam must be positive")
        else:
            raise ValueError(f"unknown instance kind {self.kind!r}")

    @staticmethod
    def from_dict(d: dict) -> "InstanceSpec":
        known = {f for f in InstanceSpec.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown instance fields: {sorted(extra)}")
        if "kind" not in d or "seed" not in d:
            raise ValueError("instance needs at least 'kind' and 'seed'")
        return InstanceSpec(**d)


def generate_instance(spec: InstanceSpec) -> Tuple[object, Optional[Point]]:
    """Seeded synthetic instance; returns (model with tau unset, truth)."""
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "aug_l1":
        A = rng.standard_normal((spec.m, spec.n)) / np.sqrt(spec.m)
        support = rng.choice(spec.n, size=spec.k, replace=False)
        x0 = np.zeros(spec.n)
        x0[support] = rng.choice([-1.0, 1.0], size=spec.k) * rng.uniform(
            0.5, 1.0, size=spec.k
        )
        b = A @ x0
        return AugL1Model(A=A, b=b), Point.vector(x0)
    if spec.kind == "matrix_completion":
        left = rng.standard_normal((spec.rows, spec.rank))
        right = rng.standard_normal((spec.cols, spec.rank))
        M = left @ right.T
        total = spec.rows * spec.cols
        count = max(1, int(round(spec.p * total)))
        flat = np.sort(rng.choice(total, size=count, replace=False))
        omega = tuple((int(f // spec.cols), int(f % spec.cols)) for f in flat)
        values = np.array([M[i, j] for i, j in omega])
        model = MatrixCompletionModel(
            shape=(spec.rows, spec.cols), omega=omega, sampled_values=values
        )
        return model, Point.matrix(M)
    # rpca
    left = rng.standard_normal((spec.rows, spec.rank))
    right = rng.standard_normal((spec.cols, spec.rank))
    L0 = left @ right.T
    total = spec.rows * spec.cols
    flat = np.sort(rng.choice(total, size=spec.k, replace=False))
    S0 = np.zeros((spec.rows, spec.cols))
    scale = max(1.0, float(np.max(np.abs(L0))))
    for f in flat:
        S0[f // spec.cols, f % spec.cols] = (
            rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0) * scale
        )
    D = L0 + S0
    return RpcaModel(D=D, lam=spec.lam), Point.pair(L0, S0)


def _save_csv(path: Path, arr: np.ndarray):
    np.savetxt(path, np.atleast_2d(arr), fmt=_FLOAT_FMT, delimiter=",")


def _load_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def write_instance(spec: InstanceSpec, out_dir) -> Path:
    """Store an instance as instance.json plus CSV payload files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model, truth = generate_instance(spec)
    meta: dict = {"model": spec.kind, "seed": spec.seed}
    if spec.kind == "aug_l1":
        meta.update(n=spec.n, m=spec.m, k=spec.k)
        meta["payload"] = {"A": "A.csv", "b": "b.csv", "x0": "x0.csv"}
        _save_csv(out / "A.csv", model.A)
        _save_csv(out / "b.csv", model.b)
        _save_csv(out / "x0.csv", truth.as_vector())
    elif spec.kind == "matrix_completion":
        meta.update(shape=[spec.rows, spec.cols], rank=spec.rank, p=spec.p)
        meta["omega"] = [[i, j] for i, j in model.omega]
        meta["payload"] = {"sampled_values": "b.csv", "M0": "M0.csv"}
        _save_csv(out / "b.csv", model.sampled_values)
        _save_csv(out / "M0.csv", truth.as_matrix())
    else:
        meta.update(shape=[spec.rows, spec.cols], rank=spec.rank, k=spec.k, lam=spec.lam)
        meta["payload"] = {"D": "D.csv", "L0": "L0.csv", "S0": "S0.csv"}
        _save_csv(out / "D.csv", model.D)
        left, right = truth.as_pair()
        _save_csv(out / "L0.csv", left)
        _save_csv(out / "S0.csv", right)
    path = out / "instance.json"
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_instance(path) -> Tuple[object, Optional[Point]]:
    """Load an instance stored by write_instance."""
    path = Path(path)
    with open(path) as fh:
        meta = json.load(fh)
    base = path.parent
    kind = meta["model"]
    payload = meta["payload"]
    if kind == "aug_l1":
        A = _load_csv(base / payload["A"])
        b = _load_csv(base / payload["b"]).ravel()
        x0 = _load_csv(base / payload["x0"]).ravel()
        return AugL1Model(A=A, b=b), Point.vector(x0)
    if kind == "matrix_completion":
        omega = tuple((int(i), int(j)) for i, j in meta["omega"])
        values = _load_csv(base / payload["sampled_values"]).ravel()
        model = MatrixCompletionModel(
            shape=tuple(meta["shape"]), omega=omega, sampled_values=values
        )
        truth = Point.matrix(_load_csv(base / payload["M0"]))
        return model, truth
    if kind == "rpca":
        D = _load_csv(base / payload["D"])
        model = RpcaModel(D=D, lam=float(meta["lam"]))
        truth = Point.pair(_load_csv(base / payload["L0"]), _load_csv(base / payload["S0"]))
        return model, truth
    raise ValueError(f"unknown stored model kind {kind!r}")


def emit_trace(trace: SolveTrace, path):
    """Trace CSV: header plus one row per iteration, 17-digit scientific."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(path, "w") as fh:
            fh.write("k,primal_residual,dual_objective,x_change,y_change\n")
            for rec in trace.records:
                fh.write(
                    f"{rec.k},{rec.primal_residual:.16e},{rec.dual_objective:.16e},"
                    f"{rec.x_change:.16e},{rec.y_change:.16e}\n"
                )
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc


def read_trace(path) -> SolveTrace:
    """Read back a CSV written by emit_trace."""
    trace = SolveTrace()
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "k,primal_residual,dual_objective,x_change,y_change":
            raise ValueError(f"unexpected trace header in {path}")
        for line in fh:
            k, pr, dobj, xc, yc = line.strip().split(",")
            trace.append(int(k), float(pr), float(dobj), float(xc), float(yc))
    return trace


def _magnitude_for_rule(model, truth: Optional[Point]) -> Optional[float]:
    if truth is None:
        return None
    if isinstance(model, AugL1Model):
        return float(np.max(np.abs(truth.as_vector())))
    return None


def _tau_from_config(cfg: dict, model, truth) -> float:
    tau_cfg = cfg.get("tau")
    if not isinstance(tau_cfg, dict) or ("rule" in tau_cfg) == ("value" in tau_cfg):
        raise ConfigurationError(
            "config field 'tau' must carry exactly one of 'rule' or 'value'"
        )
    if "value" in tau_cfg:
        return float(tau_cfg["value"])
    if tau_cfg["rule"] != "heuristic":
        raise ConfigurationError(f"unknown tau rule {tau_cfg['rule']!r}")
    return tau_heuristic(model, magnitude=_magnitude_for_rule(model, truth))


def _recovery_error(model, x: Point, truth: Optional[Point]) -> Optional[float]:
    if truth is None:
        return None
    tnorm = truth.norm()
    if tnorm == 0:
        return None
    return (x - truth).norm() / tnorm


def run_experiment(cfg: dict, base_dir=".") -> Tuple[dict, int]:
    """Run one experiment from a parsed config; returns (report, exit code)."""
    base = Path(base_dir)
    if ("instance" in cfg) == ("instance_path" in cfg):
        raise ConfigurationError(
            "config must carry exactly one of 'instance' or 'instance_path'"
        )
    if "instance" in cfg:
        model, truth = generate_instance(InstanceSpec.from_dict(cfg["instance"]))
    else:
        model, truth = load_instance(base / cfg["instance_path"])

    tau = _tau_from_config(cfg, model, truth)
    model = _with_tau(model, tau)
    problem = build_problem(model)

    solve_cfg = cfg.get("solve", {})
    known = {"h", "max_iter", "primal_tol", "accelerated", "restart"}
    extra = set(solve_cfg) - known
    if extra:
        raise ConfigurationError(f"unknown solve fields: {sorted(extra)}")
    config = SolveConfig(
        h=solve_cfg.get("h"),
        max_iter=int(solve_cfg.get("max_iter", 100_000)),
        primal_tol=float(solve_cfg.get("primal_tol", 1e-8)),
        accelerated=bool(solve_cfg.get("accelerated", False)),
        restart=bool(solve_cfg.get("restart", True)),
    )
    norm_bound = estimated_bound(problem)
    h_used = (
        config.h if config.h is not None else default_step_size(problem, norm_bound)
    )

    start = time.perf_counter()
    x, y, trace = solve(problem, config, norm_bound=norm_bound)
    wall_ms = 1000.0 * (time.perf_counter() - start)
    report_kkt = kkt_residual(problem, x, y)

    report = {
        "model": cfg["instance"]["kind"] if "instance" in cfg else _model_kind(model),
        "n_iter": len(trace.records),
        "termination": trace.termination,
        "primal_residual": trace.records[-1].primal_residual,
        "kkt_max_violation": report_kkt.max_violation,
        "recovery_error": _recovery_error(model, x, truth),
        # Measured wall time is printed to stdout; the report keeps the
        # field but stores null so identical configs give identical bytes.
        "wall_ms": None,
        "tau": problem.tau,
        "norm_bound": norm_bound,
        "h": h_used,
    }
    out_cfg = cfg.get("output", {})
    if "trace" in out_cfg:
        emit_trace(trace, base / out_cfg["trace"])
    if "report" in out_cfg:
        rpath = base / out_cfg["report"]
        rpath.parent.mkdir(parents=True, exist_ok=True)
        with open(rpath, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if "solution" in out_cfg:
        spath = base / out_cfg["solution"]
        spath.parent.mkdir(parents=True, exist_ok=True)
        with open(spath, "w") as fh:
            json.dump(
                {
                    "tau": problem.tau,
                    "mu": problem.mu,
                    "x": x.data.tolist(),
                    "y": y.data.tolist(),
                },
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")
    print(f"solved in {len(trace.records)} iterations ({wall_ms:.1f} ms), "
          f"termination={trace.termination}")
    if trace.termination == "suspected_infeasible":
        return report, EXIT_INFEASIBLE
    if trace.termination == "max_iter":
        return report, EXIT_MAX_ITER
    if trace.termination == "numerical_failure":
        return report, EXIT_NUMERICAL
    return report, EXIT_OK


def _with_tau(model, tau: float):
    import dataclasses

    return dataclasses.replace(model, tau=tau)


def _model_kind(model) -> str:
    return {
        "AugL1Model": "aug_l1",
        "AugNuclearModel": "aug_nuclear",
        "MatrixCompletionModel": "matrix_completion",
        "RpcaModel": "rpca",
        "GaugeModel": "gauge",
    }[type(model).__name__]


def run_props(seed: int) -> int:
    """Seeded property suites: prox identities, adjoint identities, gauge
    consistency. Prints one line per property."""
    rng = np.random.default_rng(seed)
    failures = 0

    def report(name: str, ok: bool):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1

    norms = {
        "l1": NormSpec("l1"),
        "l2": NormSpec("l2"),
        "linf": NormSpec("linf"),
        "nuclear": NormSpec("nuclear"),
    }
    for name, norm in norms.items():
        worst_moreau = 0.0
        worst_firm = 0.0
        worst_lip = 0.0
        worst_scaling = 0.0
        for _ in range(200):
            if name == "nuclear":
                v = Point.matrix(3.0 * rng.standard_normal((4, 3)))
                u = Point.matrix(3.0 * rng.standard_normal((4, 3)))
            else:
                v = Point.vector(3.0 * rng.standard_normal(6))
                u = Point.vector(3.0 * rng.standard_normal(6))
            worst_moreau = max(worst_moreau, moreau_residual(norm, v))
            pv = prox_norm(norm, v, 1.0)
            pu = prox_norm(norm, u, 1.0)
            d = (pv - pu).norm()
            worst_firm = max(worst_firm, d * d - (v - u).dot(pv - pu))
            worst_lip = max(worst_lip, d - (v - u).norm())
            for t in (0.1, 1.0, 37.0):
                lhs = t * prox_norm(norm, (1.0 / t) * v, 1.0)
                rhs = prox_norm(norm, v, t)
                worst_scaling = max(
                    worst_scaling, (lhs - rhs).norm() / (1.0 + v.norm())
                )
        report(f"moreau residual ({name}) <= 1e-10", worst_moreau <= 1e-10)
        report(f"firm nonexpansiveness ({name})", worst_firm <= 1e-10)
        report(f"lipschitz ({name})", worst_lip <= 1e-10)
        report(f"prox scaling ({name}) <= 1e-12", worst_scaling <= 1e-12)

    ops = [
        Dense(rng.standard_normal((6, 9))),
        SamplingMask((4, 5), ((0, 0), (1, 3), (2, 2), (3, 4))),
        BlockSum((3, 4)),
    ]
    for op in ops:
        gap = adjoint_consistency_check(op, trials=20, seed=seed)
        report(f"adjoint identity ({type(op).__name__}) <= 1e-12", gap <= 1e-12)

    for name, norm in norms.items():
        if name == "nuclear":
            continue
        g = gauge_mod.NormGauge(norm)
        ok = True
        for _ in range(50):
            v = Point.vector(3.0 * rng.standard_normal(5))
            diff = (gauge_mod.gauge_prox(g, v, 1.0) - prox_norm(norm, v, 1.0)).norm()
            ok = ok and diff <= 1e-10
        report(f"gauge/norm prox consistency ({name})", ok)

    print(f"{failures} failure(s)")
    return EXIT_OK if failures == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="augdual",
        description="Dual gradient solver for augmented recovery models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a seeded instance")
    gen.add_argument("--spec", required=True, help="instance spec JSON file")
    gen.add_argument("--out", required=True, help="output directory")

    slv = sub.add_parser("solve", help="run an experiment from a config file")
    slv.add_argument("--config", required=True, help="experiment config JSON file")

    chk = sub.add_parser("check", help="KKT residual of a stored solution")
    chk.add_argument("--problem", required=True, help="instance.json path")
    chk.add_argument("--solution", required=True, help="solution JSON path")

    props = sub.add_parser("props", help="run seeded property suites")
    props.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            with open(args.spec) as fh:
                spec = InstanceSpec.from_dict(json.load(fh))
            path = write_instance(spec, args.out)
            print(f"wrote {path}")
            return EXIT_OK
        if args.command == "solve":
            with open(args.config) as fh:
                cfg = json.load(fh)
            _, code = run_experiment(cfg, base_dir=Path(args.config).parent)
            return code
        if args.command == "check":
            model, _ = load_instance(args.problem)
            with open(args.solution) as fh:
                sol = json.load(fh)
            problem = build_problem(_with_tau(model, float(sol["tau"])))
            x = Point(np.asarray(sol["x"]), problem.op.domain_tag)
            y = Point(np.asarray(sol["y"]), problem.op.codomain_tag)
            rep = kkt_residual(problem, x, y)
            print(
                f"feasibility={rep.feasibility:.3e} "
                f"stationarity={rep.stationarity:.3e} "
                f"max_violation={rep.max_violation:.3e}"
            )
            return EXIT_OK
        return run_props(args.seed)
    except np.linalg.LinAlgError as exc:
        # LinAlgError subclasses ValueError; catch it first so a failed SVD
        # is not reported as a configuration error.
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigurationError, ValueError, FileNotFoundError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
