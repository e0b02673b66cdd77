"""Batch front end: instance generation, experiment execution from JSON
configs, and trace/report emission.

Subcommands:

* ``augdual gen --spec <file> --out <dir>``: synthesize a seeded instance
  and store it (JSON metadata plus CSV numeric payload).
* ``augdual solve --config <file>``: build, validate, solve, and write the
  trace CSV, report JSON, and optional solution JSON.
* ``augdual check --problem <file> --solution <file>``: KKT residual of a
  stored solution.

Randomness comes from numpy's default PCG64 generator seeded per instance,
so instances are reproducible bit for bit. Exit codes: 2 for a
configuration error (including a file that cannot be read or written), 5
for an SVD that does not converge, and for a solve the code that
``_EXIT_CODES`` gives its termination.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .linop import Point, SamplingMask
from .models import (
    AugL1Model,
    MatrixCompletionModel,
    RpcaModel,
    build_problem,
    tau_heuristic,
)
from .oracle import kkt_residual
from .solver import (
    ConfigurationError,
    SolveConfig,
    SolveTrace,
    _is_number,
    solve,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_MAX_ITER = 4
EXIT_NUMERICAL = 5

_EXIT_CODES = {
    "feasibility_tol": EXIT_OK,
    "suspected_infeasible": EXIT_INFEASIBLE,
    "max_iter": EXIT_MAX_ITER,
    "numerical_failure": EXIT_NUMERICAL,
}

# The fields each instance kind reads, besides kind and seed.
_KIND_FIELDS = {
    "aug_l1": ("n", "m", "k"),
    "matrix_completion": ("rows", "cols", "rank", "p"),
    "rpca": ("rows", "cols", "rank", "k", "lam"),
}

_FLOAT_FMT = "%.16e"  # 17 significant digits: exact round trip for doubles


def _object(value, what: str, known) -> dict:
    """``value`` when it is a JSON object whose keys all lie in ``known``;
    otherwise a ConfigurationError naming ``what``."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{what} must be an object, got {value!r}")
    unknown = sorted(set(value).difference(known))
    if unknown:
        raise ConfigurationError(f"unknown {what} fields: {unknown}")
    return value


@dataclasses.dataclass(frozen=True)
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
        # Each field's value must be of its annotated type; an int is also a
        # float, and a bool (JSON true/false) is neither.
        kinds = {"str": str, "int": (int, np.integer), "float": (int, float, np.integer)}
        for name, field in self.__dataclass_fields__.items():
            value = getattr(self, name)
            if not isinstance(value, kinds[field.type]) or isinstance(value, bool):
                raise ValueError(
                    f"instance field {name!r} must be of type {field.type}, got {value!r}"
                )
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
            if not (math.isfinite(self.lam) and self.lam > 0):
                raise ValueError(f"lam must be finite and positive, got {self.lam!r}")
        else:
            raise ValueError(f"unknown instance kind {self.kind!r}")

    @staticmethod
    def from_dict(d: dict) -> "InstanceSpec":
        _object(d, "instance", InstanceSpec.__dataclass_fields__)
        if "kind" not in d or "seed" not in d:
            raise ValueError("instance needs at least 'kind' and 'seed'")
        spec = InstanceSpec(**d)  # checks the kind and every field's type
        _object(d, f"{spec.kind} instance", ("kind", "seed", *_KIND_FIELDS[spec.kind]))
        return spec


def generate_instance(spec: InstanceSpec) -> Tuple[object, Point]:
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
        omega = np.column_stack(np.divmod(flat, spec.cols))
        model = MatrixCompletionModel(
            SamplingMask((spec.rows, spec.cols), omega), sampled_values=M.ravel()[flat]
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


def _read_json_object(path, name: str) -> dict:
    """The JSON object stored at ``path``; a ConfigurationError naming
    ``name`` and the path for any other JSON document, and for a key missing
    from any of its objects."""

    class Stored(dict):
        def __missing__(self, key):
            raise ConfigurationError(f"{name} {path} has no {key!r} field")

    with open(path) as fh:
        doc = json.load(fh, object_hook=Stored)
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{name} {path} must be a JSON object, got {doc!r}")
    return doc


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _save_csv(path: Path, arr: np.ndarray):
    np.savetxt(path, np.atleast_2d(arr), fmt=_FLOAT_FMT, delimiter=",")


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
        _save_csv(out / "x0.csv", truth.data)
    elif spec.kind == "matrix_completion":
        meta.update(shape=[spec.rows, spec.cols], rank=spec.rank, p=spec.p)
        meta["omega"] = model.mask.indices.tolist()
        meta["payload"] = {"sampled_values": "b.csv", "M0": "M0.csv"}
        _save_csv(out / "b.csv", model.sampled_values)
        _save_csv(out / "M0.csv", truth.data)
    else:
        meta.update(shape=[spec.rows, spec.cols], rank=spec.rank, k=spec.k, lam=spec.lam)
        meta["payload"] = {"D": "D.csv", "L0": "L0.csv", "S0": "S0.csv"}
        _save_csv(out / "D.csv", model.D)
        _save_csv(out / "L0.csv", truth.data[0])
        _save_csv(out / "S0.csv", truth.data[1])
    path = out / "instance.json"
    _write_json(path, meta)
    return path


def load_instance(path) -> Tuple[object, Point]:
    """Load an instance stored by write_instance. The stored truth must be
    finite and shaped like the model's domain (each block of an RPCA pair
    like D); a ConfigurationError names its key and file otherwise."""
    path = Path(path)
    meta = _read_json_object(path, "instance file")
    kind = meta["model"]
    payload = meta["payload"]
    if not (isinstance(payload, dict) and all(isinstance(v, str) for v in payload.values())):
        raise ConfigurationError(f"instance file {path}: 'payload' must map names to file paths")

    def load(key: str) -> np.ndarray:
        return np.loadtxt(path.parent / payload[key], delimiter=",", ndmin=2)

    def truth(key: str, shape: tuple) -> np.ndarray:
        arr = load(key).ravel() if len(shape) == 1 else load(key)
        where = f"instance file {path}: {key} ({path.parent / payload[key]})"
        if arr.shape != shape:
            raise ConfigurationError(f"{where} has shape {arr.shape}, not {shape}")
        if not np.isfinite(arr).all():
            raise ConfigurationError(f"{where} must be finite")
        return arr

    if kind == "aug_l1":
        model = AugL1Model(A=load("A"), b=load("b").ravel())
        return model, Point.vector(truth("x0", model.A.shape[1:]))
    if kind == "matrix_completion":
        values = load("sampled_values").ravel()
        model = MatrixCompletionModel(SamplingMask(meta["shape"], meta["omega"]), values)
        return model, Point.matrix(truth("M0", model.mask.shape))
    if kind == "rpca":
        model = RpcaModel(D=load("D"), lam=meta["lam"])
        return model, Point.pair(truth("L0", model.D.shape), truth("S0", model.D.shape))
    raise ValueError(f"unknown stored model kind {kind!r}")


def emit_trace(trace: SolveTrace, path):
    """Trace CSV: header plus one row per iteration, 17-digit scientific."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("k,primal_residual,dual_objective,x_change,y_change\n")
        for rec in trace.records:
            fh.write(
                f"{rec.k},{rec.primal_residual:.16e},{rec.dual_objective:.16e},"
                f"{rec.x_change:.16e},{rec.y_change:.16e}\n"
            )


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


def _tau_number(value):
    """``value`` when it is a number (not a bool), else a ConfigurationError."""
    if not _is_number(value):
        raise ConfigurationError(f"tau value must be a number, got {value!r}")
    return value


def _tau_from_config(cfg: dict, model, truth) -> float:
    tau_cfg = _object(cfg.get("tau"), "tau", ("rule", "value"))
    if ("rule" in tau_cfg) == ("value" in tau_cfg):
        raise ConfigurationError(
            "config field 'tau' must carry exactly one of 'rule' or 'value'"
        )
    if "value" in tau_cfg:
        return _tau_number(tau_cfg["value"])
    if tau_cfg["rule"] != "heuristic":
        raise ConfigurationError(f"unknown tau rule {tau_cfg['rule']!r}")
    magnitude = float(np.max(np.abs(truth.data))) if isinstance(model, AugL1Model) else None
    return tau_heuristic(model, magnitude=magnitude)


def _recovery_error(x: Point, truth: Point) -> Optional[float]:
    tnorm = truth.norm()
    if tnorm == 0:
        return None
    return (x - truth).norm() / tnorm


def run_experiment(cfg: dict, base_dir=".") -> Tuple[dict, int]:
    """Run one experiment from a parsed config; returns (report, exit code)."""
    base = Path(base_dir)
    _object(cfg, "config", ("instance", "instance_path", "tau", "solve", "output"))
    if ("instance" in cfg) == ("instance_path" in cfg):
        raise ConfigurationError(
            "config must carry exactly one of 'instance' or 'instance_path'"
        )
    if "instance" in cfg:
        model, truth = generate_instance(InstanceSpec.from_dict(cfg["instance"]))
    elif isinstance(cfg["instance_path"], str):
        model, truth = load_instance(base / cfg["instance_path"])
    else:
        raise ConfigurationError("config field 'instance_path' must be a path string")

    problem = build_problem(dataclasses.replace(model, tau=_tau_from_config(cfg, model, truth)))
    solve_fields = ("h", "max_iter", "primal_tol", "accelerated")
    config = SolveConfig(**_object(cfg.get("solve", {}), "solve", solve_fields))
    out_cfg = _object(cfg.get("output", {}), "output", ("trace", "report", "solution"))
    if not all(isinstance(v, str) for v in out_cfg.values()):
        raise ConfigurationError(
            f"config field 'output' must map names to file paths, got {out_cfg!r}"
        )

    start = time.perf_counter()
    x, y, trace = solve(problem, config)
    wall_ms = 1000.0 * (time.perf_counter() - start)
    report_kkt = kkt_residual(problem, x, y)

    report = {
        "model": {AugL1Model: "aug_l1", MatrixCompletionModel: "matrix_completion",
                  RpcaModel: "rpca"}[type(model)],
        "n_iter": len(trace.records),
        "termination": trace.termination,
        "primal_residual": trace.records[-1].primal_residual,
        "kkt_max_violation": report_kkt.max_violation,
        "recovery_error": _recovery_error(x, truth),
        # Measured wall time is printed to stdout; the report keeps the
        # field but stores null so identical configs give identical bytes.
        "wall_ms": None,
        "tau": problem.tau,
        "norm_bound": trace.norm_bound,
        "h": trace.h,
    }
    if "trace" in out_cfg:
        emit_trace(trace, base / out_cfg["trace"])
    if "report" in out_cfg:
        _write_json(base / out_cfg["report"], report)
    if "solution" in out_cfg:
        _write_json(base / out_cfg["solution"], {
            "tau": problem.tau,
            # Kept in the file format: the dual scale is tau.
            "mu": problem.tau,
            "x": x.data.ravel().tolist(),
            "y": y.data.ravel().tolist(),
        })
    print(f"solved in {len(trace.records)} iterations ({wall_ms:.1f} ms), "
          f"termination={trace.termination}")
    return report, _EXIT_CODES[trace.termination]


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

    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            spec = InstanceSpec.from_dict(_read_json_object(args.spec, "instance spec"))
            path = write_instance(spec, args.out)
            print(f"wrote {path}")
            return EXIT_OK
        if args.command == "solve":
            cfg = _read_json_object(args.config, "config")
            _, code = run_experiment(cfg, base_dir=Path(args.config).parent)
            return code
        # check: the stored solution holds flat lists
        model, _ = load_instance(args.problem)
        sol = _read_json_object(args.solution, "solution")
        problem = build_problem(dataclasses.replace(model, tau=_tau_number(sol["tau"])))
        x = Point(np.asarray(sol["x"]).reshape(problem.op.domain_shape))
        y = Point(np.asarray(sol["y"]).reshape(problem.op.codomain_shape))
        rep = kkt_residual(problem, x, y)
        print(
            f"feasibility={rep.feasibility:.3e} "
            f"stationarity={rep.stationarity:.3e} "
            f"max_violation={rep.max_violation:.3e}"
        )
        return EXIT_OK
    except np.linalg.LinAlgError as exc:
        # LinAlgError subclasses ValueError; catch it first so a failed SVD
        # is not reported as a configuration error.
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigurationError, ValueError, OSError, KeyError) as exc:
        # An OSError (unreadable input, unwritable output) names its path.
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
