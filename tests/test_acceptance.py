"""Acceptance suite: one test per shipped guarantee, each printing a single
PASS/FAIL line with the measured quantity next to its pinned tolerance."""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from augdual.cli import InstanceSpec, generate_instance, main
from augdual.gauge import NormGauge, PolyhedralPolar
from augdual.linop import Dense, LinearOperator, Point
from augdual.models import (
    AugL1Model,
    MatrixCompletionModel,
    RpcaModel,
    build_problem,
    tau_heuristic,
)
from augdual.oracle import kkt_residual, l1_exact_solve
from augdual.prox import NormSpec, moreau_residual, prox_norm, svt
from augdual.solver import (
    ConfigurationError,
    DualState,
    ProblemSpec,
    SolveConfig,
    default_step_size,
    dual_gradient,
    dual_objective,
    solve,
    step,
    step_size_bound,
    validate_config,
)
from augdual.numerics import operator_norm_estimate


def _report(num: int, ok: bool, detail: str):
    print(f"acceptance {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


# ---------------------------------------------------------------------------
# shared reference instance: sparse-recovery problem, n=50, m=20, k=5
# ---------------------------------------------------------------------------

REF_SPEC = InstanceSpec.from_dict(
    {"kind": "aug_l1", "seed": 3, "n": 50, "m": 20, "k": 5}
)


@pytest.fixture(scope="module")
def ref_problem():
    model, truth = generate_instance(REF_SPEC)
    tau = tau_heuristic(model, magnitude=float(np.max(np.abs(truth.as_vector()))))
    p = build_problem(AugL1Model(model.A, model.b, tau=tau))
    bound = operator_norm_estimate(p.op) * 1.01
    return p, bound


def test_criterion_1_prox_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    worst = {"moreau": 0.0, "firm": 0.0, "lip": 0.0, "scaling": 0.0}
    for kind in ("l1", "l2", "linf", "nuclear"):
        spec = NormSpec(kind)

        def draw():
            if kind == "nuclear":
                return Point.matrix(3.0 * rng.standard_normal((4, 3)))
            return Point.vector(3.0 * rng.standard_normal(6))

        for _ in range(1000):
            v = draw()
            u = draw()
            worst["moreau"] = max(worst["moreau"], moreau_residual(spec, v))
            pv = prox_norm(spec, v, 1.0)
            pu = prox_norm(spec, u, 1.0)
            d = (pv - pu).norm()
            worst["firm"] = max(worst["firm"], d * d - (v - u).dot(pv - pu))
            worst["lip"] = max(worst["lip"], d - (v - u).norm())
            s = float(rng.uniform(0.1, 10.0))
            gap = (prox_norm(spec, s * v, s) - s * pv).norm()
            worst["scaling"] = max(worst["scaling"], gap / (1.0 + v.norm()))
    elapsed = time.perf_counter() - start
    ok = (
        worst["moreau"] <= 1e-10
        and worst["firm"] <= 1e-10
        and worst["lip"] <= 1e-10
        and worst["scaling"] <= 1e-12
        and elapsed < 10.0
    )
    _report(
        1,
        ok,
        f"moreau {worst['moreau']:.2e} <= 1e-10, firm {worst['firm']:.2e} <= 1e-10, "
        f"lipschitz {worst['lip']:.2e} <= 1e-10, scaling {worst['scaling']:.2e} "
        f"<= 1e-12, {elapsed:.1f}s < 10s",
    )


class _MatrixDense(LinearOperator):
    """Dense map applied to the flattened entries of a matrix point."""

    def __init__(self, mat: np.ndarray, shape):
        self.mat = np.asarray(mat, dtype=float)
        self.shape = (int(shape[0]), int(shape[1]))

    @property
    def domain_tag(self):
        return ("matrix", self.shape)

    @property
    def codomain_tag(self):
        return ("vector", self.mat.shape[0])

    def _apply(self, x: Point) -> Point:
        return Point.vector(self.mat @ x.data)

    def _adjoint(self, y: Point) -> Point:
        return Point(self.mat.T @ y.data, self.domain_tag)


def _fd_gradient_max_relerr(p: ProblemSpec, n_points: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    dim = Point.zeros(p.op.codomain_tag).data.size
    eps = 1e-6
    for _ in range(n_points):
        y = Point(rng.standard_normal(dim), p.op.codomain_tag)
        g = dual_gradient(p, y)
        fd = np.zeros(dim)
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = eps
            plus = Point(y.data + e, y.tag)
            minus = Point(y.data - e, y.tag)
            fd[i] = (dual_objective(p, plus) - dual_objective(p, minus)) / (2 * eps)
        err = float(np.linalg.norm(fd - g.data)) / max(1.0, g.norm())
        worst = max(worst, err)
    return worst


def test_criterion_2_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(200)

    l1_model, l1_truth = generate_instance(
        InstanceSpec.from_dict({"kind": "aug_l1", "seed": 20, "n": 12, "m": 6, "k": 3})
    )
    problems = {
        "aug_l1": build_problem(
            AugL1Model(
                l1_model.A,
                l1_model.b,
                tau=tau_heuristic(
                    l1_model, magnitude=float(np.max(np.abs(l1_truth.as_vector())))
                ),
            )
        )
    }

    mc_model, _ = generate_instance(
        InstanceSpec.from_dict(
            {"kind": "matrix_completion", "seed": 21, "rows": 6, "cols": 6,
             "rank": 2, "p": 0.5}
        )
    )
    problems["matrix_completion"] = build_problem(
        MatrixCompletionModel(
            mc_model.shape, mc_model.omega, mc_model.sampled_values,
            tau=tau_heuristic(mc_model),
        )
    )

    rpca_model, _ = generate_instance(
        InstanceSpec.from_dict(
            {"kind": "rpca", "seed": 22, "rows": 5, "cols": 5, "rank": 1,
             "k": 3, "lam": 0.25}
        )
    )
    problems["rpca"] = build_problem(
        RpcaModel(rpca_model.D, rpca_model.lam, tau=tau_heuristic(rpca_model))
    )

    verts = rng.standard_normal((6, 4))
    g = PolyhedralPolar(verts)
    gop = Dense(rng.standard_normal((3, 4)))
    problems["polyhedral_gauge"] = ProblemSpec(
        gop, Point.vector(rng.standard_normal(3)), g, tau=4.0, mu=4.0
    )

    worst = {
        name: _fd_gradient_max_relerr(p, 100, seed=230 + i)
        for i, (name, p) in enumerate(problems.items())
    }
    elapsed = time.perf_counter() - start
    peak = max(worst.values())
    ok = peak <= 1e-6 and elapsed < 30.0
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    _report(2, ok, f"max rel err {detail} <= 1e-6, {elapsed:.1f}s < 30s")


def test_criterion_3_fejer_monotonicity(ref_problem):
    start = time.perf_counter()
    p, bound = ref_problem
    h = default_step_size(p, bound)
    k_short = 2000

    def iterate(n_steps):
        s = DualState(
            k=0,
            y=Point.zeros(p.op.codomain_tag),
            x=Point.zeros(p.op.domain_tag),
        )
        ys = [s.y]
        for _ in range(n_steps):
            s = step(p, s, h)
            ys.append(s.y)
        return ys

    ys = iterate(k_short)
    y_bar = iterate(10 * k_short)[-1]
    dists = [(y - y_bar).norm() for y in ys]
    slack = max(
        (b - a) for a, b in zip(dists, dists[1:])
    )
    elapsed = time.perf_counter() - start
    ok = slack <= 1e-9 and elapsed < 10.0
    _report(3, ok, f"max distance increase {slack:.2e} <= 1e-9, {elapsed:.1f}s < 10s")


def test_criterion_4_oracle_match():
    start = time.perf_counter()
    worst = 0.0
    for i in range(20):
        n = 6 + (i % 5)  # n in 6..10
        m = n // 2 + 1
        k = 1 + (i % 2)
        model, truth = generate_instance(
            InstanceSpec.from_dict(
                {"kind": "aug_l1", "seed": 400 + i, "n": n, "m": m, "k": k}
            )
        )
        tau = tau_heuristic(model, magnitude=float(np.max(np.abs(truth.as_vector()))))
        exact = l1_exact_solve(model.A, model.b, tau)
        p = build_problem(AugL1Model(model.A, model.b, tau=tau))
        x, _, trace = solve(p, SolveConfig(primal_tol=1e-12, max_iter=500_000))
        assert trace.termination == "feasibility_tol"
        worst = max(worst, (x - exact).norm() / exact.norm())
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    _report(4, ok, f"max rel err vs oracle {worst:.2e} <= 1e-6, {elapsed:.1f}s < 60s")


def test_criterion_5_step_size_gate(ref_problem):
    p, bound = ref_problem
    upper = step_size_bound(p, bound)
    rejected = True
    for h in (upper, 1.3 * upper):
        try:
            validate_config(p, SolveConfig(h=h), bound)
            rejected = False
        except ConfigurationError:
            pass
    h99 = 0.99 * upper
    abs_tol = 1e-8 / max(1.0, p.b.norm())
    x, _, trace = solve(
        p, SolveConfig(h=h99, primal_tol=abs_tol, max_iter=50_000), norm_bound=bound
    )
    feas = (p.b - p.op.apply(x)).norm()
    converged = trace.termination == "feasibility_tol" and feas <= 1e-8
    ok = rejected and converged
    _report(
        5,
        ok,
        f"h >= bound rejected: {rejected}; h = 0.99*bound feasibility "
        f"{feas:.2e} <= 1e-8 in {len(trace.records)} <= 50000 iterations",
    )


def test_criterion_6_svt_reproduction():
    model, _ = generate_instance(
        InstanceSpec.from_dict(
            {"kind": "matrix_completion", "seed": 11, "rows": 10, "cols": 10,
             "rank": 2, "p": 0.6}
        )
    )
    tau = tau_heuristic(model)
    p = build_problem(
        MatrixCompletionModel(model.shape, model.omega, model.sampled_values, tau=tau)
    )
    bound = operator_norm_estimate(p.op) * 1.01
    h = default_step_size(p, bound)

    # hand-coded SVT recursion on the compact sample vector
    rows = np.array([i for i, _ in model.omega])
    cols = np.array([j for _, j in model.omega])
    b = model.sampled_values
    y = np.zeros(b.size)
    s = DualState(
        k=0,
        y=Point.zeros(p.op.codomain_tag),
        x=Point.zeros(p.op.domain_tag),
    )
    stepwise = 0.0
    for _ in range(100):
        lifted = np.zeros(model.shape)
        lifted[rows, cols] = y / tau  # A*y / mu with mu = tau
        x_mat = tau * svt(lifted, 1.0)
        y = y + h * (b - x_mat[rows, cols])
        s = step(p, s, h)
        stepwise = max(stepwise, float(np.max(np.abs(s.x.as_matrix() - x_mat))))
        stepwise = max(stepwise, float(np.max(np.abs(s.y.as_vector() - y))))

    abs_tol = 1e-8 / max(1.0, p.b.norm())
    x, yy, trace = solve(
        p, SolveConfig(primal_tol=abs_tol, max_iter=500_000), norm_bound=bound
    )
    feas = (p.b - p.op.apply(x)).norm()
    kkt = kkt_residual(p, x, yy).max_violation
    ok = (
        stepwise <= 1e-12
        and trace.termination == "feasibility_tol"
        and feas <= 1e-8
        and kkt <= 1e-6
    )
    _report(
        6,
        ok,
        f"stepwise gap {stepwise:.2e} <= 1e-12 over 100 steps, feasibility "
        f"{feas:.2e} <= 1e-8, kkt {kkt:.2e} <= 1e-6",
    )


def test_criterion_7_rpca():
    model, _ = generate_instance(
        InstanceSpec.from_dict(
            {"kind": "rpca", "seed": 5, "rows": 10, "cols": 10, "rank": 1,
             "k": 5, "lam": 0.25}
        )
    )
    tau = tau_heuristic(model)
    p = build_problem(RpcaModel(model.D, model.lam, tau=tau))
    d_norm = float(np.linalg.norm(model.D, "fro"))
    x, y, trace = solve(
        p, SolveConfig(primal_tol=1e-8, max_iter=500_000, accelerated=True)
    )
    l_hat, s_hat = x.as_pair()
    gap = float(np.linalg.norm(model.D - l_hat - s_hat, "fro"))
    kkt = kkt_residual(p, x, y).max_violation
    ok = (
        trace.termination == "feasibility_tol"
        and gap <= 1e-8 * d_norm
        and kkt <= 1e-6
    )
    _report(
        7,
        ok,
        f"||D - L - S||_F {gap:.2e} <= {1e-8 * d_norm:.2e}, kkt {kkt:.2e} <= 1e-6",
    )


def test_criterion_8_gauge_path_consistency(ref_problem):
    p, bound = ref_problem
    h = default_step_size(p, bound)
    worst = 0.0

    def run_pair(p_norm, p_gauge, hh):
        nonlocal worst
        sn = DualState(
            k=0,
            y=Point.zeros(p_norm.op.codomain_tag),
            x=Point.zeros(p_norm.op.domain_tag),
        )
        sg = sn
        for _ in range(100):
            sn = step(p_norm, sn, hh)
            sg = step(p_gauge, sg, hh)
            worst = max(worst, (sn.x - sg.x).norm(), (sn.y - sg.y).norm())

    # vector norms on the shared reference instance with mu = tau
    for kind in ("l1", "l2", "linf"):
        p_norm = ProblemSpec(p.op, p.b, NormSpec(kind), tau=p.tau, mu=p.tau)
        p_gauge = ProblemSpec(
            p.op, p.b, NormGauge(NormSpec(kind)), tau=p.tau, mu=p.tau
        )
        run_pair(p_norm, p_gauge, h)

    # the nuclear norm needs matrix-shaped points: same data, same map,
    # with the 50-vector viewed as a 10x5 matrix
    mat_op = _MatrixDense(p.op.matrix, (10, 5))
    pn = ProblemSpec(mat_op, p.b, NormSpec("nuclear"), tau=p.tau, mu=p.tau)
    pg = ProblemSpec(mat_op, p.b, NormGauge(NormSpec("nuclear")), tau=p.tau, mu=p.tau)
    run_pair(pn, pg, default_step_size(pn, bound))

    ok = worst <= 1e-12
    _report(8, ok, f"max iterate gap {worst:.2e} <= 1e-12 over 100 iterations")


def test_criterion_9_acceleration_sanity(ref_problem):
    p, bound = ref_problem
    cfg = SolveConfig(primal_tol=1e-8)
    x_plain, _, tr_plain = solve(p, cfg, norm_bound=bound)
    x_acc, _, tr_acc = solve(p, replace(cfg, accelerated=True), norm_bound=bound)
    gap = (x_plain - x_acc).norm() / max(1.0, x_plain.norm())
    ok = (
        tr_acc.termination == "feasibility_tol"
        and len(tr_acc.records) <= len(tr_plain.records)
        and gap <= 1e-6
    )
    _report(
        9,
        ok,
        f"accelerated {len(tr_acc.records)} <= plain {len(tr_plain.records)} "
        f"iterations, limit gap {gap:.2e} <= 1e-6",
    )


def test_criterion_10_determinism(tmp_path, capsys):
    cfg = {
        "instance": {"kind": "aug_l1", "seed": 3, "n": 50, "m": 20, "k": 5},
        "tau": {"rule": "heuristic"},
        "solve": {"primal_tol": 1e-10},
        "output": {"trace": "trace.csv", "report": "report.json"},
    }
    outputs = []
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        cfg_path = d / "config.json"
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        assert main(["solve", "--config", str(cfg_path)]) == 0
        outputs.append(
            ((d / "trace.csv").read_bytes(), (d / "report.json").read_bytes())
        )
    capsys.readouterr()
    ok = outputs[0] == outputs[1]
    _report(10, ok, "trace and report byte-identical across two runs")
