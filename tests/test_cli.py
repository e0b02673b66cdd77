import dataclasses
import json

import numpy as np
import pytest

from augdual import numerics
from augdual.cli import (
    EXIT_CONFIG,
    EXIT_MAX_ITER,
    EXIT_NUMERICAL,
    EXIT_OK,
    InstanceSpec,
    emit_trace,
    generate_instance,
    load_instance,
    main,
    read_trace,
    run_experiment,
    write_instance,
)
from augdual.models import build_problem
from augdual.solver import (
    ConfigurationError,
    SolveTrace,
    TraceRecord,
    default_step_size,
    estimated_bound,
)

L1_SPEC = {"kind": "aug_l1", "seed": 7, "n": 8, "m": 4, "k": 2}


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def test_instance_spec_validation():
    with pytest.raises(ValueError):
        InstanceSpec.from_dict({"kind": "aug_l1", "seed": 0, "n": 4, "m": 2, "k": 9})
    with pytest.raises(ValueError):
        InstanceSpec.from_dict({"kind": "mystery", "seed": 0})
    with pytest.raises(ValueError):
        InstanceSpec.from_dict({"kind": "aug_l1", "seed": 0, "n": 4, "m": 2, "k": 1,
                                "bogus": 1})
    with pytest.raises(ValueError):
        InstanceSpec.from_dict({"kind": "rpca", "seed": 0, "rows": 3, "cols": 3,
                                "rank": 1, "k": 2, "lam": -1.0})


def test_generate_is_deterministic():
    a, ta = generate_instance(InstanceSpec.from_dict(L1_SPEC))
    b, tb = generate_instance(InstanceSpec.from_dict(L1_SPEC))
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.b, b.b)
    assert np.array_equal(ta.data, tb.data)
    c, _ = generate_instance(InstanceSpec.from_dict({**L1_SPEC, "seed": 8}))
    assert not np.array_equal(a.A, c.A)


def test_instance_roundtrip_aug_l1(tmp_path):
    spec = InstanceSpec.from_dict(L1_SPEC)
    path = write_instance(spec, tmp_path / "inst")
    model, truth = load_instance(path)
    fresh, fresh_truth = generate_instance(spec)
    assert np.array_equal(model.A, fresh.A)
    assert np.array_equal(model.b, fresh.b)
    assert np.array_equal(truth.data, fresh_truth.data)


def test_instance_roundtrip_matrix_completion(tmp_path):
    spec = InstanceSpec.from_dict(
        {"kind": "matrix_completion", "seed": 11, "rows": 6, "cols": 5,
         "rank": 2, "p": 0.6}
    )
    path = write_instance(spec, tmp_path / "inst")
    model, truth = load_instance(path)
    fresh, fresh_truth = generate_instance(spec)
    assert model.omega == fresh.omega
    assert np.array_equal(model.sampled_values, fresh.sampled_values)
    assert np.array_equal(truth.data, fresh_truth.data)


def test_instance_roundtrip_rpca(tmp_path):
    spec = InstanceSpec.from_dict(
        {"kind": "rpca", "seed": 5, "rows": 5, "cols": 5, "rank": 1, "k": 3,
         "lam": 0.25}
    )
    path = write_instance(spec, tmp_path / "inst")
    model, truth = load_instance(path)
    fresh, _ = generate_instance(spec)
    assert np.array_equal(model.D, fresh.D)
    assert model.lam == 0.25


def test_trace_roundtrip_exact(tmp_path):
    trace = SolveTrace(
        records=[
            TraceRecord(1, 0.1 + 1e-17, -3.3333333333333335, 1.0 / 3.0, np.pi),
            TraceRecord(2, 5e-300, 0.0, 1e300, 2.2250738585072014e-308),
        ],
        termination="max_iter",
    )
    path = tmp_path / "trace.csv"
    emit_trace(trace, path)
    back = read_trace(path)
    for a, b in zip(trace.records, back.records):
        assert a.k == b.k
        assert a.primal_residual == b.primal_residual
        assert a.dual_objective == b.dual_objective
        assert a.x_change == b.x_change
        assert a.y_change == b.y_change


def _solve_cfg(**extra):
    cfg = {
        "instance": dict(L1_SPEC),
        "tau": {"rule": "heuristic"},
        "solve": {"primal_tol": 1e-10},
        "output": {"trace": "trace.csv", "report": "report.json",
                   "solution": "solution.json"},
    }
    cfg.update(extra)
    return cfg


def test_run_experiment_end_to_end(tmp_path, capsys):
    report, code = run_experiment(_solve_cfg(), base_dir=tmp_path)
    assert code == EXIT_OK
    assert report["termination"] == "feasibility_tol"
    assert report["wall_ms"] is None
    assert report["kkt_max_violation"] <= 1e-6
    assert report["recovery_error"] is not None
    assert (tmp_path / "trace.csv").exists()
    stored = json.loads((tmp_path / "report.json").read_text())
    assert stored == report
    out = capsys.readouterr().out
    assert "iterations" in out and "ms" in out
    trace = read_trace(tmp_path / "trace.csv")
    assert len(trace.records) == report["n_iter"]
    model, _ = generate_instance(InstanceSpec.from_dict(L1_SPEC))
    problem = build_problem(dataclasses.replace(model, tau=report["tau"]))
    assert report["norm_bound"] == estimated_bound(problem)
    assert report["h"] == default_step_size(problem, report["norm_bound"])


def test_reports_and_traces_are_byte_identical(tmp_path):
    run_experiment(_solve_cfg(), base_dir=tmp_path / "a")
    run_experiment(_solve_cfg(), base_dir=tmp_path / "b")
    for name in ("trace.csv", "report.json", "solution.json"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_run_experiment_config_errors(tmp_path):
    with pytest.raises(ConfigurationError):
        run_experiment({"tau": {"rule": "heuristic"}}, base_dir=tmp_path)
    with pytest.raises(ConfigurationError):
        run_experiment(_solve_cfg(tau={"rule": "heuristic", "value": 3.0}),
                       base_dir=tmp_path)
    with pytest.raises(ConfigurationError):
        run_experiment(_solve_cfg(solve={"primal_tol": 1e-8, "bogus": 1}),
                       base_dir=tmp_path)
    bad = _solve_cfg()
    bad["instance_path"] = "inst/instance.json"
    with pytest.raises(ConfigurationError):
        run_experiment(bad, base_dir=tmp_path)


def test_run_experiment_max_iter_exit(tmp_path):
    cfg = _solve_cfg(solve={"primal_tol": 1e-12, "max_iter": 5})
    report, code = run_experiment(cfg, base_dir=tmp_path)
    assert code == EXIT_MAX_ITER
    assert report["termination"] == "max_iter"
    assert report["n_iter"] == 5


def test_zero_rhs_reports_one_iteration(tmp_path):
    inst = tmp_path / "inst"
    write_instance(InstanceSpec.from_dict(L1_SPEC), inst)
    b = np.loadtxt(inst / "b.csv", delimiter=",", ndmin=2)
    np.savetxt(inst / "b.csv", np.zeros_like(b), fmt="%.16e", delimiter=",")
    cfg = {
        "instance_path": "inst/instance.json",
        "tau": {"value": 5.0},
        "solve": {},
        "output": {},
    }
    report, code = run_experiment(cfg, base_dir=tmp_path)
    assert code == EXIT_OK
    assert report["n_iter"] == 1
    assert report["primal_residual"] == 0.0
    assert report["kkt_max_violation"] == 0.0


def test_main_gen_solve_check(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    _write_json(spec_path, L1_SPEC)
    assert main(["gen", "--spec", str(spec_path), "--out", str(tmp_path / "inst")]) == EXIT_OK

    cfg_path = tmp_path / "config.json"
    _write_json(
        cfg_path,
        {
            "instance_path": "inst/instance.json",
            "tau": {"value": 10.0},
            "solve": {"primal_tol": 1e-10},
            "output": {"report": "report.json", "solution": "solution.json"},
        },
    )
    assert main(["solve", "--config", str(cfg_path)]) == EXIT_OK
    assert main([
        "check",
        "--problem", str(tmp_path / "inst" / "instance.json"),
        "--solution", str(tmp_path / "solution.json"),
    ]) == EXIT_OK
    out = capsys.readouterr().out
    assert "max_violation" in out


def test_main_config_exit_code(tmp_path):
    cfg_path = tmp_path / "config.json"
    _write_json(cfg_path, {"tau": {"rule": "heuristic"}})
    assert main(["solve", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert main(["solve", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG


def test_main_svd_failure_is_numerical_exit(tmp_path, monkeypatch, capsys):
    def failing_svd(m):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(numerics, "svd", failing_svd)
    cfg_path = tmp_path / "config.json"
    _write_json(
        cfg_path,
        {
            "instance": {"kind": "matrix_completion", "seed": 1, "rows": 4,
                         "cols": 3, "rank": 1, "p": 0.8},
            "tau": {"value": 10.0},
            "solve": {"max_iter": 5},
            "output": {},
        },
    )
    assert main(["solve", "--config", str(cfg_path)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "configuration error" not in err


def test_diverging_solve_is_numerical_exit(tmp_path, monkeypatch, capsys):
    # A bound far below ||A|| makes the default step too long; the iterates
    # diverge and the solve must end as a numerical failure, not exit 2.
    monkeypatch.setattr(numerics, "operator_norm_estimate", lambda op: 1e-3)
    cfg_path = tmp_path / "config.json"
    _write_json(cfg_path, {"instance": dict(L1_SPEC), "tau": {"rule": "heuristic"},
                           "solve": {}, "output": {"report": "report.json"}})
    assert main(["solve", "--config", str(cfg_path)]) == EXIT_NUMERICAL
    out = capsys.readouterr()
    assert "termination=numerical_failure" in out.out
    assert "configuration error" not in out.err
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["termination"] == "numerical_failure"


def test_main_props(capsys):
    assert main(["props", "--seed", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out
