import dataclasses
import json
import math

import numpy as np
import pytest

from augdual import cli, numerics
from augdual.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
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
RPCA_SPEC = {"kind": "rpca", "seed": 7, "rows": 5, "cols": 4, "rank": 1, "k": 2}


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
    # Field types are checked, not coerced: JSON floats, strings and bools
    # are no integers, and strings no numbers.
    mc = {"kind": "matrix_completion", "seed": 0, "rows": 3, "cols": 3, "rank": 1}
    for bad in ({**L1_SPEC, "n": 30.5}, {**L1_SPEC, "seed": 1.5}, {**L1_SPEC, "seed": "1"},
                {**L1_SPEC, "seed": True}, {**mc, "p": "0.5"}, {**mc, "kind": 1}):
        with pytest.raises(ValueError, match="instance field"):
            InstanceSpec.from_dict(bad)
    with pytest.raises(ValueError, match="object"):
        InstanceSpec.from_dict([("kind", "aug_l1")])
    for bad in ({**L1_SPEC, "rows": 3}, {**mc, "k": 10}, {**RPCA_SPEC, "n": 4}):
        with pytest.raises(ValueError, match=f"unknown {bad['kind']} instance fields"):
            InstanceSpec.from_dict(bad)
    assert InstanceSpec.from_dict({**mc, "p": 1}).p == 1


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
    assert model.mask.shape == fresh.mask.shape == (6, 5)
    assert np.array_equal(model.mask.indices, fresh.mask.indices)
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
    # The CSV stores neither the bound, the step nor the termination.
    assert back.norm_bound is None and back.h is None and back.termination is None
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


def test_run_experiment_end_to_end(tmp_path, capsys, monkeypatch):
    traces = []
    cli_solve = cli.solve

    def recording_solve(problem, config):
        result = cli_solve(problem, config)
        traces.append(result[2])
        return result

    monkeypatch.setattr(cli, "solve", recording_solve)
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
    assert report["h"] == default_step_size(report["norm_bound"])
    [solved] = traces
    assert (report["norm_bound"], report["h"]) == (solved.norm_bound, solved.h)


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


GEN_SOLVE_CHECK = {
    "aug_l1": (L1_SPEC, {"value": 10.0}),
    "matrix_completion": (
        {"kind": "matrix_completion", "seed": 11, "rows": 6, "cols": 5, "rank": 1,
         "p": 0.8},
        {"rule": "heuristic"},
    ),
    "rpca": (
        {"kind": "rpca", "seed": 5, "rows": 5, "cols": 4, "rank": 1, "k": 2,
         "lam": 0.5},
        {"rule": "heuristic"},
    ),
}


@pytest.mark.parametrize("kind", list(GEN_SOLVE_CHECK))
def test_main_gen_solve_check(kind, tmp_path, capsys):
    spec, tau = GEN_SOLVE_CHECK[kind]
    spec_path = tmp_path / "spec.json"
    _write_json(spec_path, spec)
    assert main(["gen", "--spec", str(spec_path), "--out", str(tmp_path / "inst")]) == EXIT_OK

    cfg_path = tmp_path / "config.json"
    _write_json(
        cfg_path,
        {
            "instance_path": "inst/instance.json",
            "tau": tau,
            "solve": {"primal_tol": 1e-10},
            "output": {"report": "report.json", "solution": "solution.json"},
        },
    )
    assert main(["solve", "--config", str(cfg_path)]) == EXIT_OK
    # The solution file stores x and y as flat lists of numbers.
    sol = json.loads((tmp_path / "solution.json").read_text())
    model, _ = load_instance(tmp_path / "inst" / "instance.json")
    op = build_problem(dataclasses.replace(model, tau=sol["tau"])).op
    for key, shape in (("x", op.domain_shape), ("y", op.codomain_shape)):
        assert all(isinstance(v, float) for v in sol[key])
        assert len(sol[key]) == int(np.prod(shape))
    assert main([
        "check",
        "--problem", str(tmp_path / "inst" / "instance.json"),
        "--solution", str(tmp_path / "solution.json"),
    ]) == EXIT_OK
    out = capsys.readouterr().out
    assert "max_violation" in out
    assert float(out.split("max_violation=")[1]) <= 1e-6


def test_main_rejects_a_non_integer_stored_shape(tmp_path, capsys):
    # A hand-edited shape is rejected, not truncated to the integers below.
    spec, tau = GEN_SOLVE_CHECK["matrix_completion"]
    spec_path = tmp_path / "spec.json"
    _write_json(spec_path, spec)
    inst = tmp_path / "inst" / "instance.json"
    assert main(["gen", "--spec", str(spec_path), "--out", str(inst.parent)]) == EXIT_OK
    cfg_path = tmp_path / "config.json"
    _write_json(cfg_path, {"instance_path": "inst/instance.json", "tau": tau,
                           "solve": {"max_iter": 5}, "output": {"solution": "solution.json"}})
    assert main(["solve", "--config", str(cfg_path)]) == EXIT_MAX_ITER
    check = ["check", "--problem", str(inst), "--solution", str(tmp_path / "solution.json")]
    assert main(check) == EXIT_OK
    meta = json.loads(inst.read_text())
    for shape in ([6.9, 5], [6, True]):
        _write_json(inst, {**meta, "shape": shape})
        capsys.readouterr()
        assert main(["solve", "--config", str(cfg_path)]) == EXIT_CONFIG
        assert main(check) == EXIT_CONFIG
        assert capsys.readouterr().err.count("sampling shape") == 2


def test_main_rejects_a_non_finite_stored_sample(tmp_path, capsys):
    spec, tau = GEN_SOLVE_CHECK["matrix_completion"]
    spec_path = tmp_path / "spec.json"
    _write_json(spec_path, spec)
    inst = tmp_path / "inst"
    assert main(["gen", "--spec", str(spec_path), "--out", str(inst)]) == EXIT_OK
    values = (inst / "b.csv").read_text().split(",")
    (inst / "b.csv").write_text(",".join(["nan"] + values[1:]))
    cfg_path = tmp_path / "config.json"
    _write_json(cfg_path, {"instance_path": "inst/instance.json", "tau": tau})
    capsys.readouterr()
    assert main(["solve", "--config", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and "sampled_values" in err


def test_main_rejects_a_non_finite_stored_rhs(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    _write_json(spec_path, L1_SPEC)
    inst = tmp_path / "inst"
    assert main(["gen", "--spec", str(spec_path), "--out", str(inst)]) == EXIT_OK
    values = (inst / "b.csv").read_text().split(",")
    (inst / "b.csv").write_text(",".join(["nan"] + values[1:]))
    cfg_path = tmp_path / "config.json"
    _write_json(cfg_path, {"instance_path": "inst/instance.json", "tau": {"value": 10.0}})
    capsys.readouterr()
    assert main(["solve", "--config", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and "b must be finite" in err


@pytest.mark.parametrize("lam", [[0.4], True, "0.4"], ids=["list", "bool", "string"])
def test_main_rejects_a_stored_lam_that_is_not_a_number(lam, tmp_path, capsys):
    # The stored lam reaches RpcaModel as it is: no float() coerces it.
    spec, tau = GEN_SOLVE_CHECK["rpca"]
    _write_json(tmp_path / "spec.json", spec)
    inst = tmp_path / "inst" / "instance.json"
    assert main(["gen", "--spec", str(tmp_path / "spec.json"), "--out", str(inst.parent)]) == EXIT_OK
    _write_json(inst, {**json.loads(inst.read_text()), "lam": lam})
    cfg_path = tmp_path / "config.json"
    _write_json(cfg_path, {"instance_path": "inst/instance.json", "tau": tau})
    capsys.readouterr()
    assert main(["solve", "--config", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and f"lam must be finite and positive, got {lam!r}" in err


def test_main_config_exit_code(tmp_path):
    cfg_path = tmp_path / "config.json"
    _write_json(cfg_path, {"tau": {"rule": "heuristic"}})
    assert main(["solve", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert main(["solve", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG


@pytest.mark.parametrize("output", ["trace", "report"])
def test_main_unwritable_output_is_config_exit(output, tmp_path, capsys):
    # The output path is an existing directory, so opening it for writing fails.
    (tmp_path / "out").mkdir()
    cfg_path = tmp_path / "config.json"
    _write_json(cfg_path, _solve_cfg(output={output: "out"}))
    capsys.readouterr()
    assert main(["solve", "--config", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and str(tmp_path / "out") in err


def test_main_config_that_is_a_directory_is_config_exit(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and str(tmp_path) in err


def test_main_gen_into_an_existing_file_is_config_exit(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    _write_json(spec_path, L1_SPEC)
    assert main(["gen", "--spec", str(spec_path), "--out", str(spec_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and str(spec_path) in err


_BAD_FIELDS = {
    "primal_tol_inf": ({"solve": {"primal_tol": math.inf}}, "primal_tol"),
    "primal_tol_nan": ({"solve": {"primal_tol": math.nan}}, "primal_tol"),
    "restart": ({"solve": {"restart": True}}, "restart"),
    "max_iter_inf": ({"solve": {"max_iter": math.inf}}, "max_iter"),
    "max_iter_float": ({"solve": {"max_iter": 2.7}}, "max_iter"),
    "h_string": ({"solve": {"h": "0.1"}}, "h"),
    "primal_tol_null": ({"solve": {"primal_tol": None}}, "primal_tol"),
    "accelerated_string": ({"solve": {"accelerated": "no"}}, "accelerated"),
    "solve_list": ({"solve": [1]}, "solve"),
    "output_string": ({"output": "trace"}, "output"),
    "output_number": ({"output": {"trace": 5}}, "output"),
    "output_unknown_key": ({"output": {"reprot": "r.json"}}, "reprot"),
    "tau_bool": ({"tau": {"value": True}}, "tau"),
    "tau_string": ({"tau": {"value": "3"}}, "tau"),
    "tau_unknown_key": ({"tau": {"rule": "heuristic", "scale": 2}}, "scale"),
    "top_level_outputs": ({"outputs": {"report": "r.json"}}, "outputs"),
    "top_level_slove": ({"slove": {"max_iter": 1}}, "slove"),
    "instance_list": ({"instance": [1, 2]}, "instance"),
    "instance_path_number": ({"instance": None, "instance_path": 5}, "instance_path"),
    "instance_n_float": ({"instance": {**L1_SPEC, "n": 30.5}}, "'n'"),
    "instance_seed_string": ({"instance": {**L1_SPEC, "seed": "1"}}, "'seed'"),
    "lam_nan": ({"instance": {**RPCA_SPEC, "lam": math.nan}, "tau": {"value": 50}}, "lam"),
    "lam_inf": ({"instance": {**RPCA_SPEC, "lam": math.inf}, "tau": {"value": 50}}, "lam"),
    # Fields another kind reads: a completion's k would not bound its samples.
    "l1_rows": ({"instance": {**L1_SPEC, "rows": 3}}, "'rows'"),
    "l1_lam": ({"instance": {**L1_SPEC, "lam": 0.5}}, "'lam'"),
    "completion_k": ({"instance": {"kind": "matrix_completion", "seed": 0, "rows": 5,
                                   "cols": 6, "rank": 1, "k": 10}}, "'k'"),
    "rpca_p": ({"instance": {**RPCA_SPEC, "p": 0.5}, "tau": {"value": 50}}, "'p'"),
}


@pytest.mark.parametrize("overrides, field", _BAD_FIELDS.values(), ids=_BAD_FIELDS)
def test_main_rejects_bad_solve_fields(overrides, field, tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg = {**_solve_cfg(output={}), **overrides}
    # An override of None removes the key.
    _write_json(cfg_path, {k: v for k, v in cfg.items() if v is not None})
    assert main(["solve", "--config", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert field in err


def _stored_solve(tmp_path):
    """Generate, solve and store an l1 instance; the CLI arguments of the
    gen, solve and check commands that read the stored documents."""
    _write_json(tmp_path / "spec.json", L1_SPEC)
    inst = tmp_path / "inst" / "instance.json"
    _write_json(tmp_path / "config.json", {
        "instance_path": "inst/instance.json", "tau": {"value": 10.0},
        "output": {"solution": "solution.json"},
    })
    args = {
        "gen": ["gen", "--spec", str(tmp_path / "spec.json"), "--out", str(inst.parent)],
        "solve": ["solve", "--config", str(tmp_path / "config.json")],
        "check": ["check", "--problem", str(inst),
                  "--solution", str(tmp_path / "solution.json")],
    }
    assert main(args["gen"]) == EXIT_OK
    assert main(args["solve"]) == EXIT_OK
    return args


_NOT_OBJECTS = {
    "spec": ("spec.json", [1], "gen"),
    "config_number": ("config.json", 3, "solve"),
    "config_null": ("config.json", None, "solve"),
    "instance_path": ("inst/instance.json", [1], "solve"),
    "problem": ("inst/instance.json", [1], "check"),
    "solution": ("solution.json", [1, 2], "check"),
}


@pytest.mark.parametrize("document, value, command", _NOT_OBJECTS.values(),
                         ids=_NOT_OBJECTS)
def test_main_rejects_a_json_document_that_is_not_an_object(
    document, value, command, tmp_path, capsys
):
    args = _stored_solve(tmp_path)
    _write_json(tmp_path / document, value)
    capsys.readouterr()
    assert main(args[command]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and "must be a JSON object" in err
    assert str(tmp_path / document) in err


@pytest.mark.parametrize("tau", [True, "10"])
def test_main_check_rejects_a_tau_that_is_not_a_number(tau, tmp_path, capsys):
    args = _stored_solve(tmp_path)
    sol_path = tmp_path / "solution.json"
    _write_json(sol_path, {**json.loads(sol_path.read_text()), "tau": tau})
    capsys.readouterr()
    assert main(args["check"]) == EXIT_CONFIG
    assert "tau value must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [["A.csv"], "A.csv", {"A": 1, "b": "b.csv"}],
                         ids=["list", "string", "number"])
def test_main_rejects_a_stored_payload_that_is_not_a_map_of_files(
    payload, tmp_path, capsys
):
    args = _stored_solve(tmp_path)
    inst = tmp_path / "inst" / "instance.json"
    _write_json(inst, {**json.loads(inst.read_text()), "payload": payload})
    for command in ("solve", "check"):
        capsys.readouterr()
        assert main(args[command]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"instance file {inst}: 'payload' must map names to file paths" in err


@pytest.mark.parametrize("key", ["model", "payload", "A"])
def test_main_names_a_key_missing_from_a_stored_instance(key, tmp_path, capsys):
    args = _stored_solve(tmp_path)
    inst = tmp_path / "inst" / "instance.json"
    meta = json.loads(inst.read_text())
    del (meta if key in meta else meta["payload"])[key]
    _write_json(inst, meta)
    for command in ("solve", "check"):
        capsys.readouterr()
        assert main(args[command]) == EXIT_CONFIG
        assert f"instance file {inst} has no {key!r} field" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["tau", "x", "y"])
def test_main_names_a_key_missing_from_a_stored_solution(key, tmp_path, capsys):
    args = _stored_solve(tmp_path)
    sol_path = tmp_path / "solution.json"
    sol = json.loads(sol_path.read_text())
    del sol[key]
    _write_json(sol_path, sol)
    capsys.readouterr()
    assert main(args["check"]) == EXIT_CONFIG
    assert f"solution {sol_path} has no {key!r} field" in capsys.readouterr().err


_BAD_TRUTH = {
    "nan": lambda values: ["nan"] + values[1:],
    "short": lambda values: values[:-1],
}


@pytest.mark.parametrize("edit", _BAD_TRUTH.values(), ids=_BAD_TRUTH)
def test_main_checks_the_stored_truth_before_the_solve(edit, tmp_path, capsys):
    args = _stored_solve(tmp_path)
    x0 = tmp_path / "inst" / "x0.csv"
    x0.write_text(",".join(edit(x0.read_text().strip().split(","))) + "\n")
    for command in ("solve", "check"):
        capsys.readouterr()
        assert main(args[command]) == EXIT_CONFIG
        out = capsys.readouterr()
        assert "configuration error" in out.err and f"x0 ({x0})" in out.err
        assert "solved in" not in out.out


@pytest.mark.parametrize("b", [0.0, 1.0])
def test_main_names_a_stored_zero_operator(b, tmp_path, capsys):
    args = _stored_solve(tmp_path)
    inst = tmp_path / "inst"
    A = np.loadtxt(inst / "A.csv", delimiter=",", ndmin=2)
    np.savetxt(inst / "A.csv", np.zeros_like(A), delimiter=",")
    np.savetxt(inst / "b.csv", np.full((1, A.shape[0]), b), delimiter=",")
    capsys.readouterr()
    assert main(args["solve"]) == EXIT_CONFIG
    out = capsys.readouterr()
    assert "configuration error: the operator is zero" in out.err
    assert "solved in" not in out.out


def test_main_inconsistent_data_is_infeasible_exit(tmp_path, capsys):
    # x1 = 1 and x1 = -1 at once: b = (1, -1) lies outside range(A), A = (1, 1)^T.
    inst = tmp_path / "inst"
    inst.mkdir()
    (inst / "A.csv").write_text("1\n1\n")
    (inst / "b.csv").write_text("1,-1\n")
    (inst / "x0.csv").write_text("0\n")
    _write_json(inst / "instance.json", {
        "model": "aug_l1", "payload": {"A": "A.csv", "b": "b.csv", "x0": "x0.csv"},
    })
    _write_json(tmp_path / "config.json", {
        "instance_path": "inst/instance.json", "tau": {"value": 1.0},
        "output": {"report": "report.json"},
    })
    assert main(["solve", "--config", str(tmp_path / "config.json")]) == EXIT_INFEASIBLE
    assert "termination=suspected_infeasible" in capsys.readouterr().out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["termination"] == "suspected_infeasible"
    assert report["recovery_error"] is None


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
