"""Exit-code contract of the command-line runner: 0 success, 2 config, 3 numerical."""

import csv
import json

import numpy as np
import pytest

import bundleopt
from bundleopt import cli
from bundleopt.irs_lqr import TrajectoryIterate

PLAN = {"task": "push_1d", "modes": ["exact"], "sigma0": 0.25, "seeds": [0],
        "max_iters": 2}
PROBE = {"state": [0.0, 0.0, 0.7], "sigma": 0.06,
         "grid": {"x": {"start": 0.0, "stop": 0.1, "count": 2},
                  "y": {"start": 0.5, "stop": 0.6, "count": 2}}}
EVAL = {"function": "heaviside", "sigma": 1.0, "grid": {"start": 0.0, "stop": 1.0, "count": 2}}
# Numbers json reads as NaN or Infinity, which the schema's "number" passes:
# case name -> (verb, config, the key the one error line names)
NON_FINITE = {
    "eval_grid_stop_nan": ("bundle-eval", {**EVAL, "grid": {**EVAL["grid"], "stop": np.nan}},
                           "grid.stop"),
    "eval_grid_stop_inf": ("bundle-eval", {**EVAL, "grid": {**EVAL["grid"], "stop": np.inf}},
                           "grid.stop"),
    "probe_state_nan": ("contact-probe", {**PROBE, "state": [np.nan, 0.0, 0.7]}, "state"),
    "probe_state_inf": ("contact-probe", {**PROBE, "state": [0.0, np.inf, 0.7]}, "state"),
    "probe_grid_x_stop_nan": ("contact-probe",
                              {**PROBE, "grid": {**PROBE["grid"],
                                                 "x": {**PROBE["grid"]["x"], "stop": np.nan}}},
                              "grid.x.stop"),
}
# contact-probe "system" values the schema rejects, by case name
BAD_SYSTEMS = {"system_unknown_key": {"bogus": 1}, "system_k_string": {"k": "x"},
               "system_k_bool": {"k": True}}


def _plan(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    return cli.main(["plan", "--config", str(path), "--out", str(out)]), out


def test_plan_succeeds_and_writes_manifest(tmp_path):
    code, out = _plan(tmp_path, PLAN)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["package_version"] == bundleopt.__version__
    assert manifest["outputs"] == ["results.csv", "trajectory.csv"]
    assert (out / "results.csv").is_file()


def test_manifest_echoes_the_seed_override(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(PLAN))
    out = tmp_path / "out"
    assert cli.main(["plan", "--config", str(path), "--out", str(out), "--seed", "7"]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["seeds"] == [7]
    with open(out / "results.csv", encoding="utf-8") as fh:
        next(fh)                                     # schema comment row
        assert {row["seed"] for row in csv.DictReader(fh)} == {"7"}


def test_unknown_config_key_exits_2(tmp_path, capsys):
    code, out = _plan(tmp_path, {**PLAN, "bogus": 1})
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["negative_seed", "config_is_directory",
                                  "config_not_utf8", "out_is_file", "param_type",
                                  "unknown_key", "gamma_out_of_range",
                                  "quadrature_points", "q_angle_infinite", "q_angle_nan",
                                  "jobs_not_int", "jobs_zero", *BAD_SYSTEMS])
def test_bad_arguments_exit_2_with_one_line(tmp_path, capsys, case):
    config, out, extra = tmp_path / "config.json", tmp_path / "out", []
    config.write_text(json.dumps(PLAN))
    verb = "plan"
    if case == "negative_seed":
        extra = ["--seed", "-1"]
    elif case == "config_is_directory":
        config = tmp_path
    elif case == "config_not_utf8":
        config.write_bytes(b'{"task": "push_1d\xff"}')
    elif case == "out_is_file":
        out.write_text("")
    elif case == "param_type":
        config.write_text(json.dumps({**PLAN, "params": {"horizon": "x"}}))
    elif case == "unknown_key":
        config.write_text(json.dumps({**PLAN, "bogus": 1}))
    elif case in ("q_angle_infinite", "q_angle_nan"):
        # json writes and reads these as Infinity and NaN
        q_angle = float("inf" if case == "q_angle_infinite" else "nan")
        config.write_text(json.dumps({**PLAN, "task": "pendulum_swingup",
                                      "params": {"q_angle": q_angle}}))
    elif case == "jobs_not_int":
        extra = ["--jobs", "abc"]
    elif case == "jobs_zero":
        extra = ["--jobs", "0"]
    elif case == "quadrature_points":
        # bundle-eval's 1D oracle never read it, so the key is gone
        verb = "bundle-eval"
        config.write_text(json.dumps({"function": "heaviside", "sigma": 1.0,
                                      "grid": {"start": 0.0, "stop": 1.0, "count": 2},
                                      "quadrature_points": 201}))
    elif case in BAD_SYSTEMS:
        verb = "contact-probe"
        config.write_text(json.dumps({**PROBE, "system": BAD_SYSTEMS[case]}))
    else:
        config.write_text(json.dumps({**PLAN, "schedule": {"policy": "geometric",
                                                           "gamma": 2}}))
    code = cli.main([verb, "--config", str(config), "--out", str(out), *extra])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error") and err.count("\n") == 1
    if case == "unknown_key":
        assert "'bogus' was unexpected" in err
    elif case == "quadrature_points":
        assert "'quadrature_points' was unexpected" in err
    elif case == "gamma_out_of_range":
        assert "$.schedule.gamma" in err
    elif case.startswith("q_angle"):
        assert "Q must be finite" in err
    elif case == "jobs_not_int":
        assert "argument --jobs: invalid int value: 'abc'" in err
    elif case == "jobs_zero":
        assert "--jobs must be >= 1" in err
    elif case == "system_unknown_key":
        assert "'bogus' was unexpected" in err
    elif case in BAD_SYSTEMS:
        assert "is not of type 'number' at $.system.k" in err


def test_jobs_beyond_the_run_count_start_one_worker_per_run(tmp_path, monkeypatch):
    # The process pool forks all of its workers at the first submit, so
    # --jobs 100000 must not reach it unchanged. A serial stand-in records
    # the pool size; no process is started.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, worker, items):
            return map(worker, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**PLAN, "seeds": [0, 1]}))
    code = cli.main(["plan", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--jobs", "100000"])
    assert code == 0
    assert sizes == [2]


def test_planner_runtime_error_exits_3(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise RuntimeError("MPC subproblem failed")

    monkeypatch.setattr(cli, "irs_lqr_run", fail)
    code, out = _plan(tmp_path, PLAN)
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("task", ["dubins_parking", "pendulum_swingup"])
def test_plan_outputs_do_not_depend_on_jobs(tmp_path, task):
    # Warm-started MPC windows (dubins_parking, constrained) and Riccati
    # passes (pendulum_swingup) carry state within a run, never across runs.
    config = {"task": task, "modes": ["exact", "first_order_bundle"],
              "sigma0": 0.25, "seeds": [0, 1], "max_iters": 2}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    outputs = {}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        assert cli.main(["plan", "--config", str(path), "--out", str(out),
                         "--jobs", str(jobs)]) == 0
        outputs[jobs] = [(out / name).read_bytes()
                         for name in ("results.csv", "trajectory.csv")]
    assert outputs[1] == outputs[2]


@pytest.mark.parametrize("costs, diverged", [
    ([1.0, 0.5, 2.0], "0"),                          # ends above its start, no streak
    ([1.0, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0], "1"),      # 5 rises, ends at its start
])
def test_diverged_column_is_the_planner_stop_rule(tmp_path, monkeypatch, costs, diverged):
    def run(system, mpc, *args, **kwargs):
        xs = np.zeros((mpc.horizon + 1, mpc.state_dim))
        us = np.zeros((mpc.horizon, mpc.input_dim))
        return [TrajectoryIterate(xs=xs, us=us, cost=c, iteration=i)
                for i, c in enumerate(costs)]

    monkeypatch.setattr(cli, "irs_lqr_run", run)
    code, out = _plan(tmp_path, PLAN)
    assert code == 0
    with open(out / "results.csv", encoding="utf-8") as fh:
        next(fh)                                     # schema comment row
        rows = list(csv.DictReader(fh))
    assert [row["diverged"] for row in rows] == [diverged] * len(costs)


def test_contact_probe_has_no_seed(tmp_path, capsys):
    # the probe is deterministic quadrature, so it takes no --seed
    config = tmp_path / "config.json"
    config.write_text(json.dumps(PROBE))
    code = cli.main(["contact-probe", "--config", str(config), "--out", str(tmp_path / "out"),
                     "--seed", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "config error: unrecognized arguments: --seed 1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("k", [float("inf"), float("nan")])
def test_contact_probe_names_a_non_finite_parameter(tmp_path, capsys, k):
    config = tmp_path / "config.json"
    # json writes and reads these as Infinity and NaN
    config.write_text(json.dumps({**PROBE, "system": {"k": k}}))
    code = cli.main(["contact-probe", "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"config error: Contact2DParams.k must be finite and positive, got {k}\n"


@pytest.mark.parametrize("verb, config", [
    ("contact-probe", {**PROBE, "system": {"k": -1}}),
    ("plan", {**PLAN, "params": {"horizon": 0}}),
    ("plan", {**PLAN, "task": "lti", "params": {"state_dim": 0}}),
    ("plan", {**PLAN, "task": "lti", "params": {"spectral_radius": float("inf")}}),
    ("plan", {**PLAN, "task": "lti", "params": {"spectral_radius": -0.5}}),
    ("plan", {**PLAN, "task": "lti", "params": {"spectral_radius": 0.0}}),
    ("plan", {**PLAN, "task": "pendulum_swingup", "params": {"mass": 0.0}}),
    ("plan", {**PLAN, "task": "pendulum_swingup", "params": {"h": -0.05}}),
    ("plan", {**PLAN, "task": "dubins_parking", "params": {"v_max": -1.0}}),
    *[pytest.param(verb, config, id=case) for case, (verb, config, _) in NON_FINITE.items()],
])
def test_constructor_config_error_leaves_no_out(tmp_path, capsys, request, verb, config):
    # the schema passes these; Contact2DParams, MpcProblem, the task
    # builders and systems, and the CLI's own grid and state checks reject them
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(config))
    code = cli.main([verb, "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error") and err.count("\n") == 1
    if "spectral_radius" in config.get("params", {}):
        assert "lti.spectral_radius must be finite and positive" in err
    if request.node.callspec.id in NON_FINITE:
        key = NON_FINITE[request.node.callspec.id][2]
        assert err.startswith(f"config error: {key} must be finite, got ")
    assert not out.exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["plan", "--help"])
    assert exc.value.code == 0
    assert "--jobs" in capsys.readouterr().out


def test_contact_probe_bundles_equal_per_node_steps():
    # both bundled columns step all quadrature nodes in one batch. The exact
    # column must equal stepping them one by one through step_2d_exact, bit
    # for bit. The Anitescu batch is the QP's closed form: it must equal that
    # closed form on each node's floats bit for bit, and the per-node QP
    # steps to rounding.
    from bundleopt.contact import (Contact2DParams, Contact2DState, ContactPush2D,
                                   _anitescu_2d, step_2d_anitescu, step_2d_exact)
    from bundleopt.oracle import gauss_hermite_expectation
    from bundleopt.smoothing import SmoothingDistribution

    config = {"state": [0.0, 0.0, 0.7], "sigma": 0.06, "quadrature_points": 15}
    state, params = Contact2DState(*config["state"]), Contact2DParams()
    dist = SmoothingDistribution.isotropic(2, config["sigma"])
    systems = (ContactPush2D(params, "exact"), ContactPush2D(params, "anitescu"))

    def closed_form(state, command, params):
        (chosen,) = [s for s in _anitescu_2d(state.xu, state.xa, state.ya, *command, params,
                                             max) if s[5]]
        return Contact2DState(*chosen[:3]), None

    for cx, cy in ((-0.4, 0.45), (0.1, 0.6), (0.35, 0.8)):
        row = cli._probe_point((config, systems, cx, cy))
        expected = {}
        for name, step in (("exact", step_2d_exact), ("closed_form", closed_form),
                           ("qp", step_2d_anitescu)):
            expected[name] = gauss_hermite_expectation(
                lambda c, step=step: step(state, (float(c[0]), float(c[1])), params)[0].xu,
                np.array([cx, cy]), dist, 15)
        assert row[4] == expected["exact"]
        assert row[5] == expected["closed_form"]
        assert row[5] == pytest.approx(expected["qp"], rel=1e-12, abs=1e-12)
        # the Anitescu column's one-row step is the QP's
        assert row[3] == step_2d_anitescu(state, (cx, cy), params)[0].xu


def test_contact_probe_outputs_do_not_depend_on_jobs(tmp_path):
    config = {**PROBE, "quadrature_points": 5,
              "grid": {"x": {"start": -0.4, "stop": 0.6, "count": 3},
                       "y": {"start": 0.45, "stop": 0.85, "count": 3}}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    outputs = {}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        assert cli.main(["contact-probe", "--config", str(path), "--out", str(out),
                         "--jobs", str(jobs)]) == 0
        outputs[jobs] = (out / "contact_probe.csv").read_bytes()
    assert outputs[1] == outputs[2]
