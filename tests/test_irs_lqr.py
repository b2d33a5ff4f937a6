"""Tests for the bundle-linearized iterative LQR/MPC planner."""

import dataclasses

import numpy as np
import pytest

from bundleopt import irs_lqr, qp
from bundleopt.irs_lqr import (GradientMode, MpcProblem, derive_knot_seed, irs_lqr_run,
                               linearize_trajectory, mpc_solve, stop_reason)
from bundleopt.errors import ConfigurationError
from bundleopt.smoothing import (SmoothingDistribution, jacobian_bundle_first_order,
                                 jacobian_bundle_zero_order)
from bundleopt.systems import LinearizedDynamics, LinearSystem
from bundleopt.tasks import build_task

from oracles import assemble_mpc_qp, per_knot_linearization, riccati_tracking, solve_eq_qp

# Inputs from the stacked oracle carry its 1e-8 Hessian ridge.
STACKED_ATOL = 1e-6


def _random_lins(rng, T, n, m):
    """Time-varying affine models, some steps unstable."""
    a, b, c = np.empty((T, n, n)), np.empty((T, n, m)), np.empty((T, n))
    for t in range(T):
        a[t] = rng.standard_normal((n, n))
        a[t] *= 1.05 / max(abs(np.linalg.eigvals(a[t])))
        b[t] = rng.standard_normal((n, m))
        c[t] = 0.1 * rng.standard_normal(n)
    return LinearizedDynamics(A=a, B=b, c=c)


def _random_mpc(rng, T, n, m, **constraints):
    x_desired = rng.standard_normal((T + 1, n))
    q = np.diag(rng.uniform(0.0, 2.0, n))
    q[0, 0] = 0.0                                   # PSD, not PD
    return MpcProblem(horizon=T, Q=q, R=np.diag(rng.uniform(0.1, 1.0, m)),
                      Q_terminal=5.0 * np.eye(n), x_desired=x_desired,
                      initial_state=rng.standard_normal(n), **constraints)


def _stacked_first_input(window, lins, relaxed=False):
    problem, first = assemble_mpc_qp(window, lins, relax_state_constraints=relaxed)
    sol = solve_eq_qp(*problem)
    assert sol.status == "optimal"
    return sol.z[first:first + window.input_dim]


def _box(bound, dim):
    return np.vstack([np.eye(dim), -np.eye(dim)]), np.full(2 * dim, bound)


class TestRiccatiPath:
    def test_one_iteration_on_affine_system_matches_riccati_oracle(self):
        rng = np.random.default_rng(0)
        n, m, T = 4, 2, 12
        a = rng.standard_normal((n, n))
        a *= 1.1 / max(abs(np.linalg.eigvals(a)))
        b, c = rng.standard_normal((n, m)), 0.2 * rng.standard_normal(n)
        mpc = _random_mpc(rng, T, n, m)
        history = irs_lqr_run(LinearSystem(a, b, c), mpc, GradientMode(), 0.0, max_iters=1)
        xs, us = history[1].xs, history[1].us
        cost, _ = riccati_tracking(a, b, c, mpc.Q, mpc.R, mpc.Q_terminal,
                                   mpc.x_desired, mpc.initial_state)
        assert history[1].cost == pytest.approx(cost, rel=1e-10)
        # Bellman: every applied input is the first input of its own window.
        for t in range(T):
            _, first_u = riccati_tracking(a, b, c, mpc.Q, mpc.R, mpc.Q_terminal,
                                          mpc.x_desired[t:], xs[t])
            np.testing.assert_allclose(us[t], first_u, rtol=1e-9, atol=1e-10)

    def test_gains_match_stacked_oracle_on_time_varying_model(self):
        rng = np.random.default_rng(1)
        n, m, T = 3, 2, 10
        lins = _random_lins(rng, T, n, m)
        mpc = _random_mpc(rng, T, n, m)
        K, k = irs_lqr._riccati_gains(mpc, lins)
        for j in (0, 4, T - 1):
            x = rng.standard_normal(n)
            np.testing.assert_allclose(K[j] @ x + k[j],
                                       _stacked_first_input(mpc.window(j, x), lins),
                                       atol=STACKED_ATOL)

    @pytest.mark.parametrize("task", ["lti", "quadrotor_hover"])
    def test_rollout_inputs_equal_mpc_solve(self, task, monkeypatch):
        # Both take the Riccati policy: no window makes an active-set call.
        calls = []

        def spy(*args, _original=qp._dual_active_set, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(qp, "_dual_active_set", spy)
        setup = build_task(task)
        history = irs_lqr_run(setup.system, setup.mpc, GradientMode(), 0.0, max_iters=1,
                              u_init=setup.u_init)
        final = history[1]
        for t in range(setup.mpc.horizon):
            res = mpc_solve(setup.mpc.window(t, final.xs[t]), final.linearizations)
            np.testing.assert_array_equal(res.u, final.us[t])
            assert not res.relaxed and res.duals.size == 0 and res.active == ()
        assert calls == []


class TestCondensedPath:
    @pytest.mark.parametrize("kind", ["C_u", "C_x", "both"])
    def test_mpc_solve_matches_stacked_oracle(self, kind):
        rng = np.random.default_rng(2)
        n, m, T = 3, 2, 8
        lins = _random_lins(rng, T, n, m)
        constraints = {}
        if kind in ("C_u", "both"):
            constraints["C_u"], constraints["d_u"] = _box(0.3, m)
        if kind in ("C_x", "both"):
            constraints["C_x"], constraints["d_x"] = _box(1.0, n)
        mpc = _random_mpc(rng, T, n, m, **constraints)
        active = False
        for j in (0, 3, T - 1):
            x = rng.uniform(-0.8, 0.8, n)
            res = mpc_solve(mpc.window(j, x), lins)
            assert not res.relaxed
            active |= bool(np.max(res.duals) > 1e-6)
            np.testing.assert_allclose(res.u, _stacked_first_input(mpc.window(j, x), lins),
                                       atol=STACKED_ATOL)
        assert active, "no inequality was active; the case tests nothing"

    def test_infeasible_state_constraint_is_relaxed_and_counted(self):
        n, m, T = 2, 1, 6
        a = np.array([[1.0, 0.1], [0.0, 1.0]])
        b = np.array([[0.0], [0.1]])
        c_x = np.array([[1.0, 0.0]])
        mpc = MpcProblem(horizon=T, Q=np.eye(n), R=np.eye(m), Q_terminal=np.eye(n),
                         x_desired=np.zeros((T + 1, n)), C_x=c_x, d_x=np.array([0.5]),
                         initial_state=np.array([2.0, 0.0]))
        sys = LinearSystem(a, b)
        x0, u0 = np.zeros((T, n)), np.zeros((T, m))
        lins = irs_lqr.linearize_exact(sys, x0, u0, sys.step_batch(x0, u0))
        # The start state already breaks x0 <= 0.5: no input can repair that.
        res = mpc_solve(mpc, lins)
        assert res.relaxed
        np.testing.assert_allclose(res.u, _stacked_first_input(mpc, lins, relaxed=True),
                                   atol=STACKED_ATOL)
        history = irs_lqr_run(sys, mpc, GradientMode(), 0.0, max_iters=1)
        final = history[1]
        replay = [mpc_solve(mpc.window(t, final.xs[t]), lins).relaxed for t in range(T)]
        assert final.infeasible_steps == sum(replay) >= 1

    @pytest.mark.parametrize("task", ["dubins_parking", "push_2d", "lti_state_box"])
    def test_in_loop_inputs_equal_mpc_solve(self, task):
        # In-loop windows start from the previous window's active set,
        # mpc_solve from none: the final active set alone fixes the bits.
        if task == "lti_state_box":
            setup, max_iters = _lti_state_box(), 3
        else:
            setup, max_iters = build_task(task), 1
        history = irs_lqr_run(setup.system, setup.mpc, GradientMode(), 0.0,
                              max_iters=max_iters, u_init=setup.u_init)
        if task == "lti_state_box":
            np.testing.assert_allclose([it.cost for it in history],
                                       [37.0517, 21.2018, 21.2018, 21.2018], atol=1e-4)
        final = history[-1]
        for t in range(setup.mpc.horizon):
            res = mpc_solve(setup.mpc.window(t, final.xs[t]), final.linearizations)
            np.testing.assert_array_equal(res.u, final.us[t])

    def test_next_start_maps_rows_onto_the_same_constraints(self):
        setup = _lti_state_box()
        mpc, m = setup.mpc, setup.mpc.input_dim
        xs = irs_lqr.rollout(setup.system, mpc.initial_state, setup.u_init)
        lins = linearize_trajectory(setup.system, xs, setup.u_init, GradientMode(), 0.0, 0, 0)
        windows = irs_lqr._CondensedHorizon(mpc, lins)
        for j in (0, 5, mpc.horizon - 2):
            _, _, g_j, _ = windows.window_qp(j, xs[j], relaxed=False)
            _, _, g_next, _ = windows.window_qp(j + 1, xs[j + 1], relaxed=False)
            targets = []
            for i in range(g_j.shape[0]):
                moved = windows.next_start(j, [i])
                # Dropped exactly when no input of window j+1 moves the row.
                assert (not moved) == (not np.any(g_j[i, m:])), (j, i)
                if moved:
                    np.testing.assert_array_equal(g_next[moved[0]], g_j[i, m:])
                    targets.append(moved[0])
            assert targets == sorted(set(targets))
            assert len(targets) == np.count_nonzero(np.any(g_next, axis=1))

    def test_warm_start_cuts_active_set_iterations(self, monkeypatch):
        setup = build_task("dubins_parking")
        mode = GradientMode(kind="first_order_bundle", samples=100)
        original = qp._dual_active_set

        def total_iterations(cold):
            total = 0

            def spy(P, q, G, h, start=()):
                nonlocal total
                out = original(P, q, G, h, start=() if cold else start)
                total += out[4]
                return out

            monkeypatch.setattr(qp, "_dual_active_set", spy)
            irs_lqr_run(setup.system, setup.mpc, mode, 0.25, ("geometric", 0.8),
                        max_iters=2, seed=0, u_init=setup.u_init)
            return total

        warm, cold = total_iterations(False), total_iterations(True)
        assert warm <= cold / 3, (warm, cold)


def _lti_state_box():
    """lti task with x0 held in [-0.3, 0.3] while its target sits at +1,
    inputs boxed to +-2: state rows of many knots are active at once."""
    setup = build_task("lti")
    mpc = setup.mpc
    m = mpc.input_dim
    x_desired = mpc.x_desired.copy()
    x_desired[:, 0] += 1.0
    x0 = mpc.initial_state.copy()
    x0[0] = 0.25
    e0 = np.eye(mpc.state_dim)[:1]
    mpc = dataclasses.replace(mpc, C_x=np.vstack([e0, -e0]), d_x=np.full(2, 0.3),
                              C_u=np.vstack([np.eye(m), -np.eye(m)]), d_u=np.full(2 * m, 2.0),
                              x_desired=x_desired, initial_state=x0)
    return dataclasses.replace(setup, mpc=mpc)


# Settings of demos/configs/plan_push_1d.json.
PUSH_SETTINGS = {"cov0": 0.25, "schedule": ("geometric", 0.8), "max_iters": 20}
BUNDLES = ("first_order_bundle", "zero_order_bundle")


def _final_cost(setup, kind, seed, max_iters=PUSH_SETTINGS["max_iters"]):
    history = irs_lqr_run(setup.system, setup.mpc, GradientMode(kind=kind, samples=100),
                          seed=seed, u_init=setup.u_init,
                          **{**PUSH_SETTINGS, "max_iters": max_iters})
    return history[-1].cost


class TestHeadline:
    """Exact gradients stall on the contact push tasks; bundles escape."""

    def test_push_1d_exact_stalls_and_bundles_escape(self):
        setup = build_task("push_1d")
        exact = _final_cost(setup, "exact", 0)
        assert exact == pytest.approx(70.0, abs=1e-9)
        # A tenth of exact's cost: bundles usually reach 1.0009, and rarely
        # settle at 2.0009, reaching the goal one step later.
        for seed in range(3):
            for kind in BUNDLES:
                assert _final_cost(setup, kind, seed) <= 0.1 * exact

    # The paper pairs the bundles with Anitescu's relaxation; 6 iterations
    # take first-order to 0.42 and zero-order to 1.77 against exact's 5.00.
    @pytest.mark.parametrize("model", ["exact", "anitescu"])
    def test_push_2d_bundles_end_below_exact(self, model):
        setup = build_task("push_2d", {"model": model})
        max_iters = {"exact": 20, "anitescu": 6}[model]
        exact = _final_cost(setup, "exact", 0, max_iters)
        for kind in BUNDLES:
            assert _final_cost(setup, kind, 0, max_iters) < exact


class TestDeterminism:
    @pytest.mark.parametrize("task", ["push_2d", "pendulum_swingup"])
    def test_zero_covariance_makes_all_modes_identical(self, task):
        setup = build_task(task)
        runs = [irs_lqr_run(setup.system, setup.mpc, GradientMode(kind=kind, samples=20),
                            0.0, max_iters=3, seed=5, u_init=setup.u_init)
                for kind in irs_lqr.GRADIENT_MODES]
        for other in runs[1:]:
            assert [it.cost for it in other] == [it.cost for it in runs[0]]
            for a, b in zip(other, runs[0]):
                np.testing.assert_array_equal(a.xs, b.xs)
                np.testing.assert_array_equal(a.us, b.us)

    def test_knot_seed_does_not_depend_on_evaluation_order(self):
        keys = [(seed, it, knot) for seed in (0, 7) for it in range(3) for knot in range(5)]
        forward = {key: derive_knot_seed(*key) for key in keys}
        backward = {key: derive_knot_seed(*key) for key in reversed(keys)}
        assert forward == backward
        assert len(set(forward.values())) == len(keys)

    def test_each_knot_linearization_can_be_computed_alone(self):
        bundles = {"first_order_bundle": jacobian_bundle_first_order,
                   "zero_order_bundle": jacobian_bundle_zero_order}
        for task, variance in (("push_1d", 0.25), ("pendulum_swingup", 0.25),
                               ("quadrotor_hover", 0.01)):
            setup = build_task(task)
            xs = irs_lqr.rollout(setup.system, setup.mpc.initial_state, setup.u_init)
            n, m = setup.mpc.state_dim, setup.mpc.input_dim
            for kind, bundle in bundles.items():
                mode = GradientMode(kind=kind, samples=30)
                variances = irs_lqr.joint_variances(variance, mode, n, m)
                lins = linearize_trajectory(setup.system, xs, setup.u_init, mode, variances,
                                            11, 2)
                for t in (7, 0, 13):
                    (a,), (b,) = bundle(setup.system, xs[t:t + 1], setup.u_init[t:t + 1],
                                        SmoothingDistribution(variances), 30,
                                        [derive_knot_seed(11, 2, t)])
                    np.testing.assert_array_equal(a, lins.A[t])
                    np.testing.assert_array_equal(b, lins.B[t])


LINEARIZED_TASKS = [
    pytest.param(task, params, variance, id="-".join([task, *params.values()]))
    for task, params, variance in [
        ("lti", {}, 0.25), ("pendulum_swingup", {}, 0.25), ("quadrotor_hover", {}, 0.01),
        ("dubins_parking", {}, 0.25), ("push_1d", {}, 0.25),
        ("push_2d", {"model": "exact"}, 0.25), ("push_2d", {"model": "anitescu"}, 0.25)]]


class TestBatchedLinearization:
    """linearize_trajectory stacks the knots; each knot's model is the per-knot one."""

    @staticmethod
    def _trajectory(task, params):
        setup = build_task(task, params)
        rng = np.random.default_rng(4)
        us = setup.u_init + 0.3 * rng.standard_normal(setup.u_init.shape)
        return setup, irs_lqr.rollout(setup.system, setup.mpc.initial_state, us), us

    @pytest.mark.parametrize("kind", ["exact", "first_order_bundle", "zero_order_bundle"])
    @pytest.mark.parametrize("task, params, variance", LINEARIZED_TASKS)
    def test_equals_the_per_knot_oracle(self, task, params, variance, kind):
        setup, xs, us = self._trajectory(task, params)
        mode = GradientMode(kind=kind, samples=100)
        variances = irs_lqr.joint_variances(variance, mode, setup.mpc.state_dim,
                                            setup.mpc.input_dim)
        got = linearize_trajectory(setup.system, xs, us, mode, variances, 5, 3)
        expected = per_knot_linearization(setup.system, xs, us, mode, variances, 5, 3)
        (T, m), n = us.shape, xs.shape[1]
        assert (got.A.shape, got.B.shape, got.c.shape) == ((T, n, n), (T, n, m), (T, n))
        np.testing.assert_array_equal(got.A, expected.A)
        np.testing.assert_array_equal(got.B, expected.B)
        np.testing.assert_array_equal(got.c, expected.c)

    @pytest.mark.parametrize("kind", ["first_order_bundle", "zero_order_bundle"])
    @pytest.mark.parametrize("task", ["quadrotor_hover", "pendulum_swingup", "lti"])
    def test_peak_memory_of_one_linearization(self, task, kind):
        # Each batched call is capped; stacking all 100-sample knots at once
        # reached 5 MB on the quadrotor.
        import tracemalloc

        setup, xs, us = self._trajectory(task, {})
        mode = GradientMode(kind=kind, samples=100)
        variances = irs_lqr.joint_variances(0.01, mode, setup.mpc.state_dim,
                                            setup.mpc.input_dim)
        # a first call pays one-time allocations of numpy's random and linalg
        linearize_trajectory(setup.system, xs, us, mode, variances, 0, 0)
        tracemalloc.start()
        try:
            linearize_trajectory(setup.system, xs, us, mode, variances, 0, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000


class TestStopReason:
    @pytest.mark.parametrize("costs, reason", [
        ([9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0], "diverged"),       # 5 rises
        ([9.0, 1.0, 2.0, 3.0, 4.0, 5.0], None),                  # 4 rises
        ([9.0, 1.0, 2.0, 2.0, 3.0, 4.0, 5.0], None),             # an equal step breaks them
        ([9.0, 2.0, 2.0, 2.0, 2.0], "converged"),                # 3 flat steps
        ([9.0, 2.0, 2.0, 2.0], None),                            # 2 flat steps
        ([1.0, 2.0, 3.0, 3.0 * (1 + 1e-8), 3.0 * (1 + 2e-8), 3.0 * (1 + 3e-8)],
         "diverged"),                  # 3 flat steps that are also the end of 5 rises
        ([5.0], None),
    ])
    def test_hand_built_costs(self, costs, reason):
        assert stop_reason(costs) == reason

    def test_lti_run_stops_at_the_first_converged_prefix(self):
        setup = build_task("lti")
        history = irs_lqr_run(setup.system, setup.mpc, GradientMode(), 0.0,
                              u_init=setup.u_init)
        costs = [it.cost for it in history]
        assert len(costs) < 21
        assert [stop_reason(costs[:k]) for k in range(1, len(costs))] == [None] * (len(costs) - 1)
        assert stop_reason(costs) == "converged"


class TestTasks:
    def test_build_task_rejects_unknown_params_and_tasks(self):
        with pytest.raises(ConfigurationError, match="allowed: .*'model'"):
            build_task("push_2d", {"modle": "exact"})
        with pytest.raises(ConfigurationError, match="known: .*'push_2d'"):
            build_task("nope")

    @pytest.mark.parametrize("task, key, value, expected", [
        ("push_2d", "horizon", "x", "an integer"),
        ("push_2d", "horizon", 2.5, "an integer"),
        ("push_2d", "horizon", True, "an integer"),
        ("push_2d", "command_bound", None, "a number"),
        ("push_2d", "mu", False, "a number"),
        ("push_2d", "model", 1, "a str"),
        ("dubins_parking", "goal", [0.0, 2.0], "a list of 3 numbers"),
        ("dubins_parking", "goal", [0.0, "2", 0.0], "a list of 3 numbers"),
        ("dubins_parking", "goal", 2.0, "a list of 3 numbers"),
    ])
    def test_build_task_rejects_params_of_another_type(self, task, key, value, expected):
        with pytest.raises(ConfigurationError, match=f"'{key}' .* must be {expected}"):
            build_task(task, {key: value})

    def test_build_task_takes_params_of_the_defaults_types(self):
        setup = build_task("push_2d", {"horizon": 4, "command_bound": 2, "model": "anitescu"})
        assert setup.mpc.horizon == 4 and setup.mpc.d_u[0] == 2.0
        setup = build_task("dubins_parking", {"goal": [1, 2.0, 0]})
        np.testing.assert_array_equal(setup.mpc.x_desired[0], [1.0, 2.0, 0.0])

    @pytest.mark.parametrize("task, c_u, d_u", [
        ("lti", None, None),
        ("pendulum_swingup", None, None),
        ("quadrotor_hover", None, None),
        ("push_1d", [[1.0], [-1.0]], [3.0, 3.0]),
        ("dubins_parking", [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
         [2.0, -0.0, 4.0, 4.0]),
        ("push_2d", [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
         [1.5, 1.5, 1.5, -0.0]),
    ])
    def test_box_rows_of_every_task(self, task, c_u, d_u):
        # each input's u_i <= high row, then its -u_i <= -low row; a low
        # bound of 0.0 gives -0.0, and every zero of C_u is +0.0
        mpc = build_task(task).mpc
        if c_u is None:
            assert mpc.C_u is None and mpc.d_u is None
            return
        for got, want in ((mpc.C_u, np.array(c_u)), (mpc.d_u, np.array(d_u))):
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


class TestOneCostForm:
    """Q and R are one matrix each and the sampling covariance one variance."""

    def test_per_step_costs_rejected(self):
        mpc = build_task("dubins_parking").mpc
        T = mpc.horizon
        for q, r in ((np.tile(mpc.Q, (T, 1, 1)), mpc.R), (mpc.Q, np.tile(mpc.R, (T, 1, 1)))):
            with pytest.raises(ConfigurationError, match="Q must be"):
                dataclasses.replace(mpc, Q=q, R=r)

    def test_covariance_matrix_rejected(self):
        with pytest.raises(ConfigurationError, match="scalar variance"):
            irs_lqr.joint_variances(0.1 * np.eye(5), GradientMode("first_order_bundle"), 3, 2)


class TestMpcWindow:
    """The window anchor is checked alike by the constructor and by window()."""

    @pytest.mark.parametrize("anchor, match", [
        ("last+1", "start_index"), ("-1", "start_index"), ("short_state", "initial_state"),
    ])
    def test_bad_anchor_is_a_configuration_error(self, anchor, match):
        mpc = build_task("dubins_parking").mpc
        T, x0 = mpc.horizon, mpc.initial_state
        j, x = {"last+1": (T, x0), "-1": (-1, x0), "short_state": (0, x0[:-1])}[anchor]
        with pytest.raises(ConfigurationError, match=match):
            dataclasses.replace(mpc, start_index=j, initial_state=x)
        with pytest.raises(ConfigurationError, match=match):
            mpc.window(j, x)
