"""Tests for the bundle-linearized iterative LQR/MPC planner."""

import dataclasses
import json
import pathlib
import re

import numpy as np
import pytest

from bundleopt import irs_lqr, qp
from bundleopt.irs_lqr import (GradientMode, MpcProblem, irs_lqr_run, linearize_trajectory,
                               mpc_solve, stop_reason, trajectory_cost)
from bundleopt.contact import PenaltyPush1D
from bundleopt.errors import ConfigurationError, DivergedError
from bundleopt.systems import LinearizedDynamics, LinearSystem
from bundleopt.tasks import TaskSetup, build_task

from oracles import (assemble_mpc_qp, per_knot_linearization, riccati_tracking, solve_eq_qp,
                     trajectory_cost_loop)

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


def _stacked_first_input(window, lins):
    problem, first = assemble_mpc_qp(window, lins)
    sol = solve_eq_qp(*problem)
    assert sol.status == "optimal"
    return sol.z[first:first + window.input_dim]


def _box(bound, dim):
    return np.vstack([np.eye(dim), -np.eye(dim)]), np.full(2 * dim, bound)


def _first_model(setup, history):
    """The exact model the first pass planned on, rebuilt bit for bit."""
    return linearize_trajectory(setup.system, history[0].xs, history[0].us, GradientMode(),
                                0.0, 0, 0)


def _spy_active_set(monkeypatch):
    """Record (window size, start set, final active set) of every active-set call."""
    calls = []

    def spy(q, G, h, start=(), _original=qp._dual_active_set):
        out = _original(q, G, h, start=start)
        calls.append((q.shape[0], tuple(start), tuple(out[2])))
        return out

    monkeypatch.setattr(qp, "_dual_active_set", spy)
    return calls


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

    # (2, 1) and (12, 4) are the pendulum's and the quadrotor's shapes.
    @pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (3, 2), (12, 4)])
    def test_gains_match_stacked_oracle_on_time_varying_model(self, n, m):
        rng = np.random.default_rng(1)
        T = 10
        lins = _random_lins(rng, T, n, m)
        mpc = _random_mpc(rng, T, n, m)
        K, k = irs_lqr._riccati_gains(mpc, lins)
        for j in (0, 4, T - 1):
            x = rng.standard_normal(n)
            np.testing.assert_allclose(K[j] @ x + k[j],
                                       _stacked_first_input(mpc.window(j, x), lins),
                                       atol=STACKED_ATOL)

    def test_non_finite_cost_stops_the_run_as_diverged(self):
        # This first-order plan rolls out to states whose bundle has max|A|
        # about 2.5e14; iterate 3 costs about 2e37 and iterate 4's rollout
        # overflows to a NaN cost, where the run stops instead of planning
        # on the overflowed trajectory.
        setup = build_task("quadrotor_hover")
        history = irs_lqr_run(setup.system, setup.mpc,
                              GradientMode(kind="first_order_bundle", samples=100), 0.25,
                              schedule=("geometric", 0.8), max_iters=6,
                              seed=1023293998204598338, u_init=setup.u_init)
        costs = [it.cost for it in history]
        assert len(history) == 5 and np.isfinite(costs[:4]).all() and np.isnan(costs[4])
        assert costs[3] > 1e37
        assert stop_reason(costs) == "diverged"

    def test_overflowing_gains_raise_diverged_error(self):
        # S grows by 1e24 a step until it overflows; the rollout from the
        # origin stays finite, so only the gains can flag the failure.
        T = 30
        mpc = MpcProblem(horizon=T, Q=np.eye(2), R=np.eye(1), Q_terminal=np.eye(2),
                         x_desired=np.zeros((T + 1, 2)), initial_state=np.zeros(2))
        system = LinearSystem(np.diag([1e12, 1e12]), [[1.0], [0.0]])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergedError, match="iteration 1: non-finite gains"):
            irs_lqr_run(system, mpc, GradientMode(), 0.0, max_iters=5)

    @pytest.mark.parametrize("task", ["lti", "quadrotor_hover"])
    def test_rollout_inputs_equal_mpc_solve(self, task, monkeypatch):
        # Both take the Riccati policy: no window makes an active-set call.
        calls = _spy_active_set(monkeypatch)
        setup = build_task(task)
        history = irs_lqr_run(setup.system, setup.mpc, GradientMode(), 0.0, max_iters=1,
                              u_init=setup.u_init)
        lins, final = _first_model(setup, history), history[1]
        for t in range(setup.mpc.horizon):
            u = mpc_solve(setup.mpc.window(t, final.xs[t]), lins)
            np.testing.assert_array_equal(u, final.us[t])
        assert calls == []


class TestCondensedPath:
    @pytest.mark.parametrize("kind", ["C_u"])
    def test_mpc_solve_matches_stacked_oracle(self, kind):
        rng = np.random.default_rng(2)
        n, m, T = 3, 2, 8
        lins = _random_lins(rng, T, n, m)
        c_u, d_u = _box(0.3, m)
        mpc = _random_mpc(rng, T, n, m, C_u=c_u, d_u=d_u)
        active = False
        for j in (0, 3, T - 1):
            x = rng.uniform(-0.8, 0.8, n)
            window = mpc.window(j, x)
            problem, first = assemble_mpc_qp(window, lins)
            sol = solve_eq_qp(*problem)
            assert sol.status == "optimal"
            active |= bool(np.max(sol.ineq_duals) > 1e-6)
            np.testing.assert_allclose(mpc_solve(window, lins), sol.z[first:first + m],
                                       atol=STACKED_ATOL)
        assert active, "no inequality was active; the case tests nothing"

    @pytest.mark.parametrize("task", ["dubins_parking", "push_2d"])
    def test_in_loop_inputs_equal_mpc_solve(self, task):
        # In-loop windows start from the previous window's active set,
        # mpc_solve from none: the final active set alone fixes the bits.
        setup = build_task(task)
        history = irs_lqr_run(setup.system, setup.mpc, GradientMode(), 0.0,
                              max_iters=1, u_init=setup.u_init)
        lins, final = _first_model(setup, history), history[1]
        for t in range(setup.mpc.horizon):
            u = mpc_solve(setup.mpc.window(t, final.xs[t]), lins)
            np.testing.assert_array_equal(u, final.us[t])

    def test_failed_window_factor_raises_diverged_error(self):
        # test_overflowing_gains_raise_diverged_error's system under an input
        # box: window 0's Hessian overflows and its factor fails in the pass.
        T = 30
        mpc = MpcProblem(horizon=T, Q=np.eye(2), R=np.eye(1), Q_terminal=np.eye(2),
                         x_desired=np.zeros((T + 1, 2)), C_u=[[1.0], [-1.0]],
                         d_u=[1.0, 1.0], initial_state=np.zeros(2))
        system = LinearSystem(np.diag([1e12, 1e12]), [[1.0], [0.0]])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergedError, match="iteration 1"):
            irs_lqr_run(system, mpc, GradientMode(), 0.0, max_iters=5)

    @staticmethod
    def _box_windows(seed, n=3, m=2, T=8):
        """Windows of a random model under an input box, and a start state for each."""
        rng = np.random.default_rng(seed)
        lins = _random_lins(rng, T, n, m)
        c_u, d_u = _box(0.3, m)
        mpc = _random_mpc(rng, T, n, m, C_u=c_u, d_u=d_u)
        return irs_lqr._CondensedHorizon(mpc, lins), rng.uniform(-0.8, 0.8, (T, n))

    def test_in_order_windows_start_from_the_renumbered_set(self, monkeypatch):
        # Window j + 1 starts from the rows window j ended on, less those
        # bounding u_j alone, each renumbered onto the same constraint.
        windows, xs = self._box_windows(6)
        m, p = windows.m, windows.p
        calls = _spy_active_set(monkeypatch)
        for j, x in enumerate(xs):
            windows.first_input(j, x)
        assert calls[0][1] == ()
        carried = 0
        for j in range(len(xs) - 1):
            _, g_j, h_j = windows.window_qp(j, xs[j])
            _, g_next, h_next = windows.window_qp(j + 1, xs[j + 1])
            kept = [i for i in calls[j][2] if i >= p]
            assert not np.any(g_j[:p, m:]) and all(np.any(g_j[i, m:]) for i in kept), j
            start = calls[j + 1][1]
            assert len(start) == len(kept), j
            np.testing.assert_array_equal(g_next[list(start)], g_j[kept, m:])
            np.testing.assert_array_equal(h_next[list(start)], h_j[kept])
            carried += len(start)
        assert carried, "no window carried a row; the case tests nothing"

    def test_window_solved_out_of_order_starts_cold(self, monkeypatch):
        windows, xs = self._box_windows(7)
        calls = _spy_active_set(monkeypatch)
        windows.first_input(3, xs[3])
        windows.first_input(1, xs[1])
        windows.first_input(2, xs[2])
        assert [i for i in calls[0][2] if i >= windows.p], \
            "window 3 carries no row; the case tests nothing"
        assert [start for _, start, _ in calls[:2]] == [(), ()]
        assert calls[2][1], "window 2 after window 1 should start warm"

    def test_one_factor_serves_every_window(self, monkeypatch):
        rng = np.random.default_rng(4)
        n, m, T = 3, 2, 6
        lins = _random_lins(rng, T, n, m)
        c_u, d_u = _box(0.3, m)
        mpc = _random_mpc(rng, T, n, m, C_u=c_u, d_u=d_u)
        factors, solving = [], []

        def spy(a, _original=np.linalg.cholesky, **kwargs):
            if not solving:                 # the active set's own factors are of Gram blocks
                factors.append(a.shape)
            return _original(a, **kwargs)

        def active_set(*args, _original=qp._dual_active_set, **kwargs):
            solving.append(True)
            try:
                return _original(*args, **kwargs)
            finally:
                solving.pop()

        monkeypatch.setattr(np.linalg, "cholesky", spy)
        monkeypatch.setattr(qp, "_dual_active_set", active_set)
        windows = irs_lqr._CondensedHorizon(mpc, lins)
        assert factors == [(T * m, T * m)]
        for j in range(T):
            hessian = _window_hessian(mpc, lins, j)
            W_j = windows.W[j * m:, j * m:]
            inverse = np.linalg.inv(hessian)
            error = np.linalg.norm(W_j.T @ W_j - inverse)
            assert error <= 1e-10 * np.linalg.norm(inverse), j
            windows.first_input(j, rng.uniform(-0.8, 0.8, n))
        assert len(factors) == 1

    def test_window_gradient_is_affine_in_the_start_state(self):
        # q = QF_j'(g - x_desired[j:]) with g the free response from x_j,
        # which the window reads off one map built per iteration.
        rng = np.random.default_rng(5)
        n, m, T = 3, 2, 8
        lins = _random_lins(rng, T, n, m)
        c_u, d_u = _box(0.3, m)
        mpc = _random_mpc(rng, T, n, m, C_u=c_u, d_u=d_u)
        windows = irs_lqr._CondensedHorizon(mpc, lins)
        for j in range(T):
            F = _input_response(lins, j, T)
            weights = [mpc.Q] * (T - j) + [mpc.Q_terminal]
            QF = np.concatenate([2.0 * w @ f for w, f in zip(weights, F)])
            for _ in range(3):
                x = rng.standard_normal(n)
                g = np.empty((T - j + 1, n))
                g[0] = x
                for t in range(j, T):
                    g[t - j + 1] = lins.A[t] @ g[t - j] + lins.c[t]
                # in the factor's coordinates y = W_j^{-T} z
                expected = windows.W[j * m:, j * m:] @ QF.T @ (g - mpc.x_desired[j:]).ravel()
                q = windows.window_qp(j, x)[0]
                assert np.linalg.norm(q - expected) <= 1e-12 * np.linalg.norm(expected), j

    def test_windows_solve_in_the_factor_coordinates(self, monkeypatch):
        # A general C_u: window j's rows are G_j W_j', views of one blockwise
        # product, and its first input maps the solution y back by W_j'.
        rng = np.random.default_rng(9)
        n, m, T, p = 3, 2, 7, 3
        lins = _random_lins(rng, T, n, m)
        c_u, d_u = rng.standard_normal((p, m)), rng.uniform(0.05, 0.3, p)
        mpc = _random_mpc(rng, T, n, m, C_u=c_u, d_u=d_u)
        windows = irs_lqr._CondensedHorizon(mpc, lins)
        W = windows.W
        assert not np.tril(W, -1).any()
        G = np.kron(np.eye(T), c_u)
        solutions = []

        def spy(*args, _original=qp._dual_active_set, **kwargs):
            solutions.append(_original(*args, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(qp, "_dual_active_set", spy)
        for j in range(T):
            W_j = W[j * m:, j * m:]
            x = rng.uniform(-0.8, 0.8, n)
            _, g_j, h_j = windows.window_qp(j, x)
            expected = G[j * p:, j * m:] @ W_j.T
            assert np.linalg.norm(g_j - expected) <= 1e-12 * np.linalg.norm(expected), j
            np.testing.assert_array_equal(h_j, np.tile(d_u, T - j))
            # W_j is upper triangular, so (W_j' y)[:m] needs only W_j's leading
            # block; the full product adds exact zeros but may round the
            # nonzero terms in another order, hence a bound of a few ulps
            u = windows.first_input(j, x)
            y = solutions[-1][0]
            full = (W_j.T @ y)[:m]
            bound = 4.0 * np.finfo(float).eps * (np.abs(W_j.T) @ np.abs(y))[:m]
            assert (np.abs(u - full) <= bound).all(), j
        assert all(active for _, _, active, _, _ in solutions[:-1]), \
            "a window with no active row tests nothing"

    def test_window_0_starts_cold_every_iteration(self, monkeypatch):
        # The last iteration's window-0 set was found on another model.
        setup = build_task("dubins_parking")
        mpc = setup.mpc
        calls = _spy_active_set(monkeypatch)
        irs_lqr_run(setup.system, mpc, GradientMode(kind="first_order_bundle"), 0.25,
                    ("geometric", 0.8), max_iters=3, seed=0, u_init=setup.u_init)
        window_0 = [(start, active) for size, start, active in calls
                    if size == mpc.horizon * mpc.input_dim]
        assert [start for start, _ in window_0] == [(), (), ()]
        assert all(active for _, active in window_0[:-1]), "an empty window-0 set tests nothing"

    def test_warm_start_cuts_active_set_iterations(self, monkeypatch):
        setup = build_task("dubins_parking")
        mode = GradientMode(kind="first_order_bundle", samples=100)
        original = qp._dual_active_set

        def total_iterations(cold):
            total = 0

            def spy(q, G, h, start=()):
                nonlocal total
                out = original(q, G, h, start=() if cold else start)
                total += out[4]
                return out

            monkeypatch.setattr(qp, "_dual_active_set", spy)
            irs_lqr_run(setup.system, setup.mpc, mode, 0.25, ("geometric", 0.8),
                        max_iters=2, seed=0, u_init=setup.u_init)
            return total

        warm, cold = total_iterations(False), total_iterations(True)
        assert warm <= cold / 3, (warm, cold)


def _input_response(lins, j, T):
    """F[i]: knot j + i's response to window j's stacked inputs."""
    n, m = lins.B.shape[1:]
    F = np.zeros((T - j + 1, n, (T - j) * m))
    for t in range(j, T):
        F[t - j + 1] = lins.A[t] @ F[t - j]
        F[t - j + 1, :, (t - j) * m:(t - j + 1) * m] += lins.B[t]
    return F


def _window_hessian(mpc, lins, j):
    """Condensed Hessian of window j, from the inputs' unit responses."""
    T = mpc.horizon
    F = _input_response(lins, j, T)
    hessian = 2.0 * np.kron(np.eye(T - j), mpc.R)
    for i in range(T - j + 1):
        weight = mpc.Q_terminal if i == T - j else mpc.Q
        hessian += 2.0 * F[i].T @ weight @ F[i]
    return hessian


# The headline gates run the plan demo's own settings.
PLAN_DEMO = json.loads((pathlib.Path(__file__).resolve().parents[1]
                        / "demos" / "configs" / "plan_push_1d.json").read_text())
PUSH_SETTINGS = {"cov0": PLAN_DEMO["sigma0"],
                 "schedule": (PLAN_DEMO["schedule"]["policy"], PLAN_DEMO["schedule"]["gamma"]),
                 "max_iters": PLAN_DEMO["max_iters"]}
BUNDLES = ("first_order_bundle", "zero_order_bundle")


def _costs(setup, kind, seed, max_iters=PUSH_SETTINGS["max_iters"]):
    history = irs_lqr_run(setup.system, setup.mpc,
                          GradientMode(kind=kind, samples=PLAN_DEMO["samples"]),
                          seed=seed, u_init=setup.u_init,
                          **{**PUSH_SETTINGS, "max_iters": max_iters})
    return [it.cost for it in history]


def _final_cost(setup, kind, seed, max_iters=PUSH_SETTINGS["max_iters"]):
    return _costs(setup, kind, seed, max_iters)[-1]


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

    # Exact gradients cycle here, between 16.26 and 5.76 on the exact model
    # and between 3.77 and 5.00 on Anitescu's relaxation (the paper's
    # pairing), so its last cost flips with the parity of max_iters: the
    # bundles must end below its best iterate. They end at 0.437 and 0.524
    # against 5.76, and, in 6 iterations, at 0.344 and 0.671 against 3.77.
    @pytest.mark.parametrize("model", ["exact", "anitescu"])
    def test_push_2d_bundles_end_below_exact(self, model):
        setup = build_task("push_2d", {"model": model})
        max_iters = {"exact": 20, "anitescu": 6}[model]
        exact_best = min(_costs(setup, "exact", 0, max_iters))
        for kind in BUNDLES:
            assert _final_cost(setup, kind, 0, max_iters) < exact_best

    def test_penalty_push_exact_stalls_and_bundles_escape(self):
        # The paper's penalty-method claim: push_1d's task on the stiff
        # spring. Exact Jacobians are zero off contact, so exact never
        # moves the box; 8 iterations take both bundles to about 0.31-0.33
        # of exact's cost on these seeds.
        T = 60
        mpc = MpcProblem(horizon=T, Q=np.diag([1.0, 0.0, 0.0]), R=np.array([[1e-4]]),
                         Q_terminal=np.diag([50.0, 0.0, 0.0]),
                         x_desired=np.tile([2.0, 0.0, 0.0], (T + 1, 1)),
                         C_u=np.array([[1.0], [-1.0]]), d_u=np.full(2, 3.0),
                         initial_state=np.array([1.0, 0.0, 0.0]))
        setup = TaskSetup("push_penalty", PenaltyPush1D(normal_stiffness=1e3, h=0.005), mpc,
                          np.zeros((T, 1)))
        exact = _final_cost(setup, "exact", 0, 8)
        assert exact == 110.0
        for seed in range(3):
            for kind in BUNDLES:
                assert _final_cost(setup, kind, seed, 8) <= 0.5 * exact


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
        got = linearize_trajectory(setup.system, xs, us, mode, variance, 5, 3)
        expected = per_knot_linearization(setup.system, xs, us, mode, variance, 5, 3)
        (T, m), n = us.shape, xs.shape[1]
        assert (got.A.shape, got.B.shape, got.c.shape) == ((T, n, n), (T, n, m), (T, n))
        np.testing.assert_array_equal(got.A, expected.A)
        np.testing.assert_array_equal(got.B, expected.B)
        np.testing.assert_array_equal(got.c, expected.c)

    @pytest.mark.parametrize("kind", ["first_order_bundle", "zero_order_bundle"])
    @pytest.mark.parametrize("task", ["quadrotor_hover", "pendulum_swingup"])
    def test_grouping_of_knots_does_not_change_the_model(self, task, kind, monkeypatch):
        # the iteration's one stream gives the same samples in one draw per
        # knot, per group, or for the whole trajectory
        setup, xs, us = self._trajectory(task, {})
        mode = GradientMode(kind=kind, samples=100)
        default = linearize_trajectory(setup.system, xs, us, mode, 0.01, 11, 2)
        for budget in (1, 2**40):                 # one knot per group; one group
            monkeypatch.setattr(irs_lqr, "_BATCH_BYTES", budget)
            got = linearize_trajectory(setup.system, xs, us, mode, 0.01, 11, 2)
            np.testing.assert_array_equal(got.A, default.A)
            np.testing.assert_array_equal(got.B, default.B)
            np.testing.assert_array_equal(got.c, default.c)

    @pytest.mark.parametrize("kind", ["first_order_bundle", "zero_order_bundle"])
    @pytest.mark.parametrize("task", ["quadrotor_hover", "pendulum_swingup", "lti",
                                      "dubins_parking", "push_2d"])
    def test_peak_memory_of_one_linearization(self, task, kind):
        # Each batched call is capped; stacking all 100-sample knots at once
        # reached 5 MB on the quadrotor. All but the quadrotor fit one call.
        import tracemalloc

        setup, xs, us = self._trajectory(task, {})
        mode = GradientMode(kind=kind, samples=100)
        # a first call pays one-time allocations of numpy's random and linalg
        linearize_trajectory(setup.system, xs, us, mode, 0.01, 0, 0)
        tracemalloc.start()
        try:
            linearize_trajectory(setup.system, xs, us, mode, 0.01, 0, 0)
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
        ([9.0, 1.0, np.nan], "diverged"),                        # non-finite last cost
        ([9.0, 1.0, np.inf], "diverged"),
        ([9.0, 1.0, -np.inf], "diverged"),
        ([np.nan], "diverged"),
        ([9.0, np.nan, 1.0, 2.0], None),                         # only the last cost counts
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


class TestTrajectoryCost:
    @pytest.mark.parametrize("asymmetry", [0.0, 1e-11])
    def test_matches_the_per_step_oracle(self, asymmetry):
        # MpcProblem checks symmetry only to allclose, so Q may be off by 1e-11.
        rng = np.random.default_rng(5)
        T, n, m = 20, 3, 2
        mpc = _random_mpc(rng, T, n, m)
        mpc.Q[1, 2] += asymmetry
        mpc = dataclasses.replace(mpc)                  # re-checks Q
        xs, us = rng.standard_normal((T + 1, n)), rng.standard_normal((T, m))
        assert trajectory_cost((xs, us), mpc) == pytest.approx(
            trajectory_cost_loop(xs, us, mpc), rel=1e-13)


class TestOneCostForm:
    """Q and R are one matrix each and the sampling covariance one variance."""

    def test_per_step_costs_rejected(self):
        mpc = build_task("dubins_parking").mpc
        T = mpc.horizon
        for q, r in ((np.tile(mpc.Q, (T, 1, 1)), mpc.R), (mpc.Q, np.tile(mpc.R, (T, 1, 1)))):
            with pytest.raises(ConfigurationError, match="Q must be"):
                dataclasses.replace(mpc, Q=q, R=r)

    def test_covariance_matrix_rejected(self):
        setup = build_task("push_2d")
        with pytest.raises(ConfigurationError, match="scalar variance"):
            irs_lqr_run(setup.system, setup.mpc, GradientMode("first_order_bundle"),
                        0.1 * np.eye(5), max_iters=1)


class TestVarianceSchedule:
    """irs_lqr_run anneals cov0 by its schedule, and checks both before it rolls out."""

    @pytest.mark.parametrize("schedule, decay", [
        ({}, 0.8), ({"schedule": ("geometric", 0.3)}, 0.3),
        ({"schedule": ("constant", None)}, 1.0)], ids=["default", "geometric", "constant"])
    def test_iteration_k_samples_at_decay_to_the_k_times_cov0(self, monkeypatch,
                                                              schedule, decay):
        seen = []

        def spy(sys, xs, us, mode, variance, *args, _original=linearize_trajectory):
            seen.append(variance)
            return _original(sys, xs, us, mode, variance, *args)

        monkeypatch.setattr(irs_lqr, "linearize_trajectory", spy)
        setup, cov0 = build_task("pendulum_swingup"), 0.37
        irs_lqr_run(setup.system, setup.mpc, GradientMode("first_order_bundle", samples=10),
                    cov0, max_iters=6, u_init=setup.u_init, **schedule)
        # bit for bit; the geometric variances are square-summable by this formula
        assert seen == [decay**k * cov0 for k in range(6)]

    @pytest.mark.parametrize("cov0, schedule, bad", [
        (np.nan, ("geometric", 0.8), "cov0"), (np.inf, ("geometric", 0.8), "cov0"),
        (-0.1, ("constant", None), "cov0"), (0.25, ("geometric", 0.0), "schedule"),
        (0.25, ("geometric", 1.0), "schedule"), (0.25, ("geometric", np.nan), "schedule"),
        (0.25, ("linear", 0.8), "schedule"),
    ], ids=["cov0_nan", "cov0_inf", "cov0_negative", "gamma_0", "gamma_1", "gamma_nan",
            "unknown_policy"])
    @pytest.mark.parametrize("kind", ["exact", "first_order_bundle"])
    @pytest.mark.parametrize("max_iters", [0, 3])
    def test_rejected_before_the_first_rollout(self, monkeypatch, cov0, schedule, bad, kind,
                                               max_iters):
        def rollout(*args):
            raise AssertionError("rolled out before checking the schedule")

        monkeypatch.setattr(irs_lqr, "rollout", rollout)
        setup = build_task("push_1d")
        got = re.escape(repr(cov0 if bad == "cov0" else schedule))
        with pytest.raises(ConfigurationError, match=f"^{bad} must be .*, got {got}$"):
            irs_lqr_run(setup.system, setup.mpc, GradientMode(kind), cov0, schedule,
                        max_iters=max_iters, u_init=setup.u_init)


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


class TestInputConstraints:
    """Malformed input rows are rejected when the problem is built, naming the field."""

    @pytest.mark.parametrize("case, match", [
        pytest.param("C_u_three_columns", "C_u must have 1 columns", id="C_u_three_columns"),
        pytest.param("d_u_short", "d_u must have one entry per C_u row", id="d_u_short"),
        pytest.param("C_u_nan", "C_u must be finite", id="C_u_nan"),
        pytest.param("d_u_nan", "d_u must not hold NaN or -inf", id="d_u_nan"),
    ])
    def test_malformed_rows_are_configuration_errors(self, case, match):
        mpc = build_task("push_1d").mpc                # m = 1, rows u <= 3, -u <= 3
        c_u, d_u = mpc.C_u.copy(), mpc.d_u.copy()
        if case == "C_u_three_columns":
            c_u = np.ones((2, 3))
        elif case == "d_u_short":
            d_u = d_u[:1]
        elif case == "C_u_nan":
            c_u[0, 0] = np.nan
        else:
            d_u[1] = np.nan
        with pytest.raises(ConfigurationError, match=match):
            dataclasses.replace(mpc, C_u=c_u, d_u=d_u)

    def test_box_bounds_report_nan_and_pass_infinity(self):
        with pytest.raises(ConfigurationError, match="input bounds must not be NaN"):
            build_task("push_1d", {"command_bound": np.nan})
        # +inf is a row that never binds
        setup = build_task("push_1d", {"command_bound": np.inf})
        np.testing.assert_array_equal(setup.mpc.d_u, [np.inf, np.inf])
        history = irs_lqr_run(setup.system, setup.mpc, GradientMode(), 0.0, max_iters=1,
                              u_init=setup.u_init)
        assert np.isfinite(history[-1].cost)
