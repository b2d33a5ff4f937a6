"""Tests for the dense QP solver."""

import numpy as np
import pytest

from bundleopt import irs_lqr, qp
from bundleopt.errors import ConfigurationError
from bundleopt.qp import QpProblem, _dual_active_set, solve_qp
from bundleopt.systems import LinearizedDynamics

from oracles import enumerate_qp, kkt_residual, qp_problem_accepts, random_qp, solve_eq_qp


class TestConstruction:
    def test_rejects_indefinite_cost(self):
        with pytest.raises(ConfigurationError):
            QpProblem(P=np.diag([1.0, -1.0]), q=np.zeros(2))

    def test_rejects_tiny_eigenvalue(self):
        with pytest.raises(ConfigurationError):
            QpProblem(P=np.diag([1.0, 1e-12]), q=np.zeros(2))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_cost(self, bad):
        with pytest.raises(ConfigurationError, match="P must be finite"):
            QpProblem(P=np.diag([bad, 1.0]), q=np.zeros(2))

    def test_rejects_empty_problem(self):
        with pytest.raises(ConfigurationError, match="at least one variable"):
            QpProblem(P=np.zeros((0, 0)), q=np.zeros(0))

    def test_validation_matches_reference_rule(self):
        # Smallest eigenvalue a hair either side of the 1e-9 threshold, plus
        # asymmetric noise from far inside to far outside the symmetry
        # tolerance: where P's two triangles disagree about definiteness,
        # only a factorization of the lower one agrees with numpy's.
        rng = np.random.default_rng(0)
        count, mismatches, accepted = 2_000, [], 0
        for n in range(1, 6):
            basis = np.linalg.qr(rng.standard_normal((count, n, n)))[0]
            eigs = rng.uniform(0.1, 3.0, (count, n))
            gap = rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-16, -6, count)
            eigs[:, 0] = 1e-9 + gap
            scale = 10.0 ** rng.uniform(-13, -4, (count, 1, 1))
            noise = rng.standard_normal((count, n, n)) * scale
            for i, P in enumerate((basis * eigs[:, None, :]) @ basis.transpose(0, 2, 1) + noise):
                want = qp_problem_accepts(P)
                try:
                    QpProblem(P=P, q=np.zeros(n))
                    got = True
                except ConfigurationError:
                    got = False
                if got != want:
                    mismatches.append((n, i))
                accepted += want
        assert mismatches == []
        assert 2_000 < accepted < 8_000

    def test_rejects_mismatched_rows(self):
        with pytest.raises(ConfigurationError):
            QpProblem(P=np.eye(2), q=np.zeros(2), G=np.ones((2, 2)), h=np.ones(3))

    def test_rejects_lonely_g(self):
        with pytest.raises(ConfigurationError):
            QpProblem(P=np.eye(2), q=np.zeros(2), G=np.ones((1, 2)))


class TestSolve:
    def test_unconstrained(self):
        prob = QpProblem(P=np.eye(2), q=np.array([-2.0, -4.0]))
        sol = solve_qp(prob)
        np.testing.assert_allclose(sol.z, [2.0, 4.0], atol=1e-12)
        assert sol.status == "optimal"
        assert kkt_residual(prob.P, prob.q, prob.G, prob.h, sol.z, sol.ineq_duals) <= 1e-10

    def test_single_bound(self):
        # min z^2/2 - 2z st z <= 1: optimum pinned at the bound, dual = 1
        sol = solve_qp(QpProblem(P=np.array([[1.0]]), q=np.array([-2.0]),
                                 G=np.array([[1.0]]), h=np.array([1.0])))
        assert sol.z[0] == pytest.approx(1.0, abs=1e-12)
        assert sol.ineq_duals[0] == pytest.approx(1.0, abs=1e-12)

    def test_contradictory_constraints(self):
        sol = solve_qp(QpProblem(P=np.array([[1.0]]), q=np.array([0.0]),
                                 G=np.array([[1.0], [-1.0]]), h=np.array([0.0, -1.0])))
        assert sol.status == "infeasible"

    def test_equality_only(self):
        sol = solve_eq_qp(np.eye(2), np.zeros(2), None, None,
                          np.array([[1.0, 1.0]]), np.array([2.0]))
        np.testing.assert_allclose(sol.z, [1.0, 1.0], atol=1e-12)
        assert sol.eq_duals.shape == (1,)

    def test_inconsistent_equalities_infeasible(self):
        sol = solve_eq_qp(np.eye(2), np.zeros(2), None, None,
                          np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([1.0, 3.0]))
        assert sol.status == "infeasible"

    def test_duals_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            P, q, G, h, A, b = random_qp(rng)
            sol = solve_qp(QpProblem(P=P, q=q, G=G, h=h))
            if sol.status == "optimal":
                assert np.min(sol.ineq_duals) >= -1e-8


class TestInverseMemo:
    """P's checks and factor W = L^{-1} are memoized on P's bytes: hits must equal fresh work."""

    def test_factor_is_the_read_only_inverse_of_cholesky(self, monkeypatch):
        factors = []

        def spy(*args, _original=qp._factor):
            factors.append(_original(*args))
            return factors[-1]

        qp._factor.cache_clear()
        monkeypatch.setattr(qp, "_factor", spy)
        P = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
        for _ in range(2):                 # a miss, then a hit
            solve_qp(QpProblem(P=P, q=np.ones(3)))
        assert len(factors) == 4           # QpProblem's check and solve_qp, twice
        for factor in factors:
            assert not factor.flags.writeable
            np.testing.assert_array_equal(factor.view(np.int64),
                                          np.linalg.inv(np.linalg.cholesky(P)).view(np.int64))

    def test_writing_into_p_after_a_solve_solves_the_new_p(self):
        # Square diagonals keep the factor, and so the solution, exact.
        prob = QpProblem(P=np.diag([4.0, 16.0]), q=np.array([-4.0, -16.0]))
        np.testing.assert_array_equal(solve_qp(prob).z, [1.0, 1.0])
        prob.P[0, 0] = 16.0
        np.testing.assert_array_equal(solve_qp(prob).z, [0.25, 1.0])

    def test_an_invalid_p_raises_every_time(self):
        good, bad = np.eye(2), np.diag([1.0, -1.0])
        for _ in range(3):
            QpProblem(P=good, q=np.zeros(2))
            with pytest.raises(ConfigurationError, match="positive definite"):
                QpProblem(P=bad, q=np.zeros(2))
            with pytest.raises(ConfigurationError, match="symmetric"):
                QpProblem(P=np.array([[1.0, 0.5], [0.0, 1.0]]), q=np.zeros(2))

    def test_contact_probe_factors_p_once(self, monkeypatch):
        # The benchmark's contact probe: 81 commands, 13 x 13 nodes each,
        # every node a QP with the same P.
        from bundleopt import contact
        from bundleopt.oracle import gauss_hermite_expectation
        from bundleopt.smoothing import SmoothingDistribution

        calls = {"inv": 0, "cholesky": 0}
        for name in calls:
            def spy(*args, _name=name, _original=getattr(np.linalg, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(np.linalg, name, spy)
        qp._factor.cache_clear()
        params, state = contact.Contact2DParams(), contact.Contact2DState(0.0, 0.0, 0.7)
        dist = SmoothingDistribution.isotropic(2, 0.06)

        def box_next(c):
            return contact.step_2d_anitescu(state, (float(c[0]), float(c[1])), params)[0].xu

        for cx in np.linspace(-0.4, 0.6, 9):
            for cy in np.linspace(0.45, 0.85, 9):
                gauss_hermite_expectation(box_next, np.array([cx, cy]), dist, 13)
        # one Cholesky checks P - 1e-9 I, one factors P, and one inverse gives W
        assert calls == {"inv": 1, "cholesky": 2}


class TestKktResidual:
    def test_exact_optimum_is_tiny(self):
        prob = QpProblem(P=np.array([[1.0]]), q=np.array([-2.0]),
                         G=np.array([[1.0]]), h=np.array([1.0]))
        sol = solve_qp(prob)
        assert kkt_residual(prob.P, prob.q, prob.G, prob.h, sol.z, sol.ineq_duals) <= 1e-10

    def test_perturbed_point_is_flagged(self):
        prob = QpProblem(P=np.array([[1.0]]), q=np.array([-2.0]),
                         G=np.array([[1.0]]), h=np.array([1.0]))
        sol = solve_qp(prob)
        assert kkt_residual(prob.P, prob.q, prob.G, prob.h,
                            sol.z + 1e-3, sol.ineq_duals) >= 1e-4

    def test_dimension_check(self):
        with pytest.raises(ConfigurationError):
            kkt_residual(np.eye(2), np.zeros(2), None, None, np.zeros(3), np.zeros(0))


class TestOracleEquivalence:
    def test_random_problems_match_enumeration(self):
        rng = np.random.default_rng(7)
        solved = infeasible = 0
        for trial in range(150):
            P, q, G, h, A, b = random_qp(rng, with_equalities=trial % 3 == 0)
            if A is None:
                sol, nu = solve_qp(QpProblem(P=P, q=q, G=G, h=h)), None
            else:
                sol = solve_eq_qp(P, q, G, h, A, b)
                nu = sol.eq_duals
            ref = enumerate_qp(P, q, G, h, A, b)
            if ref is None:
                assert sol.status == "infeasible"
                infeasible += 1
                continue
            assert sol.status == "optimal"
            assert np.max(np.abs(sol.z - ref[1])) <= 1e-5
            assert kkt_residual(P, q, G, h, sol.z, sol.ineq_duals, A, b, nu) <= 1e-6
            solved += 1
        assert solved > 80 and infeasible > 5


def _box_and_general_qp(rng):
    """Strictly convex QP with a box |z| <= 0.5, general rows, and a
    duplicate of the first general row; feasible by construction."""
    n = int(rng.integers(3, 7))
    M = rng.standard_normal((n, n))
    P = M.T @ M + np.eye(n)
    q = 3.0 * rng.standard_normal(n)
    general = rng.standard_normal((4, n))
    G = np.vstack([np.eye(n), -np.eye(n), general, general[:1]])
    h_general = general @ rng.uniform(-0.4, 0.4, n) + rng.uniform(0.0, 0.5, 4)
    h = np.concatenate([np.full(2 * n, 0.5), h_general, h_general[:1]])
    return P, q, G, h


def _least_distance(P, q, G):
    """(Wq, GW', W) of the QP with Hessian P = (W'W)^{-1}: the active set's own form."""
    W = np.linalg.inv(np.linalg.cholesky(P))
    return W @ q, G @ W.T, W


def _start_multipliers(q, G, h, rows):
    """Multipliers of the least-distance QP with `rows` held as equalities."""
    g = G[rows]
    return np.linalg.solve(g @ g.T, -g @ q - h[rows])


class TestWarmStart:
    """From any start set, the dual active set reaches the cold-start optimum."""

    def test_start_sets_reach_cold_start_solution(self):
        rng = np.random.default_rng(11)
        kinds = dict.fromkeys(["optimal", "superset", "subset", "singular", "empty"], 0)
        for _ in range(60):
            P, q, G, h = _box_and_general_qp(rng)
            n, m = q.shape[0], G.shape[0]
            qy, Gy, W = _least_distance(P, q, G)
            y0, lam0, optimal, status, _ = _dual_active_set(qy, Gy, h)
            assert status == "optimal"
            ref = solve_qp(QpProblem(P=P, q=q, G=G, h=h))
            np.testing.assert_allclose(W.T @ y0, ref.z, rtol=0.0, atol=1e-10)
            np.testing.assert_allclose(lam0, ref.ineq_duals, rtol=0.0, atol=1e-10)
            # The polish re-solves on the sorted final set: same set, same bits.
            y, lam, _, _, _ = _dual_active_set(qy, Gy, h, start=optimal)
            np.testing.assert_array_equal(y, y0)
            np.testing.assert_array_equal(lam, lam0)
            starts = {"optimal": optimal, "empty": []}
            # Add inactive rows other than the duplicate, never both sides
            # of one box coordinate, until a start multiplier is negative.
            boxed = {i % n for i in optimal if i < 2 * n}
            superset = list(optimal)
            for i in map(int, rng.permutation(m - 1)):
                if i in superset or (i < 2 * n and i % n in boxed) or len(superset) >= n:
                    continue
                superset.append(i)
                if i < 2 * n:
                    boxed.add(i % n)
                if np.min(_start_multipliers(qy, Gy, h, sorted(superset))) < 0.0:
                    starts["superset"] = superset
                    break
            if optimal:
                starts["subset"] = optimal[:-1]
            starts["singular"] = [2 * n, m - 1]          # a row and its duplicate
            for kind, start in starts.items():
                y, lam, active, status, _ = _dual_active_set(qy, Gy, h, start=start)
                assert status == "optimal", kind
                np.testing.assert_allclose(y, y0, rtol=0.0, atol=1e-10, err_msg=kind)
                np.testing.assert_allclose(lam, lam0, rtol=0.0, atol=1e-10, err_msg=kind)
                kinds[kind] += 1
        assert min(kinds.values()) >= 10, kinds

    def test_polish_runs_only_when_the_set_changes(self, monkeypatch):
        # A start set kept whole is solved on the polish's own operands.
        calls = []

        def spy(*args, _original=qp._polish):
            calls.append(args[3])
            return _original(*args)

        monkeypatch.setattr(qp, "_polish", spy)
        rng = np.random.default_rng(12)
        kinds = dict.fromkeys(["optimal", "subset", "superset", "cold"], 0)
        for _ in range(40):
            P, q, G, h = _box_and_general_qp(rng)
            n = q.shape[0]
            qy, Gy, _ = _least_distance(P, q, G)
            calls.clear()
            y0, lam0, optimal, status, _ = _dual_active_set(qy, Gy, h)
            assert status == "optimal" and len(calls) == 1
            kinds["cold"] += 1
            if not optimal:
                continue
            starts = {"optimal": optimal, "subset": optimal[:-1]}
            for i in range(G.shape[0] - 1):
                superset = sorted(optimal + [i])
                if (i not in optimal and len(superset) <= n
                        and np.linalg.matrix_rank(G[superset]) == len(superset)
                        and np.min(_start_multipliers(qy, Gy, h, superset)) < 0.0):
                    starts["superset"] = superset
                    break
            for kind, start in starts.items():
                calls.clear()
                y, lam, active, status, _ = _dual_active_set(qy, Gy, h, start=start)
                assert status == "optimal" and active == optimal, kind
                assert len(calls) == (0 if kind == "optimal" else 1), kind
                if kind == "optimal":
                    np.testing.assert_array_equal(y, y0)
                    np.testing.assert_array_equal(lam, lam0)
                kinds[kind] += 1
        assert min(kinds.values()) >= 10, kinds

    def test_indefinite_hessian_raises(self):
        # The active set factors no Hessian: its callers do.
        with pytest.raises(ConfigurationError, match="positive definite"):
            QpProblem(P=np.diag([1.0, -1.0]), q=np.zeros(2), G=np.eye(2), h=np.ones(2))
        T, n, m = 3, 2, 1
        mpc = irs_lqr.MpcProblem(horizon=T, Q=np.zeros((n, n)), R=np.eye(m),
                                 Q_terminal=np.zeros((n, n)), x_desired=np.zeros((T + 1, n)),
                                 C_u=np.ones((1, m)), d_u=np.ones(1))
        mpc.R = -np.eye(m)                 # past MpcProblem's own check
        lins = LinearizedDynamics(A=np.broadcast_to(np.eye(n), (T, n, n)),
                                  B=np.ones((T, n, m)), c=np.zeros((T, n)))
        with pytest.raises(np.linalg.LinAlgError):
            irs_lqr._CondensedHorizon(mpc, lins)
