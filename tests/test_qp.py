"""Tests for the dense QP solver."""

import numpy as np
import pytest

from bundleopt.errors import ConfigurationError
from bundleopt.qp import QpProblem, _dual_active_set, solve_qp

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


def _start_multipliers(P, q, G, h, rows):
    """Multipliers of the QP with `rows` held as equalities."""
    pig = np.linalg.solve(P, G[rows].T)
    return np.linalg.solve(G[rows] @ pig, G[rows] @ np.linalg.solve(P, -q) - h[rows])


class TestWarmStart:
    """From any start set, the dual active set reaches the cold-start optimum."""

    def test_start_sets_reach_cold_start_solution(self):
        rng = np.random.default_rng(11)
        kinds = dict.fromkeys(["optimal", "superset", "subset", "singular", "empty"], 0)
        for _ in range(60):
            P, q, G, h = _box_and_general_qp(rng)
            n, m = q.shape[0], G.shape[0]
            z0, lam0, optimal, status, _ = _dual_active_set(P, q, G, h)
            assert status == "optimal"
            ref = solve_qp(QpProblem(P=P, q=q, G=G, h=h))
            np.testing.assert_allclose(z0, ref.z, rtol=0.0, atol=1e-10)
            np.testing.assert_allclose(lam0, ref.ineq_duals, rtol=0.0, atol=1e-10)
            # The polish re-solves on the sorted final set: same set, same bits.
            z, lam, _, _, _ = _dual_active_set(P, q, G, h, start=optimal)
            np.testing.assert_array_equal(z, z0)
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
                if np.min(_start_multipliers(P, q, G, h, sorted(superset))) < 0.0:
                    starts["superset"] = superset
                    break
            if optimal:
                starts["subset"] = optimal[:-1]
            starts["singular"] = [2 * n, m - 1]          # a row and its duplicate
            for kind, start in starts.items():
                z, lam, active, status, _ = _dual_active_set(P, q, G, h, start=start)
                assert status == "optimal", kind
                np.testing.assert_allclose(z, z0, rtol=0.0, atol=1e-10, err_msg=kind)
                np.testing.assert_allclose(lam, lam0, rtol=0.0, atol=1e-10, err_msg=kind)
                kinds[kind] += 1
        assert min(kinds.values()) >= 10, kinds

    def test_indefinite_hessian_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            _dual_active_set(np.diag([1.0, -1.0]), np.zeros(2), np.eye(2), np.ones(2))
