"""Tests for the contact models."""

import itertools
import math

import numpy as np
import pytest

from bundleopt import contact, qp
from bundleopt.contact import (Contact1DParams, Contact2DParams, Contact2DState,
                               ContactPush1D, ContactPush2D, PenaltyParams, PenaltyPush1D,
                               _anitescu_2d, _cone_mode, _mode_jacobians, penalty_forces,
                               step_2d_anitescu, step_2d_exact)
from bundleopt.errors import ConfigurationError, DivergedError
from bundleopt.irs_lqr import GradientMode, linearize_trajectory, rollout
from bundleopt.oracle import gauss_hermite_expectation
from bundleopt.smoothing import (SmoothingDistribution, bundled_objective_estimate,
                                 jacobian_bundle_first_order, jacobian_bundle_zero_order)
from bundleopt.tasks import build_task

from oracles import finite_difference_jacobians, kkt_residual, lcp_oracle_1d, residuals_1d
from test_systems import assert_batch_rows_match

P1 = Contact1DParams(m=1.0, h=0.1, k=100.0)        # c_ratio = 1
P2 = Contact2DParams(m=1.0, h=0.1, k=100.0, mu=0.5,
                     box_half_width=0.25, sphere_radius=0.1)


def _boundary_layer_bound(state, relaxed_next):
    """(mu^2/c)|slip| of a relaxed step: how far its box may move beyond the exact model's.

    While sliding the sphere rides mu*|slip| above the face, so its spring
    presses hk*mu*|slip| harder and saturated friction carries the box
    (mu^2/c)*|slip| further.
    """
    slip = (relaxed_next.xa - state.xa) - (relaxed_next.xu - state.xu)
    return P2.mu**2 / P2.c_ratio * abs(slip)


def _push_1d(xu, xa, command):
    """ContactPush1D's step of one row, as (xu', xa', impulse, mode).

    The impulse on the box is its momentum gain m (xu' - xu) / h; the mode
    is "contact" when the command reaches the box (right-sided, as the
    system's Jacobians).
    """
    (xu_next, xa_next), = ContactPush1D(P1).step_batch(np.array([[xu, xa]]),
                                                       np.array([[command]])).tolist()
    return (xu_next, xa_next, P1.m * (xu_next - xu) / P1.h,
            "contact" if command >= xu else "separation")


class TestStep1D:
    def test_no_contact(self):
        xu, xa, impulse, mode = _push_1d(1.0, 0.0, 0.5)
        assert (xu, xa) == (1.0, 0.5)
        assert impulse == 0.0
        assert mode == "separation"

    def test_contact_blend(self):
        xu, xa, impulse, _ = _push_1d(1.0, 0.0, 1.5)
        assert xu == pytest.approx(1.25, abs=1e-12)
        assert xa == pytest.approx(1.25, abs=1e-12)
        assert impulse > 0.0

    def test_boundary_continuity(self):
        lo = _push_1d(1.0, 0.3, 1.0 - 1e-9)
        hi = _push_1d(1.0, 0.3, 1.0 + 1e-9)
        assert abs(lo[0] - hi[0]) <= 1e-8
        assert abs(lo[1] - hi[1]) <= 1e-8

    def test_defining_equation_residuals(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            xu, xa, cmd = rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-3, 3)
            xu_next, xa_next, impulse, _ = _push_1d(xu, xa, cmd)
            res = residuals_1d(xu, cmd, xu_next, xa_next, impulse, P1)
            assert all(v <= 1e-10 for v in res.values()), res

    def test_matches_lcp_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(2000):
            xu, xa = rng.uniform(-2, 2), rng.uniform(-2, 2)
            cmd = rng.uniform(-3, 3)
            xu_next, xa_next, impulse, mode = _push_1d(xu, xa, cmd)
            xu_ref, xa_ref, lam_ref, mode_ref = lcp_oracle_1d(xu, xa, cmd,
                                                              P1.m, P1.h, P1.k)
            assert mode == mode_ref
            assert abs(xu_next - xu_ref) <= 1e-12
            assert abs(xa_next - xa_ref) <= 1e-12
            assert abs(impulse - lam_ref) <= 1e-10

    def test_piecewise_affine_within_mode(self):
        # outputs are affine along command segments that stay in one mode
        for lo_cmd, hi_cmd in ((1.1, 2.9), (-2.5, 0.9)):
            a = _push_1d(1.0, 0.0, lo_cmd)
            b = _push_1d(1.0, 0.0, hi_cmd)
            for t in (0.25, 0.5, 0.75):
                cmd = (1 - t) * lo_cmd + t * hi_cmd
                mid = _push_1d(1.0, 0.0, cmd)
                assert abs(mid[0] - ((1 - t) * a[0] + t * b[0])) <= 1e-10
                assert abs(mid[1] - ((1 - t) * a[1] + t * b[1])) <= 1e-10


class TestStep2DExact:
    def test_far_command_leaves_box(self):
        state = Contact2DState(0.0, 0.0, 0.7)
        nxt, diag = step_2d_exact(state, (0.3, 0.9), P2)
        assert diag.mode == "separation"
        assert nxt.xu == 0.0
        # flat in the pressing direction while separated
        nxt2, _ = step_2d_exact(state, (0.3, 0.95), P2)
        assert nxt2.xu == nxt.xu

    def test_sticking_moves_together(self):
        state = Contact2DState(0.0, 0.0, 0.7)
        nxt, diag = step_2d_exact(state, (0.02, 0.5), P2)
        assert diag.mode == "sticking"
        assert nxt.xu == pytest.approx(nxt.xa - 0.0, abs=1e-12)
        # hand-solved sticking system: delta = (cmd - xa) / (1 + c)
        assert nxt.xu == pytest.approx(0.02 / 2.0, abs=1e-12)
        assert abs(diag.lambda_t) <= P2.mu * diag.lambda_n + 1e-12

    def test_sliding_saturates_friction_cone(self):
        state = Contact2DState(0.0, 0.0, 0.7)
        nxt, diag = step_2d_exact(state, (0.3, 0.5), P2)
        assert diag.mode == "sliding_up"
        assert abs(diag.lambda_t) == pytest.approx(P2.mu * diag.lambda_n, abs=1e-12)
        assert nxt.xu > 0.0

    def test_complementarity_residuals_random(self):
        rng = np.random.default_rng(2)
        for _ in range(2000)   :
            state = Contact2DState(rng.uniform(-1, 1), rng.uniform(-1, 1),
                                   rng.uniform(0.3, 1.2))
            cmd = (rng.uniform(-1.5, 1.5), rng.uniform(0.0, 1.2))
            nxt, diag = step_2d_exact(state, cmd, P2)
            assert diag.lambda_n >= -1e-10
            assert diag.gap >= -1e-10
            assert abs(diag.lambda_n * diag.gap) <= 1e-10
            assert abs(diag.lambda_t) <= P2.mu * diag.lambda_n + 1e-9

    def test_mode_boundary_continuity(self):
        state = Contact2DState(0.0, 0.0, 0.7)
        y_c = P2.contact_height
        eps = 1e-9
        # separation <-> contact boundary in the pressing command
        lo, _ = step_2d_exact(state, (0.2, y_c - eps), P2)
        hi, _ = step_2d_exact(state, (0.2, y_c + eps), P2)
        for attr in ("xu", "xa", "ya"):
            assert abs(getattr(lo, attr) - getattr(hi, attr)) <= 1e-8
        # sticking <-> sliding boundary in the tangential command: at the
        # cone boundary |lam_t| = mu*lam_n both systems coincide
        lam_n = P2.h * P2.k * (y_c - 0.5)
        cmd_boundary = (1.0 + P2.c_ratio) * P2.mu * lam_n * P2.h / P2.m
        lo, dlo = step_2d_exact(state, (cmd_boundary - 1e-9, 0.5), P2)
        hi, dhi = step_2d_exact(state, (cmd_boundary + 1e-9, 0.5), P2)
        assert {dlo.mode, dhi.mode} <= {"sticking", "sliding_up"}
        assert dlo.mode != dhi.mode
        for attr in ("xu", "xa", "ya"):
            assert abs(getattr(lo, attr) - getattr(hi, attr)) <= 1e-8

    def test_piecewise_affine_within_mode(self):
        state = Contact2DState(0.0, 0.0, 0.7)
        segs = [((0.0, 0.9), (0.5, 1.1)),       # separation
                ((0.005, 0.5), (0.015, 0.55)),  # sticking
                ((0.4, 0.45), (0.8, 0.55))]     # sliding_up
        for (c0, c1) in segs:
            a, da = step_2d_exact(state, c0, P2)
            b, db = step_2d_exact(state, c1, P2)
            assert da.mode == db.mode
            for t in (0.3, 0.6):
                cmd = tuple((1 - t) * np.array(c0) + t * np.array(c1))
                mid, dm = step_2d_exact(state, cmd, P2)
                assert dm.mode == da.mode
                for attr in ("xu", "xa", "ya"):
                    interp = (1 - t) * getattr(a, attr) + t * getattr(b, attr)
                    assert abs(getattr(mid, attr) - interp) <= 1e-10


class TestStep2DAnitescu:
    def test_deep_separation_identical_to_exact(self):
        state = Contact2DState(0.0, 0.0, 1.0)
        cmd = (0.1, 1.1)
        ex, _ = step_2d_exact(state, cmd, P2)
        re, diag = step_2d_anitescu(state, cmd, P2)
        assert diag.mode == "separation"
        for attr in ("xu", "xa", "ya"):
            assert getattr(re, attr) == pytest.approx(getattr(ex, attr), abs=1e-9)

    def test_sticking_matches_exact(self):
        state = Contact2DState(0.0, 0.0, 0.7)
        for cmd in ((0.02, 0.5), (-0.015, 0.45), (0.0, 0.55)):
            ex, de = step_2d_exact(state, cmd, P2)
            re, dr = step_2d_anitescu(state, cmd, P2)
            assert de.mode == dr.mode == "sticking"
            for attr in ("xu", "xa", "ya"):
                assert getattr(re, attr) == pytest.approx(getattr(ex, attr), abs=1e-6)
            assert dr.lambda_n == pytest.approx(de.lambda_n, abs=1e-6)

    def test_boundary_layer_drags_at_distance(self):
        # small positive gap + tangential command: the exact model leaves
        # the box alone, the relaxed one drags it
        state = Contact2DState(0.0, 0.0, P2.contact_height + 0.02)
        cmd = (0.4, state.ya)
        ex, de = step_2d_exact(state, cmd, P2)
        re, dr = step_2d_anitescu(state, cmd, P2)
        assert de.mode == "separation" and ex.xu == 0.0
        assert abs(re.xu) > 1e-4

    def test_box_within_boundary_layer_of_exact(self):
        rng = np.random.default_rng(2)
        tight = 0
        for _ in range(2000):
            state = Contact2DState(rng.uniform(-1, 1), rng.uniform(-1, 1),
                                   rng.uniform(0.3, 1.2))
            cmd = (rng.uniform(-1.5, 1.5), rng.uniform(0.0, 1.2))
            ex, _ = step_2d_exact(state, cmd, P2)
            re, _ = step_2d_anitescu(state, cmd, P2)
            bound = _boundary_layer_bound(state, re)
            assert abs(re.xu - ex.xu) <= bound + 1e-12
            tight += bound > 1e-3 and abs(re.xu - ex.xu) >= bound - 1e-9
        assert tight > 100

    def test_step_satisfies_its_qp_kkt_conditions(self):
        # The step's QP as its docstring states it, checked at the returned
        # displacement and at the cone multipliers the impulses imply.
        rng = np.random.default_rng(4)
        hk, mu = P2.h * P2.k, P2.mu
        P = np.diag([P2.m / P2.h, hk, hk])
        G = np.array([[mu, -mu, -1.0], [-mu, mu, -1.0]])
        modes = set()
        for _ in range(500):
            state = Contact2DState(rng.uniform(-1, 1), rng.uniform(-1, 1),
                                   rng.uniform(0.3, 1.2))
            cx, cy = rng.uniform(-1.5, 1.5), rng.uniform(0.0, 1.2)
            nxt, diag = step_2d_anitescu(state, (cx, cy), P2)
            q = np.array([0.0, -hk * (cx - state.xa), -hk * (cy - state.ya)])
            h = np.full(2, state.ya - P2.contact_height)
            dq = np.array([nxt.xu - state.xu, nxt.xa - state.xa, nxt.ya - state.ya])
            lam = np.array([diag.lambda_n + diag.lambda_t / mu,
                            diag.lambda_n - diag.lambda_t / mu]) / 2.0
            assert kkt_residual(P, q, G, h, dq, lam) <= 1e-9 * max(1.0, diag.lambda_n)
            dual_tol = 1e-9 * max(1.0, diag.lambda_n)
            active = tuple(bool(v) for v in lam > dual_tol)
            expected = {(False, False): "separation", (True, True): "sticking",
                        (False, True): "sliding_up", (True, False): "sliding_down"}[active]
            assert diag.mode == expected
            modes.add(diag.mode)
        assert modes == {"separation", "sticking", "sliding_up", "sliding_down"}

    def test_returns_python_floats(self):
        # as step_2d_exact does, in every mode: no numpy scalars leak out
        state = Contact2DState(0.0, 0.0, 0.7)
        modes = set()
        for cmd in ((0.1, 1.1), (0.02, 0.5), (0.6, 0.5), (-0.6, 0.5)):
            nxt, diag = step_2d_anitescu(state, cmd, P2)
            values = (nxt.xu, nxt.xa, nxt.ya, diag.lambda_n, diag.lambda_t, diag.gap)
            assert [type(v) for v in values] == [float] * 6
            modes.add(diag.mode)
        assert modes == {"separation", "sticking", "sliding_up", "sliding_down"}

    def test_impulses_come_from_duals(self):
        state = Contact2DState(0.0, 0.0, 0.7)
        _, diag = step_2d_anitescu(state, (0.3, 0.5), P2)
        assert diag.lambda_n > 0.0
        assert abs(diag.lambda_t) <= P2.mu * diag.lambda_n + 1e-9


class TestBundledContactSimilarity:
    def test_bundled_surfaces_close_and_informative(self):
        # quadrature-smoothed next box position of the exact vs relaxed
        # models over probes spanning all modes
        state = Contact2DState(0.0, 0.0, 0.7)
        sigma = 0.06
        dist = SmoothingDistribution.isotropic(2, sigma)
        y_c = P2.contact_height
        probes = [(cx, cy) for cx in np.linspace(-0.4, 0.6, 5)
                  for cy in np.linspace(y_c - 0.15, y_c + 0.1, 5)]

        def bundled(model, cmd, read=lambda nxt: nxt.xu):
            # every quadrature node in one batch, as contact-probe steps them
            system = ContactPush2D(P2, model=model)

            def f(cmds):
                xs = np.tile([state.xu, state.xa, state.ya], (len(cmds), 1))
                return read(Contact2DState(*system.step_batch(xs, cmds).T))
            f.vectorized = True
            return gauss_hermite_expectation(f, np.array(cmd), dist, 41)

        vals_exact = np.array([bundled("exact", c) for c in probes])
        vals_relax = np.array([bundled("anitescu", c) for c in probes])
        # the pointwise bound on how far a relaxed box may lie beyond the exact one
        bounds = np.array([bundled("anitescu", c,
                                   lambda nxt: _boundary_layer_bound(state, nxt))
                           for c in probes])
        dynamic_range = vals_exact.max() - vals_exact.min()
        assert dynamic_range > 0.01
        # positive quadrature weights carry the pointwise bound over
        gaps = np.abs(vals_exact - vals_relax)
        assert np.all(gaps <= bounds + 1e-12)
        # in deep contact both models slide or stick together nearly
        # everywhere, so the bound is attained
        cys = np.array([cy for _, cy in probes])
        deep = cys == cys.min()
        assert np.all(gaps[deep] >= 0.9 * bounds[deep])

        # separated probe: zero exact gradient but negative bundled slope
        # in the pressing direction (dragging happens in expectation)
        probe = (0.45, y_c + 0.05)
        sys_exact = ContactPush2D(P2, model="exact")
        _, (b,) = sys_exact.jacobians_batch(np.array([[state.xu, state.xa, state.ya]]),
                                            np.array([probe]))
        assert b[0, 1] == 0.0
        delta = sigma / 10.0
        for model in ("exact", "anitescu"):
            up = bundled(model, (probe[0], probe[1] + delta))
            dn = bundled(model, (probe[0], probe[1] - delta))
            assert (up - dn) / (2 * delta) < -1e-3


class TestPenaltyForces:
    PP = PenaltyParams(k_n=100.0, viscous_slope=10.0, psi_s=0.1, mu_d=0.5)

    def test_separation_no_force(self):
        f_n, f_t = penalty_forces(0.1, 0.0, self.PP)
        assert f_n == 0.0 and f_t == 0.0

    def test_penetration_spring(self):
        f_n, f_t = penalty_forces(-0.01, 0.0, self.PP)
        assert f_n == pytest.approx(1.0, abs=1e-12)
        assert f_t == 0.0

    def test_friction_opposes_slip(self):
        f_n, f_t = penalty_forces(-0.01, 0.05, self.PP)
        assert f_t < 0.0
        f_n, f_t2 = penalty_forces(-0.01, -0.05, self.PP)
        assert f_t2 == pytest.approx(-f_t, abs=1e-12)

    def test_stribeck_jump(self):
        eps = 1e-9
        _, f_lo = penalty_forces(-0.01, self.PP.psi_s - eps, self.PP)
        _, f_hi = penalty_forces(-0.01, self.PP.psi_s + eps, self.PP)
        expected_jump = (self.PP.viscous_slope * self.PP.psi_s - self.PP.mu_d) * 1.0
        assert abs(f_lo - f_hi) == pytest.approx(expected_jump, rel=1e-6)

    def test_continuous_configuration_has_no_jump(self):
        pp = PenaltyParams(k_n=100.0, viscous_slope=0.5 / 0.1, psi_s=0.1, mu_d=0.5)
        assert pp.viscous_slope * pp.psi_s - pp.mu_d == pytest.approx(0.0, abs=1e-12)
        eps = 1e-9
        _, f_lo = penalty_forces(-0.01, pp.psi_s - eps, pp)
        _, f_hi = penalty_forces(-0.01, pp.psi_s + eps, pp)
        assert abs(f_lo - f_hi) <= 1e-6


def smoothed_penalty_forces(phi, psi, params, dist, n, seed):
    """Bundled (f_n, f_t) at (phi, psi): the generic estimator on each force.

    Both calls draw the same samples from `seed`, over the 2D (phi, psi)
    distribution `dist`.
    """
    def bundled(k):
        def force(points):
            return penalty_forces(points[:, 0], points[:, 1], params)[k]
        force.vectorized = True
        return bundled_objective_estimate(force, [phi, psi], dist, n, seed)
    return bundled(0), bundled(1)


class TestSmoothedPenaltyForces:
    PP = PenaltyParams(k_n=100.0, viscous_slope=10.0, psi_s=0.1, mu_d=0.5)

    def test_force_at_distance(self):
        sigma = 0.05
        dist = SmoothingDistribution([sigma**2, 0.02**2])
        f_n, _ = smoothed_penalty_forces(sigma, 0.0, self.PP, dist, 10000, seed=3)
        assert f_n.value > 0.0

    def test_zero_variance_reduces_to_plain_forces(self):
        dist = SmoothingDistribution(np.zeros(2))
        f_n, f_t = smoothed_penalty_forces(-0.01, 0.05, self.PP, dist, 100, seed=0)
        ref_n, ref_t = penalty_forces(-0.01, 0.05, self.PP)
        assert f_n.value == pytest.approx(ref_n, rel=1e-14)
        assert f_t.value == pytest.approx(ref_t, rel=1e-14)

    def test_stribeck_jump_removed(self):
        sigma_psi = 0.03
        dist = SmoothingDistribution([0.02**2, sigma_psi**2])
        eps = sigma_psi / 10.0
        n = 10**4
        lo = smoothed_penalty_forces(-0.01, self.PP.psi_s - eps, self.PP, dist, n, seed=5)[1]
        hi = smoothed_penalty_forces(-0.01, self.PP.psi_s + eps, self.PP, dist, n, seed=6)[1]
        bound = 4.0 * np.sqrt((lo.empirical_variance + hi.empirical_variance) / n)
        # also allow the smooth change of the bundled force over 2*eps
        assert abs(lo.value - hi.value) <= bound + 0.1 * abs(lo.value)


class TestPenaltyStep:
    PARAMS = dict(box_mass=1.0, normal_stiffness=1e4,
                  robot_stiffness=100.0, robot_damping=10.0)

    def test_no_contact_stationary(self):
        state = np.array([1.0, 0.0, 0.0])
        nxt = PenaltyPush1D(**self.PARAMS, h=0.001).step(state, [0.0])
        np.testing.assert_allclose(nxt, state, atol=1e-12)

    def test_static_penetration_equilibrium(self):
        # heavy box: the robot settles where spring force = k_n * depth
        params = dict(self.PARAMS, box_mass=1e6)
        system = PenaltyPush1D(**params, h=0.0005)
        state = np.array([0.0, 0.0, -0.1])
        for _ in range(40000):
            state = system.step(state, [0.5])
        depth = state[2] - state[0]
        spring = params["robot_stiffness"] * (0.5 - state[2])
        assert depth > 0.0
        assert depth == pytest.approx(spring / params["normal_stiffness"], rel=1e-3)

    def test_momentum_balance_over_episode(self):
        h = 0.0005                       # h*sqrt(k_n/m) = 0.05
        system = PenaltyPush1D(**self.PARAMS, h=h)
        state = np.array([0.2, 0.0, 0.0])
        impulse = 0.0
        for _ in range(4000):
            gap = state[0] - state[2]
            f_n = -self.PARAMS["normal_stiffness"] * min(gap, 0.0)
            impulse += h * f_n
            state = system.step(state, [1.0])
        momentum_gain = self.PARAMS["box_mass"] * state[1]
        assert momentum_gain > 0.0
        assert momentum_gain == pytest.approx(impulse, rel=0.02)

    def test_defaults_keep_the_servo_step_stable_in_contact(self):
        system = PenaltyPush1D()
        assert system.h * system.normal_stiffness / system.robot_damping < 2.0
        # in contact the step is linear; penetration must not grow
        (a,), _ = system.jacobians_batch(np.array([[0.0, 0.0, 1e-3]]), np.array([[0.5]]))
        assert np.max(np.abs(np.linalg.eigvals(a))) < 1.0

    def test_divergence_detected(self):
        system = PenaltyPush1D(**dict(self.PARAMS, box_mass=0.001, normal_stiffness=1e6),
                               h=0.05)
        state = np.array([0.0, 0.0, 0.5])   # deep penetration, stiff spring
        with pytest.raises(DivergedError):
            for _ in range(2000):
                state = system.step(state, [0.5])


class TestPenaltyJacobianBundles:
    """The penalty method's fast-changing gradient, tamed by both Jacobian bundles.

    At PenaltyPush1D's defaults (k_n = 1e4, m = 1, h = 0.002) the exact
    d xu'/d xa jumps from 0 to h^2 k_n / m = 0.04 as the robot enters the
    box. With every coordinate perturbed by N(0, sigma^2), the gap xa - xu
    is N(xa - xu, 2 sigma^2), so the bundled entry is 0.04 * Phi((xa - xu) / sigma_gap).
    """

    SYSTEM = PenaltyPush1D()
    JUMP = 0.002**2 * 1e4 / 1.0
    N = 10**4

    def test_exact_jacobian_jumps_at_contact(self):
        # right-sided: the contact piece applies from xa == xu on
        for xa, expected in ((-1e-3, 0.0), (0.0, self.JUMP), (1e-3, self.JUMP)):
            (a,), _ = self.SYSTEM.jacobians_batch(np.array([[0.0, 0.0, xa]]), np.zeros((1, 1)))
            assert a[0, 2] == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("sigma", [0.001, 0.003, 0.01, 0.03])
    def test_bundles_equal_the_smoothed_jump(self, sigma):
        sigma_gap = math.sqrt(2.0) * sigma
        dist = SmoothingDistribution.isotropic(4, sigma)
        # Zero-order bound. xu' = xu + h vu + 0.04 relu(xa - xu): the fit
        # recovers the linear part exactly, and by Stein's lemma the
        # population least-squares slope on xa is the first-order value. The
        # error is, to first order, the mean of z_xa * r / sigma^2, r the
        # relu's residual about that slope, |r| <= 0.04 |delta| with delta the
        # gap's perturbation. E[z_xa^2 delta^2] = 4 sigma^4 bounds its
        # standard deviation by 2 * 0.04 / sqrt(N); allow 4 of them.
        zero_order_bound = 4.0 * 2.0 * self.JUMP / math.sqrt(self.N)
        for seed, offset in enumerate((-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)):
            x = np.array([0.1, 0.0, 0.1 + offset * sigma_gap])
            u = np.array([0.2])
            p = 0.5 * (1.0 + math.erf(offset / math.sqrt(2.0)))
            expected = self.JUMP * p
            (a,), _ = jacobian_bundle_first_order(self.SYSTEM, [x], [u], dist, self.N, [seed])
            # each sampled entry is 0 or 0.04: a Bernoulli(p) summand
            clt_se = self.JUMP * math.sqrt(p * (1.0 - p) / self.N)
            assert abs(a[0, 2] - expected) <= 4.0 * clt_se
            (a,), _ = jacobian_bundle_zero_order(self.SYSTEM, [x], [u], dist, self.N, [seed])
            assert abs(a[0, 2] - expected) <= zero_order_bound

    def test_planner_first_order_bundle_couples_a_separated_knot(self):
        # The Jacobians depend only on the state, so the planner's
        # first-order bundle feels contact only through its state samples:
        # with the robot 1 sigma short of the box, some samples touch it.
        sys = PenaltyPush1D(normal_stiffness=1e3, h=0.005)
        variance = 0.01
        us = np.zeros((1, 1))
        xs = rollout(sys, np.array([1.0, 0.0, 1.0 - 0.1]), us)
        mode = GradientMode(kind="first_order_bundle", samples=100)
        bundled = linearize_trajectory(sys, xs, us, mode, variance, 0, 0)
        exact = linearize_trajectory(sys, xs, us, GradientMode(), variance, 0, 0)
        assert exact.A[0, 1, 2] == 0.0
        assert bundled.A[0, 1, 2] > 0.0


class TestParameterValidation:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("cls, name", [
        (Contact1DParams, "k"), (Contact2DParams, "mu"), (Contact2DParams, "sphere_radius"),
        (PenaltyParams, "psi_s"), (PenaltyPush1D, "normal_stiffness"), (PenaltyPush1D, "h")])
    def test_rejects_parameter_by_name(self, cls, name, bad):
        with pytest.raises(ConfigurationError,
                           match=rf"^{cls.__name__}\.{name} must be finite and positive"):
            cls(**{name: bad})


class TestAdapters:
    def test_push_1d_jacobians_match_fd_within_modes(self):
        sys = ContactPush1D(P1)
        for x, u in (([1.0, 0.0], [0.2]), ([1.0, 0.0], [1.7])):
            a, b = sys.jacobians_batch(np.array([x]), np.array([u]))
            a_fd, b_fd = finite_difference_jacobians(sys.step_batch, [x], [u])
            np.testing.assert_allclose(a, a_fd, atol=1e-6)
            np.testing.assert_allclose(b, b_fd, atol=1e-6)

    def test_push_1d_batch_matches_scalar(self):
        sys = ContactPush1D(P1)
        rng = np.random.default_rng(4)
        xs = rng.uniform(-1, 2, (50, 2))
        us = rng.uniform(-1, 3, (50, 1))
        batch = sys.step_batch(xs, us)
        for i in range(50):
            np.testing.assert_array_equal(batch[i], sys.step(xs[i], us[i]))

    @pytest.mark.parametrize("mode", ["separation", "sticking", "sliding_up", "sliding_down"])
    @pytest.mark.parametrize("model", ["exact", "anitescu"])
    def test_push_2d_jacobians_match_fd_within_modes(self, model, mode):
        sys = ContactPush2D(P2, model=model)
        stepper = step_2d_exact if model == "exact" else step_2d_anitescu
        x = [0.0, 0.0, 0.7]
        u = {"separation": [0.3, 0.9], "sticking": [0.02, 0.5],
             "sliding_up": [0.4, 0.5], "sliding_down": [-0.4, 0.5]}[mode]
        # Each mode's region is convex, so a cube whose corners share the
        # mode holds the ball: the probe is at least 1e-4 from any boundary.
        for offset in itertools.product((-1e-4, 1e-4), repeat=5):
            corner = np.add(x + u, offset)
            assert stepper(Contact2DState(*corner[:3]), corner[3:], P2)[1].mode == mode
        a, b = sys.jacobians_batch(np.array([x]), np.array([u]))
        a_fd, b_fd = finite_difference_jacobians(sys.step_batch, [x], [u])
        np.testing.assert_allclose(a, a_fd, atol=1e-6)
        np.testing.assert_allclose(b, b_fd, atol=1e-6)

    def test_anitescu_qp_runs_for_one_row_only(self, monkeypatch):
        # A one-row step solves the QP once; a batch uses the closed form.
        assert contact.solve_qp is qp.solve_qp
        calls = []

        def spy(*args, _original=qp.solve_qp):
            calls.append(args)
            return _original(*args)

        monkeypatch.setattr(contact, "solve_qp", spy)
        sys = ContactPush2D(P2, model="anitescu")
        sys.step(np.array([0.0, 0.0, 0.7]), np.array([0.3, 0.5]))
        assert len(calls) == 1
        rng = np.random.default_rng(5)
        xs = np.column_stack([rng.uniform(-0.2, 0.2, 50), rng.uniform(-0.2, 0.2, 50),
                              rng.uniform(0.55, 0.8, 50)])
        us = np.column_stack([rng.uniform(-0.6, 0.6, 50), rng.uniform(0.4, 0.9, 50)])
        sys.step_batch(xs, us)
        sys.jacobians_batch(xs, us)
        assert len(calls) == 1

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError):
            ContactPush2D(P2, model="smooth")

    @pytest.mark.parametrize("rows", [1, 7, 100])
    def test_push_1d_batch_rows_equal_batch_of_one(self, rows):
        sys = ContactPush1D(P1)
        rng = np.random.default_rng(rows)
        xs = rng.uniform(-1, 2, (rows, 2))
        us = rng.uniform(-1, 3, (rows, 1))
        us[::3, 0] = xs[::3, 0]            # commands exactly at the box
        assert_batch_rows_match(sys, xs, us)
        a, b = sys.jacobians_batch(xs[::3], us[::3])
        contact_a, contact_b = sys.jacobians_batch(np.zeros((1, 2)), np.ones((1, 1)))
        np.testing.assert_array_equal(a, np.broadcast_to(contact_a, a.shape))
        np.testing.assert_array_equal(b, np.broadcast_to(contact_b, b.shape))

    @pytest.mark.parametrize("model", ["exact", "anitescu"])
    @pytest.mark.parametrize("rows", [1, 7, 100])
    def test_push_2d_batch_rows_equal_batch_of_one(self, model, rows):
        sys = ContactPush2D(P2, model=model)
        rng = np.random.default_rng(rows)
        xs = np.column_stack([rng.uniform(-0.2, 0.2, rows), rng.uniform(-0.2, 0.2, rows),
                              rng.uniform(0.55, 0.8, rows)])
        us = np.column_stack([rng.uniform(-0.6, 0.6, rows), rng.uniform(0.4, 0.9, rows)])
        # one row on each mode: separation, sticking, sliding up, sliding down
        lead = min(rows, 4)
        xs[:lead] = [0.0, 0.0, 0.7]
        us[:lead] = [[0.3, 0.9], [0.02, 0.5], [0.4, 0.5], [-0.4, 0.5]][:lead]
        if model == "exact":
            assert_batch_rows_match(sys, xs, us)
        else:
            # A batch evaluates the QP's closed form, a batch of one solves
            # the QP: the same mode, so the same Jacobians, and the same
            # state up to rounding.
            nxt = sys.step_batch(xs, us)
            a, b = sys.jacobians_batch(xs, us)
            for i in range(rows):
                np.testing.assert_allclose(nxt[i], sys.step(xs[i], us[i]), rtol=1e-12,
                                           atol=1e-12)
                (a_i,), (b_i,) = sys.jacobians_batch(xs[i:i + 1], us[i:i + 1])
                np.testing.assert_array_equal(a[i], a_i)
                np.testing.assert_array_equal(b[i], b_i)
        stepper = step_2d_exact if model == "exact" else step_2d_anitescu
        modes = [stepper(Contact2DState(*x), u, P2)[1].mode for x, u in zip(xs, us)]
        assert modes[:lead] == ["separation", "sticking", "sliding_up", "sliding_down"][:lead]

    def test_exact_linearization_makes_no_scalar_steps(self, monkeypatch):
        calls = []

        def spy(*args, _original=step_2d_exact):
            calls.append(args)
            return _original(*args)

        monkeypatch.setattr(contact, "step_2d_exact", spy)   # before the system binds it
        setup = build_task("push_2d", {"model": "exact"})
        xs = rollout(setup.system, setup.mpc.initial_state, setup.u_init)
        mode = GradientMode(kind="first_order_bundle", samples=30)
        calls.clear()
        linearize_trajectory(setup.system, xs, setup.u_init, mode, 0.01, 0, 0)
        assert calls == []


class TestExactBatchMatchesScalar:
    """ContactPush2D's exact batch against step_2d_exact, row by row and bit for bit."""

    def _rows(self):
        rng = np.random.default_rng(9)
        n = 12_000
        xs = np.column_stack([rng.uniform(-0.3, 0.3, n), rng.uniform(-0.3, 0.3, n),
                              rng.uniform(0.5, 0.9, n)])
        us = np.column_stack([rng.uniform(-0.8, 0.8, n), rng.uniform(0.3, 0.8, n)])
        y_c, c, hk = P2.contact_height, P2.c_ratio, P2.h * P2.k
        us[:1000, 1] = y_c                                  # touching the face exactly
        # on the stick/slide cone: |lambda_t| = mu * lambda_n
        cone = slice(1000, 3000)
        sides = np.where(np.arange(2000) % 2 == 0, 1.0, -1.0)
        us[cone, 0] = xs[cone, 1] + sides * (1.0 + c) * P2.mu * hk * (y_c - us[cone, 1]) \
            / (P2.m / P2.h)
        us[3000:3500, 1] = y_c                              # both ties: on the face and the cone
        us[3000:3500, 0] = xs[3000:3500, 1]
        # NaN in one command or state coordinate, or in the whole command or state
        nan_x, nan_u = xs[:700].copy(), us[:700].copy()
        for k, (part, cols) in enumerate([(nan_u, [0]), (nan_u, [1]), (nan_u, [0, 1]),
                                          (nan_x, [0]), (nan_x, [1]), (nan_x, [2]),
                                          (nan_x, [0, 1, 2])]):
            part[100 * k:100 * (k + 1), cols] = np.nan
        return np.concatenate([xs, nan_x]), np.concatenate([us, nan_u])

    def test_batch_rows_equal_scalar_steps(self):
        xs, us = self._rows()
        sys = ContactPush2D(P2, model="exact")
        nxt = sys.step_batch(xs, us)
        a, b = sys.jacobians_batch(xs, us)
        modes, ties = [], []
        for i, (x, u) in enumerate(zip(xs, us)):
            ref, diag = step_2d_exact(Contact2DState(*x), u, P2)
            expected = np.array([ref.xu, ref.xa, ref.ya])
            np.testing.assert_array_equal(nxt[i].view(np.int64), expected.view(np.int64))
            a_ref, b_ref = _mode_jacobians(diag.mode, P2, "exact")
            np.testing.assert_array_equal(a[i], a_ref)
            np.testing.assert_array_equal(b[i], b_ref)
            modes.append(diag.mode)
            ties.append(diag.tie)
        assert set(modes) == {"separation", "sticking", "sliding_up", "sliding_down"}
        assert all(ties[:1000]) and all(ties[3000:3500])
        assert sum(ties[1000:3000]) > 1000


class TestAnitescuClosedForm:
    """ContactPush2D's Anitescu batch, the QP's closed form, against step_2d_anitescu row by row."""

    def _rows(self):
        rng = np.random.default_rng(11)
        n = 10_000
        xs = np.column_stack([rng.uniform(-1, 1, n), rng.uniform(-1, 1, n),
                              rng.uniform(0.3, 1.2, n)])
        us = np.column_stack([rng.uniform(-1.5, 1.5, n), rng.uniform(0.0, 1.2, n)])
        y_c, c, mu = P2.contact_height, P2.c_ratio, P2.mu
        reach = np.abs(us[:, 0] - xs[:, 1])
        cone = y_c + mu * reach                    # no cone row violated beyond here
        stick = y_c - reach / (mu * (1.0 + 1.0 / c))   # a sticking dual vanishes here
        offsets = rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-16, -9, 2000)
        us[:1000, 1] = cone[:1000]
        us[1000:2000, 1] = stick[1000:2000]
        us[2000:3000, 1] = cone[2000:3000] + offsets[:1000]
        us[3000:4000, 1] = stick[3000:4000] + offsets[1000:]
        # both rows equally violated, barely past the QP's feasibility
        # tolerance: the plus row alone is active
        us[4000:4100, 0] = xs[4000:4100, 1]
        us[4000:4100, 1] = y_c - rng.uniform(1.05e-10, 1.45e-10, 100)
        return xs, us

    def test_batch_rows_match_qp_steps(self):
        xs, us = self._rows()
        sys = ContactPush2D(P2, model="anitescu")
        nxt = sys.step_batch(xs, us)
        a, b = sys.jacobians_batch(xs, us)
        steps = [step_2d_anitescu(Contact2DState(*x), u, P2)
                 for x, u in zip(xs.tolist(), us.tolist())]
        modes = [diag.mode for _, diag in steps]
        expected = np.array([(ref.xu, ref.xa, ref.ya) for ref, _ in steps])
        worst = np.max(np.abs(nxt - expected) / np.maximum(1.0, np.abs(expected)))
        assert worst <= 1e-12
        tables = {mode: _mode_jacobians(mode, P2, "anitescu") for mode in set(modes)}
        np.testing.assert_array_equal(a, [tables[mode][0] for mode in modes])
        np.testing.assert_array_equal(b, [tables[mode][1] for mode in modes])
        # one formula for floats and arrays: the same set, mode and bits
        floats, float_modes = [], []
        for x, u in zip(xs.tolist(), us.tolist()):
            (chosen,) = [s for s in _anitescu_2d(*x, *u, P2, max) if s[5]]
            floats.append(chosen[:3])
            float_modes.append(contact._MODES_2D[_cone_mode(chosen[3], chosen[4], max)])
        np.testing.assert_array_equal(np.array(floats).view(np.int64), nxt.view(np.int64))
        assert float_modes == modes
        assert set(modes) == {"separation", "sticking", "sliding_up", "sliding_down"}
        # both sides of each boundary are reached
        assert {"separation", "sliding_up", "sliding_down"} <= set(modes[2000:3000])
        assert {"sticking", "sliding_up", "sliding_down"} <= set(modes[3000:4000])
        # the plus row moved the box, but its dual is below the 1e-9
        # activity threshold, so the mode reads separation
        assert np.all(nxt[4000:4100, 0] < xs[4000:4100, 0])
        assert set(modes[4000:4100]) == {"separation"}

    def test_non_finite_rows_raise_as_the_qp_does(self):
        sys = ContactPush2D(P2, model="anitescu")
        xs = np.tile([0.0, 0.0, 0.7], (3, 1))
        us = np.array([[0.3, 0.5], [np.nan, 0.5], [0.0, 0.9]])
        for rows in (slice(1, 2), slice(None)):
            with pytest.raises(RuntimeError):
                sys.step_batch(xs[rows], us[rows])
