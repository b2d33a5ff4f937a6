"""Randomized-smoothing toolbox.

Monte-Carlo smoothing of objectives and dynamics (gradient and Jacobian
bundles with first- and zero-order estimators), quasi-dynamic contact
models (complementarity, convex cone relaxation, penalty with Stribeck
friction), a dense strictly-convex QP solver, benchmark dynamical systems,
and an iterative LQR-style trajectory optimizer that plans through contact
by linearizing with the Jacobian bundle. Every dynamics, the contact
pushers included, is a batched DynamicalSystem, so both Jacobian bundles
run on each of them.
"""

from .contact import (Contact1DParams, Contact2DParams, Contact2DState,
                      ContactPush1D, ContactPush2D, PenaltyParams, PenaltyPush1D,
                      StepDiagnostics, penalty_forces, step_2d_anitescu, step_2d_exact)
from .errors import ConfigurationError, DivergedError, SingularRegressionError
from .functions import TEST_FUNCTION_IDS, TestFunction, get_test_function
from .irs_lqr import (GradientMode, MpcProblem, MpcResult, TrajectoryIterate,
                      irs_lqr_run, linearize_trajectory, mpc_solve, rollout,
                      stop_reason, trajectory_cost)
from .oracle import convolution_oracle, gauss_hermite_expectation
from .qp import QpProblem, QpSolution, solve_qp
from .smoothing import (BundleEstimate, SmoothingDistribution,
                        bundled_objective_estimate, first_order_gradient_bundle,
                        jacobian_bundle_first_order, jacobian_bundle_zero_order,
                        sample_perturbations, variance_schedule,
                        zero_order_gradient_bundle)
from .systems import (DubinsCar, DynamicalSystem, LinearizedDynamics, LinearSystem,
                      Pendulum, Quadrotor, linearize_exact)
from .tasks import TASK_BUILDERS, TaskSetup, build_task

__version__ = "0.1.0"
