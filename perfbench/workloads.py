"""The benchmark's workloads: fixed operation lists with output checks.

Every operation calls the library functions a CLI verb calls, looked up
through their module at call time so the traced run's wrappers see them:
``build_task`` then ``irs_lqr_run`` for ``plan``, and the estimator,
oracle and contact-step calls of ``bundle-eval`` and ``contact-probe``.
The workload seed derives the plan seeds and the estimator seeds; the
same seed gives the same operations and, the program being
deterministic, the same outputs.

Planner settings follow ``demos/configs/plan_push_1d.json`` (100 samples,
sigma0 0.25, geometric decay 0.8, at most 20 iterations). Where runs
would stop at seed-dependent iterations, the cap is lowered to a count
they all reach, so a pass does the same work whatever the seed:
dubins_parking stops at 12 (its bundles converge at 15 to 20) and
pendulum_swingup and quadrotor_hover at 6 (7 to 8, or 20 for zero-order).
The push tasks keep 20, which the paper's headline needs; lti converges
in 4 in every mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from bundleopt import contact, functions, irs_lqr, oracle, smoothing, tasks

MODES = ("exact", "first_order_bundle", "zero_order_bundle")
SAMPLES = 100
SIGMA0 = 0.25
GAMMA = 0.8

# task -> (iteration cap, plan seeds per bundle mode)
PLAN_CONSTRAINED = {"push_1d": (20, 1), "push_2d": (20, 1), "dubins_parking": (12, 1)}
PLAN_UNCONSTRAINED = {"lti": (20, 3), "pendulum_swingup": (6, 2), "quadrotor_hover": (6, 1)}

# Paper headline: exact gradients stall on the push tasks, bundles escape.
# Bundles usually reach 1.0009 on push_1d, but about one first-order run
# in 40 settles in the local optimum that reaches the goal a step later
# (2.0009), so the gate is escape from the stall, not the best optimum.
PUSH_1D_EXACT_COST = 70.0
PUSH_1D_BUNDLE_MAX = 0.1 * PUSH_1D_EXACT_COST

# contact-probe: demos/configs/contact_probe.json with fewer quadrature nodes.
PROBE_STATE = (0.0, 0.0, 0.7)
PROBE_X = (-0.4, 0.6, 9)
PROBE_Y = (0.45, 0.85, 9)
PROBE_SIGMA = 0.06
PROBE_NODES = 13
# bundle-eval: demos/configs/bundle_eval_heaviside.json for every function.
EVAL_SIGMA = 1.0
EVAL_GRID = (-3.0, 3.0, 41)
EVAL_SAMPLES = 5000
EVAL_QUADRATURE = 201

_TOL = 1e-9


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not.

    ``check(output, ctx)`` returns a failure message or None; ``ctx`` is
    shared by the operations of one pass.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object, dict], str | None]
    kind: str                      # "plan", "contact_point" or "eval_point"


def derive_seed(base: int, *index: int) -> int:
    """64-bit seed from the workload seed and an index path."""
    return int(np.random.SeedSequence([int(base), *map(int, index)])
               .generate_state(1, dtype=np.uint64)[0])


# ---------------------------------------------------------------------------
# plan workloads


def _plan_op(task: str, setup, kind: str, seed: int, max_iters: int) -> Op:
    mode = irs_lqr.GradientMode(kind=kind, samples=SAMPLES)

    def run():
        return irs_lqr.irs_lqr_run(setup.system, setup.mpc, mode, cov0=SIGMA0,
                                   schedule=("geometric", GAMMA), max_iters=max_iters,
                                   seed=seed, u_init=setup.u_init)

    def check(history, ctx):
        return check_plan(task, kind, setup, history, ctx)

    return Op(f"{task}/{kind}/{seed}", run, check, "plan")


def check_plan(task: str, kind: str, setup, history, ctx: dict) -> str | None:
    """Cost went down, knots obey the true dynamics, inputs stay in the box."""
    first, final = history[0], history[-1]
    if not math.isfinite(final.cost) or final.cost > first.cost:
        return f"final cost {final.cost!r} not finite or above initial {first.cost!r}"
    xs, us = np.asarray(final.xs), np.asarray(final.us)
    mpc = setup.mpc
    if xs.shape != (mpc.horizon + 1, mpc.state_dim) or us.shape != (mpc.horizon, mpc.input_dim):
        return f"trajectory shapes {xs.shape}, {us.shape} do not match the task"
    if not np.allclose(xs[0], mpc.initial_state, rtol=0.0, atol=_TOL):
        return "trajectory does not start at the initial state"
    for t in range(mpc.horizon):
        nxt = np.asarray(setup.system.step(xs[t], us[t]), dtype=float)
        if not np.allclose(nxt, xs[t + 1], rtol=_TOL, atol=_TOL):
            return f"knot {t + 1} does not satisfy the dynamics"
    if mpc.C_u is not None and np.max(us @ mpc.C_u.T - mpc.d_u) > 1e-7:
        return "input box constraints violated"
    if task == "push_1d":
        if kind == "exact" and abs(final.cost - PUSH_1D_EXACT_COST) > _TOL:
            return f"exact push_1d left its stationary point (cost {final.cost!r})"
        if kind != "exact" and final.cost > PUSH_1D_BUNDLE_MAX:
            return f"bundled push_1d did not escape the stall (cost {final.cost!r})"
    if task == "push_2d":
        if kind == "exact":
            ctx["push_2d_exact"] = final.cost
        elif not final.cost < ctx.get("push_2d_exact", -math.inf):
            return f"bundled push_2d cost {final.cost!r} not below exact"
    return None


def _plan_ops(table: dict[str, tuple[int, int]], seed: int) -> list[Op]:
    ops = []
    for t_index, (task, (max_iters, n_seeds)) in enumerate(table.items()):
        setup = tasks.build_task(task)
        # The exact mode draws no samples, so one run of it covers every seed.
        ops.append(_plan_op(task, setup, "exact", 0, max_iters))
        for m_index, kind in enumerate(MODES[1:], start=1):
            for k in range(n_seeds):
                plan_seed = derive_seed(seed, t_index, m_index, k)
                ops.append(_plan_op(task, setup, kind, plan_seed, max_iters))
    return ops


def build_plan_constrained(seed: int) -> list[Op]:
    return _plan_ops(PLAN_CONSTRAINED, seed)


def build_plan_unconstrained(seed: int) -> list[Op]:
    return _plan_ops(PLAN_UNCONSTRAINED, seed)


# ---------------------------------------------------------------------------
# probe workload


def _contact_point_op(state, params, dist, cx: float, cy: float) -> Op:
    center = np.array([cx, cy])

    def run():
        exact_next, _ = contact.step_2d_exact(state, (cx, cy), params)
        relaxed_next, _ = contact.step_2d_anitescu(state, (cx, cy), params)
        out = {"exact": exact_next.xu, "anitescu": relaxed_next.xu}
        for model in ("exact", "anitescu"):
            stepper = getattr(contact, f"step_2d_{model}")
            raw = []

            def box_next(cmd, stepper=stepper, raw=raw):
                nxt, _ = stepper(state, (float(cmd[0]), float(cmd[1])), params)
                raw.append(nxt.xu)
                return nxt.xu

            value = oracle.gauss_hermite_expectation(box_next, center, dist, PROBE_NODES)
            out[f"bundled_{model}"] = (value, min(raw), max(raw))
        return out

    return Op(f"contact/{cx:.4f}/{cy:.4f}", run, check_contact_point, "contact_point")


def check_contact_point(out, ctx) -> str | None:
    """Values are finite; each bundle lies within the range of its samples."""
    for model in ("exact", "anitescu"):
        value, lo, hi = out[f"bundled_{model}"]
        if not all(math.isfinite(v) for v in (out[model], value, lo, hi)):
            return f"{model} probe value not finite"
        slack = 1e-12 * max(1.0, abs(lo), abs(hi))
        if not lo - slack <= value <= hi + slack:
            return f"bundled {model} {value!r} outside its samples [{lo!r}, {hi!r}]"
    return None


def _eval_point_op(function_id: str, x: float, seed: int) -> Op:
    f = functions.get_test_function(function_id)
    dist = smoothing.SmoothingDistribution.isotropic(1, EVAL_SIGMA)

    def run():
        value = smoothing.bundled_objective_estimate(f, [x], dist, EVAL_SAMPLES, seed)
        first = smoothing.first_order_gradient_bundle(f, f.gradient, [x], dist,
                                                      EVAL_SAMPLES, seed)
        zero = smoothing.zero_order_gradient_bundle(f, [x], dist, EVAL_SAMPLES, seed)
        value_q, grad_q = oracle.convolution_oracle(f, [x], dist, EVAL_QUADRATURE)
        return {"value": value, "first": first, "zero": zero,
                "value_q": value_q, "grad_q": grad_q}

    return Op(f"eval/{function_id}/{x:.3f}", run, check_eval_point, "eval_point")


def grad_z(out) -> float:
    """Zero-order gradient bundle's gap to the oracle, in CLT standard errors."""
    zero = out["zero"]
    se = math.sqrt(float(zero.empirical_variance[0]) / zero.sample_count)
    return abs(float(zero.value[0]) - float(out["grad_q"][0])) / se


def check_eval_point(out, ctx) -> str | None:
    numbers = [float(out["value"].value), float(out["first"].value[0]),
               float(out["zero"].value[0]), float(out["value_q"]),
               float(out["grad_q"][0]), grad_z(out)]
    if not all(math.isfinite(v) for v in numbers):
        return f"bundle-eval value not finite: {numbers}"
    return None


def build_probe(seed: int) -> list[Op]:
    params = contact.Contact2DParams()
    state = contact.Contact2DState(*PROBE_STATE)
    dist = smoothing.SmoothingDistribution.isotropic(2, PROBE_SIGMA)
    ops = [_contact_point_op(state, params, dist, float(cx), float(cy))
           for cx in np.linspace(*PROBE_X) for cy in np.linspace(*PROBE_Y)]
    for f_index, function_id in enumerate(functions.TEST_FUNCTION_IDS):
        for i, x in enumerate(np.linspace(*EVAL_GRID)):
            ops.append(_eval_point_op(function_id, float(x), derive_seed(seed, f_index, i)))
    return ops


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "plan_constrained": build_plan_constrained,
    "plan_unconstrained": build_plan_unconstrained,
    "probe": build_probe,
}


EXTRA_UNITS = {"iters_per_s": "1/s", "points_per_s": "1/s", "cost_ratio.gmean": "ratio",
               "grad_err.max_z": "stderr", "failed_frac": "frac"}


def summarize(name: str, ops: list[Op], outputs: list, seconds: float) -> dict[str, float]:
    """Workload-specific end-to-end figures for one pass's outputs."""
    if name == "probe":
        z = [grad_z(out) for op, out in zip(ops, outputs)
             if op.kind == "eval_point" and out is not None]
        return {"points_per_s": len(ops) / seconds,
                "grad_err.max_z": max(z) if z else math.nan}
    iterations = 0
    logs = []
    for out in outputs:
        if out is not None:
            iterations += len(out) - 1
            logs.append(math.log(out[-1].cost / out[0].cost))
    return {"iters_per_s": iterations / seconds,
            "cost_ratio.gmean": math.exp(sum(logs) / len(logs)) if logs else math.nan}
