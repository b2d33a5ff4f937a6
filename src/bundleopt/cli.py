"""Command-line experiment runner.

Three verbs, each taking --config/--out/--jobs; bundle-eval and plan
also take --seed:

* bundle-eval: sweep a catalog test function over a grid, writing the
  Monte-Carlo bundled objective, the first/zero-order gradient bundles and
  the function's closed-form smoothed value and gradient per point. The
  three estimators at grid point i all draw from the seed (seed, i).
* plan: run the trajectory optimizer on a catalog task for every
  (gradient mode, seed) pair, writing per-iteration costs and the final
  trajectories. The `diverged` column is 1 on every row of a run whose
  costs end in 5 consecutive rises or in a NaN or infinite cost, the
  "diverged" of irs_lqr.stop_reason that stopped the planner, else 0.
* contact-probe: sweep 2D contact commands on a grid, writing the next
  box position under the exact and relaxed models and their smoothed
  (quadrature-bundled) versions.

Configs are JSON, schema-validated with unknown keys rejected. Every run
writes result CSVs (schema version stamped in a leading comment row) and
a manifest echoing the effective configuration; outputs are byte-identical
for a fixed seed regardless of --jobs. The --out directory is created
only after the run has finished, so a failed run leaves none. Wall-clock
timings go to the log (BUNDLEOPT_LOG in {error, info, debug}), never into
the result files. Exit codes: 0 success, 2 configuration error, 3
numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields

import numpy as np

from . import __version__
from .contact import Contact2DParams, ContactPush2D
from .errors import ConfigurationError, DivergedError, SingularRegressionError
from .functions import TEST_FUNCTION_IDS, get_test_function
from .irs_lqr import GRADIENT_MODES, GradientMode, irs_lqr_run, stop_reason
from .oracle import convolution_oracle, gauss_hermite_expectation
from .smoothing import (SmoothingDistribution, bundled_objective_estimate,
                        first_order_gradient_bundle, zero_order_gradient_bundle)
from .tasks import TASK_BUILDERS, build_task

log = logging.getLogger("bundleopt")

CSV_SCHEMA_VERSION = "bundleopt-csv-v2"

_GRID = {
    "type": "object",
    "properties": {
        "start": {"type": "number"},
        "stop": {"type": "number"},
        "count": {"type": "integer", "minimum": 2},
    },
    "required": ["start", "stop", "count"],
    "additionalProperties": False,
}

BUNDLE_EVAL_SCHEMA = {
    "type": "object",
    "properties": {
        "function": {"enum": list(TEST_FUNCTION_IDS)},
        "sigma": {"type": "number", "exclusiveMinimum": 0},
        "grid": _GRID,
        "samples": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
    },
    "required": ["function", "sigma", "grid"],
    "additionalProperties": False,
}

PLAN_SCHEMA = {
    "type": "object",
    "properties": {
        "task": {"enum": sorted(TASK_BUILDERS)},
        "params": {"type": "object"},
        "modes": {"type": "array", "items": {"enum": list(GRADIENT_MODES)},
                  "minItems": 1},
        "samples": {"type": "integer", "minimum": 1},
        "sigma0": {"type": "number", "minimum": 0},
        "schedule": {
            "type": "object",
            "properties": {
                "policy": {"enum": ["geometric", "constant"]},
                "gamma": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            },
            "required": ["policy"],
            "additionalProperties": False,
        },
        "seeds": {"type": "array", "items": {"type": "integer", "minimum": 0},
                  "minItems": 1},
        "max_iters": {"type": "integer", "minimum": 1},
    },
    "required": ["task", "modes", "sigma0", "seeds"],
    "additionalProperties": False,
}

CONTACT_PROBE_SCHEMA = {
    "type": "object",
    "properties": {
        "system": {
            "type": "object",
            "properties": {f.name: {"type": "number"} for f in fields(Contact2DParams)},
            "additionalProperties": False,
        },
        "state": {"type": "array", "items": {"type": "number"},
                  "minItems": 3, "maxItems": 3},
        "grid": {
            "type": "object",
            "properties": {"x": _GRID, "y": _GRID},
            "required": ["x", "y"],
            "additionalProperties": False,
        },
        "sigma": {"type": "number", "exclusiveMinimum": 0},
        "quadrature_points": {"type": "integer", "minimum": 5},
    },
    "required": ["state", "grid", "sigma"],
    "additionalProperties": False,
}


class _ArgumentParser(argparse.ArgumentParser):
    """Raises argument errors as ConfigurationError instead of exiting."""

    def error(self, message):
        raise ConfigurationError(message)


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="bundleopt",
        description="Randomized-smoothing benchmark runner")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("bundle-eval", "plan", "contact-probe"):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        if verb != "contact-probe":            # the probe is deterministic quadrature
            p.add_argument("--seed", type=int, default=None,
                           help="override the config's seed(s)")
        p.add_argument("--jobs", type=int, default=1, help="worker processes")
    try:
        args = parser.parse_args(argv)       # --help still exits 0 here
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    seed = getattr(args, "seed", None)

    level = {"error": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(os.environ.get("BUNDLEOPT_LOG", "error"))
    if level is None:
        print("BUNDLEOPT_LOG must be one of error, info, debug", file=sys.stderr)
        return 2
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")

    try:
        if seed is not None and seed < 0:
            raise ConfigurationError(f"--seed must be >= 0, got {seed}")
        if args.jobs < 1:
            raise ConfigurationError(f"--jobs must be >= 1, got {args.jobs}")
        config = _load_config(args.config, args.verb)
        if seed is not None:
            config.update({"seed": seed} if args.verb == "bundle-eval" else {"seeds": [seed]})
        started = time.perf_counter()
        runner = {"bundle-eval": _run_bundle_eval, "plan": _run_plan,
                  "contact-probe": _run_contact_probe}[args.verb]
        tables = runner(config, args.jobs)
        os.makedirs(args.out, exist_ok=True)
        for name, (header, rows) in tables.items():
            _write_csv(os.path.join(args.out, name), header, rows)
        _write_manifest(args.out, args.verb, config, tables)
        log.info("%s finished in %.2fs -> %s", args.verb,
                 time.perf_counter() - started, ", ".join(tables))
        return 0
    except (ConfigurationError, json.JSONDecodeError, UnicodeDecodeError, FileNotFoundError,
            NotADirectoryError, IsADirectoryError, FileExistsError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DivergedError, SingularRegressionError, np.linalg.LinAlgError,
            RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def _load_config(path: str, verb: str) -> dict:
    import jsonschema                  # only config loading needs it

    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    schema = {"bundle-eval": BUNDLE_EVAL_SCHEMA, "plan": PLAN_SCHEMA,
              "contact-probe": CONTACT_PROBE_SCHEMA}[verb]
    try:
        jsonschema.validate(config, schema)
    except jsonschema.ValidationError as exc:
        raise ConfigurationError(f"{exc.message} at {exc.json_path}") from None
    return config


def _grid_points(grid: dict, name: str) -> np.ndarray:
    """The grid's points; json reads NaN and Infinity, which the schema's numbers pass."""
    for key in ("start", "stop"):
        if not np.isfinite(grid[key]):
            raise ConfigurationError(f"{name}.{key} must be finite, got {grid[key]}")
    return np.linspace(grid["start"], grid["stop"], grid["count"])


def _pmap(worker, items, jobs: int):
    """Parallel map with deterministic (submission-order) results.

    Starts at most one worker process per item: the pool forks all of its
    workers at the first submit.
    """
    if jobs <= 1 or len(items) <= 1:
        return [worker(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(worker, items))


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# schema={CSV_SCHEMA_VERSION}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def _write_manifest(out_dir: str, verb: str, config: dict, outputs) -> None:
    manifest = {
        "schema": "bundleopt-manifest-v1",
        "command": verb,
        "config": config,
        "package_version": __version__,
        "outputs": sorted(outputs),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# bundle-eval


def _bundle_eval_point(item):
    config, x, index = item
    f = get_test_function(config["function"])
    sigma = config["sigma"]
    n = config.get("samples", 10000)
    dist = SmoothingDistribution.isotropic(1, sigma)
    seed = (config["seed"], index)
    value_mc = bundled_objective_estimate(f, [x], dist, n, seed)
    grad_first = first_order_gradient_bundle(f, f.gradient, [x], dist, n, seed)
    grad_zero = zero_order_gradient_bundle(f, [x], dist, n, seed)
    value_q, grad_q = convolution_oracle(f, [x], dist)
    return [x, float(value_mc.value), value_q, float(grad_first.value[0]),
            float(grad_zero.value[0]), float(grad_q[0])]


def _run_bundle_eval(config: dict, jobs: int):
    config = {"seed": 0, **config}
    xs = _grid_points(config["grid"], "grid")
    rows = _pmap(_bundle_eval_point, [(config, float(x), i) for i, x in enumerate(xs)], jobs)
    return {"bundle_eval.csv": (["x", "bundled_mc", "bundled_oracle", "grad_first_order",
                                 "grad_zero_order", "grad_oracle"], rows)}


# ---------------------------------------------------------------------------
# plan


def _plan_run(item):
    config, task, mode_kind, seed = item
    schedule_cfg = config.get("schedule", {"policy": "geometric", "gamma": 0.8})
    schedule = (schedule_cfg["policy"], schedule_cfg.get("gamma", 0.8))
    mode = GradientMode(kind=mode_kind, samples=config.get("samples", 100))
    started = time.perf_counter()
    history = irs_lqr_run(task.system, task.mpc, mode,
                          cov0=config["sigma0"], schedule=schedule,
                          max_iters=config.get("max_iters", 20),
                          seed=seed, u_init=task.u_init)
    elapsed = time.perf_counter() - started
    diverged = stop_reason([it.cost for it in history]) == "diverged"
    result_rows = [[task.name, mode_kind, seed, it.iteration, it.cost, int(diverged)]
                   for it in history]
    final = history[-1]
    traj_rows = []
    T = task.mpc.horizon
    for t in range(T + 1):
        u = final.us[t] if t < T else [""] * task.mpc.input_dim
        traj_rows.append([task.name, mode_kind, seed, t, *final.xs[t], *u])
    return result_rows, traj_rows, elapsed


def _run_plan(config: dict, jobs: int):
    task = build_task(config["task"], config.get("params"))
    items = [(config, task, kind, int(seed))
             for kind in config["modes"] for seed in config["seeds"]]
    results = _pmap(_plan_run, items, jobs)
    n, m = task.mpc.state_dim, task.mpc.input_dim
    result_rows = [row for res in results for row in res[0]]
    traj_rows = [row for res in results for row in res[1]]
    for (_, _, kind, seed), res in zip(items, results):
        log.info("plan %s mode=%s seed=%d: %.2fs", config["task"], kind, seed, res[2])
    return {"results.csv": (["task", "mode", "seed", "iteration", "cost", "diverged"],
                            result_rows),
            "trajectory.csv": (["task", "mode", "seed", "t", *[f"x{i}" for i in range(n)],
                                *[f"u{i}" for i in range(m)]], traj_rows)}


# ---------------------------------------------------------------------------
# contact-probe


def _probe_point(item):
    """One grid point: the exact and Anitescu next box positions, then their bundles."""
    config, systems, cx, cy = item
    state = np.asarray(config["state"], dtype=float)
    dist = SmoothingDistribution.isotropic(2, config["sigma"])
    points = config.get("quadrature_points", 41)
    command = np.array([cx, cy])
    steps, bundles = [], []
    for system in systems:
        def box_next(cmds, system=system):     # every quadrature node in one batch
            return system.step_batch(np.tile(state, (len(cmds), 1)), cmds)[:, 0]
        box_next.vectorized = True
        steps.append(box_next(command[None])[0])
        bundles.append(gauss_hermite_expectation(box_next, command, dist, points))
    return [cx, cy, *steps, *bundles]


def _run_contact_probe(config: dict, jobs: int):
    if not np.isfinite(config["state"]).all():
        raise ConfigurationError(f"state must be finite, got {config['state']}")
    xs = _grid_points(config["grid"]["x"], "grid.x")
    ys = _grid_points(config["grid"]["y"], "grid.y")
    params = Contact2DParams(**config.get("system", {}))
    systems = tuple(ContactPush2D(params, model) for model in ("exact", "anitescu"))
    items = [(config, systems, float(cx), float(cy)) for cx in xs for cy in ys]
    rows = _pmap(_probe_point, items, jobs)
    return {"contact_probe.csv": (["x_command", "y_command", "exact", "anitescu",
                                   "bundled_exact", "bundled_anitescu"], rows)}


if __name__ == "__main__":
    sys.exit(main())
