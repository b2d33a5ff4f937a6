"""Benchmark runner for bundleopt.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. One process runs closed-loop
operations: each starts only after the previous one ends. The workload's
fixed operation list (see workloads.py) is run in passes until the time
budget is spent; ``wall_s`` is the sum over operations of each one's
median time across passes.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` first times one untraced pass, then installs the span
wrappers (spans.py), sets up again and reports the per-module metrics
of BENCHMARK.json, each the median over traced passes, plus
``trace.overhead_frac``. Every operation's output is checked; failures
count in ``failed``. The last line of standard output is one JSON object.
Result records and spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 3

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import bundleopt; "
                 "print(time.perf_counter() - t)")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_seconds(first: float) -> float:
    """Median time to import bundleopt (numpy and scipy included) in a fresh process.

    ``first`` is this process's own import; the other samples come from
    fresh interpreters.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = [first]
    for _ in range(SETUP_REPS - 1):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, as it will run (not pinned)."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "libscipy_openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment() -> dict:
    import numpy as np
    import scipy

    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "openblas_threads": blas_threads(), "git_commit": git_commit()}


class Runner:
    """Runs operations, times them and tallies failed output checks."""

    def __init__(self, rec=None):
        self.rec = rec
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, op, ctx: dict):
        """(seconds, output or None); the check runs untimed and untraced."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception:  # a failing operation is a result, not a crash
            self.failures.append(f"{op.label}: {traceback.format_exc(limit=3)}")
            return time.perf_counter() - t0, None
        elapsed = time.perf_counter() - t0
        tracing = self.rec is not None and self.rec.enabled
        if tracing:
            self.rec.enabled = False
        try:
            problem = op.check(out, ctx)
        except Exception:
            problem = traceback.format_exc(limit=3)
        finally:
            if tracing:
                self.rec.enabled = True
        if problem is not None:
            self.failures.append(f"{op.label}: {problem}")
            return elapsed, None
        return elapsed, out

    def setup(self, build, seed: int, label: str | None = None):
        """Build the workload and run its first operation as a warm-up."""
        if label is not None:
            self.rec.begin_phase(label)
        t0 = time.perf_counter()
        ops = build(seed)
        self.run(ops[0], {})
        return ops, time.perf_counter() - t0

    def passes(self, ops, budget: float, label: str | None = None):
        """Whole passes while another of median length fits the budget; at least one.

        Returns per-operation times (pass x op), pass times and the last
        pass's outputs.
        """
        times, pass_s = [], []
        start = time.perf_counter()
        while not pass_s or time.perf_counter() - start + statistics.median(pass_s) <= budget:
            if label is not None:
                self.rec.begin_phase(f"{label}{len(pass_s)}")
            ctx: dict = {}
            row, outputs = [], []
            t0 = time.perf_counter()
            for op in ops:
                dt, out = self.run(op, ctx)
                row.append(dt)
                outputs.append(out)
            pass_s.append(time.perf_counter() - t0)
            times.append(row)
        return times, pass_s, outputs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workloads, name: str, seed: int, seconds: float, first_import_s: float):
    """Untraced run: end-to-end metrics."""
    build = workloads.WORKLOADS[name]
    import_s = import_seconds(first_import_s)
    runner = Runner()
    setup_s = [runner.setup(build, seed)[1] for _ in range(SETUP_REPS - 1)]
    ops, last = runner.setup(build, seed)
    setup_s.append(last)
    times, pass_s, outputs = runner.passes(ops, seconds)
    per_op = [statistics.median(col) for col in zip(*times)]
    wall = sum(per_op)
    metrics = {"wall_s": wall, "setup_s": import_s + statistics.median(setup_s),
               "peak_rss_mb": peak_rss_mb()}
    extra = dict(workloads.summarize(name, ops, outputs, wall))
    extra["failed_frac"] = len(runner.failures) / runner.attempted
    detail = {"passes": len(pass_s), "pass_s": pass_s, "setup_reps_s": setup_s,
              "import_s": import_s, "ops": [op.label for op in ops], "op_median_s": per_op,
              "op_times_s": times}
    return runner, metrics, extra, detail


def measure_traced(workloads, spans, name: str, seed: int, seconds: float, metric_names):
    """Untraced pass, then traced set-ups and passes: per-module metrics."""
    build = workloads.WORKLOADS[name]
    runner = Runner()
    ops, _ = runner.setup(build, seed)
    _, plain_s, _ = runner.passes(ops, 0.0)
    rec = spans.SpanRecorder()
    runner.rec = rec
    with spans.Tracing(rec) as tracing:
        rec.enabled = True
        for r in range(SETUP_REPS):
            ops, _ = runner.setup(build, seed, label=f"setup{r}")
        _, traced_s, _ = runner.passes(ops, seconds - plain_s[0], label="pass")
        rec.enabled = False
    per_phase = rec.aggregate()
    OUT_DIR.mkdir(exist_ok=True)
    rec.save(OUT_DIR / f"spans-{name}.npz")

    def median_over(prefix, metric):
        rows = [row for label, row in per_phase.items() if label.startswith(prefix)]
        return statistics.median(row.get(metric, 0.0) for row in rows)

    metrics = {}
    for metric in metric_names:
        if metric == "trace.overhead_frac":
            metrics[metric] = statistics.median(traced_s) / plain_s[0] - 1.0
        elif metric == "irs_lqr.mpc_solve.relaxed_frac":
            calls = median_over("pass", "irs_lqr.mpc_solve.calls")
            relaxed = median_over("pass", "irs_lqr.mpc_solve.relaxed")
            metrics[metric] = relaxed / calls if calls else 0.0
        else:
            phase = "setup" if metric.startswith("tasks.") else "pass"
            metrics[metric] = median_over(phase, metric)
    detail = {"untraced_pass_s": plain_s, "traced_pass_s": traced_s,
              "missing_boundaries": tracing.missing, "spans": len(rec.start)}
    return runner, metrics, {}, detail


def run_all(args, names) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.splitlines()
        print(f"== {name} (exit {done.returncode})")
        for line in lines[:-1]:
            print(f"   {line}")
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bundleopt" / "__init__.py").is_file():
        print(f"no bundleopt sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import bundleopt  # noqa: F401  (timed: the first import sample of setup_s)
    first_import_s = time.perf_counter() - t0
    import spans
    import workloads

    if args.trace:
        section = spec["per_layer"]
        runner, metrics, extra, detail = measure_traced(
            workloads, spans, args.workload, args.seed, args.seconds,
            [m["name"] for m in section])
    else:
        section = spec["end_to_end"]
        runner, metrics, extra, detail = measure(workloads, args.workload, args.seed,
                                                 args.seconds, first_import_s)
    units = {**workloads.EXTRA_UNITS, **{m["name"]: m["unit"] for m in section}}
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for key, value in {**metrics, **extra}.items():
        print(f"{key} {value:.6g} {units.get(key, '')}".rstrip())
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "metrics": metrics,
              "extra": extra, "detail": detail, "failures": runner.failures}
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"environment {json.dumps(record['environment'], sort_keys=True)}")
    result = {"correct": not runner.failures, "attempted": runner.attempted,
              "failed": len(runner.failures),
              "metrics": {k: {"value": float(v), "unit": units[k]}
                          for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
