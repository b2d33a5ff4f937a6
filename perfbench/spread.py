"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads probe plan_constrained --seeds 0-9 \
        [--seconds 38] [--trace 0] [--out .perfbench_out/spread.json]

Runs ``run.py`` once per (workload, seed), one after another, and reports
for every metric its median, quartiles (``statistics.quantiles(n=4)``)
and spread, the interquartile distance as a share of the median, for the
metrics of the result line and the workload-specific figures run.py
records beside it. The spread is what BENCHMARK.json's bounds are judged
against; compare two commits by running this on each with the same seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".perfbench_out" / "spread.json"))
    args = parser.parse_args(argv)

    summary = {}
    for name in args.workloads:
        results = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            record = ROOT / ".perfbench_out" / f"{name}-seed{seed}-trace{args.trace}.json"
            result["extra"] = json.loads(record.read_text(encoding="utf-8"))["extra"]
            results.append(result)
            print(f"{name} seed {seed}: failed {results[-1]['failed']}/"
                  f"{results[-1]['attempted']}", flush=True)
        metrics = {m: summarise([r["metrics"][m]["value"] for r in results])
                   for m in results[0]["metrics"]}
        metrics.update({m: summarise([r["extra"][m] for r in results])
                        for m in results[0]["extra"]})
        summary[name] = {"seeds": args.seeds, "failed": [r["failed"] for r in results],
                         "metrics": metrics}
        for m, s in metrics.items():
            print(f"{name} {m}: median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {s['spread']:.4f}")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
