"""Tests of the benchmark harness itself (not of bundleopt).

    python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_children_on_hand_built_tree():
    # a [0, 10] holds b [1, 3] and c [4, 8]; c holds d [5, 6].
    rec = spans.SpanRecorder(clock=FakeClock([0, 1, 3, 4, 5, 6, 8, 10, 20, 21]))
    rec.begin_phase("p0")
    a = rec.open("a")
    b = rec.open("b")
    rec.close(b)
    c = rec.open("c")
    d = rec.open("d")
    rec.close(d)
    rec.count("work", 3)
    rec.close(c)
    rec.close(a)
    rec.begin_phase("p1")
    b2 = rec.open("b")
    rec.close(b2)
    rec.count("work", 2)

    got = rec.aggregate()
    assert got["p0"] == {"a.calls": 1, "a.self_s": 4.0, "b.calls": 1, "b.self_s": 2.0,
                         "c.calls": 1, "c.self_s": 3.0, "d.calls": 1, "d.self_s": 1.0,
                         "work": 3}
    assert got["p1"] == {"b.calls": 1, "b.self_s": 1.0, "work": 2}


def test_spans_must_close_in_order():
    rec = spans.SpanRecorder(clock=FakeClock(range(10)))
    rec.begin_phase("p")
    outer = rec.open("outer")
    rec.open("inner")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def _current(owner, attr):
    return vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr)


def test_tracing_wraps_every_boundary_and_restores_the_originals():
    from bundleopt import contact, irs_lqr, qp, tasks

    before = [(owner, attr, _current(owner, attr)) for owner, attr, *_ in spans.targets()
              if _current(owner, attr) is not None]
    assert len(before) >= 30
    rec = spans.SpanRecorder()
    with spans.Tracing(rec) as tracing:
        assert tracing.missing == []
        assert all(_current(owner, attr) is not original for owner, attr, original in before)
        rec.enabled = True
        rec.begin_phase("p")
        setup = tasks.build_task("push_2d", {"model": "anitescu"})
        setup.system.step(setup.mpc.initial_state, setup.u_init[0])
        irs_lqr.mpc_solve(setup.mpc.window(0, setup.mpc.initial_state),
                          irs_lqr.linearize_trajectory(
                              setup.system, irs_lqr.rollout(setup.system,
                                                            setup.mpc.initial_state,
                                                            setup.u_init),
                              setup.u_init, irs_lqr.GradientMode(), 0.0, 0, 0))
        rec.enabled = False
    assert all(_current(owner, attr) is original for owner, attr, original in before)
    assert contact.solve_qp is qp.solve_qp

    row = rec.aggregate()["p"]
    # The stepper bound in ContactPush2D.__init__ is the wrapped one.
    assert row["contact.step_2d_anitescu.calls"] >= 1
    # The active set runs inside solve_qp for contact steps: not recorded there.
    assert row["qp.solve_qp.calls"] == row["contact.step_2d_anitescu.calls"]
    assert row["qp.active_set.calls"] == 1
    assert row["tasks.build_task.calls"] == 1


def test_corrupted_outputs_count_as_failed():
    ops = workloads.build_plan_constrained(0)[:2]          # push_1d exact, first-order
    runner = run.Runner()
    ctx = {}
    outputs = [runner.run(op, ctx)[1] for op in ops]
    assert runner.failures == [] and all(out is not None for out in outputs)

    history = outputs[1]
    final = history[-1]
    bent = final.xs.copy()
    bent[5, 0] += 1e-3
    corrupt = history[:-1] + [type(final)(xs=bent, us=final.us, cost=final.cost,
                                           iteration=final.iteration)]
    assert ops[1].check(corrupt, ctx) is not None
    stalled = history[:-1] + [type(final)(xs=final.xs, us=final.us, cost=69.0,
                                          iteration=final.iteration)]
    assert "escape" in ops[1].check(stalled, ctx)

    broken = workloads.Op(ops[1].label, lambda: corrupt, ops[1].check, "plan")
    runner.run(broken, ctx)
    assert runner.attempted == 3 and len(runner.failures) == 1

    point = workloads.build_probe(0)[0]
    out = point.run()
    assert point.check(out, {}) is None
    value, lo, hi = out["bundled_anitescu"]
    out["bundled_anitescu"] = (hi + 1e-6, lo, hi)
    assert point.check(out, {}) is not None


def _traced_counts(ops):
    rec = spans.SpanRecorder()
    runner = run.Runner(rec)
    with spans.Tracing(rec):
        rec.enabled = True
        _, _, outputs = runner.passes(ops, 0.0, label="pass")
        rec.enabled = False
    assert runner.failures == []
    counts = {k: v for k, v in rec.aggregate()["pass0"].items() if not k.endswith("_s")}
    return counts, outputs


def test_same_seed_gives_identical_deterministic_metrics():
    def plan_ops():
        return workloads.build_plan_constrained(3)[:3]     # all of push_1d

    def probe_ops():
        ops = workloads.build_probe(3)
        return [ops[40]] + [op for op in ops if op.kind == "eval_point"][::20]

    for build, name in ((plan_ops, "plan_constrained"), (probe_ops, "probe")):
        first_ops, second_ops = build(), build()
        counts1, out1 = _traced_counts(first_ops)
        counts2, out2 = _traced_counts(second_ops)
        assert counts1 == counts2
        assert any(v > 0 for v in counts1.values())
        summary1 = workloads.summarize(name, first_ops, out1, 1.0)
        summary2 = workloads.summarize(name, second_ops, out2, 1.0)
        key = "grad_err.max_z" if name == "probe" else "cost_ratio.gmean"
        assert np.isfinite(summary1[key]) and summary1[key] == summary2[key]
