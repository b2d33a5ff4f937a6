"""In-memory span recorder and the wrappers that feed it.

The traced run wraps, from outside the program, the calls into each
``bundleopt`` module. A wrapper records one span (name, start, end,
parent) per call and, for some boundaries, a work count taken from the
call's arguments or result. Spans stay in flat arrays until the run ends;
``aggregate`` then turns them into per-phase call counts and self times,
where a span's self time is its duration minus the durations of its
child spans (the process is single-threaded, so children never overlap).

Wrappers are installed where callers look names up: ``irs_lqr`` imports
the Jacobian bundles and ``linearize_exact`` by name, ``contact`` imports
``solve_qp`` by name, and ``ContactPush2D`` binds its stepper when it is
constructed, so ``install`` must run before any task is built.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict

import numpy as np

# Class methods wrapped on every DynamicalSystem subclass that defines them.
_METHODS = ("step", "step_batch", "jacobians")


class SpanRecorder:
    """Flat, append-only span store with a current phase and a call stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.phase_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.phases: list[str] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self._stack: list[int] = []

    def begin_phase(self, label: str) -> None:
        """Attribute the spans and counts that follow to a new phase."""
        self.phases.append(label)

    def top(self) -> str | None:
        """Name of the innermost open span, if any."""
        return self.names[self.name_id[self._stack[-1]]] if self._stack else None

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.phase_id.append(len(self.phases) - 1)
        self.end.append(float("nan"))
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("spans closed out of order")

    def count(self, name: str, amount: float) -> None:
        self.counts[(len(self.phases) - 1, name)] += amount

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per phase: ``<span>.calls``, ``<span>.self_s`` and every count."""
        out: dict[str, dict[str, float]] = {label: {} for label in self.phases}
        n = len(self.start)
        if n:
            start = np.frombuffer(self.start, dtype=float)
            dur = np.frombuffer(self.end, dtype=float) - start
            parent = np.frombuffer(self.parent, dtype=np.int32)
            nested = parent >= 0
            child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
            self_s = dur - child
            key = (np.frombuffer(self.phase_id, dtype=np.int32).astype(np.int64)
                   * len(self.names) + np.frombuffer(self.name_id, dtype=np.int32))
            size = max(len(self.phases), 1) * len(self.names)
            calls = np.bincount(key, minlength=size)
            selfs = np.bincount(key, weights=self_s, minlength=size)
            for k in np.flatnonzero(calls):
                phase, nid = divmod(int(k), len(self.names))
                row = out[self.phases[phase]]
                row[f"{self.names[nid]}.calls"] = int(calls[k])
                row[f"{self.names[nid]}.self_s"] = float(selfs[k])
        for (phase, name), amount in self.counts.items():
            out[self.phases[phase]][name] = amount
        return out

    def save(self, path) -> None:
        """Write every span to an ``.npz`` file (names index ``name_id``)."""
        np.savez(path, names=np.array(self.names), phases=np.array(self.phases),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 phase_id=np.frombuffer(self.phase_id, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float))


def wrap(rec: SpanRecorder, fn, span: str, counter=None, skip_under: str | None = None):
    """``fn`` with a span around each call while ``rec`` is enabled.

    ``counter(rec, args, result)`` adds work counts after the call. A call
    made directly inside a ``skip_under`` span records nothing, so its time
    stays in that parent's self time.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled or (skip_under is not None and rec.top() == skip_under):
            return fn(*args, **kwargs)
        idx = rec.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if counter is not None:
            counter(rec, args, result)
        return result

    return wrapper


def _count_iterations(rec, args, history):
    rec.count("irs_lqr.iterations", len(history) - 1)


def _count_relaxed(rec, args, result):
    rec.count("irs_lqr.mpc_solve.relaxed", int(getattr(result, "relaxed", False)))


def _count_active_set(rec, args, result):
    rec.count("qp.active_set.iters", result[4])


def _count_samples(rec, args, result):
    rec.count("smoothing.samples", args[1])


def _count_quadrature(rec, args, result):
    rec.count("oracle.quadrature_points", args[3] ** np.atleast_1d(args[1]).shape[0])


def _count_rows(prefix):
    def counter(rec, args, result):
        rec.count(f"{prefix}.step_batch.rows", len(args[1]))
    return counter


def targets():
    """(owner, attribute, span name, counter, skip_under) for every boundary."""
    from bundleopt import contact, irs_lqr, oracle, qp, smoothing, systems, tasks

    out = [
        (irs_lqr, "irs_lqr_run", "irs_lqr.irs_lqr_run", _count_iterations, None),
        (irs_lqr, "linearize_trajectory", "irs_lqr.linearize_trajectory", None, None),
        (irs_lqr, "mpc_solve", "irs_lqr.mpc_solve", _count_relaxed, None),
        (irs_lqr, "jacobian_bundle_first_order",
         "smoothing.jacobian_bundle_first_order", None, None),
        (irs_lqr, "jacobian_bundle_zero_order",
         "smoothing.jacobian_bundle_zero_order", None, None),
        (irs_lqr, "linearize_exact", "systems.linearize_exact", None, None),
        # mpc_solve enters the active set directly; inside solve_qp its time
        # belongs to qp.solve_qp.
        (qp, "_dual_active_set", "qp.active_set", _count_active_set, "qp.solve_qp"),
        (contact, "solve_qp", "qp.solve_qp", None, None),
        (smoothing, "sample_perturbations", "smoothing.sample_perturbations",
         _count_samples, None),
        (smoothing, "first_order_gradient_bundle", "smoothing.gradient_bundle", None, None),
        (smoothing, "zero_order_gradient_bundle", "smoothing.gradient_bundle", None, None),
        (contact, "step_2d_exact", "contact.step_2d_exact", None, None),
        (contact, "step_2d_anitescu", "contact.step_2d_anitescu", None, None),
        (oracle, "convolution_oracle", "oracle.convolution_oracle", None, None),
        (oracle, "gauss_hermite_expectation", "oracle.gauss_hermite_expectation",
         _count_quadrature, None),
        (tasks, "build_task", "tasks.build_task", None, None),
    ]
    for module, prefix in ((systems, "systems"), (contact, "contact")):
        for cls in vars(module).values():
            if (isinstance(cls, type) and issubclass(cls, systems.DynamicalSystem)
                    and cls is not systems.DynamicalSystem
                    and cls.__module__ == module.__name__):
                for method in _METHODS:
                    counter = _count_rows(prefix) if method == "step_batch" else None
                    out.append((cls, method, f"{prefix}.{method}", counter, None))
    return out


class Tracing:
    """Context manager that installs the wrappers and restores the originals.

    Boundaries the program no longer has are skipped and listed in
    ``missing``, so a later refactor reports zero for them rather than
    breaking the benchmark.
    """

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self.saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def __enter__(self):
        for owner, attr, span, counter, skip_under in targets():
            original = vars(owner).get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if original is None:
                if not isinstance(owner, type):
                    self.missing.append(f"{owner.__name__}.{attr}")
                continue
            self.saved.append((owner, attr, original))
            setattr(owner, attr, wrap(self.rec, original, span, counter, skip_under))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()
        return False
