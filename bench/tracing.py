"""Per-layer tracing from outside genrec.

`Tracer.installed()` replaces public functions in genrec's module namespaces
with wrappers that record one span per call (name, start, end, parent span,
operation index), and puts the originals back on exit. Spans stay in memory;
`layer_metrics` turns them into the per-layer metrics after the run. A span's
self time is its duration minus the durations of its direct children, which
never overlap because every call here runs on one thread.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import time

from genrec import harness, measurement, solvers, theory

METHODS = ("admm-l1", "gd-l1sq", "gd-l2sq")
DEFAULT_CHECKS = ("gaussian_full_rank", "every_r_rows_full_rank", "leaky_beta_range",
                  "leaky_layer_lift", "k_majority", "relu_path_slope", "norm_bounds",
                  "l0_roundtrip")

# (name, unit, better): every per-layer metric, in the order they are printed.
PER_LAYER = (
    [("generator.forward.calls", "count", "lower"),
     ("generator.forward.us", "us", "lower"),
     ("generator.jacobian.calls", "count", "lower"),
     ("generator.jacobian.us", "us", "lower"),
     ("measurement.build_instance.calls", "count", "lower"),
     ("measurement.build_instance.ms", "ms", "lower")]
    + [(f"solvers.{m}.{stat}", unit, better) for m in METHODS
       for stat, unit, better in (("restarts", "count", "lower"),
                                  ("iters", "count", "lower"),
                                  ("converged", "count", "higher"),
                                  ("iter_us", "us", "lower"),
                                  ("self_us_per_iter", "us", "lower"))]
    + [("solvers.admm.zsolve.us", "us", "lower"),
       ("solvers.admm.prox.us", "us", "lower"),
       ("solvers.gd.line_search.evals", "count", "lower"),
       ("solvers.gd.line_search.accept_ratio", "ratio", "higher"),
       ("solvers.metrics.us", "us", "lower")]
    + [(f"verify.{c}.ms", "ms", "lower") for c in DEFAULT_CHECKS]
    + [("harness.sweep.solver_busy_s", "s", "lower"),
       ("harness.sweep.pool_efficiency", "ratio", "higher"),
       ("harness.summarize_rows.ms", "ms", "lower"),
       ("harness.write_csv.ms", "ms", "lower")])


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.end = name, start, start
        self.parent, self.op, self.info = parent, op, None


def _restart_info(res, args, kwargs):
    return {"iters": res.iters_used, "converged": res.converged}


def _sweep_info(ret, args, kwargs):
    rows, _ = ret
    return {"busy_s": sum(r["wall_ms"] for r in rows) / 1e3, "workers": kwargs["workers"]}


# (module, attribute, span name, info): the wrapped call sites. forward and
# jacobian are wrapped where solvers, theory and harness look them up.
_TARGETS = (
    (solvers, "forward", "generator.forward", None),
    (solvers, "jacobian", "generator.jacobian", None),
    (theory, "forward", "generator.forward", None),
    (harness, "forward", "generator.forward", None),
    (solvers, "pseudo_inverse", "solvers.pseudo_inverse", None),
    (solvers, "soft_threshold", "solvers.soft_threshold", None),
    (solvers, "metrics", "solvers.metrics", None),
    (solvers, "admm_l1", "restart.admm-l1", _restart_info),
    (solvers, "gd_squared_l1", "restart.gd-l1sq", _restart_info),
    (solvers, "gd_squared_l2", "restart.gd-l2sq", _restart_info),
    (measurement, "build_instance", "measurement.build_instance", None),
    (harness, "run_sweep", "harness.run_sweep", _sweep_info),
    (harness, "summarize_rows", "harness.summarize_rows", None),
    (harness, "write_csv", "harness.write_csv", None),
)


class Tracer:
    """Span recorder. Set `op` to the index of the timed operation in
    progress; spans recorded while it is None belong to set-up."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = None

    def wrap(self, name, fn, info=None):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, time.perf_counter(),
                        self._stack[-1] if self._stack else -1, self.op)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                ret = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span.info = info(ret, args, kwargs)
            return ret
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in _TARGETS]
        # The default checks have no public names; run_verify looks each one
        # up in this table, so its entries are the place to wrap them.
        runners = dict(harness._CHECK_RUNNERS)
        try:
            for (mod, attr, name, info), (_, _, orig) in zip(_TARGETS, saved):
                setattr(mod, attr, self.wrap(name, orig, info))
            for check, fn in runners.items():
                harness._CHECK_RUNNERS[check] = self.wrap(f"verify.{check}", fn)
            yield self
        finally:
            for mod, attr, orig in saved:
                setattr(mod, attr, orig)
            harness._CHECK_RUNNERS.update(runners)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def write_spans(spans: list[Span], path) -> None:
    """All spans as gzipped CSV: name, start and end in s, parent row, operation."""
    with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["name", "start_s", "end_s", "parent", "op"])
        for s in spans:
            out.writerow([s.name, s.start, s.end, s.parent, "" if s.op is None else s.op])


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Every PER_LAYER metric. Values are per timed operation, except the
    build_instance pair, which covers set-up. Layers a workload does not
    reach read 0."""
    own = self_times(spans)
    ops = [i for i, s in enumerate(spans) if s.op is not None]
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i in ops:
        s = spans[i]
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        calls[s.name] = calls.get(s.name, 0) + 1
    n = max(n_ops, 1)
    out = {
        "generator.forward.calls": calls.get("generator.forward", 0) / n,
        "generator.forward.us": total.get("generator.forward", 0.0) / n * 1e6,
        "generator.jacobian.calls": calls.get("generator.jacobian", 0) / n,
        "generator.jacobian.us": total.get("generator.jacobian", 0.0) / n * 1e6,
    }
    setup = [s for s in spans if s.op is None and s.name == "measurement.build_instance"]
    out["measurement.build_instance.calls"] = float(len(setup))
    out["measurement.build_instance.ms"] = sum(s.end - s.start for s in setup) * 1e3

    forwards_in = {}
    for i in ops:
        s = spans[i]
        if s.name == "generator.forward" and s.parent >= 0:
            forwards_in[s.parent] = forwards_in.get(s.parent, 0) + 1
    trials = accepted = 0
    for m in METHODS:
        restarts = [i for i in ops if spans[i].name == f"restart.{m}"]
        done = [spans[i].info for i in restarts if spans[i].info is not None]
        iters = sum(d["iters"] for d in done)
        out[f"solvers.{m}.restarts"] = len(restarts) / n
        out[f"solvers.{m}.iters"] = iters / n
        out[f"solvers.{m}.converged"] = sum(d["converged"] for d in done) / n
        busy = sum(spans[i].end - spans[i].start for i in restarts)
        out[f"solvers.{m}.iter_us"] = busy / iters * 1e6 if iters else 0.0
        out[f"solvers.{m}.self_us_per_iter"] = (
            sum(own[i] for i in restarts) / iters * 1e6 if iters else 0.0)
        if m != "admm-l1":
            # _descend evaluates G once at the start and once for x_hat; every
            # other forward call is an Armijo trial point.
            trials += sum(forwards_in.get(i, 0) - 2 for i in restarts)
            accepted += iters
    out["solvers.admm.zsolve.us"] = total.get("solvers.pseudo_inverse", 0.0) / n * 1e6
    out["solvers.admm.prox.us"] = total.get("solvers.soft_threshold", 0.0) / n * 1e6
    out["solvers.gd.line_search.evals"] = trials / n
    out["solvers.gd.line_search.accept_ratio"] = accepted / trials if trials else 0.0
    out["solvers.metrics.us"] = total.get("solvers.metrics", 0.0) / n * 1e6
    for c in DEFAULT_CHECKS:
        out[f"verify.{c}.ms"] = total.get(f"verify.{c}", 0.0) / n * 1e3

    sweeps = [spans[i] for i in ops if spans[i].name == "harness.run_sweep"]
    busy = sum(s.info["busy_s"] for s in sweeps)
    capacity = sum(s.info["workers"] * (s.end - s.start) for s in sweeps)
    out["harness.sweep.solver_busy_s"] = busy / n
    out["harness.sweep.pool_efficiency"] = busy / capacity if capacity else 0.0
    out["harness.summarize_rows.ms"] = total.get("harness.summarize_rows", 0.0) / n * 1e3
    out["harness.write_csv.ms"] = total.get("harness.write_csv", 0.0) / n * 1e3
    return out
