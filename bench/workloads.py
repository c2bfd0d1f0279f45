"""The benchmark's workloads, one per process.

bench/run.py starts this file in a fresh interpreter for each workload (and
for each extra set-up measurement), so that imports, memory peaks and BLAS
settings never carry over between runs:

    python3 bench/workloads.py --workload NAME --seed N --seconds S [--trace] [--setup-only]

It builds the workload's inputs from the seed, runs one untimed warm-up
operation, then runs operations over those inputs in turn until S seconds
have passed, and prints one JSON line with the operation times and check
results. With --trace it instead makes one pass over the inputs without
tracing and one with, and adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from genrec import harness, measurement, solvers  # noqa: E402
from genrec.generator import Activation, random_gaussian_net  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
from tracing import METHODS, PER_LAYER, Tracer, layer_metrics, write_spans  # noqa: E402

RUNS_DIR = ROOT / "bench" / "_runs"
SWEEP_WORKERS = 2
# The warm-up operation's inputs come from this fixed seed, so that set-up
# time does not depend on which instance --seed puts first (recover-linear
# operations take 0.2-0.75 s, depending on the instance).
WARMUP_SEED = 99

# Looked up on genrec.solvers at call time, so the traced run sees its wrappers.
SOLVER_ATTR = {"admm-l1": "admm_l1", "gd-l1sq": "gd_squared_l1", "gd-l2sq": "gd_squared_l2"}

# The README's sweep example; each operation runs it with a seed from --seed.
SWEEP_CONFIG = {
    "name": "error-vs-measurements",
    "net": {"dims": [4, 20, 60], "activation": {"kind": "leaky_relu", "h": 0.2}, "seed": 3},
    "measurement": {"matrix_kind": "gaussian", "outlier_count": 3,
                    "outlier_range": [5000, 10000], "noise_target": 0.0},
    "sweep": {"axis": "measurements", "values": [6, 10, 16, 28, 48]},
    "solvers": [{"method": m, "max_iters": 400, "restarts": 5} for m in METHODS],
    "trials_per_point": 3,
    "seed": 11,
}

# The README's verify example: the default suite.
VERIFY_CONFIG = {"name": "default-verification",
                 "sweep": {"axis": "rho_grid", "values": [0.02, 0.05, 0.1]},
                 "seed": 0, "checks": None}


def derived_seeds(seed: int, index: int, count: int) -> list[int]:
    ss = np.random.SeedSequence(int(seed), spawn_key=(index,))
    return [int(s) for s in ss.generate_state(count, np.uint64)]


class Recover:
    """One operation: one instance, solved by each method through
    multi_restart and scored by solvers.metrics, as a sweep trial does.

    A recovery miss by a method in `faulty` marks the operation failed (a
    known program fault); every other check problem makes the run incorrect.
    Index None is the warm-up instance.
    """

    def __init__(self, name, dims, activation, m, outliers, methods, cfg,
                 instances, seed, faulty=()):
        self.name, self.methods, self.faulty = name, methods, faulty
        self.items = []
        for s in [derived_seeds(seed, i, 4) for i in range(instances)] + \
                [derived_seeds(WARMUP_SEED, 0, 4)]:
            s_net, s_model, s_inst, s_solver = s
            net = random_gaussian_net(dims, activation, s_net)
            model = measurement.MeasurementModel(m=m, n=dims[-1], outlier_count=outliers,
                                                 seed=s_model)
            inst = measurement.build_instance(net, model, seed=s_inst)
            cfgs = {meth: solvers.SolverConfig(method=meth, seed=s_solver, **cfg)
                    for meth in methods}
            self.items.append((net, inst, cfgs))
        self.warm = self.items.pop()

    def __len__(self):
        return len(self.items)

    def _item(self, i):
        return self.warm if i is None else self.items[i]

    def run(self, i):
        net, inst, cfgs = self._item(i)
        out = {}
        for meth in self.methods:
            solver = getattr(solvers, SOLVER_ATTR[meth])
            res = solvers.multi_restart(net, inst.M, inst.y, cfgs[meth], solver=solver)
            out[meth] = (res, solvers.metrics(net, inst.M, inst.y, res.z_hat, inst.x0))
        return out

    def check(self, i, out):
        net, inst, _ = self._item(i)
        w, b = net.weights, net.biases
        kind, h = net.activation.kind, net.activation.h
        failed, problems = False, []
        for meth, (res, mets) in out.items():
            label = f"{self.name} op {'warm-up' if i is None else i} {meth}"
            if meth != "gd-l2sq":
                miss = checks.check_recovered(label, res.z_hat, inst.z0)
                failed |= bool(miss) and meth in self.faulty
                problems += [] if meth in self.faulty else miss
            elif kind == "identity":
                problems += checks.check_lstsq(label, res.z_hat, w, b, inst.M, inst.y)
            if meth != "admm-l1":
                problems += checks.check_monotone(label, [r.objective for r in res.trace])
            for what, eps_m in (("result", res.eps_m), ("metrics", mets.eps_m)):
                problems += checks.check_eps_m(f"{label} {what}", eps_m, w, b, kind, h,
                                               inst.M, inst.y, res.z_hat)
        return failed, problems


class Verify:
    """One operation: one run_verify of the default suite."""

    def __init__(self):
        self.spec = harness.ExperimentSpec.from_dict(VERIFY_CONFIG)
        self.suite = harness.default_checks()
        for entry in self.suite:   # run_verify feeds the rho_grid axis to k_majority
            if entry["name"] == "k_majority":
                entry["rho_grid"] = list(VERIFY_CONFIG["sweep"]["values"])

    def __len__(self):
        return 1

    def run(self, i):
        return harness.run_verify(self.spec)

    def check(self, i, manifest):
        return False, checks.check_manifest(manifest, self.suite)


class Sweep:
    """One operation: one run_sweep with 2 workers, writing its CSVs to a
    fresh directory. The inputs are `specs` configs, each with its own seed;
    index None is the README's config itself, for the warm-up."""

    def __init__(self, seed, specs):
        self.configs = [dict(SWEEP_CONFIG, seed=derived_seeds(seed, i, 1)[0])
                        for i in range(specs)]
        self.first = {}
        self.count = 0

    def __len__(self):
        return len(self.configs)

    def _config(self, i):
        return SWEEP_CONFIG if i is None else self.configs[i]

    def run(self, i):
        out_dir = RUNS_DIR / f"{os.getpid()}-{self.count}"
        self.count += 1
        spec = harness.ExperimentSpec.from_dict(dict(self._config(i), output_dir=str(out_dir)))
        harness.run_sweep(spec, workers=SWEEP_WORKERS)
        return out_dir

    def check(self, i, out_dir):
        results = checks.read_csv(out_dir / "results.csv")
        summary = checks.read_csv(out_dir / "summary.csv")
        shutil.rmtree(out_dir)
        sweep = self._config(i)["sweep"]["values"]
        problems = checks.check_sweep_rows(results, sweep, SWEEP_CONFIG["trials_per_point"],
                                           list(METHODS))
        problems += checks.check_summary(results, summary)
        problems += checks.check_l1_claim(summary, max(sweep))
        seen = (checks.non_timing(results), summary)
        if self.first.setdefault(i, seen) != seen:
            problems.append("sweep: non-timing outputs differ between operations of one config")
        return False, problems


def _recover_paper(seed):
    # Fixed inputs, whatever --seed says: every operation hits the default-rho
    # ADMM fault, and a failure share that depended on the seed could not be
    # compared between runs.
    return Recover("recover-paper", (20, 500, 500, 784), Activation("leaky_relu", 0.2),
                   m=200, outliers=10, methods=("admm-l1", "gd-l1sq"), cfg={},
                   instances=2, seed=0, faulty=("admm-l1",))


WORKLOADS = {
    "recover-linear": lambda seed: Recover(
        "recover-linear", (5, 30, 60), Activation("identity"), m=40, outliers=3,
        methods=METHODS, cfg={"max_iters": 1000, "restarts": 10}, instances=64, seed=seed),
    "recover-paper": _recover_paper,
    # Fixed seed 0: relu_path_slope fails on some other seeds (see README.md).
    "verify-default": lambda seed: Verify(),
    "sweep-2w": lambda seed: Sweep(seed, specs=2),
}


# The host-speed kernel (hostspeed.py) that each workload's times are scaled
# by: the one whose work is most like the workload's. Scaled by interp,
# recover-paper's spread over ten runs grew from 0.04 to 0.08-0.18; scaled
# by blas, the other workloads' spreads shrank less than by interp.
HOST_KERNEL = {"recover-linear": "interp", "recover-paper": "blas",
               "verify-default": "interp", "sweep-2w": "interp"}


def timed_ops(wl, seconds=None, tracer=None, cal=None, kernel=None):
    """Operations on the workload's inputs in order, cycling, until `seconds`
    have passed; with seconds None, exactly one pass over the inputs. All
    operations of one workload fail alike (recover-paper) or pass alike, so
    the failed share does not depend on where a run stops. With a list
    `cal`, times of the host-speed kernel `kernel` are appended to it after
    each operation.
    Returns (times_s, failed, problems)."""
    times, failed, problems = [], 0, []
    start = time.perf_counter()
    while (len(times) < len(wl) if seconds is None
           else not times or time.perf_counter() - start < seconds):
        i = len(times) % len(wl)
        if tracer is not None:
            tracer.op = len(times)
        t0 = time.perf_counter()
        out = wl.run(i)
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.op = None
        f, p = wl.check(i, out)
        failed += f
        problems += p
        if cal is not None:
            cal += hostspeed.sample(kernel, hostspeed.CAL_SHARE * times[-1])
    return times, failed, problems


def peak_rss_mb() -> float:
    """Peak RSS of this process plus, for the sweep pool, SWEEP_WORKERS times
    the largest worker's peak (RUSAGE_CHILDREN is 0 in the other workloads)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + SWEEP_WORKERS * kids) / 1024.0


def smoke(name, seed=0):
    """Set up one workload, run and check its warm-up and one operation:
    (that operation's failed flag, the problems of both)."""
    wl = WORKLOADS[name](seed)
    _, problems = wl.check(None, wl.run(None))
    failed, more = wl.check(0, wl.run(0))
    return failed, problems + more


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    RUNS_DIR.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        wl = WORKLOADS[args.workload](args.seed)
    _, problems = wl.check(None, wl.run(None))   # warm-up: untimed, not counted
    result = {"ready": time.monotonic(), "problems": problems}
    kernel = HOST_KERNEL[args.workload]
    hostspeed.sample(kernel, 0.0)   # its first call in a process runs cold
    cal = hostspeed.sample(kernel, 0.0, hostspeed.CAL_SETUP)
    if not args.setup_only:
        times, failed, more = timed_ops(wl, None if tracer else args.seconds,
                                        cal=None if tracer else cal, kernel=kernel)
        problems += more
        if tracer:
            result["untraced_op_s"] = times
            with tracer.installed():
                traced, f, more = timed_ops(wl, tracer=tracer)
            result["traced_op_s"] = traced
            write_spans(tracer.spans, RUNS_DIR / f"spans-{args.workload}-{args.seed}.csv.gz")
            layers = layer_metrics(tracer.spans, len(traced))
            result["layers"] = [[name, unit, layers[name]] for name, unit, _ in PER_LAYER]
            times, failed = times + traced, failed + f
            problems += more
        result.update(op_s=times, failed=failed, peak_rss_mb=peak_rss_mb())
    result.update(kernel=kernel, cal_s=cal)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
