"""Command-line front end.

Subcommands: gen-net, gen-instance, solve, sweep, verify, report. A single
JSON config drives sweep/verify runs; command-line flags override config
fields. verify exits nonzero iff any required check reported failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from ._common import _nonnegative, read_json, require_keys, write_csv
from .generator import Activation, load_net, random_gaussian_net, save_net
from .harness import (REPORT_COLUMNS, ExperimentSpec, report_long_format, run_sweep,
                      run_verify)
from .measurement import (MeasurementModel, build_instance, load_instance,
                          save_instance)
from .solvers import METHODS, SolverConfig, SolverDiverged, metrics, multi_restart, write_trace

_ACTIVATION_FLAGS = {"identity": "identity", "relu": "relu",
                     "leaky-relu": "leaky_relu"}


def _parse_dims(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse --dims {text!r}; "
                         "expected e.g. 20,500,500,784") from None


def _cmd_gen_net(args) -> int:
    act = Activation(_ACTIVATION_FLAGS[args.activation], args.h)
    net = random_gaussian_net(_parse_dims(args.dims), act, _nonnegative(args.seed, "--seed"))
    save_net(net, args.out)
    print(f"wrote network dims={list(net.dims)} activation={net.activation.kind} "
          f"seed={net.seed} -> {args.out}")
    return 0


def _cmd_gen_instance(args) -> int:
    seed = _nonnegative(args.seed, "--seed")
    model_seed = seed if args.model_seed is None else _nonnegative(args.model_seed, "--model-seed")
    net = load_net(args.net)
    try:
        lo, hi = (float(v) for v in args.outlier_range.split(","))
    except ValueError:
        raise ValueError("--outlier-range expects two comma-separated numbers lo,hi, "
                         f"got {args.outlier_range!r}") from None
    model = MeasurementModel(
        m=args.m, n=net.n, matrix_kind=args.matrix,
        outlier_count=args.outliers, outlier_range=(lo, hi),
        outlier_signed=args.signed, noise_target=args.noise,
        seed=model_seed)
    inst = build_instance(net, model, seed=seed)
    save_instance(inst, args.out)
    print(f"wrote instance m={inst.m} n={inst.n} l={inst.outlier_count} "
          f"seed={inst.seed} -> {args.out}")
    return 0


def _solver_config(args) -> SolverConfig:
    base = require_keys(read_json(args.config), (), args.config) if args.config else {}
    base["method"] = args.method
    for key in ("rho", "lambda_reg", "max_iters", "restarts", "init_scale",
                "step_init", "tol_step", "seed"):
        val = getattr(args, key)
        if val is not None:
            base[key] = val
    return SolverConfig.from_dict(base)


def _cmd_solve(args) -> int:
    net = load_net(args.net)
    inst = load_instance(args.instance)
    if inst.z0.shape != (net.k,):
        raise ValueError(f"{args.instance}: instance field z0 has {len(inst.z0)} entries, "
                         f"the net's code has k = {net.k}")
    cfg = _solver_config(args)
    try:
        res = multi_restart(net, inst.M, inst.y, cfg)
    except SolverDiverged as err:
        print(f"solver diverged: {err}", file=sys.stderr)
        return 2
    mets = metrics(net, inst.M, inst.y, res.z_hat, inst.x0)
    payload = {
        "method": cfg.method,
        "config": cfg.to_dict(),
        "z_hat": res.z_hat.tolist(),
        "x_hat": res.x_hat.tolist(),
        **mets._asdict(),
        "iters_used": res.iters_used,
        "restart_index": res.restart_index,
        "converged": res.converged,
        "instance_seed": inst.seed,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    if args.trace:
        write_trace(res.trace, args.trace)
    # The first two metrics; the third is the second over the output size.
    shown = " ".join(f"{name}={value:.6g}" for name, value in zip(mets._fields, mets[:2]))
    print(f"{cfg.method}: {shown} iters={res.iters_used} restart={res.restart_index}")
    return 0


def _load_spec(args) -> ExperimentSpec:
    raw = read_json(args.config)
    if getattr(args, "out", None):
        raw["output_dir"] = args.out
    if getattr(args, "seed", None) is not None:
        raw["seed"] = args.seed
    return ExperimentSpec.from_dict(raw)


def _cmd_sweep(args) -> int:
    spec = _load_spec(args)
    rows, summary = run_sweep(spec, workers=args.workers)
    print(f"sweep '{spec.name}': {len(rows)} result rows, "
          f"{len(summary)} summary rows"
          + (f" -> {spec.output_dir}" if spec.output_dir else ""))
    return 0


def _cmd_verify(args) -> int:
    spec = _load_spec(args)
    manifest = run_verify(spec)
    for rep in manifest["reports"]:
        status = "ok" if rep["failures"] == 0 else "FAIL"
        req = "required" if rep["required"] else "informational"
        print(f"[{status}] {rep['condition_name']}: failures={rep['failures']}"
              f"/{rep['trials']} min_margin={rep['min_margin']:.3g} ({req})")
    print("all passed" if manifest["all_passed"] else "verification FAILED")
    return 0 if manifest["all_passed"] else 1


def _cmd_report(args) -> int:
    results = os.path.join(args.run, "results.csv")
    if not os.path.exists(results):
        raise ValueError(f"no results.csv under {args.run}")
    rows = report_long_format(results)
    out = args.out or os.path.join(args.run, "report.csv")
    write_csv(out, REPORT_COLUMNS, rows)
    print(f"wrote {len(rows)} long-format rows -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genrec",
        description="Recover generative-model latent codes from measurements "
                    "corrupted by sparse gross outliers.")
    parser.add_argument("--version", action="version", version=f"genrec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-net", help="sample a random Gaussian network")
    p.add_argument("--dims", required=True, help="comma-separated widths, e.g. 20,500,500,784")
    p.add_argument("--activation", choices=sorted(_ACTIVATION_FLAGS), default="identity")
    p.add_argument("--h", type=float, default=1.0, help="leaky-ReLU negative slope")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_net)

    p = sub.add_parser("gen-instance", help="assemble y = M G(z0) + e + eta")
    p.add_argument("--net", required=True)
    p.add_argument("--m", type=int, required=True, help="measurement count")
    p.add_argument("--matrix", choices=["gaussian", "identity"], default="gaussian")
    p.add_argument("--outliers", type=int, default=0)
    p.add_argument("--outlier-range", default="5000,10000")
    p.add_argument("--signed", action="store_true")
    p.add_argument("--noise", type=float, default=0.0,
                   help="target sqrt(E ||eta||^2)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model-seed", type=int, default=None,
                   help="seed for the measurement matrix (defaults to --seed)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_instance)

    p = sub.add_parser("solve", help="run one solver on a stored instance")
    p.add_argument("--net", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--method", choices=list(METHODS), required=True)
    p.add_argument("--config", help="JSON solver config; flags override fields")
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--lambda-reg", dest="lambda_reg", type=float, default=None)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--init-scale", dest="init_scale", type=float, default=None)
    p.add_argument("--step-init", dest="step_init", type=float, default=None)
    p.add_argument("--tol-step", dest="tol_step", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="result JSON path")
    p.add_argument("--trace", help="trace CSV path")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="run an experiment sweep from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="output directory (overrides config)")
    p.add_argument("--seed", type=int, default=None, help="override master seed")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="run the theory verification suite")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="output directory (overrides config)")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="emit plot-ready long-format CSV from a run")
    p.add_argument("--run", required=True, help="directory containing results.csv")
    p.add_argument("--out", help="output CSV path (default <run>/report.csv)")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        # Input rejected at the boundary (bad config keys or values, malformed
        # JSON, a file that cannot be read or written): one line, the exit
        # status argparse uses for usage errors.
        print(f"genrec: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
