"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (run with -s to
see them live). Criteria 6, 7, and 9 share one 100-trial recovery run.
Criterion 10 re-executes criteria 1-9 with identical seeds and demands
byte-identical non-timing outputs (compared through SHA-256 digests of the
canonical byte serialization of every result).
"""

import hashlib

import numpy as np

from genrec._common import default_zero_tol
from genrec.generator import (Activation, forward, jacobian,
                              layer_preactivations, random_gaussian_net)
from genrec.measurement import MeasurementModel, build_instance
from genrec.solvers import SolverConfig, admm_l1, metrics, multi_restart
from genrec.theory import (estimate_rho_star, every_r_rows_full_rank,
                           l0_recovery_bruteforce, l0_separation, latent_grid,
                           leaky_beta, leaky_layer_ratios, relu_path_kinks,
                           relu_path_slope, relu_path_value)

from conftest import make_linear_net

RESULTS: dict[str, dict] = {}
_PAIR_CACHE: dict | None = None


def _digest(*parts) -> str:
    """SHA-256 over a canonical byte serialization of nested results."""
    sha = hashlib.sha256()
    for part in parts:
        _feed(sha, part)
    return sha.hexdigest()


def _feed(sha, obj):
    if isinstance(obj, np.ndarray):
        sha.update(b"nd")
        sha.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        sha.update(b"seq")
        for item in obj:
            _feed(sha, item)
    elif isinstance(obj, float):
        sha.update(repr(obj).encode())
    elif isinstance(obj, (int, bool, str)):
        sha.update(str(obj).encode())
    else:
        raise TypeError(f"cannot digest {type(obj)}")


def _record(name, out):
    RESULTS[name] = out
    line = f"ACCEPTANCE {name}: {'PASS' if out['passed'] else 'FAIL'} -- {out['detail']}"
    print(line)
    assert out["passed"], line


# -- criterion 1: analytic Jacobian vs central finite differences -----------

def run_c1():
    widths = (8, 16, 32, 64, 128, 256)
    kinds = [Activation("identity"), Activation("relu"),
             Activation("leaky_relu", 0.1), Activation("leaky_relu", 0.5),
             Activation("leaky_relu", 0.9)]
    worst = 0.0
    digests = []
    for i in range(50):
        rng = np.random.default_rng(np.random.SeedSequence(77, spawn_key=(i,)))
        depth = 1 + i % 4
        k = 2 + i % 5
        dims = [k] + [int(widths[int(rng.integers(len(widths)))])
                      for _ in range(depth)]
        act = kinds[i % len(kinds)]
        net = random_gaussian_net(dims, act, int(rng.integers(2**31)))
        z = rng.standard_normal(k)
        if act.kind != "identity":
            for _ in range(100):
                if all(np.min(np.abs(p)) > 1e-3
                       for p in layer_preactivations(net, z)):
                    break
                z = rng.standard_normal(k)
        jac = jacobian(net, z)
        step = 1e-5
        fd = np.empty_like(jac)
        for j in range(k):
            dz = np.zeros(k)
            dz[j] = step
            fd[:, j] = (forward(net, z + dz) - forward(net, z - dz)) / (2 * step)
        rel = float(np.max(np.abs(jac - fd)) / np.max(np.abs(jac)))
        worst = max(worst, rel)
        digests.append(jac)
        digests.append(rel)
    return {"passed": worst < 1e-5,
            "digest": _digest(digests),
            "detail": f"50 nets, worst relative error {worst:.2e} (< 1e-5)"}


def test_c1_jacobian_correctness():
    _record("C1", run_c1())


# -- criterion 2: l0 separation iff brute-force recovery --------------------

def _exhaustive_l0_argmin(net, M, grid, y, tol):
    counts = [int(np.count_nonzero(np.abs(M @ forward(net, z) - y) > tol))
              for z in grid]
    best = min(counts)
    return [i for i, c in enumerate(counts) if c == best]


def run_c2():
    rng_master = np.random.default_rng(88)
    discrepancies = 0
    cases = 0
    records = []
    # generic k=1 instances (separation m with probability 1)
    for i in range(8):
        net = random_gaussian_net([1, 8], Activation("identity"), 300 + i)
        mat = rng_master.standard_normal((11 + i % 4, 8))
        l = 1 + i % 2
        grid = latent_grid(1, points=201)
        z0 = grid[int(rng_master.integers(201))]
        discrepancies += _roundtrip_case(net, mat, z0, l, grid, records, rng_master)
        cases += 1
    # engineered ties: composite touches exactly 2l coordinates
    for i in range(6):
        l = 1 + i % 3
        w = np.zeros((2 * l + 4, 1))
        w[: 2 * l, 0] = 1.0
        net = make_linear_net([w])
        mat = np.eye(2 * l + 4)
        grid = latent_grid(1, points=201)
        z0 = grid[int(rng_master.integers(201))]
        discrepancies += _roundtrip_case(net, mat, z0, l, grid, records, rng_master)
        cases += 1
    # generic k=2 instances on a 21x21 grid
    for i in range(6):
        net = random_gaussian_net([2, 9], Activation("identity"), 400 + i)
        mat = rng_master.standard_normal((11, 9))
        grid = latent_grid(2, points=21)
        z0 = grid[int(rng_master.integers(grid.shape[0]))]
        discrepancies += _roundtrip_case(net, mat, z0, 1, grid, records, rng_master)
        cases += 1
    return {"passed": discrepancies == 0 and cases >= 20,
            "digest": _digest(records),
            "detail": f"{cases} instances, {discrepancies} discrepancies (= 0)"}


def _roundtrip_case(net, mat, z0, l, grid, records, rng):
    tol = default_zero_tol(mat @ forward(net, z0))
    seps = [l0_separation(net, mat, z, z0, tol)
            for z in grid if not np.array_equal(z, z0)]
    predicted = min(seps) >= 2 * l + 1
    recovered, e = l0_recovery_bruteforce(net, mat, z0, l, grid)
    bad = int(recovered != predicted)
    # sufficiency must also hold for adversarial e built from other candidates
    if predicted:
        mg0 = mat @ forward(net, z0)
        z0_idx = int(np.flatnonzero(np.all(grid == z0, axis=1))[0])
        for _ in range(5):
            cand = int(rng.integers(grid.shape[0]))
            if cand == z0_idx:
                continue
            diff = mat @ forward(net, grid[cand]) - mg0
            support = np.flatnonzero(np.abs(diff) > tol)
            e2 = np.zeros(mat.shape[0])
            e2[support[:l]] = diff[support[:l]]
            minimizers = _exhaustive_l0_argmin(net, mat, grid, mg0 + e2, tol)
            if minimizers != [z0_idx]:
                bad = 1
    records.append([int(min(seps)), bool(predicted), bool(recovered), e])
    return bad


def test_c2_l0_separation_roundtrip():
    _record("C2", run_c2())


# -- criterion 3: every-7-rows rank of 12x3 composites over 100 seeds -------

def run_c3():
    failures = 0
    margins = []
    for seed in range(100):
        rng = np.random.default_rng(np.random.SeedSequence(99, spawn_key=(seed,)))
        w = rng.standard_normal((12, 6)) @ rng.standard_normal((6, 3))
        rep = every_r_rows_full_rank(w, 7)
        assert rep.trials == 792
        failures += rep.failures
        margins.append(rep.min_margin)
    return {"passed": failures == 0,
            "digest": _digest(margins, failures),
            "detail": f"100 seeds x 792 submatrices, {failures} rank failures (= 0)"}


def test_c3_submatrix_rank_enumeration():
    _record("C3", run_c3())


# -- criterion 4: secant slopes of leaky ReLU stay in [h, 1] ----------------

def run_c4():
    rng = np.random.default_rng(111)
    bad = 0
    betas_digest = []
    for i in range(100_000):
        x, y = rng.standard_normal(2)
        if x == y:
            continue
        h = float(rng.uniform(1e-6, 1.0))
        beta = leaky_beta(x, y, h)
        if not h <= beta <= 1.0:
            bad += 1
        if i % 9973 == 0:
            betas_digest.append(beta)
    lifted_bad = 0
    for i in range(100):
        h = float(rng.uniform(0.05, 1.0))
        net = random_gaussian_net([3, 12, 20], Activation("leaky_relu", h),
                                  500 + i)
        z, z0 = rng.standard_normal((2, 3))
        for ratios in leaky_layer_ratios(net, z, z0):
            finite = ratios[np.isfinite(ratios)]
            if finite.size and not (np.all(finite >= h) and np.all(finite <= 1.0)):
                lifted_bad += 1
        betas_digest.append(ratios)
    return {"passed": bad == 0 and lifted_bad == 0,
            "digest": _digest(betas_digest, bad, lifted_bad),
            "detail": f"1e5 triples: {bad} out of [h,1]; "
                      f"100 nets lifted: {lifted_bad} layer violations (= 0)"}


def test_c4_leaky_secant_bounds():
    _record("C4", run_c4())


# -- criterion 5: ReLU path slope equals forward difference -----------------

def run_c5():
    worst = 0.0
    digests = []
    done = 0
    i = 0
    while done < 1000:
        rng = np.random.default_rng(np.random.SeedSequence(123, spawn_key=(i,)))
        i += 1
        hcol = rng.standard_normal(50)
        gc = rng.standard_normal(50)
        t = float(rng.uniform(0.0, 3.0))
        kinks = relu_path_kinks(hcol, gc)
        ahead = kinks[kinks > t]
        gap = float(ahead[0] - t) if ahead.size else 1.0
        if gap < 4e-4 or np.any((kinks <= t) & (kinks > t - 1e-9)):
            continue
        done += 1
        eps = min(gap / 2.0, 0.5)
        slope = relu_path_slope(hcol, gc, t)
        fd = (relu_path_value(hcol, gc, t + eps)
              - relu_path_value(hcol, gc, t)) / eps
        worst = max(worst, abs(slope - fd))
        if done % 97 == 0:
            digests.append(slope)
            digests.append(fd)
    return {"passed": worst <= 1e-9,
            "digest": _digest(digests, worst),
            "detail": f"1000 cases, worst |formula - fd| = {worst:.2e} (<= 1e-9)"}


def test_c5_relu_slope_formula():
    _record("C5", run_c5())


# -- criteria 6, 7, 9: the 100-trial recovery run ----------------------------

def run_c6_c7_c9():
    trials = 100
    ok_admm = ok_gd = 0
    er_admm, er_l2 = [], []
    rels, z_bytes = [], []
    gd_monotone = True
    for trial in range(trials):
        net = random_gaussian_net([5, 30, 60], Activation("identity"),
                                  1000 + trial)
        model = MeasurementModel(m=40, n=60, outlier_count=3, seed=2000 + trial)
        inst = build_instance(net, model, seed=3000 + trial)
        res = {}
        for method in ("admm-l1", "gd-l1sq", "gd-l2sq"):
            cfg = SolverConfig(method=method, max_iters=1000, restarts=10,
                               seed=trial)
            res[method] = multi_restart(net, inst.M, inst.y, cfg)
            if method.startswith("gd"):
                objs = [rec.objective for rec in res[method].trace]
                if any(b > a for a, b in zip(objs, objs[1:])):
                    gd_monotone = False
        denom = float(np.linalg.norm(inst.z0))
        rel_a = float(np.linalg.norm(res["admm-l1"].z_hat - inst.z0)) / denom
        rel_g = float(np.linalg.norm(res["gd-l1sq"].z_hat - inst.z0)) / denom
        ok_admm += rel_a < 1e-3
        ok_gd += rel_g < 1e-3
        rels.extend([rel_a, rel_g])
        er_admm.append(metrics(net, inst.M, inst.y, res["admm-l1"].z_hat,
                               inst.x0).eps_r)
        er_l2.append(metrics(net, inst.M, inst.y, res["gd-l2sq"].z_hat,
                             inst.x0).eps_r)
        z_bytes.extend(res[m].z_hat for m in ("admm-l1", "gd-l1sq", "gd-l2sq"))

    med_admm = float(np.median(er_admm))
    med_l2 = float(np.median(er_l2))
    ratio = med_l2 / max(med_admm, 1e-300)

    # bookkeeping probes on the first instance
    net = random_gaussian_net([5, 30, 60], Activation("identity"), 1000)
    model = MeasurementModel(m=40, n=60, outlier_count=3, seed=2000)
    inst = build_instance(net, model, seed=3000)
    states = []
    admm_l1(net, inst.M, inst.y,
            SolverConfig(method="admm-l1", max_iters=30, seed=0),
            probe=states.append)
    prox_worst = 0.0
    normal_worst = 0.0
    for state in states:
        v, rho, w = state["w_input"], state["rho"], state["w"]
        oracle = np.array([_prox_oracle(vi, rho) for vi in v])
        prox_worst = max(prox_worst, float(np.max(np.abs(w - oracle))))
        a, rhs, z_new = state["A"], state["rhs"], state["z_new"]
        resid = float(np.linalg.norm(a.T @ (a @ z_new - rhs)))
        normal_worst = max(normal_worst,
                           resid / (float(np.linalg.norm(a.T @ rhs)) + 1.0))

    c6 = {"passed": ok_admm >= 95 and ok_gd >= 95,
          "digest": _digest(rels, z_bytes, ok_admm, ok_gd),
          "detail": f"admm {ok_admm}/100, gd-l1sq {ok_gd}/100 at rel err < 1e-3 "
                    f"(>= 95 each)"}
    c7 = {"passed": ratio >= 1e3,
          "digest": _digest(er_admm, er_l2),
          "detail": f"median eps_r l2/l1 ratio {ratio:.2e} (>= 1e3)"}
    c9 = {"passed": prox_worst <= 1e-10 and normal_worst < 1e-8 and gd_monotone,
          "digest": _digest(prox_worst, normal_worst, gd_monotone),
          "detail": f"prox mismatch {prox_worst:.1e} (<= 1e-10), normal-eq "
                    f"residual {normal_worst:.1e} (< 1e-8), GD monotone: "
                    f"{gd_monotone}"}
    return {"C6": c6, "C7": c7, "C9": c9}


def _prox_oracle(v, rho):
    cands = [0.0]
    if v - 1.0 / rho > 0:
        cands.append(v - 1.0 / rho)
    if v + 1.0 / rho < 0:
        cands.append(v + 1.0 / rho)
    return min(cands, key=lambda w: abs(w) + rho / 2 * (v - w) ** 2)


def _pair_results():
    global _PAIR_CACHE
    if _PAIR_CACHE is None:
        _PAIR_CACHE = run_c6_c7_c9()
    return _PAIR_CACHE


def test_c6_linear_net_exact_recovery():
    _record("C6", _pair_results()["C6"])


def test_c7_l1_vs_l2_outlier_separation():
    _record("C7", _pair_results()["C7"])


# -- criterion 8: positive correctable outlier fraction ---------------------

def run_c8():
    reports_digest = []
    passed = True
    details = []
    for h in (0.2, 1.0):
        net = random_gaussian_net([10, 40, 160], Activation("leaky_relu", h),
                                  2024)
        reports = estimate_rho_star(net, trials=1000, rho_grid=[0.02],
                                    K_mode="worst_by_magnitude", seed=31)
        rep = reports[0]
        passed = passed and rep.failures == 0
        details.append(f"h={h}: {rep.failures}/1000 failures, "
                       f"min margin {rep.min_margin:.3g}")
        reports_digest.extend([rep.failures, rep.min_margin])
    return {"passed": passed,
            "digest": _digest(reports_digest),
            "detail": "; ".join(details) + " (zero failures at rho=0.02)"}


def test_c8_rho_star_positive():
    _record("C8", run_c8())


def test_c9_solver_bookkeeping():
    _record("C9", _pair_results()["C9"])


# -- criterion 10: byte-identical reruns ------------------------------------

def test_c10_determinism():
    singles = {"C1": run_c1, "C2": run_c2, "C3": run_c3, "C4": run_c4,
               "C5": run_c5, "C8": run_c8}
    fresh = {name: fn() for name, fn in singles.items()}
    fresh.update(run_c6_c7_c9())
    mismatched = []
    for name in sorted(fresh):
        baseline = RESULTS.get(name) or fresh[name]
        if fresh[name]["digest"] != baseline["digest"]:
            mismatched.append(name)
    out = {"passed": not mismatched,
           "digest": _digest(sorted(fresh)),
           "detail": ("all criteria reproduce byte-identically"
                      if not mismatched else f"mismatches: {mismatched}")}
    _record("C10", out)
