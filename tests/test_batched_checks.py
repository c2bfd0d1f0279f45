"""The batched verification checks against the per-trial loops they replace.

Each reference below is the loop version of a check, kept as it was before
the checks ran on (trials, .) blocks. The batched code draws the same random
numbers in the same order and does the same arithmetic per row, so every
report field must be equal, not just close. BLOCK_ELEMENTS is patched small
in some tests so that trial counts span several chunks, end in a partial
chunk, or fit in less than one.
"""

import itertools
import math
import sys

import numpy as np
import pytest

from genrec import _common, harness, theory
from genrec._common import substream
from genrec.generator import Activation, LEAKY_RELU, forward, random_gaussian_net
from genrec.solvers import default_zero_tol


# ---------------------------------------------------------------------------
# Loop references
# ---------------------------------------------------------------------------

def ref_norm_bounds_check(H, trials, h, rho_grid=None, seed=0):
    n, nm = H.shape
    if rho_grid is None:
        rho_grid = (0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5)
    rho_grid = [float(r) for r in rho_grid]
    sizes = [int(math.floor(r * n)) for r in rho_grid]
    min_ratio = math.inf
    max_ratio = 0.0
    adv_max = [0.0] * len(rho_grid)
    failures = 0
    for t in range(trials):
        rng = substream(seed, (t,))
        g = rng.standard_normal(nm)
        norm = float(np.linalg.norm(g))
        while norm == 0.0:
            g = rng.standard_normal(nm)
            norm = float(np.linalg.norm(g))
        hv = np.abs(H @ (g / norm))
        ratio = float(np.sum(hv)) / n
        if ratio <= 0.0:
            failures += 1
        min_ratio = min(min_ratio, ratio)
        max_ratio = max(max_ratio, ratio)
        hv_sorted = np.sort(hv)[::-1]
        csum = np.cumsum(hv_sorted)
        for i, size in enumerate(sizes):
            if size:
                adv_max[i] = max(adv_max[i], float(csum[size - 1]) / n)
    admissible = [rho for rho, adv in zip(rho_grid, adv_max) if adv < min_ratio / 2.0]
    return theory.ConditionReport(
        condition_name="norm_bounds",
        trials=trials, failures=failures, min_margin=h * min_ratio,
        params={
            "n": n, "alpha": (n - nm) / n, "h": h,
            "lambda_min_hat": h * min_ratio,
            "lambda_max_hat": h * max_ratio,
            "rho_grid": rho_grid,
            "adversarial_partial": [h * a for a in adv_max],
            "largest_admissible_rho": max(admissible) if admissible else 0.0,
            "seed": seed,
        })


def ref_worst_support(delta, size):
    if size == 0:
        return np.empty(0, dtype=int)
    order = np.argsort(-np.abs(np.asarray(delta)), kind="stable")
    return order[:size]


def ref_estimate_rho_star(net, trials, rho_grid, K_mode="worst_by_magnitude", seed=0):
    reports = []
    for ri, rho in enumerate(rho_grid):
        rho = float(rho)
        size = int(math.floor(rho * net.n))
        failures = 0
        min_margin = math.inf
        for t in range(trials):
            rng = substream(seed, (ri, t))
            r = rng.standard_normal(net.k)
            c = rng.standard_normal(net.k)
            while not np.any(c):
                c = rng.standard_normal(net.k)
            delta = forward(net, r + c) - forward(net, r)
            if K_mode == "worst_by_magnitude":
                idx = ref_worst_support(delta, size)
            else:
                idx = rng.choice(net.n, size=size, replace=False)
            on_k = float(np.sum(np.abs(delta[idx]))) if size else 0.0
            margin = float(np.sum(np.abs(delta))) - 2.0 * on_k
            min_margin = min(min_margin, margin)
            if margin <= 0.0:
                failures += 1
        reports.append(theory.ConditionReport(
            condition_name="k_majority",
            trials=trials, failures=failures, min_margin=min_margin,
            params={"rho": rho, "K_size": size, "K_mode": K_mode,
                    "dims": list(net.dims), "activation": net.activation.to_dict(),
                    "regime": "resampled_r", "seed": seed}))
    return reports


def ref_l0_recovery_bruteforce(net, M, z0, l, grid, zero_tol=None):
    z0_idx = int(np.flatnonzero(np.all(grid == z0, axis=1))[0])
    mg0 = M @ forward(net, z0)
    if zero_tol is None:
        zero_tol = default_zero_tol(mg0)
    outputs = np.empty((grid.shape[0], M.shape[0]))
    for i, z in enumerate(grid):
        outputs[i] = M @ forward(net, z)
    diffs = outputs - mg0
    seps = np.count_nonzero(np.abs(diffs) > zero_tol, axis=1)
    others = np.arange(grid.shape[0]) != z0_idx
    worst = int(np.flatnonzero(others)[np.argmin(seps[others])])
    e = np.zeros(M.shape[0])
    support = np.flatnonzero(np.abs(diffs[worst]) > zero_tol)
    taken = support[: min(l, support.size)]
    e[taken] = diffs[worst][taken]
    y = mg0 + e
    counts = np.count_nonzero(np.abs(outputs - y) > zero_tol, axis=1)
    minimizers = np.flatnonzero(counts == counts.min())
    recovered = minimizers.size == 1 and int(minimizers[0]) == z0_idx
    return recovered, e


def ref_every_r_rows_full_rank(W, r, sv_tol=None):
    n, k = W.shape
    if sv_tol is None:
        sv_tol = 1e-10 * float(np.linalg.svd(W, compute_uv=False)[0])
    failures = 0
    min_sv = math.inf
    for rows in itertools.combinations(range(n), r):
        sv = np.linalg.svd(W[list(rows)], compute_uv=False)[-1]
        min_sv = min(min_sv, float(sv))
        if sv <= sv_tol:
            failures += 1
    return theory.ConditionReport(
        condition_name="every_r_rows_full_rank",
        trials=math.comb(n, r), failures=failures, min_margin=min_sv,
        params={"n": n, "k": k, "r": r, "sv_tol": sv_tol})


def ref_check_leaky_beta_range(params, seed):
    trials = int(params.get("trials", 10_000))
    rng = substream(seed, ())
    failures = 0
    min_margin = math.inf
    for _ in range(trials):
        x, y = rng.standard_normal(2)
        while x == y:
            x, y = rng.standard_normal(2)
        h = rng.uniform(1e-6, 1.0)
        beta = theory.leaky_beta(x, y, h)
        margin = min(beta - h, 1.0 - beta)
        min_margin = min(min_margin, margin)
        if not h <= beta <= 1.0:
            failures += 1
    return [(theory.ConditionReport(
        "leaky_beta_range", trials, failures, min_margin, {"seed": seed}), True)]


def ref_leaky_layer_ratios(net, z, z0):
    h = net.activation.h
    a, b = np.asarray(z, dtype=float), np.asarray(z0, dtype=float)
    ratios = []
    for w, bias in zip(net.weights, net.biases):
        pre_a = w @ a + bias
        pre_b = w @ b + bias
        ratios.append(theory.leaky_beta_vector(pre_a, pre_b, h))
        a = net.activation.apply(pre_a)
        b = net.activation.apply(pre_b)
    return ratios


def ref_check_leaky_layer_lift(params, seed):
    dims = list(params.get("dims", [6, 24, 48]))
    h = float(params.get("h", 0.2))
    pairs = int(params.get("pairs", 50))
    net = random_gaussian_net(dims, Activation(LEAKY_RELU, h), seed)
    failures = 0
    min_margin = math.inf
    for t in range(pairs):
        rng = substream(seed, (t,))
        z = rng.standard_normal(net.k)
        z0 = rng.standard_normal(net.k)
        for ratios in ref_leaky_layer_ratios(net, z, z0):
            finite = ratios[np.isfinite(ratios)]
            if finite.size == 0:
                continue
            margin = float(min(np.min(finite) - h, 1.0 - np.max(finite)))
            min_margin = min(min_margin, margin)
            if margin < 0:
                failures += 1
    return [(theory.ConditionReport(
        "leaky_layer_lift", pairs, failures, min_margin,
        {"dims": dims, "h": h, "bias": "gaussian", "seed": seed}), True)]


def same_reports(got, want):
    assert [r.to_dict() for r in got] == [r.to_dict() for r in want]


@pytest.fixture
def small_blocks(monkeypatch):
    """Chunks of BLOCK_ELEMENTS = 100 entries: a few rows each."""
    monkeypatch.setattr(_common, "BLOCK_ELEMENTS", 100)


# ---------------------------------------------------------------------------
# Chunking
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rows, width", [(0, 5), (1, 5), (13, 20), (15, 20), (7, 1000),
                                         (40_000, 1)])
def test_row_chunks_cover_rows_in_budgeted_slices(rows, width):
    chunks = _common.row_chunks(rows, width)
    covered = [i for s in chunks for i in range(s.start, s.stop)]
    assert covered == list(range(rows))
    step = max(1, _common.BLOCK_ELEMENTS // width)
    assert all(0 < s.stop - s.start <= step for s in chunks)


# ---------------------------------------------------------------------------
# norm_bounds
# ---------------------------------------------------------------------------

class TestNormBounds:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("trials", [1, 3, 13, 15])
    def test_matches_loop_over_chunks(self, small_blocks, seed, trials):
        # n = 20: 5 rows a chunk, so 13 ends in a partial chunk, 3 fits in one.
        H = np.random.default_rng(seed).standard_normal((20, 9))
        rho_grid = [0.01, 0.05, 0.3, 0.99]      # 0.01 * 20 rounds to size 0
        same_reports([theory.norm_bounds_check(H, trials, 0.4, rho_grid, seed)],
                     [ref_norm_bounds_check(H, trials, 0.4, rho_grid, seed)])

    @pytest.mark.parametrize("seed", [0, 3])
    def test_matches_loop_at_default_block_size(self, seed):
        # The default suite's shape: 2000 trials in 163-row chunks.
        H = np.random.default_rng(seed).standard_normal((200, 100))
        same_reports([theory.norm_bounds_check(H, 2000, 0.5, seed=seed)],
                     [ref_norm_bounds_check(H, 2000, 0.5, seed=seed)])


    def test_zero_draw_is_redrawn_as_the_loop_does(self, small_blocks, monkeypatch):
        class ZeroFirst:
            """Trial 6's stream, with an all-zero draw put in front of it."""
            def __init__(self, rng):
                self.rng, self.first = rng, True

            def standard_normal(self, size):
                if self.first:
                    self.first = False
                    return np.zeros(size)
                return self.rng.standard_normal(size)

        def zero_first_at_6(seed, key):
            rng = _common.substream(seed, key)
            return ZeroFirst(rng) if key == (6,) else rng

        monkeypatch.setattr(theory, "substream", zero_first_at_6)
        monkeypatch.setattr(sys.modules[__name__], "substream", zero_first_at_6)
        H = np.random.default_rng(5).standard_normal((20, 9))
        same_reports([theory.norm_bounds_check(H, 9, 0.4, seed=2)],
                     [ref_norm_bounds_check(H, 9, 0.4, seed=2)])

    def test_zero_draw_in_a_block_is_redrawn_as_the_loop_does(self, small_blocks, monkeypatch):
        # Trial 6 sits in the second 5-row chunk; its block stream is asked
        # for a second draw only if the redraw branch runs.
        draws = []

        class ZeroFirst:
            """Trial 6's stream, with an all-zero draw put in front of it."""
            def __init__(self, rng, log):
                self.rng, self.log = rng, log

            def standard_normal(self, size):
                self.log.append(size)
                return np.zeros(size) if len(self.log) == 1 else self.rng.standard_normal(size)

        def zero_first_at_6(seed, key):
            rng = _common.substream(seed, key)
            return ZeroFirst(rng, []) if key == (6,) else rng

        def zero_first_at_6_block(seed, keys):
            return [ZeroFirst(rng, draws) if key == (6,) else rng
                    for key, rng in zip(keys, _common.substreams(seed, keys))]

        monkeypatch.setattr(theory, "substreams", zero_first_at_6_block)
        monkeypatch.setattr(sys.modules[__name__], "substream", zero_first_at_6)
        H = np.random.default_rng(5).standard_normal((20, 9))
        same_reports([theory.norm_bounds_check(H, 9, 0.4, seed=2)],
                     [ref_norm_bounds_check(H, 9, 0.4, seed=2)])
        assert len(draws) == 2


# ---------------------------------------------------------------------------
# estimate_rho_star
# ---------------------------------------------------------------------------

class TestEstimateRhoStar:
    @pytest.mark.parametrize("K_mode", ["worst_by_magnitude", "random"])
    @pytest.mark.parametrize("seed", [0, 5, 11])
    @pytest.mark.parametrize("trials", [3, 9, 11])
    def test_matches_loop_over_chunks(self, small_blocks, K_mode, seed, trials):
        # Widest layer 25: 4 rows a chunk. rho 0.01 gives K_size 0.
        net = random_gaussian_net([3, 10, 25], Activation(LEAKY_RELU, 0.2), seed)
        grid = [0.01, 0.1, 0.45]
        got = theory.estimate_rho_star(net, trials, grid, K_mode=K_mode, seed=seed)
        assert got[0].params["K_size"] == 0
        same_reports(got, ref_estimate_rho_star(net, trials, grid, K_mode, seed))

    @pytest.mark.parametrize("K_mode", ["worst_by_magnitude", "random"])
    def test_matches_loop_at_default_block_size(self, K_mode):
        # [10, 40, 160]: 204 rows a chunk, so 250 trials take two chunks.
        net = random_gaussian_net([10, 40, 160], Activation(LEAKY_RELU, 0.2), 4)
        grid = [0.005, 0.02, 0.1]
        same_reports(theory.estimate_rho_star(net, 250, grid, K_mode=K_mode, seed=4),
                     ref_estimate_rho_star(net, 250, grid, K_mode, 4))

    def test_worst_support_rows_match_single_calls(self):
        delta = np.random.default_rng(2).standard_normal((6, 30))
        delta[0, :4] = 0.5                       # ties keep index order
        for size in (0, 1, 7, 30):
            block = theory.worst_support(delta, size)
            assert block.shape == (6, size)
            for row, want in zip(block, delta):
                np.testing.assert_array_equal(row, ref_worst_support(want, size))


# ---------------------------------------------------------------------------
# l0 recovery and separation
# ---------------------------------------------------------------------------

class TestL0:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_bruteforce_matches_loop_over_chunks(self, small_blocks, seed):
        # Output width 10: 10 grid rows a chunk over a 441-row grid.
        rng = np.random.default_rng(seed)
        net = random_gaussian_net([2, 8, 10], Activation(LEAKY_RELU, 0.3), seed)
        mat = rng.standard_normal((7, 10))
        grid = theory.latent_grid(2, points=21)
        for l in (0, 1, 3):
            z0 = grid[int(rng.integers(grid.shape[0]))]
            for zero_tol in (None, 1e-3):
                got_rec, got_e = theory.l0_recovery_bruteforce(net, mat, z0, l, grid,
                                                               zero_tol)
                want_rec, want_e = ref_l0_recovery_bruteforce(net, mat, z0, l, grid,
                                                              zero_tol)
                assert got_rec == want_rec
                assert got_e.tobytes() == want_e.tobytes()

    def test_separation_block_counts_each_row(self):
        rng = np.random.default_rng(9)
        net = random_gaussian_net([2, 6, 9], Activation("relu"), 1)
        mat = rng.standard_normal((5, 9))
        z, z0 = rng.standard_normal((8, 2)), rng.standard_normal(2)
        tol = default_zero_tol(mat @ forward(net, z0))
        block = theory.l0_separation(net, mat, z, z0, tol)
        assert block.tolist() == [theory.l0_separation(net, mat, row, z0, tol)
                                  for row in z]


# ---------------------------------------------------------------------------
# every_r_rows_full_rank
# ---------------------------------------------------------------------------

class TestEveryRRows:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_loop_over_chunks(self, small_blocks, seed):
        # C(10, 6) = 210 subsets of 6 x 3 entries: 5 a chunk, partial last chunk.
        W = np.random.default_rng(seed).standard_normal((10, 3))
        same_reports([theory.every_r_rows_full_rank(W, 6)],
                     [ref_every_r_rows_full_rank(W, 6)])

    def test_matches_loop_on_a_rank_deficient_matrix(self, small_blocks):
        # Rows 0-3 span one direction only: every subset within them fails.
        W = np.random.default_rng(4).standard_normal((9, 2))
        W[:4] = np.outer(np.arange(1.0, 5.0), W[0])
        got = theory.every_r_rows_full_rank(W, 3)
        assert got.failures > 0
        same_reports([got], [ref_every_r_rows_full_rank(W, 3)])

    def test_matches_loop_at_default_block_size(self):
        W = np.random.default_rng(8).standard_normal((14, 4))
        same_reports([theory.every_r_rows_full_rank(W, 7)],
                     [ref_every_r_rows_full_rank(W, 7)])


# ---------------------------------------------------------------------------
# Leaky-ReLU slope checks
# ---------------------------------------------------------------------------

class TestLeakyChecks:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("trials", [1, 5, 70, 99])
    def test_beta_range_matches_loop_over_chunks(self, small_blocks, seed, trials):
        # Three entries a trial: 33 trials a chunk.
        params = {"trials": trials}
        got = harness._check_leaky_beta_range(params, seed)
        want = ref_check_leaky_beta_range(params, seed)
        assert [(r.to_dict(), q) for r, q in got] == [(r.to_dict(), q) for r, q in want]

    def test_beta_range_matches_loop_at_default_size(self):
        got = harness._check_leaky_beta_range({}, 123)
        want = ref_check_leaky_beta_range({}, 123)
        assert [r.to_dict() for r, _ in got] == [r.to_dict() for r, _ in want]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("pairs", [1, 7, 50])
    def test_layer_lift_matches_loop(self, seed, pairs, monkeypatch):
        params = {"dims": [3, 12, 20], "h": 0.1, "pairs": pairs}
        want = ref_check_leaky_layer_lift(params, seed)
        for budget in (100, _common.BLOCK_ELEMENTS):   # 2 pairs a chunk, then all
            monkeypatch.setattr(_common, "BLOCK_ELEMENTS", budget)
            got = harness._check_leaky_layer_lift(params, seed)
            assert [r.to_dict() for r, _ in got] == [r.to_dict() for r, _ in want]

    def test_layer_ratios_block_rows_match_single_pairs(self):
        net = random_gaussian_net([4, 15, 30], Activation(LEAKY_RELU, 0.25), 6)
        z, z0 = np.random.default_rng(6).standard_normal((2, 5, 4))
        z0[1] = z[1]                             # identical pair: all NaN
        block = theory.leaky_layer_ratios(net, z, z0)
        for i in range(5):
            for got, want in zip(block, ref_leaky_layer_ratios(net, z[i], z0[i])):
                assert got[i].tobytes() == want.tobytes()
        for got, want in zip(theory.leaky_layer_ratios(net, z[0], z0[0]),
                             ref_leaky_layer_ratios(net, z[0], z0[0])):
            assert got.tobytes() == want.tobytes()

    def test_beta_vector_is_exactly_h_when_the_upper_point_is_zero(self):
        # (h q) / q rounds one ulp above h here; leaky_beta returns h itself.
        q, h = -0.7037352358069926, 0.9357216995498906
        got = theory.leaky_beta_vector([0.0, q], [q, 0.0], h)
        assert got.tolist() == [h, h] == [theory.leaky_beta(0.0, q, h)] * 2


# ---------------------------------------------------------------------------
# run_verify
# ---------------------------------------------------------------------------

def test_manifest_reports_check_ms_per_suite_entry():
    spec = harness.ExperimentSpec.from_dict(
        {"name": "v", "sweep": {"axis": "rho_grid", "values": [0.02, 0.05]}, "seed": 3,
         "checks": [{"name": "leaky_beta_range", "trials": 50},
                    {"name": "k_majority", "trials": 5, "rho_grid": [0.02, 0.05]}]})
    manifest = harness.run_verify(spec)
    assert len(manifest["reports"]) == 3     # k_majority reports once per rho
    assert len(manifest["check_ms"]) == 2    # but is one suite entry
    assert all(isinstance(ms, float) and ms >= 0.0 for ms in manifest["check_ms"])
    assert list(manifest) == ["name", "seed", "version", "reports", "all_passed",
                              "check_ms"]
