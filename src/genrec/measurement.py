"""Measurement models: y = M G(z0) + e + eta.

Generates measurement matrices, sparse gross-outlier vectors, dense Gaussian
noise, and fully assembled problem instances with recorded seed provenance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ._common import as_vector, child_seeds, load_json, require_keys
from .generator import GeneratorNetwork, forward

GAUSSIAN = "gaussian"
IDENTITY_MATRIX = "identity"
MATRIX_KINDS = (GAUSSIAN, IDENTITY_MATRIX)


@dataclass(frozen=True)
class MeasurementModel:
    """How one batch of measurements is produced.

    `noise_target` is the target value of sqrt(E ||eta||^2) for the whole
    noise vector, not the per-entry standard deviation.
    """

    m: int
    n: int
    matrix_kind: str = GAUSSIAN
    outlier_count: int = 0
    outlier_range: tuple[float, float] = (5000.0, 10000.0)
    outlier_signed: bool = False
    noise_target: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError(f"m and n must be >= 1, got m={self.m}, n={self.n}")
        if self.matrix_kind not in MATRIX_KINDS:
            raise ValueError(f"unknown matrix kind {self.matrix_kind!r}")
        if self.matrix_kind == IDENTITY_MATRIX and self.m != self.n:
            raise ValueError("identity measurement requires m == n")
        if not 0 <= self.outlier_count < self.m:
            raise ValueError(f"need 0 <= outlier_count < m, got {self.outlier_count}")
        lo, hi = _finite_range(self.outlier_range)
        _check_noise_target(self.noise_target)
        object.__setattr__(self, "outlier_range", (lo, hi))


def _check_noise_target(noise_target) -> None:
    if not 0 <= noise_target < np.inf:   # false for NaN too
        raise ValueError(f"noise_target must be a finite number >= 0, got {noise_target!r}")


def _finite_range(value_range) -> tuple[float, float]:
    """(lo, hi) as floats; rejects a range that is malformed, non-finite or
    has lo > hi."""
    try:
        lo, hi = (float(v) for v in value_range)
    except (TypeError, ValueError):
        raise ValueError(f"outlier range must be two numbers (lo, hi), "
                         f"got {value_range!r}") from None
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"outlier range must be finite, got {(lo, hi)}")
    if lo > hi:
        raise ValueError(f"outlier range has lo > hi: {(lo, hi)}")
    return lo, hi


def sample_measurement_matrix(model: MeasurementModel) -> np.ndarray:
    """m x n measurement matrix: i.i.d. standard normal, or the identity."""
    if model.matrix_kind == IDENTITY_MATRIX:
        return np.eye(model.m)
    rng = np.random.default_rng(model.seed)
    return rng.standard_normal((model.m, model.n))


def sample_outliers(m: int, count: int, value_range, signed: bool = False,
                    seed: int = 0) -> np.ndarray:
    """Length-m vector with exactly `count` gross outliers.

    Positions are drawn uniformly without replacement; magnitudes uniformly
    from `value_range`; signs are fair coin flips when `signed`, else all
    positive.
    """
    if count >= m:
        raise ValueError(f"need count < m, got count={count}, m={m}")
    lo, hi = _finite_range(value_range)
    e = np.zeros(m)
    if count == 0:
        return e
    rng = np.random.default_rng(seed)
    pos = rng.choice(m, size=count, replace=False)
    vals = rng.uniform(lo, hi, size=count)
    if signed:
        vals = vals * rng.choice(np.array([-1.0, 1.0]), size=count)
    e[pos] = vals
    return e


def sample_noise(m: int, noise_target: float, seed: int = 0) -> np.ndarray:
    """i.i.d. Gaussian noise with sqrt(E ||eta||^2) = noise_target.

    Per-entry standard deviation is noise_target / sqrt(m).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    _check_noise_target(noise_target)
    if noise_target == 0:
        return np.zeros(m)
    rng = np.random.default_rng(seed)
    return rng.standard_normal(m) * (noise_target / np.sqrt(m))


@dataclass(frozen=True)
class ProblemInstance:
    """One concrete recovery problem with its provenance.

    `net_ref` identifies the generator (dims, activation, seed) without
    duplicating its weights; x0 = G(z0) and y = M x0 + e + eta are stored as
    constructed.
    """

    net_ref: dict
    z0: np.ndarray
    x0: np.ndarray
    M: np.ndarray
    e: np.ndarray
    eta: np.ndarray
    y: np.ndarray
    seed: int
    outlier_count: int
    noise_target: float
    matrix_kind: str
    model_seed: int
    component_seeds: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, ndim in (("M", 2), ("z0", 1)):
            if getattr(self, name).ndim != ndim:
                raise ValueError(f"instance field {name} must be {ndim}-D, "
                                 f"got shape {getattr(self, name).shape}")
        m, n = self.M.shape
        if self.x0.shape != (n,) or self.y.shape != (m,):
            raise ValueError("instance field shapes are inconsistent")
        if self.e.shape != (m,) or self.eta.shape != (m,):
            raise ValueError("instance field shapes are inconsistent")
        # Rejected here, where the data enters: a solver would start from a
        # non-finite objective and report it as its own divergence.
        for name in ("z0", "x0", "M", "e", "eta", "y"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"instance field {name} has non-finite entries")
        if int(np.count_nonzero(self.e)) != self.outlier_count:
            raise ValueError("outlier vector support does not match outlier_count")
        for arr in (self.z0, self.x0, self.M, self.e, self.eta, self.y):
            arr.setflags(write=False)

    @property
    def m(self) -> int:
        return self.M.shape[0]

    @property
    def n(self) -> int:
        return self.M.shape[1]


def build_instance(net: GeneratorNetwork, model: MeasurementModel, z0=None,
                   seed: int = 0) -> ProblemInstance:
    """Assemble y = M G(z0) + e + eta with all randomness derived from `seed`.

    z0 is sampled i.i.d. standard normal when not supplied. The measurement
    matrix is governed by model.seed; outliers, noise, and z0 by substreams
    of `seed`, so the same (net, model, seed) always rebuilds the same
    instance.
    """
    if net.n != model.n:
        raise ValueError(f"net output length {net.n} != model signal length {model.n}")
    z0_seed, e_seed, eta_seed = child_seeds(seed, 3)
    if z0 is None:
        z0 = np.random.default_rng(z0_seed).standard_normal(net.k)
    else:
        z0 = as_vector(z0, net.k, "z0")
    x0 = forward(net, z0)
    mat = sample_measurement_matrix(model)
    e = sample_outliers(model.m, model.outlier_count, model.outlier_range,
                        model.outlier_signed, e_seed)
    eta = sample_noise(model.m, model.noise_target, eta_seed)
    y = mat @ x0 + e + eta
    return ProblemInstance(
        net_ref={"dims": list(net.dims), "activation": net.activation.to_dict(),
                 "seed": net.seed},
        z0=z0, x0=x0, M=mat, e=e, eta=eta, y=y,
        seed=int(seed),
        outlier_count=model.outlier_count,
        noise_target=model.noise_target,
        matrix_kind=model.matrix_kind,
        model_seed=model.seed,
        component_seeds={"z0": z0_seed, "outliers": e_seed, "noise": eta_seed},
    )


def instance_to_dict(inst: ProblemInstance) -> dict:
    return {
        "net_ref": inst.net_ref,
        "z0": inst.z0.tolist(),
        "x0": inst.x0.tolist(),
        "M": inst.M.tolist(),
        "e": inst.e.tolist(),
        "eta": inst.eta.tolist(),
        "y": inst.y.tolist(),
        "seed": inst.seed,
        "meta": {
            "seeds": {"instance": inst.seed, "model": inst.model_seed,
                      **inst.component_seeds},
            "l": inst.outlier_count,
            "noise_target": inst.noise_target,
            "matrix_kind": inst.matrix_kind,
        },
    }


def instance_from_dict(d: dict) -> ProblemInstance:
    """The instance of an `instance_to_dict` object; one that is not an
    object or lacks a key raises a ValueError naming it."""
    require_keys(d, ("net_ref", "z0", "x0", "M", "e", "eta", "y", "seed", "meta"), "instance")
    meta = require_keys(d["meta"], ("l", "noise_target", "matrix_kind"), "instance meta")
    seeds = require_keys(meta.get("seeds", {}), (), "instance meta.seeds")
    return ProblemInstance(
        net_ref=d["net_ref"],
        z0=np.asarray(d["z0"], dtype=np.float64),
        x0=np.asarray(d["x0"], dtype=np.float64),
        M=np.asarray(d["M"], dtype=np.float64),
        e=np.asarray(d["e"], dtype=np.float64),
        eta=np.asarray(d["eta"], dtype=np.float64),
        y=np.asarray(d["y"], dtype=np.float64),
        seed=int(d["seed"]),
        outlier_count=int(meta["l"]),
        noise_target=float(meta["noise_target"]),
        matrix_kind=meta["matrix_kind"],
        model_seed=int(seeds.get("model", 0)),
        component_seeds={k: v for k, v in seeds.items()
                         if k not in ("instance", "model")},
    )


def save_instance(inst: ProblemInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh)


def load_instance(path) -> ProblemInstance:
    """The instance saved at `path`; a malformed file raises a ValueError
    naming it."""
    return load_json(path, instance_from_dict)


def reassemble_y(inst: ProblemInstance) -> np.ndarray:
    """Recompute M x0 + e + eta from stored fields (equals y exactly)."""
    return inst.M @ inst.x0 + inst.e + inst.eta
