"""Multilayer feed-forward generators with exact analytic Jacobians.

A generator maps a low-dimensional code z in R^k to a signal in R^n through
d dense layers sharing one element-wise activation (identity, ReLU, or leaky
ReLU). Weights and biases are stored explicitly as dense float64 arrays so
linear-algebra facts about the composite map can be checked directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._common import as_rows, load_json, matvec, require_keys

IDENTITY = "identity"
RELU = "relu"
LEAKY_RELU = "leaky_relu"
ACTIVATION_KINDS = (IDENTITY, RELU, LEAKY_RELU)


@dataclass(frozen=True)
class Activation:
    """Element-wise activation; `h` is the negative-side slope of leaky ReLU."""

    kind: str
    h: float = 1.0

    def __post_init__(self):
        if self.kind not in ACTIVATION_KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r}")
        if self.kind == LEAKY_RELU and not 0.0 < self.h <= 1.0:
            raise ValueError(f"leaky ReLU slope must be in (0, 1], got {self.h}")

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self.kind == IDENTITY:
            return x
        if self.kind == RELU:
            return np.maximum(x, 0.0)
        # Equal, byte for byte, to np.where(x >= 0.0, x, h * x) for h in
        # (0, 1]: h*x <= x when x >= 0, h*x >= x when x < 0, and a quiet NaN
        # (the only kind arithmetic makes) comes out unchanged either way.
        return np.maximum(x, self.h * x)

    def deriv(self, x: np.ndarray) -> np.ndarray:
        # The kink at exactly 0 takes the value of the ">= 0" branch.
        if self.kind == IDENTITY:
            return np.ones_like(x)
        if self.kind == RELU:
            return np.where(x >= 0.0, 1.0, 0.0)
        return np.where(x >= 0.0, 1.0, self.h)

    def to_dict(self) -> dict:
        if self.kind == LEAKY_RELU:
            return {"kind": self.kind, "h": self.h}
        return {"kind": self.kind}

    @classmethod
    def from_dict(cls, d: dict) -> "Activation":
        require_keys(d, ("kind",), "activation")
        return cls(kind=d["kind"], h=float(d.get("h", 1.0)))


@dataclass(frozen=True)
class GeneratorNetwork:
    """Immutable d-layer generator.

    dims = [k, n_1, ..., n_d = n]; weights[i] has shape dims[i+1] x dims[i]
    and biases[i] has length dims[i+1]. Arrays are made read-only at
    construction, so a network can be shared across workers safely.
    """

    dims: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    activation: Activation
    seed: int = 0

    def __post_init__(self):
        dims = tuple(int(w) for w in self.dims)
        if len(dims) < 2:
            raise ValueError("need at least one layer: dims = [k, ..., n]")
        if any(w < 1 for w in dims):
            raise ValueError(f"layer widths must be >= 1, got {dims}")
        weights = tuple(np.ascontiguousarray(w, dtype=np.float64) for w in self.weights)
        biases = tuple(np.ascontiguousarray(b, dtype=np.float64) for b in self.biases)
        if len(weights) != len(dims) - 1 or len(biases) != len(dims) - 1:
            raise ValueError("need one weight matrix and one bias vector per layer")
        for i, (w, b) in enumerate(zip(weights, biases)):
            want = (dims[i + 1], dims[i])
            if w.shape != want:
                raise ValueError(f"weights[{i}] has shape {w.shape}, expected {want}")
            if b.shape != (dims[i + 1],):
                raise ValueError(f"biases[{i}] has length {b.shape}, expected {dims[i + 1]}")
            for name, arr in (("weights", w), ("biases", b)):
                if not np.all(np.isfinite(arr)):
                    raise ValueError(f"{name}[{i}] (layer {i + 1}) has non-finite entries")
        for arr in weights + biases:
            arr.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)
        object.__setattr__(self, "seed", int(self.seed))

    def __reduce__(self):
        # Rebuild through the constructor, so an unpickled net is checked
        # again and its arrays are read-only.
        return GeneratorNetwork, (self.dims, self.weights, self.biases,
                                  self.activation, self.seed)

    @property
    def k(self) -> int:
        return self.dims[0]

    @property
    def n(self) -> int:
        return self.dims[-1]

    @property
    def depth(self) -> int:
        return len(self.dims) - 1


def random_gaussian_net(dims, activation: Activation, seed: int) -> GeneratorNetwork:
    """Network with all weight and bias entries i.i.d. standard normal.

    Identical (dims, activation, seed) always produce bitwise-equal networks.
    """
    dims = tuple(int(w) for w in dims)
    if len(dims) < 2 or any(w < 1 for w in dims):
        raise ValueError(f"invalid dims {dims}")
    rng = np.random.default_rng(int(seed))
    weights, biases = [], []
    for i in range(len(dims) - 1):
        weights.append(rng.standard_normal((dims[i + 1], dims[i])))
        biases.append(rng.standard_normal(dims[i + 1]))
    return GeneratorNetwork(dims, tuple(weights), tuple(biases), activation, int(seed))


def zero_bias(net: GeneratorNetwork) -> GeneratorNetwork:
    """Copy of `net` with every bias vector set to zero."""
    biases = tuple(np.zeros(w.shape[0]) for w in net.weights)
    return GeneratorNetwork(net.dims, net.weights, biases, net.activation, net.seed)


def forward(net: GeneratorNetwork, z) -> np.ndarray:
    """Evaluate G(z) = sigma(H_d sigma(... sigma(H_1 z + b_1) ...) + b_d).

    z is one code of shape (k,) or a block of codes of shape (B, k); the
    result has shape (n,) or (B, n), each row equal to its own 1-D call.
    """
    return net.activation.apply(layer_preactivations(net, z)[-1])


def layer_preactivations(net: GeneratorNetwork, z) -> list[np.ndarray]:
    """Pre-activation vectors H_i a_{i-1} + b_i for each layer, in order.

    A (B, k) block of codes gives a (B, n_i) block per layer, each row equal
    to its own 1-D call.
    """
    a = as_rows(z, net.k, "z")
    pres = []
    for w, b in zip(net.weights, net.biases):
        if pres:
            a = net.activation.apply(pres[-1])
        pres.append(matvec(w, a) + b)
    return pres


def forward_pattern(net: GeneratorNetwork, z) -> tuple[np.ndarray, np.ndarray]:
    """G(z), equal to `forward` byte for byte, and its activation pattern,
    from one pass through the layers.

    The pattern is the boolean vector pre >= 0 over the pre-activations of
    all layers, concatenated (n_1 + ... + n_d entries; none for identity
    nets). `jacobian` depends on z only through it. A (B, k) block of codes
    gives (B, n) outputs and (B, n_1 + ... + n_d) patterns.
    """
    pres = layer_preactivations(net, z)
    if net.activation.kind == IDENTITY:
        pattern = np.zeros(pres[-1].shape[:-1] + (0,), dtype=bool)
    else:
        pattern = np.concatenate(pres, axis=-1) >= 0.0
    return net.activation.apply(pres[-1]), pattern


def jacobian(net: GeneratorNetwork, z) -> np.ndarray:
    """Exact n x k Jacobian of G at z: D_d H_d ... D_1 H_1.

    D_i is the diagonal of activation derivatives at the i-th layer
    pre-activation, with the value at a kink taken from the ">= 0" branch.
    A (B, k) block of codes gives a (B, n, k) stack of Jacobians.
    """
    a = as_rows(z, net.k, "z")
    jac = np.eye(net.k)
    for w, pre in zip(net.weights, layer_preactivations(net, a)):
        jac = net.activation.deriv(pre)[..., None] * (w @ jac)
    return jac


def pullback(net: GeneratorNetwork, pres, v) -> np.ndarray:
    """J(z)^T v for each row, by one backward pass through the layers.

    `pres` are z's `layer_preactivations` and v has one length-n row per
    row of z; the kink takes the ">= 0" branch, as in `jacobian`. Given no
    pre-activations, v comes back unchanged.
    """
    for w, pre in zip(reversed(net.weights), reversed(pres)):
        v = matvec(w.T, net.activation.deriv(pre) * v)
    return v


class RegionMaps(NamedTuple):
    """Affine maps of a generator on one activation region (or a block of
    regions, with a leading batch axis on every array)."""

    P: np.ndarray   # (..., n_1 + ... + n_d, k): pre-activations are P z + p
    p: np.ndarray   # (..., n_1 + ... + n_d)
    J: np.ndarray   # (..., n, k): G(z) = J z + g
    g: np.ndarray   # (..., n)


def region_maps(net: GeneratorNetwork, pattern) -> RegionMaps:
    """The affine maps of `net` on the activation region named by `pattern`.

    An identity, ReLU or leaky-ReLU net is affine on each region of codes
    sharing one activation pattern (the `forward_pattern` pattern). For
    every z in the region, the concatenated pre-activations of the layers
    the pattern covers are P z + p (none for identity nets), and
    G(z) = J z + g, with J equal to `jacobian` at z. The maps are built from
    the pattern alone, so two codes with one pattern get the same bytes. A
    (B, n_1 + ... + n_d) block of patterns gives a block of maps.
    """
    pattern = np.asarray(pattern, dtype=bool)
    width = 0 if net.activation.kind == IDENTITY else sum(net.dims[1:])
    if pattern.ndim not in (1, 2) or pattern.shape[-1] != width:
        raise ValueError(f"pattern has shape {pattern.shape}, expected (..., {width})")
    lead = pattern.shape[:-1]
    if net.activation.kind == IDENTITY:
        # Every unit passes with slope 1, as on the ">= 0" side of a kink.
        pattern = np.ones(lead + (sum(net.dims[1:]),), dtype=bool)
    low = net.activation.h if net.activation.kind == LEAKY_RELU else 0.0
    pre_maps, pre_offsets = [], []
    jac = vec = None
    start = 0
    for w, b in zip(net.weights, net.biases):
        if jac is None:
            pre_map, pre_off = np.broadcast_to(w, lead + w.shape), np.broadcast_to(b, lead + b.shape)
        else:
            pre_map, pre_off = w @ jac, matvec(w, vec) + b
        pre_maps.append(pre_map)
        pre_offsets.append(pre_off)
        d = np.where(pattern[..., start:start + len(b)], 1.0, low)
        start += len(b)
        jac, vec = d[..., None] * pre_map, d * pre_off
    # Identity nets have no pattern, so no pre-activations are returned.
    return RegionMaps(np.concatenate(pre_maps, axis=-2)[..., :width, :],
                      np.concatenate(pre_offsets, axis=-1)[..., :width], jac, vec)


def compose_linear(net: GeneratorNetwork) -> np.ndarray:
    """Composite weight matrix W = H_d ... H_1 of an identity-activation net.

    For every z, forward(net, z) = W z + forward(net, 0).
    """
    if net.activation.kind != IDENTITY:
        raise ValueError("compose_linear requires identity activation")
    w = net.weights[0]
    for h in net.weights[1:]:
        w = h @ w
    return w


def net_to_dict(net: GeneratorNetwork) -> dict:
    return {
        "dims": list(net.dims),
        "activation": net.activation.to_dict(),
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "seed": net.seed,
    }


def net_from_dict(d: dict) -> GeneratorNetwork:
    """The network of a `net_to_dict` object; one that is not an object or
    lacks a key raises a ValueError naming it."""
    require_keys(d, ("dims", "weights", "biases", "activation"), "net")
    return GeneratorNetwork(
        dims=tuple(d["dims"]),
        weights=tuple(np.asarray(w, dtype=np.float64) for w in d["weights"]),
        biases=tuple(np.asarray(b, dtype=np.float64) for b in d["biases"]),
        activation=Activation.from_dict(d["activation"]),
        seed=int(d.get("seed", 0)),
    )


def save_net(net: GeneratorNetwork, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(net_to_dict(net), fh)


def load_net(path) -> GeneratorNetwork:
    """The network saved at `path`; a malformed file raises a ValueError
    naming it."""
    return load_json(path, net_from_dict)
