"""Small shared array helpers."""

from __future__ import annotations

import numpy as np


def as_vector(x, size: int | None = None, name: str = "vector") -> np.ndarray:
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if size is not None and v.shape[0] != size:
        raise ValueError(f"{name} has length {v.shape[0]}, expected {size}")
    return v


def as_rows(x, size: int, name: str = "vector") -> np.ndarray:
    """A vector of length `size`, or a (B, size) block of such vectors."""
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim not in (1, 2):
        raise ValueError(f"{name} must be 1-D or 2-D, got shape {v.shape}")
    if v.shape[-1] != size:
        raise ValueError(f"{name} has length {v.shape[-1]}, expected {size}")
    return v


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for each row of x (and each matrix of a stacked a).

    Stacked mat-vecs make one BLAS gemv per row, so every row rounds exactly
    as the single-vector product `a @ x` does; the row-wise gemm `x @ a.T`
    differs in the last bits.
    """
    return (a @ x[..., None])[..., 0]


def as_matrix(x, shape: tuple[int, int] | None = None, name: str = "matrix") -> np.ndarray:
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if shape is not None and a.shape != shape:
        raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
    return a


def child_seeds(seed: int, count: int, spawn_key: tuple[int, ...] = ()) -> list[int]:
    """Derive `count` independent integer seeds from a master seed.

    Purely functional: the same (seed, spawn_key, count) always yields the
    same children, so trial loops can be reordered or parallelized freely.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=spawn_key)
    return [int(s) for s in ss.generate_state(count, np.uint64)]


def substream(seed: int, spawn_key: tuple[int, ...]) -> np.random.Generator:
    """Independent RNG substream addressed by a spawn key."""
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=spawn_key))
