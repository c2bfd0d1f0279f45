"""Small shared array, RNG and file helpers."""

from __future__ import annotations

import csv
import functools
import json
import operator

import numpy as np

# float64 entries per batched block (256 KiB). Batched checks work through
# their trials in chunks of this many entries, so peak memory does not grow
# with the trial count.
BLOCK_ELEMENTS = 1 << 15


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


def _stacked_matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for each row of x (and each matrix of a stacked a), as a stacked
    matmul: one BLAS gemv per row, as `np.matvec` makes."""
    return (a @ x[..., None])[..., 0]


def _stacked_row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of a with the same row of b, (b, n)
    blocks, as a stacked 1 x 1 matmul: one BLAS ddot per row, as
    `np.vecdot` makes."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


# The row kernels, picked once by feature: numpy's gufuncs where it has them
# (np.matvec from numpy 2.2, np.vecdot from 2.0), else the stacked matmuls
# above. A gufunc is one dispatch where the stacked matmul builds two views
# around its product, and the names are bound to it directly, without a
# Python frame around it. Both implementations make the same BLAS call per
# row, so they give equal bytes, and the contract holds for either:
#
# matvec(a, x): a @ x for each row of x (and each matrix of a stacked a).
#     Every row rounds exactly as the single-vector product `a @ x` does,
#     whatever the block size; the row-wise gemm `x @ a.T` differs in the
#     last bits, and its rows change bytes with the number of rows.
# row_dot(a, b): the dot product of each row of a with the same row of b,
#     (b, n) blocks. Each row rounds as the 1-D `a @ b` (and its square root
#     as np.linalg.norm) does.
matvec = getattr(np, "matvec", _stacked_matvec)
row_dot = getattr(np, "vecdot", _stacked_row_dot)


def default_zero_tol(y) -> float:
    """Threshold for l0 counting of residuals against measurement scale."""
    y = np.asarray(y, dtype=np.float64)
    peak = float(np.max(np.abs(y))) if y.size else 0.0
    return 1e-8 * (1.0 + peak)


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


def row_chunks(rows: int, width: int) -> list[slice]:
    """Consecutive slices covering range(rows), each of at most
    BLOCK_ELEMENTS // width rows (at least one)."""
    step = max(1, BLOCK_ELEMENTS // max(1, width))
    return [slice(i, min(i + step, rows)) for i in range(0, rows, step)]


def substream(seed: int, spawn_key: tuple[int, ...]) -> np.random.Generator:
    """Independent RNG substream addressed by a spawn key: the stream of
    `np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))`.
    See `substreams`, which derives it."""
    return substreams(seed, [spawn_key])[0]


# SeedSequence's hash constants and pool size (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
# The same as uint64 scalars, so that array arithmetic stays uint64 under
# numpy 1.24's value-based casting and numpy 2's rules alike.
_M32, _L, _R, _S16, _S32 = (np.uint64(c) for c in (_MASK32, _MIX_L, _MIX_R, 16, 32))


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**i mod 2**32 for i < count: a running hash constant."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint64)


# generate_state(4, uint64) reads the pool round twice; word i is xored with
# the hash constant before its step and multiplied by the one after.
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL + 1)
_STATE_XOR, _STATE_MUL = _STATE_CONSTS[:-1], _STATE_CONSTS[1:]
_STATE_LANES = np.arange(2 * _POOL) % _POOL


def _int_words(value) -> list[int]:
    """The 32-bit words SeedSequence reads from one entropy or key integer,
    least significant first; 0 is one word."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


@functools.lru_cache(maxsize=16)
def _seed_part(seed: int, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SeedSequence(seed, spawn_key=key)'s pool after the seed's entropy
    words, the same for every key, and the xor and multiply hash constants
    of each lane for the `width` key words that follow, as (width, 4) blocks.

    The seed's words are padded with zeros to the pool size as a spawn key
    does; an empty key gives the same pool, as running the hash out on
    zeros equals mixing in zero words.
    """
    hc = _INIT_A

    def hashmix(value):
        nonlocal hc
        value ^= hc
        hc = hc * _MULT_A & _MASK32
        value = value * hc & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        r = (_MIX_L * x - _MIX_R * y) & _MASK32
        return r ^ (r >> 16)

    words = _int_words(seed)
    words += [0] * (_POOL - len(words))
    pool = [hashmix(w) for w in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(w))
    consts = _hash_consts(hc, _MULT_A, _POOL * width + 1)
    out = (np.array(pool, dtype=np.uint64),
           consts[:-1].reshape(width, _POOL), consts[1:].reshape(width, _POOL))
    for a in out:
        a.flags.writeable = False
    return out


def _key_words(keys: list[tuple]) -> np.ndarray:
    """The keys' 32-bit words as a (len(keys), words) uint64 block."""
    rows = [[w for v in key for w in _int_words(v)] for key in keys]
    if len({len(r) for r in rows}) != 1:
        raise ValueError("the spawn keys of one call must have equal word counts")
    return np.array(rows, dtype=np.uint64).reshape(len(rows), len(rows[0]))


@functools.cache
def _seed_words():
    """The ISeedSequence subclass that hands PCG64 four fixed uint64 seed
    words. Defined on first use: `numpy.random` then loads only when a
    stream is drawn, not on `import genrec`."""
    from numpy.random.bit_generator import ISeedSequence

    class _SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("fixed seed words give only generate_state(4, np.uint64)")
            return self.words

    return _SeedWords


def substreams(seed: int, keys) -> list[np.random.Generator]:
    """Independent RNG substreams of `seed`, one per spawn key of `keys`.

    Entry i is, byte for byte, the stream that
    `np.random.default_rng(np.random.SeedSequence(seed, spawn_key=keys[i]))`
    gives; this rests on NumPy's stream-compatibility policy for
    SeedSequence and PCG64. SeedSequence's pool mixing is split in two: the
    seed's part, cached per seed, and the keys' part, run on a (keys, pool)
    block of uint64 words masked to 32 bits, followed by
    generate_state(4, uint64) on the block. Each row's four words seed
    PCG64 through its own, unchanged seeding. A generator's
    `bit_generator.seed_seq` is therefore a fixed-words object, not a
    SeedSequence, and cannot spawn; nothing in genrec spawns from it.

    Each key int counts as its 32-bit words (0 is one word), as
    SeedSequence reads it; the keys of one call must give equal word
    counts. Negative seeds or key ints raise ValueError, as SeedSequence
    does.
    """
    keys = list(keys)
    if not keys:
        return []
    words = _key_words(keys)
    pool, xor, mul = _seed_part(int(seed), words.shape[1])
    # Each key word mixes into every lane with that lane's hash constants;
    # values are below 2**32 before each multiply, so products fit uint64.
    for j in range(words.shape[1]):
        h = (words[:, j, None] ^ xor[j]) * mul[j] & _M32
        h ^= h >> _S16
        pool = (_L * pool - _R * h) & _M32
        pool ^= pool >> _S16
    state = (pool[..., _STATE_LANES] ^ _STATE_XOR) * _STATE_MUL & _M32
    state ^= state >> _S16
    # One C-ordered row per key (PCG64 reads the words through their data
    # pointer); with empty keys every row is the seed's own state.
    seeds = np.empty((len(keys), _POOL), dtype=np.uint64)
    np.bitwise_or(state[..., 0::2], state[..., 1::2] << _S32, out=seeds)
    seed_words = _seed_words()
    return [np.random.Generator(np.random.PCG64(seed_words(row))) for row in seeds]


def read_json(path):
    """Parse a JSON file; malformed JSON raises a ValueError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: malformed JSON: {err}") from None


def load_json(path, parse):
    """`parse` of the JSON value in the file at `path`. Malformed JSON, and
    a ValueError or TypeError from `parse`, raise a ValueError naming the
    file."""
    value = read_json(path)
    try:
        return parse(value)
    except (ValueError, TypeError) as err:
        raise ValueError(f"{path}: {err}") from None


def require_keys(d, keys, what: str) -> dict:
    """`d`, checked to be a JSON object holding every key of `keys`; else a
    ValueError naming `what` and its type or the first missing key."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")
    missing = [key for key in keys if key not in d]
    if missing:
        raise ValueError(f"{what} is missing the required key {missing[0]!r}")
    return d


def write_csv(path, columns, rows) -> None:
    """Write the dicts `rows` as CSV under the header `columns`, floats by repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in (row[c] for c in columns)])
