"""`_common.matvec`'s contract: each row of a block rounds as the 1-D
product `a @ x` does, whatever the block size. The solvers rest on it for
"a block equals its rows solved alone"; a row-wise gemm (`x @ a.T`) does not
keep it, its rows change bytes with the number of rows in the block."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided

from genrec._common import matvec

# The solvers' shapes: a recover-linear problem (m, k), a small layer, and
# the paper net's last layer (n_3, n_2).
SHAPES = [(40, 5), (60, 30), (784, 500)]
BLOCKS = 64


def _stack(rng, shape, count):
    """`count` distinct C-ordered (p, q) matrices, each a window shifted by 3
    entries into one buffer, so that the stack costs one matrix of memory."""
    p, q = shape
    base = rng.standard_normal(p * q + 3 * count)
    return as_strided(base, shape=(count, p, q), strides=(3 * 8, q * 8, 8), writeable=False)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("layout", ["shared", "transposed", "stacked"])
def test_rows_equal_the_1d_product_for_every_block_size(shape, layout):
    rng = np.random.default_rng(sum(shape))
    if layout == "stacked":
        a = _stack(rng, shape, BLOCKS)
        x = rng.standard_normal((BLOCKS, shape[1]))
        want = [a[i] @ x[i] for i in range(BLOCKS)]
    else:
        a = rng.standard_normal(shape)
        if layout == "transposed":
            a = a.T
        x = rng.standard_normal((BLOCKS, a.shape[1]))
        want = [a @ x[i] for i in range(BLOCKS)]
    for rows in range(1, BLOCKS + 1):
        got = matvec(a[:rows] if layout == "stacked" else a, x[:rows])
        assert got.shape == (rows, a.shape[-2])
        for i in range(rows):
            assert got[i].tobytes() == want[i].tobytes(), (rows, i)
