"""The row kernels' contract: each row of a block rounds as the 1-D product
does, whatever the block size. `_common.matvec` rows equal `a @ x`,
`_common.row_dot` rows equal `a @ b` (and their square roots
np.linalg.norm). The solvers rest on it for "a block equals its rows solved
alone"; a row-wise gemm (`x @ a.T`) does not keep it, its rows change bytes
with the number of rows in the block.

Both implementations are checked: the one numpy selects (np.matvec and
np.vecdot where numpy has them) and the stacked matmul that older numpy
runs, forced by patching the selection."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided

from genrec import _common

# The solvers' shapes: a recover-linear problem (m, k), a small layer, and
# the paper net's last layer (n_3, n_2).
SHAPES = [(40, 5), (60, 30), (784, 500)]
BLOCKS = 64
LAYOUTS = ["shared", "transposed", "stacked", "stacked-transposed", "broadcast", "vector"]


@pytest.fixture(params=["selected", "stacked"])
def kernels(request, monkeypatch):
    """`_common` with its row kernels as selected at import, or with the
    stacked matmuls that numpy without the gufuncs selects."""
    if request.param == "stacked":
        monkeypatch.setattr(_common, "matvec", _common._stacked_matvec)
        monkeypatch.setattr(_common, "row_dot", _common._stacked_row_dot)
    return _common


def _stack(rng, shape, count):
    """`count` distinct C-ordered (p, q) matrices, each a window shifted by 3
    entries into one buffer, so that the stack costs one matrix of memory."""
    p, q = shape
    base = rng.standard_normal(p * q + 3 * count)
    return as_strided(base, shape=(count, p, q), strides=(3 * 8, q * 8, 8), writeable=False)


def _matvec_mismatches(matvec, shape, layout):
    """(block size, row) of every row of `matvec` on a block of 1..BLOCKS
    rows that differs in bytes from the 1-D product, in one of the solvers'
    layouts: a shared matrix, its transposed view, a per-problem stack and
    its transposed views (the descent gradient's `np.swapaxes(M, -1, -2)`),
    the `M[:, None]` broadcast of `solvers._residual` (each problem's matrix
    against its run of 3 rows), and a shared matrix against 1-D x."""
    rng = np.random.default_rng(sum(shape))
    bad = []
    if layout == "vector":
        a = rng.standard_normal(shape)
        for rows in range(1, BLOCKS + 1):
            x = rng.standard_normal(shape[1])
            got = matvec(a, x)
            assert got.shape == (shape[0],)
            if got.tobytes() != (a @ x).tobytes():
                bad.append((rows, 0))
        return bad
    if layout in ("stacked", "stacked-transposed", "broadcast"):
        a = _stack(rng, shape, BLOCKS)
        if layout == "stacked-transposed":
            a = np.swapaxes(a, -1, -2)
        x = rng.standard_normal((BLOCKS, 3, a.shape[-1]))
        want = [[a[i] @ x[i, j] for j in range(3)] for i in range(BLOCKS)]
    else:
        a = rng.standard_normal(shape)
        if layout == "transposed":
            a = a.T
        x = rng.standard_normal((BLOCKS, a.shape[1]))
        want = [a @ x[i] for i in range(BLOCKS)]
    for rows in range(1, BLOCKS + 1):
        if layout.startswith("stacked"):
            got = matvec(a[:rows], x[:rows, 0])
            pairs = [(got[i], want[i][0]) for i in range(rows)]
        elif layout == "broadcast":
            got = matvec(a[:rows, None], x[:rows])
            pairs = [(got[i, j], want[i][j]) for i in range(rows) for j in range(3)]
        else:
            got = matvec(a, x[:rows])
            pairs = [(got[i], want[i]) for i in range(rows)]
        assert got.shape[-1] == a.shape[-2] and got.shape[0] == rows
        bad += [(rows, i) for i, (g, w) in enumerate(pairs) if g.tobytes() != w.tobytes()]
    return bad


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_rows_equal_the_1d_product_for_every_block_size(kernels, shape, layout):
    assert _matvec_mismatches(kernels.matvec, shape, layout) == []


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("layout", ["shared", "transposed"])
def test_a_row_wise_gemm_breaks_the_contract(shape, layout):
    """The check above tells a row-wise gemm from one gemv per row: the
    gemm's rows change bytes with the block size."""
    def gemm(a, x):
        return x @ a.T
    assert _matvec_mismatches(gemm, shape, layout)


@pytest.mark.parametrize("width", [5, 40, 200, 784])
def test_row_dot_rows_equal_the_1d_dot_and_norm(kernels, width):
    rng = np.random.default_rng(width)
    a, b = rng.standard_normal((2, BLOCKS, width))
    for rows in range(1, BLOCKS + 1):
        dots, squares = kernels.row_dot(a[:rows], b[:rows]), kernels.row_dot(a[:rows], a[:rows])
        assert dots.shape == squares.shape == (rows,)
        for i in range(rows):
            assert dots[i].tobytes() == (a[i] @ b[i]).tobytes(), (rows, i)
            assert np.sqrt(squares[i]).tobytes() == np.linalg.norm(a[i]).tobytes(), (rows, i)


def test_gufuncs_are_selected_where_numpy_has_them():
    """np.matvec from numpy 2.2 and np.vecdot from 2.0, each on its own: on
    numpy 2.0 and 2.1 row_dot is the gufunc and matvec the stacked matmul."""
    assert _common.matvec is getattr(np, "matvec", _common._stacked_matvec)
    assert _common.row_dot is getattr(np, "vecdot", _common._stacked_row_dot)
    version = tuple(int(p) for p in np.__version__.split(".")[:2])
    if version >= (2, 2):
        assert _common.matvec is np.matvec and _common.row_dot is np.vecdot
