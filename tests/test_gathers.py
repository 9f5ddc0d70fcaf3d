"""Row gathers of the resamplers, pinned bit for bit to fancy indexing.

Every resampler gathers the prepared rows a draw takes. Whatever copies
them, the gathered bytes must equal ``data[rows]``, so moment sums and
permutation nulls must equal a reference that gathers by fancy index,
bit for bit, for any stack size.
"""

import numpy as np
import pytest

import crossblock.parallel as parallel
from crossblock import DataBlock, permutation_test
from crossblock.blocks import _SUM_ROWS, prepare_pair
from crossblock.decomposition import CCA, METHODS
from crossblock.inference import _singular_values, permutation_matrix


def blocks(n, p=5, q=3, seed=0):
    rng = np.random.default_rng(seed)
    xv = rng.normal(size=(n, p)) * 3.0 + 1.0
    yv = 0.5 * xv[:, :1] @ rng.normal(size=(1, q)) + rng.normal(size=(n, q))
    return (DataBlock(xv, tuple(f"x{j}" for j in range(p))),
            DataBlock(yv, tuple(f"y{j}" for j in range(q))))


def reference_sums(pair, rows, y_rows=None):
    """Each draw's sums, from rows gathered by fancy index over the same chunks."""
    total = 0.0
    for start in range(0, rows.shape[-1], _SUM_ROWS):
        g = pair.data[rows[..., start : start + _SUM_ROWS]]
        if y_rows is not None:
            g[..., 1 + pair.p :] = pair.data[y_rows[..., start : start + _SUM_ROWS], 1 + pair.p :]
        total = total + pair._row_sums(g)
    return total


@pytest.mark.parametrize("whiten", [False, True])
@pytest.mark.parametrize("m", [7, _SUM_ROWS + 300])  # one chunk; two, the last one short
@pytest.mark.parametrize("reorder_y", [False, True])
def test_moment_sums_equal_a_fancy_index_gather(whiten, m, reorder_y):
    n = _SUM_ROWS + 500
    pair = prepare_pair(*blocks(n), whiten=whiten)
    rng = np.random.default_rng(m)
    rows = rng.integers(0, n, (3, m))  # a bootstrap-like stack, rows repeated
    y_rows = rng.permutation(n)[rows] if reorder_y else None
    got = pair.sums(rows, y_rows)
    assert got.shape[0] == 3
    assert np.array_equal(got, reference_sums(pair, rows, y_rows))


def reference_null(x, y, method, perms):
    pair = prepare_pair(x, y, whiten=method == CCA)
    xb, yb = pair.data[:, 1 : 1 + x.k], pair.data[:, 1 + x.k :]
    return _singular_values(np.matmul(xb.T, yb[perms]) * (1.0 / (x.n - 1)))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("explicit", [False, True])
@pytest.mark.parametrize("elements", [1, 10**9])  # one draw per stack; one stack
def test_permutation_null_equals_a_fancy_index_gather(method, explicit, elements, monkeypatch):
    monkeypatch.setattr(parallel, "_DRAW_CHUNK_ELEMENTS", elements)
    x, y = blocks(120)
    n_perm, seed = 40, 9
    perms = permutation_matrix(seed, n_perm, x.n)
    given = perms if explicit else None
    result = permutation_test(x, y, method, n_perm=n_perm, seed=seed, permutations=given)
    assert np.array_equal(result.null_singular_values, reference_null(x, y, method, perms))
