"""Invariance properties of the PLS and CCA fits, each to a stated tolerance.

These hold for any correct arithmetic, so they carry across a change of
numerics where bit-level pins cannot. Shapes cover p > q, p < q and n close
to the larger block (for CCA, n - 1 below p + q forces canonical
correlations of 1). The fit is read through the public API twice: the
fit of the whole pair (``fit_pls`` or ``fit_cca``: U, s, V) and the
permutation test's observed singular values.

Singular vectors are identified only up to a joint sign per LV, and only
where the singular value is separated from its neighbours, so vectors are
compared on LVs whose gap is at least ``GAP``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from crossblock import DataBlock, fit_cca, fit_pls, permutation_test
from crossblock.decomposition import CCA, METHODS, PLS

S_TOL = 1e-9     # singular values, absolute
VEC_TOL = 1e-7   # singular vectors of LVs separated by at least GAP, absolute
GAP = 1e-3

SHAPES = [(5, 2), (4, 3), (2, 5), (3, 4)]  # p > q and p < q


@st.composite
def cases(draw):
    p, q = draw(st.sampled_from(SHAPES))
    close = draw(st.booleans())
    n = max(p, q) + draw(st.integers(2, 3)) if close else 40
    seed = draw(st.integers(0, 2**32 - 1))
    return draw(st.sampled_from(METHODS)), n, p, q, seed


def blocks(n, p, q, seed):
    rng = np.random.default_rng(seed)
    xv = rng.normal(size=(n, p))
    yv = 0.7 * xv[:, :1] @ rng.normal(size=(1, q)) + rng.normal(size=(n, q))
    return (DataBlock(xv, tuple(f"x{j}" for j in range(p))),
            DataBlock(yv, tuple(f"y{j}" for j in range(q))))


def fit(x, y, method):
    model = (fit_pls if method == PLS else fit_cca)(x, y)
    observed = permutation_test(x, y, method, n_perm=1, seed=0).singular_values
    assert np.abs(observed - model.s).max() <= S_TOL
    return model.u, model.s, model.v


def separated(s):
    """LVs whose singular value is at least GAP from every other one."""
    gaps = np.abs(s[:, None] - s[None, :]) + np.eye(len(s))
    return np.flatnonzero(gaps.min(axis=1) >= GAP)


def assert_same_fit(expected, got, flip_x=None, flip_y=None):
    """``got`` equals ``expected`` up to a joint sign per LV, after negating
    the rows of U and V that ``flip_x`` and ``flip_y`` mark."""
    (u1, s1, v1), (u2, s2, v2) = expected, got
    assert np.abs(s1 - s2).max() <= S_TOL
    if flip_x is not None:
        u1 = np.where(flip_x[:, None], -u1, u1)
    if flip_y is not None:
        v1 = np.where(flip_y[:, None], -v1, v1)
    keep = separated(s1)
    signs = np.where(np.sum(u1 * u2, axis=0) + np.sum(v1 * v2, axis=0) < 0, -1.0, 1.0)
    assert np.abs(u1 * signs - u2)[:, keep].max(initial=0.0) <= VEC_TOL
    assert np.abs(v1 * signs - v2)[:, keep].max(initial=0.0) <= VEC_TOL


@settings(max_examples=40, deadline=None)
@given(case=cases())
def test_swapping_blocks_swaps_u_and_v(case):
    method, n, p, q, seed = case
    x, y = blocks(n, p, q, seed)
    u, s, v = fit(x, y, method)
    assert_same_fit((v, s, u), fit(y, x, method))


@settings(max_examples=40, deadline=None)
@given(case=cases(), order=st.integers(0, 2**32 - 1))
def test_joint_row_permutation_leaves_the_fit_unchanged(case, order):
    method, n, p, q, seed = case
    x, y = blocks(n, p, q, seed)
    rows = np.random.default_rng(order).permutation(n)
    moved = DataBlock(x.values[rows], x.labels), DataBlock(y.values[rows], y.labels)
    assert_same_fit(fit(x, y, method), fit(*moved, method))


SCALES = st.sampled_from([0.01, 0.5, 3.0, 100.0])
SHIFTS = st.sampled_from([-50.0, 0.0, 7.0])


@st.composite
def affine(draw, k, negative):
    scale = np.array([draw(SCALES) for _ in range(k)])
    if negative:
        scale *= np.where(draw(st.lists(st.booleans(), min_size=k, max_size=k)), -1.0, 1.0)
    return scale, np.array([draw(SHIFTS) for _ in range(k)])


def affine_case(negative):
    @st.composite
    def build(draw):
        method, n, p, q, seed = draw(cases())
        return method, n, p, q, seed, draw(affine(p, negative)), draw(affine(q, negative))
    return build()


def mapped(block, scale, shift):
    return DataBlock(block.values * scale + shift, block.labels)


@settings(max_examples=40, deadline=None)
@given(case=affine_case(negative=False))
def test_positive_affine_map_leaves_the_fit_unchanged(case):
    method, n, p, q, seed, (ax, bx), (ay, by) = case
    x, y = blocks(n, p, q, seed)
    assert_same_fit(fit(x, y, method), fit(mapped(x, ax, bx), mapped(y, ay, by), method))


@settings(max_examples=40, deadline=None)
@given(case=affine_case(negative=True))
def test_negative_scale_flips_only_the_matching_weights(case):
    method, n, p, q, seed, (ax, bx), (ay, by) = case
    x, y = blocks(n, p, q, seed)
    assert_same_fit(fit(x, y, method), fit(mapped(x, ax, bx), mapped(y, ay, by), method),
                    flip_x=ax < 0, flip_y=ay < 0)


MIX_CONDS = st.sampled_from([1.0, 10.0, 100.0])


def mixing(rng, k, cond):
    """A random invertible k x k matrix with condition number ``cond``."""
    q1, _ = np.linalg.qr(rng.normal(size=(k, k)))
    q2, _ = np.linalg.qr(rng.normal(size=(k, k)))
    return (q1 * np.geomspace(1.0, 1.0 / cond, k)) @ q2


@settings(max_examples=40, deadline=None)
@given(case=cases(), mix=st.integers(0, 2**32 - 1), cond=MIX_CONDS)
def test_within_block_mixing_leaves_canonical_correlations_unchanged(case, mix, cond):
    """X -> XA, Y -> YB with A, B invertible spans the same column spaces,
    so CCA's s holds to S_TOL; its vectors move, and PLS is not invariant."""
    _, n, p, q, seed = case
    x, y = blocks(n, p, q, seed)
    rng = np.random.default_rng(mix)
    mixed = (DataBlock(x.values @ mixing(rng, p, cond), x.labels),
             DataBlock(y.values @ mixing(rng, q, cond), y.labels))
    _, s, _ = fit(x, y, CCA)
    _, s_mixed, _ = fit(*mixed, CCA)
    assert np.abs(s - s_mixed).max() <= S_TOL


def test_cases_reach_unit_canonical_correlations():
    """n - 1 below p + q: the close shapes include CCA fits with s = 1."""
    x, y = blocks(7, 5, 2, 3)
    _, s, _ = fit(x, y, CCA)
    assert abs(s[0] - 1.0) <= S_TOL
