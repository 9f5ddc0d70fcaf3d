"""Every resampler pinned to a plain per-draw loop.

The loops below restate each resampler's documented draw order and
arithmetic one draw at a time, from numpy and the ``rng`` helpers only:
z-score, within- and cross-block moments, the eigh-based inverse roots of
CCA, an oriented thin SVD, and the stream draws. However the package
evaluates its draws (from moments, stacked, chunked or threaded), which
rows each draw takes and from which seed, which bootstrap slots are
redrawn, which splits fail, and each error's class and block must equal
the loops' exactly. The numbers must agree to stated tolerances: PLS to
1e-12, and CCA, whose package arithmetic does not square the condition
number as the loops' eigh roots do, to 1e-8, and to 1e-10 against the
Householder-QR canonical correlations of ``oracles``.

Each case runs PLS and CCA. The data reach the failure paths: bootstrap
draws redrawn after a constant column or a CCA rank failure, split halves
with a constant column or a collinear X pair, and blocks on which every
split fails.
"""

import dataclasses

import numpy as np
import pytest

from crossblock import (
    DataBlock,
    bootstrap_ci,
    null_calibration,
    permutation_test,
    split_half,
    train_test,
)
from crossblock import parallel
from crossblock.decomposition import CCA, METHODS, PLS
from crossblock.errors import ConstantColumn, RankDeficient
from crossblock.rng import substream

from oracles import qr_canonical_correlations

RANK_TOL = 1e-13
TOL = {PLS: 1e-12, CCA: 1e-8}  # package against the loops' arithmetic
QR_TOL = 1e-10  # CCA canonical correlations against the QR oracle


class Failed(Exception):
    """A draw the resampler must count as failed: (exception class, name)."""


def zscore(values, labels):
    sd = values.std(axis=0, ddof=1)
    bad = np.flatnonzero(sd < 1e-12)
    if bad.size:
        raise Failed(ConstantColumn, labels[bad[0]])
    return (values - values.mean(axis=0)) / sd


def within(z):
    r = z.T @ z / (z.shape[0] - 1)
    return (r + r.T) / 2.0


def inverse_root(r, block):
    w, v = np.linalg.eigh(r)
    if w[-1] <= 0 or w[0] < RANK_TOL * w[-1]:
        raise Failed(RankDeficient, block)
    a = (v / np.sqrt(w)) @ v.T
    return (a + a.T) / 2.0


def roots(xz, yz):
    return inverse_root(within(xz), "x"), inverse_root(within(yz), "y")


def cross_matrix(xz, yz, method):
    m = xz.T @ yz / (xz.shape[0] - 1)
    if method == CCA:
        ax, by = roots(xz, yz)
        m = ax @ m @ by
    return m


def fit(xz, yz, method):
    m = cross_matrix(xz, yz, method)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    v = vt.T
    signs = np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    if method == CCA:
        s = np.minimum(s, 1.0)
    return u * signs, s, v * signs, m


def half(xv, yv, rows, labels, method):
    return fit(zscore(xv[rows], labels[0]), zscore(yv[rows], labels[1]), method)


# --- reference loops --------------------------------------------------------

def ref_permutation(x, y, method, n_perm, seed):
    xz, yz = zscore(x.values, x.labels), zscore(y.values, y.labels)
    n = x.n
    scale = 1.0 / (n - 1)
    gen = substream(seed, "permutation")
    left = right = None
    m_obs = xz.T @ yz * scale
    if method == CCA:
        left, right = roots(xz, yz)
        m_obs = left @ m_obs @ right
    observed = np.linalg.svd(m_obs, compute_uv=False)
    null = []
    for _ in range(n_perm):
        m = xz.T @ yz[gen.permutation(n)] * scale
        if method == CCA:
            m = left @ m @ right
        null.append(np.linalg.svd(m, compute_uv=False))
    null = np.stack(null)
    if method == CCA:
        observed, null = np.minimum(observed, 1.0), np.minimum(null, 1.0)
    return observed, null, (null >= observed).sum(axis=0) / n_perm


def ref_bootstrap(x, y, method, n_boot, seed):
    xv, yv, n = x.values, y.values, x.n
    labels = (x.labels, y.labels)
    u0, s0, v0, _ = fit(zscore(xv, x.labels), zscore(yv, y.labels), method)
    gen = substream(seed, "bootstrap")
    us, vs, redrawn = [], [], 0
    for i in range(n_boot):
        idx = gen.integers(0, n, n)
        retry = None
        while True:
            try:
                u, s, v, _ = half(xv, yv, idx, labels, method)
                break
            except Failed:
                redrawn += 1
                retry = retry or substream(seed, "bootstrap-retry", i)
                idx = retry.integers(0, n, n)
        signs = np.where(np.einsum("ij,ij->j", u0, u) < 0, -1.0, 1.0)
        us.append(u * signs * s)
        vs.append(v * signs * s)
    us = np.stack(us + [u0 * s0])
    vs = np.stack(vs + [v0 * s0])
    return (*np.percentile(us, [2.5, 97.5], axis=0),
            *np.percentile(vs, [2.5, 97.5], axis=0)), redrawn


def ref_splits(x, y, method, n_split, seed, purpose, null):
    """Per split: (train/test diagonal, |cos U|, |cos V|) or the failure."""
    xv, yv, n = x.values, y.values, x.n
    labels = (x.labels, y.labels)
    gen = substream(seed, purpose)
    cut = (n + 1) // 2
    out = []
    for _ in range(n_split):
        y_rows = gen.permutation(n) if null else np.arange(n)
        perm = gen.permutation(n)
        try:
            u1, _, v1, _ = half(xv, yv[y_rows], perm[:cut], labels, method)
            u2, _, v2, m2 = half(xv, yv[y_rows], perm[cut:], labels, method)
        except Failed as failure:
            out.append(failure)
            continue
        out.append((np.einsum("ij,ik,kj->j", u1, m2, v1),
                    np.abs(np.einsum("ij,ij->j", u1, u2)),
                    np.abs(np.einsum("ij,ij->j", v1, v2))))
    return out


# --- data ------------------------------------------------------------------

def blocks(xv, yv):
    return (DataBlock(xv, tuple(f"x{j}" for j in range(xv.shape[1]))),
            DataBlock(yv, tuple(f"y{j}" for j in range(yv.shape[1]))))


def signal(seed=1, n=40, p=3, q=2):
    rng = np.random.default_rng(seed)
    xv = rng.normal(size=(n, p))
    yv = 0.6 * xv[:, :q] + rng.normal(size=(n, q))
    return blocks(xv, yv)


def collinear_unless_rows(seed=2, n=40, rows=2):
    """x1 equals x0 except on the first ``rows`` rows: a draw or half that
    misses all of them fails the CCA rank guard on X, while PLS fits it."""
    x, y = signal(seed, n)
    xv = x.values.copy()
    xv[rows:, 1] = xv[rows:, 0]
    return blocks(xv, y.values)


def sparse_column(seed=3, n=40, every=20):
    """x0 is non-zero on every ``every``-th row only: some draws and halves
    see it constant, for both methods."""
    x, y = signal(seed, n)
    xv = x.values.copy()
    xv[:, 0] = 0.0
    xv[::every, 0] = 1.0
    return blocks(xv, y.values)


def collinear_y(seed=4, n=40):
    """y1 is an affine copy of y0: CCA fails on every draw and half."""
    x, y = signal(seed, n)
    return blocks(x.values, np.column_stack([y.values[:, 0], 2.0 * y.values[:, 0] + 1.0]))


def constant_y(seed=5, n=40):
    x, y = signal(seed, n)
    return blocks(x.values, np.column_stack([y.values[:, 0], np.full(n, 3.0)]))


DATA = {
    "signal": signal,
    "collinear-unless-rows": collinear_unless_rows,
    "sparse-column": sparse_column,
}


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def close(a, b, tol):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and np.abs(a - b).max(initial=0.0) <= tol


# --- tests ------------------------------------------------------------------

@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("data", ["signal", "collinear-unless-rows"])
def test_permutation_test(data, method):
    x, y = DATA[data]()
    res = permutation_test(x, y, method, n_perm=60, seed=8)
    observed, null, p_values = ref_permutation(x, y, method, 60, 8)
    close(res.singular_values, observed, TOL[method])
    close(res.null_singular_values, null, TOL[method])
    same(res.p_values, p_values)
    if method == CCA:
        gen = substream(8, "permutation")
        exact = [qr_canonical_correlations(x.values, y.values[gen.permutation(x.n)])
                 for _ in range(60)]
        close(res.singular_values, qr_canonical_correlations(x.values, y.values), QR_TOL)
        close(res.null_singular_values, np.stack(exact), QR_TOL)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("data", sorted(DATA))
def test_bootstrap_ci(data, method):
    x, y = DATA[data]()
    res = bootstrap_ci(x, y, method, n_boot=120, seed=9)
    (us_lo, us_hi, vs_lo, vs_hi), redrawn = ref_bootstrap(x, y, method, 120, 9)
    for got, want in ((res.x.lower, us_lo), (res.x.upper, us_hi),
                      (res.y.lower, vs_lo), (res.y.upper, vs_hi)):
        close(got, want, TOL[method])
    if data != "signal" and (data == "sparse-column" or method == CCA):
        assert redrawn > 0  # the case reaches the retry path


def check_splits(reference, n_split, draws, failed, method):
    done = [r for r in reference if not isinstance(r, Failed)]
    assert failed == n_split - len(done)
    for k, got in draws.items():
        close(got, np.stack([d[k] for d in done]), TOL[method])
    return done


# (draw budget, threads): the default stacks, then one draw per stack, run
# alone or two at once, so failed and completed splits land in different stacks.
LAYOUTS = ((parallel._DRAW_CHUNK_ELEMENTS, 1), (1, 1), (1, 2))


def in_every_layout(monkeypatch, run):
    """run(threads) under each of LAYOUTS; every field of every layout's
    reports must equal the first layout's bit for bit. Yields the reports."""
    first = None
    for budget, threads in LAYOUTS:
        monkeypatch.setattr(parallel, "_DRAW_CHUNK_ELEMENTS", budget)
        reports = run(threads)
        values = [getattr(r, f.name) for r in reports for f in dataclasses.fields(r)]
        if first is None:
            first = values
        for a, b in zip(first, values):
            same(a, b)
        yield reports


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("data", sorted(DATA))
def test_train_test(data, method, monkeypatch):
    x, y = DATA[data]()
    reference = ref_splits(x, y, method, 30, 10, "train-test", null=False)
    for (rep,) in in_every_layout(
            monkeypatch, lambda t: (train_test(x, y, method, n_split=30, seed=10, threads=t),)):
        done = check_splits(reference, 30, {0: rep.draws}, rep.n_failed, method)
        if data != "signal" and (data == "sparse-column" or method == CCA):
            assert 0 < len(done) < 30  # some splits fail, some complete


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("data", sorted(DATA))
def test_split_half(data, method, monkeypatch):
    x, y = DATA[data]()
    reference = ref_splits(x, y, method, 30, 11, "split-half", null=False)
    for (rep,) in in_every_layout(
            monkeypatch, lambda t: (split_half(x, y, method, n_split=30, seed=11, threads=t),)):
        check_splits(reference, 30, {1: rep.u_draws, 2: rep.v_draws},
                     rep.n_failed, method)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("data", sorted(DATA))
def test_null_calibration(data, method, monkeypatch):
    x, y = DATA[data]()
    reference = ref_splits(x, y, method, 30, 12, "null-calibration", null=True)
    for tt, sh in in_every_layout(
            monkeypatch, lambda t: null_calibration(x, y, method, n_split=30, seed=12, threads=t)):
        check_splits(reference, 30, {0: tt.draws}, tt.n_failed, method)
        check_splits(reference, 30, {1: sh.u_draws, 2: sh.v_draws}, sh.n_failed,
                     method)


@pytest.mark.parametrize("fn, purpose, null", [
    (train_test, "train-test", False),
    (split_half, "split-half", False),
    (null_calibration, "null-calibration", True),
])
@pytest.mark.parametrize("data, method", [(collinear_y, CCA), (constant_y, METHODS[0])])
def test_every_split_failed_raises_the_first_splits_error(fn, purpose, null, data, method):
    x, y = data()
    reference = ref_splits(x, y, method, 6, 13, purpose, null)
    assert all(isinstance(r, Failed) for r in reference)
    kind, name = reference[0].args
    with pytest.raises(kind) as err:
        fn(x, y, method, n_split=6, seed=13)
    assert (err.value.block if kind is RankDeficient else err.value.label) == name
