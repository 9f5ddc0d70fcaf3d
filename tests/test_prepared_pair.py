"""The prepared pair and the moment kernel: accuracy against the QR oracle,
the rank guard near its tolerance, and the constant-column rule of draws.

Every resampler evaluates its draws from moment sums of a pair prepared
once (``prepare_pair``, ``PreparedPair.sums``) through one kernel
(``decomposition._fit_zscored``). CCA runs in a whitened basis, so its
canonical correlations keep full accuracy on ill-conditioned blocks, where
the correlation matrices' eigh roots lose digits to the squared condition
number.
"""

import numpy as np
import pytest

from crossblock import (
    DataBlock,
    SimulationSpec,
    bootstrap_ci,
    fit_cca,
    generate_relevant_subspace,
    permutation_test,
)
import crossblock.decomposition as decomposition
from crossblock.blocks import (
    _CONSTANT_DRAW_VAR,
    RANK_REL_TOL,
    PreparedPair,
    _adjustment_roots,
    _parts,
    prepare_pair,
)
from crossblock.decomposition import CCA, _fit_zscored, _gram_factor
from crossblock.errors import ConstantColumn, RankDeficient
from crossblock.rng import substream

from oracles import qr_canonical_correlations

QR_TOL = 1e-10


def labelled(values, prefix):
    return DataBlock(values, tuple(f"{prefix}{j}" for j in range(values.shape[1])))


def near_collinear(seed=1, n=200, p=12, q=6, eps=1e-5):
    """Every X column is x0 plus eps times its own noise: the correlation
    matrix's condition number is near 1/eps^2, inside the rank guard."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n, p))
    xv = base[:, :1] + eps * base
    xv[:, 0] = base[:, 0]
    yv = 0.5 * base[:, 1 : q + 1] + rng.normal(size=(n, q))
    return labelled(xv, "x"), labelled(yv, "y")


def test_near_collinear_cca_matches_the_qr_oracle():
    x, y = near_collinear()
    exact = qr_canonical_correlations(x.values, y.values)
    pair = prepare_pair(x, y, whiten=True)
    _, s, _, _, (error,) = _fit_zscored(pair, pair.sums())
    assert error is None
    for got in (s, permutation_test(x, y, CCA, n_perm=1).singular_values,
                fit_cca(x, y).s):
        assert np.abs(got - exact).max() <= QR_TOL
    observed = bootstrap_ci(x, y, CCA, n_boot=100, seed=1).x.observed
    assert np.abs(np.linalg.norm(observed, axis=0) - exact).max() <= QR_TOL


def test_bootstrap_draws_match_the_qr_oracle():
    spec = SimulationSpec(n=2000, p=50, q_per_component=(15, 10), relpos=((1, 2), (3, 4, 6)),
                          gamma=0.5, m=4, ypos=((1, 3), (2, 4)), eta=0.0, r2=(0.2, 0.1),
                          seed=3)
    ds = generate_relevant_subspace(spec)
    pair = prepare_pair(ds.x, ds.y, whiten=True)
    idx = substream(1, "bootstrap").integers(0, ds.x.n, (30, ds.x.n))
    _, s, _, _, errors = _fit_zscored(pair, pair.sums(idx))
    assert errors == [None] * 30
    exact = np.stack([qr_canonical_correlations(ds.x.values[i], ds.y.values[i]) for i in idx])
    assert np.abs(s - exact).max() <= QR_TOL


def test_cca_sd_from_gram_factors_equals_that_of_the_z_basis_covariance(monkeypatch):
    # f' f is a draw's Gram, so f B's squared column sums are diag(B' cov B)
    rng = np.random.default_rng(7)
    xv = rng.normal(size=(60, 4)) * [1.0, 3.0, 0.2, 5.0] + 0.5 * rng.normal(size=(60, 1))
    xv[30:, 2] = 4.0  # a draw of rows 30+ alone has a constant x2
    yv = xv[:, :3] @ rng.normal(size=(3, 3)) + rng.normal(size=(60, 3))
    pair = prepare_pair(labelled(xv, "x"), labelled(yv, "y"), whiten=True)
    rows = np.concatenate([rng.integers(0, 60, (20, 60)), rng.integers(30, 60, (5, 60))])
    seen, draw_sd = [], decomposition._draw_sd

    def recording(var):  # the kernel's sd and constant mask
        seen.append(draw_sd(var))
        return seen[-1]

    monkeypatch.setattr(decomposition, "_draw_sd", recording)
    sums = pair.sums(rows)
    *_, errors = _fit_zscored(pair, sums)
    [(sd, constant)] = seen
    cov = pair.moments(sums)[0]
    var = np.concatenate([np.einsum("ji,...jk,ki->...i", b, cov[..., part, part], b)
                          for b, part in zip(pair.roots, _parts(pair.p))], axis=-1)
    expected = var <= _CONSTANT_DRAW_VAR
    assert not expected[:20].any() and expected[20:, 2].all()
    assert np.array_equal(constant, expected)
    assert np.abs(sd / np.sqrt(np.where(expected, 1.0, var)) - 1.0).max() <= 1e-12
    assert errors[:20] == [None] * 20
    assert all(isinstance(e, ConstantColumn) and e.label == "x2" for e in errors[20:])


def test_k_from_solves_matches_the_explicit_inverse_on_near_collinear_blocks():
    x, y = near_collinear(seed=2)
    pair = prepare_pair(x, y, whiten=True)
    sums = pair.sums(substream(2, "bootstrap").integers(0, x.n, (10, x.n)))
    *_, m, errors = _fit_zscored(pair, sums, fit=None)
    assert errors == [None] * 10
    cov = pair.moments(sums)[0]
    inverses, polars = [], []
    for part, root in zip(_parts(pair.p), pair.roots):
        f = _gram_factor(cov[..., part, part])
        fb = f @ root
        sd = np.sqrt(np.einsum("...ij,...ij->...j", fb, fb))
        ul, _, vlt = np.linalg.svd(fb / sd[..., None, :])
        inverses.append(np.linalg.inv(f))
        polars.append(ul @ vlt)
    x_part, y_part = _parts(pair.p)
    k = inverses[0].swapaxes(-1, -2) @ cov[..., x_part, y_part] @ inverses[1]
    assert np.abs(m - polars[0].swapaxes(-1, -2) @ k @ polars[1]).max() <= 1e-10


def moment_pair(r, n=50):
    """A pair in the z basis (no whitening) whose full-sample sums give the
    correlation matrix r for X and the identity for a 2-column Y."""
    k = r.shape[0] + 2
    cov = np.eye(k)
    cov[: r.shape[0], : r.shape[0]] = r
    sums = np.zeros((k + 1, k + 1))
    sums[0, 0] = n
    sums[1:, 1:] = (n - 1) * cov
    x, y = labelled(np.zeros((n, r.shape[0])), "x"), labelled(np.zeros((n, 2)), "y")
    pair = PreparedPair(np.zeros((n, k + 1)), x, y, (np.eye(r.shape[0]), np.eye(2)))
    return pair, sums


def test_rank_guard_matches_the_eigh_guard_outside_one_percent_of_the_tolerance():
    rng = np.random.default_rng(3)
    decided = 0
    for _ in range(400):
        q, _ = np.linalg.qr(rng.normal(size=(7, 7)))
        r = (q * np.geomspace(1.0, RANK_REL_TOL * rng.uniform(0.9, 1.1), 7)) @ q.T
        d = 1.0 / np.sqrt(np.diag(r))
        r = (r * d[:, None] * d[None, :] + (r * d[:, None] * d[None, :]).T) / 2.0
        w = np.linalg.eigh(r)[0]
        if abs(w[0] / w[-1] / RANK_REL_TOL - 1.0) <= 0.01:
            continue  # within 1% of the tolerance either decision stands
        *_, eigh_error = _adjustment_roots(r, np.eye(2))
        *_, (error,) = _fit_zscored(*moment_pair(r))
        assert (error is None) == (eigh_error is None)
        assert error is None or (isinstance(error, RankDeficient) and error.block == "x")
        decided += 1
    assert decided > 200


def test_a_draw_column_is_constant_below_a_millionth_of_the_sample_sd():
    rng = np.random.default_rng(2)
    xv = rng.normal(size=(40, 2))
    xv[20:, 1] = 5.0 + 1e-7 * rng.normal(size=20)  # below 1e-6 of the sample sd on rows 20+
    xv[:20, 1] = 5.0 + rng.normal(size=20)
    x, y = labelled(xv, "x"), labelled(rng.normal(size=(40, 2)), "y")
    for whiten in (False, True):
        pair = prepare_pair(x, y, whiten=whiten)
        rows = np.stack([np.arange(20, 40), np.arange(0, 20)])
        *_, errors = _fit_zscored(pair, pair.sums(rows))
        assert isinstance(errors[0], ConstantColumn) and errors[0].label == "x1"
        assert errors[1] is None


@pytest.mark.parametrize("whiten", [False, True])
def test_second_half_by_subtraction_equals_the_gathered_half(whiten):
    rng = np.random.default_rng(4)
    x, y = labelled(rng.normal(size=(31, 3)), "x"), labelled(rng.normal(size=(31, 2)), "y")
    pair = prepare_pair(x, y, whiten=whiten)
    perm = rng.permutation(31)
    by_difference = pair.sums() - pair.sums(perm[None, :16])
    gathered = pair.sums(perm[None, 16:])
    assert np.abs(by_difference - gathered).max() <= 1e-12


def test_pls_moments_match_those_of_the_full_gram():
    # PLS sums hold no within-block products; its moments must still be
    # those the full Gram g' g gives, to roundoff
    rng = np.random.default_rng(6)
    xv = rng.normal(size=(300, 4)) * 5.0 + 2.0
    x, y = labelled(xv, "x"), labelled(0.4 * xv[:, :3] + rng.normal(size=(300, 3)), "y")
    pair = prepare_pair(x, y)
    rows = rng.integers(0, 300, (6, 300))
    for got, g in ((pair.sums(rows), pair.data[rows]), (pair.sums(), pair.data)):
        gram = g.swapaxes(-1, -2) @ g
        count = gram[..., :1, :1]
        mean = gram[..., :1, 1:] / count
        cov = (gram[..., 1:, 1:] - count * mean.swapaxes(-1, -2) * mean) / (count - 1)
        sd = np.sqrt(np.diagonal(cov, axis1=-2, axis2=-1))
        got_cov, got_sd, constant = pair.moments(got)
        assert not constant.any()
        assert np.abs(got_cov - cov[..., :4, 4:]).max() <= 1e-12 * np.abs(cov).max()
        assert np.abs(got_sd / sd - 1.0).max() <= 1e-12
