"""Independent oracles used to compute expected values.

These deliberately avoid the code paths they check: correlations are
accumulated in plain Python, the leading canonical correlation comes from a
grid search over projection angles rather than any decomposition, the
inverse matrix square root is cross-checked through scipy's Schur-based
sqrtm followed by an explicit inverse, and subsample detection rates come
from numpy's own default_rng draws, plain z-scoring and batched SVDs rather
than crossblock's random streams, harness or permutation test. Canonical
correlations to full accuracy come from Householder QR of each centred
block, never from a correlation matrix. The chi-square upper tail on even
degrees of freedom is a Poisson sum in 60-digit decimal arithmetic, with
neither floating point nor scipy.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import scipy.linalg


def brute_pearson(a, b) -> float:
    """Pearson correlation accumulated element by element."""
    n = len(a)
    ma = sum(a) / n
    mb = sum(b) / n
    sab = saa = sbb = 0.0
    for x, y in zip(a, b):
        sab += (x - ma) * (y - mb)
        saa += (x - ma) ** 2
        sbb += (y - mb) ** 2
    return sab / math.sqrt(saa * sbb)


def grid_max_canonical_correlation(x: np.ndarray, y: np.ndarray, step_deg: float = 1.0) -> float:
    """Leading canonical correlation by exhaustive search over angle pairs.

    Both blocks must have exactly two columns. Every unit direction
    (cos t, sin t) on a step_deg grid is projected through each block and
    the maximum absolute Pearson correlation over all pairs is returned.
    """
    assert x.shape[1] == 2 and y.shape[1] == 2
    angles = np.deg2rad(np.arange(0.0, 180.0, step_deg))
    dirs = np.stack([np.cos(angles), np.sin(angles)])
    xs = x @ dirs
    ys = y @ dirs
    xs = (xs - xs.mean(0)) / xs.std(0, ddof=1)
    ys = (ys - ys.mean(0)) / ys.std(0, ddof=1)
    corr = xs.T @ ys / (len(x) - 1)
    return float(np.abs(corr).max())


def inverse_sqrt_reference(m: np.ndarray) -> np.ndarray:
    """Inverse square root via scipy's sqrtm and an explicit inverse."""
    root = scipy.linalg.sqrtm(np.asarray(m, dtype=float))
    return np.linalg.inv(np.real(root))


def random_spd(rng: np.random.Generator, dim: int, cond: float) -> np.ndarray:
    """Random symmetric positive-definite matrix with a given condition number."""
    a = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    q *= np.sign(np.diag(r))
    eigs = np.exp(np.linspace(0.0, -np.log(cond), dim))
    return (q * eigs) @ q.T


def random_invertible(rng: np.random.Generator, dim: int, cond: float) -> np.ndarray:
    """Random invertible matrix with a given condition number."""
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    v, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    svals = np.exp(np.linspace(0.0, -np.log(cond), dim))
    return (u * svals) @ v.T


def subsample_detection_count(
    x: np.ndarray,
    y: np.ndarray,
    size: int,
    n_subsamples: int,
    n_perm: int,
    alpha: float,
    seed: int,
) -> int:
    """Number of subsamples in which PLS detects the leading LV.

    Each of ``n_subsamples`` draws takes ``size`` rows of the population
    without replacement, z-scores both blocks, and compares the leading
    singular value of Xz' Yz against its value under ``n_perm`` row
    permutations of Yz. The subsample counts as a detection when
    (#null >= observed) / n_perm <= alpha.
    """

    def zscore(a):
        a = a - a.mean(axis=0)
        return a / a.std(axis=0, ddof=1)

    rng = np.random.default_rng(seed)
    identity = np.tile(np.arange(size), (n_perm, 1))
    hits = 0
    for _ in range(n_subsamples):
        rows = rng.choice(len(x), size, replace=False)
        xz, yz = zscore(x[rows]), zscore(y[rows])
        observed = np.linalg.svd(xz.T @ yz, compute_uv=False)[0]
        perms = rng.permuted(identity, axis=1)
        null = np.linalg.svd(np.matmul(xz.T, yz[perms]), compute_uv=False)[:, 0]
        hits += np.count_nonzero(null >= observed) / n_perm <= alpha
    return int(hits)


def qr_canonical_correlations(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Canonical correlations from Householder QR (Björck & Golub 1973).

    Each block is centred and reduced to the orthonormal Q factor of its
    thin QR; the canonical correlations are the singular values of
    Qx' Qy. No correlation or Gram matrix is formed, so the accuracy
    depends on each block's condition number, not on its square.
    """
    qx = np.linalg.qr(x - x.mean(axis=0))[0]
    qy = np.linalg.qr(y - y.mean(axis=0))[0]
    return np.linalg.svd(qx.T @ qy, compute_uv=False)


def even_chi2_sf(df: int, stat: float) -> float:
    """Chi-square upper tail on an even df at stat, as a 60-digit Poisson sum.

    With lam = stat/2 the tail is e^-lam * sum_{j < df/2} lam^j / j!; the
    float stat converts to Decimal exactly, and only the result is rounded.
    """
    assert df > 0 and df % 2 == 0 and stat >= 0
    with localcontext() as ctx:
        ctx.prec = 60
        lam = Decimal(stat) / 2
        term, total = Decimal(1), Decimal(0)
        for j in range(df // 2):
            total += term
            term = term * lam / (j + 1)
        return float(total * (-lam).exp())
