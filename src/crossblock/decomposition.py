"""Cross-block models fitted by singular value decomposition.

PLS decomposes the raw cross-correlation matrix, so its singular values are
covariances between the block variates. CCA decomposes the within-block
adjusted matrix, so its singular values are the canonical correlations.
Each latent variable (LV) pairs one column of U with one column of V and
one singular value.

Sign convention: the sign of a singular vector pair is arbitrary, so after
every fit each LV is oriented to make the largest-magnitude entry of its U
column positive (the paired V column is flipped with it). Resampling code
additionally re-aligns reflections against a reference with
``align_reflections``. When two singular values coincide to roundoff, the
individual vectors are not identified (only their spanned subspace is);
column order then simply follows the SVD routine.
"""

from dataclasses import dataclass

import numpy as np

from .blocks import (
    RANK_REL_TOL,
    DataBlock,
    PreparedPair,
    _constant_errors,
    _draw_sd,
    _parts,
    prepare_pair,
)
from .errors import RankDeficient, ShapeMismatch, unwrap

PLS = "pls"
CCA = "cca"
METHODS = (PLS, CCA)

# Versions the arithmetic that turns data into reported numbers; written into
# every report's metadata. Contract 1 evaluates every draw from weighted
# moments of a pair prepared once, and CCA in a whitened basis; contract 2
# takes permutation null singular values from eigenvalues of a small Gram;
# contract 3 drops PLS's within-block sums and chunks permutation products;
# contract 4 takes CCA's z-basis variances from its Gram factors and its K
# from solves, and sums moments and products over 1024-row chunks; contract 5
# takes Bartlett's chi-square tail from a finite sum, not scipy.
NUMERICS_CONTRACT = 5

_ORTHO_TOL = 1e-8


def check_method(method: str) -> str:
    m = str(method).lower()
    if m not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    return m


@dataclass(frozen=True)
class CrossBlockModel:
    """U, singular values, and V from the decomposition of a cross-block matrix."""

    method: str
    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "method", check_method(self.method))
        for name in ("u", "s", "v"):
            m = np.asarray(getattr(self, name), dtype=np.float64)
            m.setflags(write=False)
            object.__setattr__(self, name, m)
        r = self.s.shape[0]
        if self.u.shape[1] != r or self.v.shape[1] != r:
            raise ValueError("u, s, v have inconsistent LV counts")
        if r != min(self.u.shape[0], self.v.shape[0]):
            raise ValueError("expected min(p, q) latent variables")
        for name in ("u", "v"):
            m = getattr(self, name)
            gram = m.T @ m
            if np.abs(gram - np.eye(r)).max() > _ORTHO_TOL:
                raise ValueError(f"{name} columns are not orthonormal")
        if np.any(self.s < 0) or np.any(np.diff(self.s) > 0):
            raise ValueError("singular values must be non-negative and non-increasing")
        if self.method == CCA and np.any(self.s > 1.0 + 1e-10):
            raise ValueError("canonical correlations cannot exceed 1")

    @property
    def r(self) -> int:
        return self.s.shape[0]


def _oriented(u, s, v):
    """Orient each LV of one fit or a stack so that its largest-|entry| U
    weight is positive, flipping the paired V column with it."""
    lead = np.argmax(np.abs(u), axis=-2)[..., None, :]
    signs = np.sign(np.take_along_axis(u, lead, axis=-2))
    signs[signs == 0] = 1.0
    return u * signs, s, v * signs


def _oriented_svd(m: np.ndarray):
    """Thin SVD of one matrix or a stack, each LV oriented."""
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return _oriented(u, s, vt.swapaxes(-1, -2))


def fit_pls(x: DataBlock, y: DataBlock) -> CrossBlockModel:
    """PLS of two blocks with matching rows: the SVD of their cross-correlation
    matrix. Raises ObservationMismatch when the row counts differ and
    ConstantColumn naming the first constant column (X before Y)."""
    return _fit(x, y, PLS)[1]


def fit_cca(x: DataBlock, y: DataBlock) -> CrossBlockModel:
    """CCA of two blocks with matching rows: the SVD of their cross-correlation
    matrix adjusted for each block's own correlations, whose singular values
    are the canonical correlations. Raises as ``fit_pls`` does and, when a
    block's correlation matrix fails the rank guard, RankDeficient naming it."""
    return _fit(x, y, CCA)[1]


def align_reflections(reference: np.ndarray, candidate: np.ndarray, paired: np.ndarray):
    """Flip candidate columns whose cosine with the reference column is negative.

    The column-wise cosines are the diagonal of reference.T @ candidate; for
    every negative diagonal entry the corresponding column of both
    ``candidate`` and ``paired`` is negated. Only reflections are corrected,
    not rotations (column order is never touched). ``candidate`` and
    ``paired`` may be (b, k, r) stacks aligned against one reference.

    Returns (candidate_aligned, paired_aligned, flips) where flips is the
    boolean mask of negated columns.
    """
    reference = np.asarray(reference, dtype=np.float64)
    candidate = np.asarray(candidate, dtype=np.float64)
    paired = np.asarray(paired, dtype=np.float64)
    if reference.shape != candidate.shape[-2:]:
        raise ShapeMismatch(
            f"reference {reference.shape} and candidate {candidate.shape} differ"
        )
    if paired.shape[-1] != candidate.shape[-1]:
        raise ShapeMismatch("paired matrix must have the same number of columns")
    flips = np.einsum("ij,...ij->...j", reference, candidate) < 0
    signs = np.where(flips, -1.0, 1.0)[..., None, :]
    return candidate * signs, paired * signs, flips


def _gram_factor(g: np.ndarray) -> np.ndarray:
    """Upper triangular f with f' f = g, for one matrix or a stack. A matrix
    that is not positive definite (a degenerate draw, which the rank guard
    then fails) gets f = sqrt(w) V' from its eigh, with negative roundoff
    clipped, so the rest of its stack keeps its Cholesky factors."""
    try:
        return np.linalg.cholesky(g).swapaxes(-1, -2)
    except np.linalg.LinAlgError:
        if g.ndim > 2:
            return np.stack([_gram_factor(m) for m in g])
        w, v = np.linalg.eigh(g)
        return np.sqrt(np.maximum(w, 0.0))[:, None] * v.T


def _fit_zscored(pair: PreparedPair, sums: np.ndarray, fit=..., basis=...):
    """The fitting kernel: fit one draw, or a stack, from its moment sums
    over a prepared pair (``PreparedPair.sums``), with results in each
    draw's own z-basis. Returns (u, s, v, m, errors): m is the draw's
    decomposed z-basis matrix, errors[i] draw i's ConstantColumn (X before
    Y), else its RankDeficient (CCA), or None. Every draw gets its errors,
    but only the draws ``fit`` selects are decomposed and only those
    ``basis`` selects get m: each is an index of the stack's leading axis,
    ``...`` for all, or None for none (and then u, s, v or m is None).

    PLS decomposes the draw's cross-correlations. CCA works in the pair's
    whitened basis, where a draw's Gram G is near the identity: with f' f = G
    per block, the canonical correlations are the singular values of
    K = fx^-T Gxy fy^-1, formed by two solves, which loses no digits to the
    blocks' condition. The draw's z-basis covariance is (f B)' (f B), so f B's
    squared column sums are its z-basis variances, and its correlation is L' L
    with L = f B / sd. The singular values of L give the rank guard its
    eigenvalues, and L's orthogonal polar factor P maps K into the z-basis:
    m = Px' K Py, U = Px' Uk, V = Py' Vk.
    """
    cov, sd, constant = pair.moments(sums)
    x, y = _parts(pair.p)
    labels = pair.x.labels + pair.y.labels
    if pair.roots is None:
        m = cov / (sd[..., x, None] * sd[..., None, y])
        u, s, v = (None,) * 3 if fit is None else _oriented_svd(m[fit])
        return u, s, v, None if basis is None else m[basis], _constant_errors(constant, labels)
    factors = [_gram_factor(cov[..., part, part]) for part in (x, y)]
    fbs = [f @ root for f, root in zip(factors, pair.roots)]
    sd, constant = _draw_sd(np.concatenate([np.square(fb).sum(axis=-2) for fb in fbs], axis=-1))
    errors = _constant_errors(constant, labels)
    k, polars = cov[..., x, y], []
    for name, part, f, fb in zip("xy", (x, y), factors, fbs):
        ul, sl, vlt = np.linalg.svd(fb / sd[..., None, part])
        ev = np.square(sl)  # the draw's z-basis correlation eigenvalues, descending
        bad = (ev[..., 0] <= 0) | (ev[..., -1] < RANK_REL_TOL * ev[..., 0])
        errors = [e or (RankDeficient(name, float(w[-1]), RANK_REL_TOL * max(float(w[0]), 0.0))
                        if b else None)
                  for e, b, w in zip(errors, bad.reshape(-1), ev.reshape(-1, ev.shape[-1]))]
        bad |= constant[..., part].any(axis=-1)  # a failed draw's f need not be invertible
        f = np.where(bad[..., None, None], np.eye(f.shape[-1]), f)
        k = np.linalg.solve(f.swapaxes(-1, -2), k).swapaxes(-1, -2)  # (fx^-T Gxy)', then K
        polars.append((ul @ vlt).swapaxes(-1, -2))
    u = s = v = m = None
    if fit is not None:
        uk, s, vkt = np.linalg.svd(k[fit], full_matrices=False)
        u, s, v = _oriented(polars[0][fit] @ uk, s, polars[1][fit] @ vkt.swapaxes(-1, -2))
    if basis is not None:
        m = polars[0][basis] @ k[basis] @ polars[1][basis].swapaxes(-1, -2)
    return u, s, v, m, errors


def _pair_for(x, y, method: str, pair: PreparedPair | None = None) -> PreparedPair:
    """The pair ``method`` fits x and y from: ``pair``, which must be what
    ``prepare_pair(x, y, whiten=method == CCA)`` returned, or, when None, a
    new one. An unknown method, or a pair of the other basis or prepared
    from other blocks than x and y, raises ValueError."""
    method = check_method(method)
    if pair is None:
        return prepare_pair(x, y, whiten=method == CCA)
    basis = ("z-scored (PLS)", "whitened (CCA)")
    have, want = basis[pair.roots is not None], basis[method == CCA]
    differ = [f"basis {have}, the call needs {want}"] if have != want else []
    if pair.x is not x or pair.y is not y:
        differ.append("it was prepared from other blocks")
    if differ:
        raise ValueError("prepared pair does not match: " + "; ".join(differ))
    return pair


def _fit(x, y, method: str, pair: PreparedPair | None = None):
    """The pair ``method`` fits x and y from (``_pair_for``) and the model
    of all its rows; a constant column or rank failure raises."""
    pair = _pair_for(x, y, method, pair)
    u, s, v, _, (error,) = _fit_zscored(pair, pair.sums(), basis=None)
    unwrap(error)
    return pair, CrossBlockModel(method=method, u=u, s=s, v=v)
