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
    CorrelationBundle,
    _adjustment_roots,
    _constant_errors,
    _cross_correlation,
    _within_correlation,
    _zscore_values,
    inverse_sqrt_sym,
)
from .errors import MethodMismatch, MissingOmega, ShapeMismatch

PLS = "pls"
CCA = "cca"
METHODS = (PLS, CCA)

_ORTHO_TOL = 1e-8
_CCA_UNIT_SLACK = 1e-8


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


@dataclass(frozen=True)
class CanonicalCoefficients:
    """Standardized canonical weights and structure coefficients.

    Weights adjust each variable for its within-block correlations; structure
    coefficients are the zero-order correlations of each variable with the
    canonical variate, obtained by rescaling the weights by the within-block
    correlation matrix.
    """

    weights_x: np.ndarray
    structure_x: np.ndarray
    weights_y: np.ndarray
    structure_y: np.ndarray

    def __post_init__(self):
        for name in ("weights_x", "structure_x", "weights_y", "structure_y"):
            m = np.asarray(getattr(self, name), dtype=np.float64)
            m.setflags(write=False)
            object.__setattr__(self, name, m)
        for name in ("structure_x", "structure_y"):
            if np.abs(getattr(self, name)).max() > 1.0 + 1e-8:
                raise ValueError(f"{name} has entries outside the correlation range")


def _oriented_svd(m: np.ndarray):
    """Thin SVD of one matrix or a stack, each LV oriented so its
    largest-|entry| U weight is positive."""
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    lead = np.argmax(np.abs(u), axis=-2)[..., None, :]
    signs = np.sign(np.take_along_axis(u, lead, axis=-2))
    signs[signs == 0] = 1.0
    return u * signs, s, vt.swapaxes(-1, -2) * signs


def fit_pls(bundle: CorrelationBundle) -> CrossBlockModel:
    """Fit a PLS model: decompose the cross-correlation matrix directly."""
    u, s, v = _oriented_svd(bundle.rxy)
    return CrossBlockModel(method=PLS, u=u, s=s, v=v)


def fit_cca(bundle: CorrelationBundle) -> CrossBlockModel:
    """Fit a CCA model: decompose the within-block adjusted cross matrix.

    The bundle must have been built with ``with_omega=True``; a bundle whose
    adjusted matrix is absent (for example because a within-block matrix was
    rank deficient) raises MissingOmega. Singular values within roundoff of
    the unit bound are clipped to 1.
    """
    if bundle.omega is None:
        raise MissingOmega(
            "bundle has no adjusted cross-block matrix; rebuild with with_omega=True"
        )
    u, s, v = _oriented_svd(bundle.omega)
    over = s > 1.0
    if np.any(s > 1.0 + _CCA_UNIT_SLACK):
        raise ValueError(
            f"canonical correlation {s.max():.12f} exceeds 1 beyond roundoff; "
            "the within-block matrices are too ill-conditioned"
        )
    if np.any(over):
        s = np.minimum(s, 1.0)
    return CrossBlockModel(method=CCA, u=u, s=s, v=v)


def canonical_coefficients(bundle: CorrelationBundle, model: CrossBlockModel) -> CanonicalCoefficients:
    """Canonical weights and structure coefficients for a CCA model."""
    if model.method != CCA:
        raise MethodMismatch("canonical coefficients are defined for CCA models only")
    ax = inverse_sqrt_sym(bundle.rxx)
    by = inverse_sqrt_sym(bundle.ryy)
    weights_x = ax @ model.u
    weights_y = by @ model.v
    return CanonicalCoefficients(
        weights_x=weights_x,
        structure_x=bundle.rxx @ weights_x,
        weights_y=weights_y,
        structure_y=bundle.ryy @ weights_y,
    )


def scale_vectors(model: CrossBlockModel) -> tuple[np.ndarray, np.ndarray]:
    """U and V with each LV column multiplied by its singular value.

    Scaling expresses each variable's weight in terms of the cross-block
    variance the LV accounts for, which is the quantity the bootstrap
    interval estimation works on.
    """
    return model.u * model.s, model.v * model.s


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


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosines between the columns of two orthonormal matrices."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[0] != b.shape[0]:
        raise ShapeMismatch(f"column dimensions differ: {a.shape[0]} vs {b.shape[0]}")
    return a.T @ b


def _fit_zscored(xz: np.ndarray, yz: np.ndarray, method: str):
    """The resampling kernel: fit one pair of standardized blocks, or a pair
    of (b, n, k) stacks of them, with one batched SVD (CCA whitens Rxy
    first). Returns (u, s, v, m, errors): m is the decomposed matrix,
    errors[i] draw i's RankDeficient (CCA only) or None, which makes its
    fit void."""
    m = _cross_correlation(xz, yz)
    errors = [None] * int(np.prod(m.shape[:-2]))
    if method == CCA:
        ax, by, errors = _adjustment_roots(_within_correlation(xz), _within_correlation(yz))
        m = ax @ m @ by
    u, s, v = _oriented_svd(m)
    return u, np.minimum(s, 1.0) if method == CCA else s, v, m, errors


def _fit_rows(xv, yv, x_rows, y_rows, method: str, labels=(None, None)):
    """Gather a stack of draws from both blocks, z-score it and fit it.
    Returns ``_fit_zscored``'s tuple, errors[i] being draw i's ConstantColumn
    (X before Y), else its RankDeficient."""
    xz, x_constant = _zscore_values(xv[x_rows])
    yz, y_constant = _zscore_values(yv[y_rows])
    *fit, errors = _fit_zscored(xz, yz, method)
    constant = zip(_constant_errors(x_constant, labels[0]), _constant_errors(y_constant, labels[1]))
    return (*fit, [ex or ey or e for (ex, ey), e in zip(constant, errors)])
