"""Data blocks, standardization, and correlation structure.

A DataBlock is an n x k observation matrix with column labels; every
analysis in this package consumes pairs of them. This module computes the
within- and cross-block correlation matrices, the adjusted cross-block
matrix used for canonical correlation (the cross-correlations pre- and
post-multiplied by the symmetric inverse square roots of the within-block
correlations), and the spectral utilities those computations rest on.

Sample statistics use n - 1 denominators throughout.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConstantColumn,
    NotPositiveDefinite,
    ObservationMismatch,
    RankDeficient,
)

# Relative spectral cutoff: an eigenvalue below RANK_REL_TOL times the largest
# eigenvalue counts as zero. Exact singularity shows up as roundoff-scale
# eigenvalues (~1e-15 relative), while steep-but-genuine spectra (exponential
# eigenvalue decay over dozens of variables) reach ~1e-12 relative and must
# still be invertible, so the cutoff sits between the two.
RANK_REL_TOL = 1e-13

_CONSTANT_SD = 1e-12
_SYM_TOL = 1e-10


@dataclass(frozen=True)
class DataBlock:
    """An n x k matrix of observations (rows) on labeled variables (columns).

    Immutable after construction; the values array is marked read-only.
    """

    values: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64, order="C")
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got {values.ndim}-D")
        n, k = values.shape
        if n < 2:
            raise ValueError(f"need at least 2 observations, got {n}")
        if k < 1:
            raise ValueError("need at least 1 variable")
        if not np.isfinite(values).all():
            raise ValueError("values contain non-finite entries")
        labels = tuple(str(x) for x in self.labels)
        if len(labels) != k:
            raise ValueError(f"{len(labels)} labels for {k} columns")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class CorrelationBundle:
    """Within- and cross-block correlation matrices for a block pair.

    ``omega`` is the cross-correlation matrix adjusted for the within-block
    correlations; it is present only when requested at construction (it
    requires both within-block matrices to be full rank).
    """

    rxx: np.ndarray
    ryy: np.ndarray
    rxy: np.ndarray
    ryx: np.ndarray
    omega: np.ndarray | None = field(default=None)

    def __post_init__(self):
        for name in ("rxx", "ryy", "rxy", "ryx", "omega"):
            m = getattr(self, name)
            if m is None:
                continue
            m = np.asarray(m, dtype=np.float64)
            m.setflags(write=False)
            object.__setattr__(self, name, m)
        p, q = self.rxy.shape
        if self.rxx.shape != (p, p) or self.ryy.shape != (q, q):
            raise ValueError("inconsistent block dimensions")
        for name in ("rxx", "ryy"):
            m = getattr(self, name)
            if np.abs(m - m.T).max() > _SYM_TOL:
                raise ValueError(f"{name} is not symmetric")
            if np.abs(np.diag(m) - 1.0).max() > _SYM_TOL:
                raise ValueError(f"{name} does not have a unit diagonal")
        for name in ("rxx", "ryy", "rxy"):
            if np.abs(getattr(self, name)).max() > 1.0 + _SYM_TOL:
                raise ValueError(f"{name} has entries outside [-1, 1]")
        if not np.array_equal(self.ryx, self.rxy.T):
            raise ValueError("ryx must equal the transpose of rxy exactly")

    @property
    def p(self) -> int:
        return self.rxy.shape[0]

    @property
    def q(self) -> int:
        return self.rxy.shape[1]


def _column_sd(values: np.ndarray, labels=None) -> np.ndarray:
    """Column sample standard deviations; ConstantColumn names the first below 1e-12."""
    sd = values.std(axis=0, ddof=1)
    bad = np.flatnonzero(sd < _CONSTANT_SD)
    if bad.size:
        j = int(bad[0])
        raise ConstantColumn(labels[j] if labels is not None else str(j))
    return sd


def _zscore_values(values: np.ndarray, labels=None) -> np.ndarray:
    """Center and scale columns to unit sample standard deviation."""
    return (values - values.mean(axis=0)) / _column_sd(values, labels)


def zscore_columns(block: DataBlock) -> DataBlock:
    """Return a copy of the block with zero-mean, unit-sd columns.

    Raises ConstantColumn if any column's sample sd is below 1e-12.
    """
    return DataBlock(_zscore_values(block.values, block.labels), block.labels)


def inverse_sqrt_sym(m: np.ndarray) -> np.ndarray:
    """Inverse square root of a symmetric positive-definite matrix.

    Computed from the symmetric eigendecomposition so the result A is itself
    symmetric and satisfies A @ m @ A = I. Raises NotPositiveDefinite when
    the smallest eigenvalue falls below the relative rank tolerance.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    if np.abs(m - m.T).max() > _SYM_TOL:
        raise ValueError("matrix is not symmetric within 1e-10")
    w, v = np.linalg.eigh(m)
    if w[-1] <= 0 or w[0] < RANK_REL_TOL * w[-1]:
        raise NotPositiveDefinite(float(w[0]))
    a = (v / np.sqrt(w)) @ v.T
    return (a + a.T) / 2.0


def effective_rank(m: np.ndarray) -> int:
    """Number of eigenvalues of a symmetric matrix above the relative tolerance."""
    w = np.linalg.eigvalsh(np.asarray(m, dtype=np.float64))
    largest = w[-1]
    if largest <= 0:
        return 0
    return int(np.count_nonzero(w > RANK_REL_TOL * largest))


def _within_correlation(z: np.ndarray) -> np.ndarray:
    n = z.shape[0]
    r = z.T @ z / (n - 1)
    return (r + r.T) / 2.0


def _cross_correlation(xz: np.ndarray, yz: np.ndarray) -> np.ndarray:
    return xz.T @ yz / (xz.shape[0] - 1)


def _adjustment_roots(rxx: np.ndarray, ryy: np.ndarray):
    """Inverse square roots of both within-block matrices, with rank guard."""
    for name, r in (("x", rxx), ("y", ryy)):
        w = np.linalg.eigvalsh(r)
        tol = RANK_REL_TOL * max(w[-1], 0.0)
        if w[-1] <= 0 or w[0] < tol:
            raise RankDeficient(name, float(w[0]), float(tol))
    return inverse_sqrt_sym(rxx), inverse_sqrt_sym(ryy)


def correlation_bundle(x: DataBlock, y: DataBlock, with_omega: bool = False) -> CorrelationBundle:
    """Correlation matrices for a pair of blocks with matching rows.

    Both blocks are standardized internally, so the result is invariant to
    per-column affine rescaling of the inputs. When ``with_omega`` is set the
    adjusted cross-block matrix is computed as well, which requires both
    within-block correlation matrices to be full rank.

    Raises
    ------
    ObservationMismatch
        If the blocks have different row counts.
    RankDeficient
        If ``with_omega`` is set and a within-block matrix has an eigenvalue
        below the rank tolerance.
    """
    if x.n != y.n:
        raise ObservationMismatch(f"x has {x.n} rows, y has {y.n}")
    xz = _zscore_values(x.values, x.labels)
    yz = _zscore_values(y.values, y.labels)
    rxx = _within_correlation(xz)
    ryy = _within_correlation(yz)
    rxy = _cross_correlation(xz, yz)
    omega = None
    if with_omega:
        ax, by = _adjustment_roots(rxx, ryy)
        omega = ax @ rxy @ by
    return CorrelationBundle(rxx=rxx, ryy=ryy, rxy=rxy, ryx=rxy.T.copy(), omega=omega)
