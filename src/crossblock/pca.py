"""Principal components: fitting, score substitution, and subsample stability.

Components are the eigenvectors of the covariance matrix of the
column-centered block, so the eigenvalue spectrum estimates the population
variance profile directly. Component scores used as analysis input are
re-standardized to unit variance, which makes the within-block correlation
matrix of the score block exactly identity; with identity within-block
structure the CCA adjustment divides by one and CCA and PLS coincide.

The sign of an eigenvector is arbitrary. ``align_to_reference`` flips
subsample eigenvectors to match a reference fit, which is what the
stability assessment needs before cosines between population and subsample
components can be averaged meaningfully.
"""

from dataclasses import dataclass

import numpy as np

from .blocks import _CONSTANT_SD, DataBlock, _constant_errors, _zscored
from .errors import ShapeMismatch, unwrap
from .parallel import _map_subsamples
from .reproducibility import _distribution_z


@dataclass(frozen=True)
class PcaModel:
    """Eigenvectors, eigenvalues, and cumulative explained-variance fractions."""

    eigenvectors: np.ndarray
    eigenvalues: np.ndarray
    variance_fraction: np.ndarray
    n_kept: int

    def __post_init__(self):
        for name in ("eigenvectors", "eigenvalues", "variance_fraction"):
            m = np.asarray(getattr(self, name), dtype=np.float64)
            m.setflags(write=False)
            object.__setattr__(self, name, m)
        k = self.eigenvalues.shape[0]
        if self.eigenvectors.shape != (k, k):
            raise ValueError("eigenvector matrix must be k x k")
        if np.any(self.eigenvalues < 0) or np.any(np.diff(self.eigenvalues) > 0):
            raise ValueError("eigenvalues must be non-negative and non-increasing")
        if np.any(np.diff(self.variance_fraction) < 0):
            raise ValueError("variance fractions must be non-decreasing")
        if abs(self.variance_fraction[-1] - 1.0) > 1e-10:
            raise ValueError("variance fractions must end at 1")
        if not 1 <= self.n_kept <= k:
            raise ValueError(f"n_kept must be in [1, {k}]")

    @property
    def k(self) -> int:
        return self.eigenvalues.shape[0]


# The variance share fit_pca's ``n_kept`` reaches and ``--pca-components auto`` asks for.
VARIANCE_TARGET = 0.98


def _resolve_n_keep(pca_pre: int | float | None, fraction: np.ndarray) -> int:
    """Component count ``pca_pre`` keeps of a fit with cumulative variance ``fraction``
    (see ``fit_reduction``)."""
    if isinstance(pca_pre, int):
        return min(pca_pre, len(fraction))
    target = VARIANCE_TARGET if pca_pre is None else pca_pre
    return min(int(np.searchsorted(fraction, target - 1e-12) + 1), len(fraction))


def _fit_values(values: np.ndarray, labels: tuple[str, ...]) -> PcaModel:
    unwrap(_constant_errors(values.std(axis=0, ddof=1) < _CONSTANT_SD, labels)[0])
    centered = values - values.mean(axis=0)
    cov = centered.T @ centered / (values.shape[0] - 1)
    w, v = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1]
    w = np.maximum(w[order], 0.0)
    v = v[:, order]
    fraction = np.cumsum(w) / np.sum(w)
    return PcaModel(
        eigenvectors=v,
        eigenvalues=w,
        variance_fraction=fraction,
        n_kept=_resolve_n_keep(VARIANCE_TARGET, fraction),
    )


def fit_pca(block: DataBlock) -> PcaModel:
    """Eigendecomposition of the block's covariance (columns centered).

    ``n_kept`` is set to the smallest component count whose cumulative
    explained-variance fraction reaches ``VARIANCE_TARGET`` (98%); pass a
    different count to ``component_scores``.
    """
    return _fit_values(block.values, block.labels)


def fit_reduction(block: DataBlock, pca_pre: int | float | None) -> tuple[PcaModel, int]:
    """``fit_pca(block)`` and the component count ``pca_pre`` keeps of it: an int
    capped at the component count, a fraction as a variance target, None as ``n_kept``."""
    model = fit_pca(block)
    return model, _resolve_n_keep(pca_pre, model.variance_fraction)


def component_scores(block: DataBlock, model: PcaModel, n_keep: int) -> DataBlock:
    """Project the block onto the first ``n_keep`` components.

    The score columns are re-standardized to unit variance, so the returned
    block's correlation matrix is the identity.
    """
    if model.k != block.k:
        raise ShapeMismatch(f"model has {model.k} components, block has {block.k} columns")
    if not 1 <= n_keep <= model.k:
        raise ValueError(f"n_keep must be in [1, {model.k}], got {n_keep}")
    centered = block.values - block.values.mean(axis=0)
    scores = centered @ model.eigenvectors[:, :n_keep]
    labels = tuple(f"pc{j + 1}" for j in range(n_keep))
    return DataBlock(_zscored(scores, labels), labels)


def align_to_reference(model: PcaModel, reference: PcaModel) -> PcaModel:
    """Flip eigenvector signs so each component's cosine with the reference
    component at the same position is non-negative. Order is never changed:
    only reflections are corrected, not rotations."""
    if model.k != reference.k:
        raise ShapeMismatch(f"component counts differ: {model.k} vs {reference.k}")
    cosines = np.einsum("ij,ij->j", reference.eigenvectors, model.eigenvectors)
    signs = np.where(cosines < 0, -1.0, 1.0)
    return PcaModel(
        eigenvectors=model.eigenvectors * signs,
        eigenvalues=model.eigenvalues,
        variance_fraction=model.variance_fraction,
        n_kept=model.n_kept,
    )


@dataclass(frozen=True)
class PcaStabilityResult:
    """Cosine stability of components across subsamples, one row per sample size.

    ``mean``, ``sd``, and ``z`` are (n_sizes, n_pc) arrays of the cosine
    distribution summaries; z = mean / sd (NaN where the draws agree up to
    rounding; see ``reproducibility._distribution_z``).
    """

    sample_sizes: tuple[int, ...]
    n_pc: int
    n_iter: int
    aligned: bool
    mean: np.ndarray
    sd: np.ndarray
    z: np.ndarray


def pca_stability(
    population: DataBlock,
    sample_sizes: tuple[int, ...] = (500, 250, 100, 50, 20),
    n_iter: int = 500,
    n_pc: int = 2,
    with_alignment: bool = True,
    seed: int = 0,
    threads: int = 1,
) -> PcaStabilityResult:
    """Stability of the component structure under subsampling.

    For each sample size, ``n_iter`` subsamples are drawn without
    replacement from the population rows, a PCA is fitted to each, and the
    cosine between each retained population component and the subsample
    component at the same position is recorded; z = mean / sd of that
    distribution.

    Draw i of a sample size is the i-th (row subset, orientation) pair that
    the sweeps' driver ``parallel._map_subsamples`` takes from the (seed,
    "pca-stability", size) generator. Each subsample's
    eigenvectors are given that explicitly random orientation, reproducing
    the arbitrary per-fit reflections that resampled eigenvectors carry in
    general (the orientation an eigensolver happens to return is not
    meaningful). With ``with_alignment`` the reflections are corrected
    against the population fit before the cosines are taken, which cancels
    the random orientation; without it the signed cosines show how badly
    uncorrected reflections corrupt the average.
    """
    if n_iter < 2:
        raise ValueError("n_iter (--iterations) must be at least 2 for a z score")
    pop = fit_pca(population)
    if n_pc < 1 or n_pc > pop.k:
        raise ValueError(f"n_pc (--pca-components, default 2) must be in [1, {pop.k}]")
    ref = pop.eigenvectors[:, :n_pc]
    values = population.values

    def one(i, idx, orientation):
        vecs = _fit_values(values.take(idx, axis=0), population.labels).eigenvectors * orientation
        if with_alignment:
            cosines = np.einsum("ij,ij->j", pop.eigenvectors, vecs)
            vecs = vecs * np.where(cosines < 0, -1.0, 1.0)
        return np.einsum("ij,ij->j", ref, vecs[:, :n_pc])

    draws = [np.stack(cosines) for _, cosines in _map_subsamples(
        lambda size: one, population.n, sample_sizes, seed, "pca-stability", pop.k, pop.k,
        n_iter, threads,
    )]
    return PcaStabilityResult(
        sample_sizes=tuple(int(s) for s in sample_sizes),
        n_pc=n_pc,
        n_iter=n_iter,
        aligned=with_alignment,
        mean=np.array([d.mean(axis=0) for d in draws]),
        sd=np.array([d.std(axis=0, ddof=1) for d in draws]),
        z=np.array([_distribution_z(d)[0] for d in draws]),
    )
