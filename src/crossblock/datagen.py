"""Synthetic populations with a controlled cross-block structure.

Two generators:

* ``generate_null``: independent standard-normal blocks with no structure
  anywhere, for false-positive studies.
* ``generate_relevant_subspace``: a joint multivariate-normal model in which
  a small set of latent X directions carries all of the covariance with
  designated latent Y directions. The X latent spectrum decays as
  exp(-gamma * (j - 1)) and the Y spectrum as exp(-eta * (k - 1)); the
  population R-squared of each cross-block component is met exactly by
  construction.

Construction, in latent space: Z (p directions, diagonal covariance) and W
(m directions, diagonal covariance) are joined by a sparse cross-covariance
whose only non-zero entries sit at (relpos_k rows, informative column of
component k). Each informative W column equals its regression on the
relevant Z directions plus independent residual noise, so the joint
covariance is positive definite for any r2 < 1. Observed variables are
random orthonormal mixtures: component k's relevant directions are mixed
over exactly q_per_component[k] designated predictors, the remaining
directions are mixed together in one leftover group, and each ypos group of
response variables mixes its informative direction with noise directions.

All draws come from a single Philox substream of the spec seed, consumed in
a fixed documented order (cross-covariances per component, predictor-set
fills, X mixing blocks, Y mixing blocks, latent X sample, latent Y sample),
so a spec is bit-reproducible across platforms and thread counts.
"""

from dataclasses import dataclass

import numpy as np

from .blocks import DataBlock
from .errors import InfeasibleR2
from .rng import substream


@dataclass(frozen=True)
class SimulationSpec:
    """Parameters of the relevant-subspace generator.

    ``relpos`` and ``ypos`` use 1-based latent-direction indices. Component
    k ties the X directions relpos[k] to the Y group ypos[k]; its signal is
    spread over q_per_component[k] predictor variables.
    """

    n: int
    p: int
    q_per_component: tuple[int, ...]
    relpos: tuple[tuple[int, ...], ...]
    gamma: float
    m: int
    ypos: tuple[tuple[int, ...], ...]
    eta: float
    r2: tuple[float, ...]
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "q_per_component", tuple(int(v) for v in self.q_per_component))
        object.__setattr__(self, "relpos", tuple(tuple(int(i) for i in g) for g in self.relpos))
        object.__setattr__(self, "ypos", tuple(tuple(int(i) for i in g) for g in self.ypos))
        object.__setattr__(self, "r2", tuple(float(v) for v in self.r2))
        if self.n < 2:
            raise ValueError("need n >= 2")
        if self.p < 1 or self.m < 1:
            raise ValueError("need p >= 1 and m >= 1")
        if self.gamma < 0 or self.eta < 0:
            raise ValueError("decay rates must be non-negative")
        n_comp = len(self.r2)
        if not (len(self.relpos) == len(self.ypos) == len(self.q_per_component) == n_comp):
            raise ValueError("q_per_component, relpos, ypos, r2 must have equal lengths")
        flat_rel = [i for g in self.relpos for i in g]
        if len(set(flat_rel)) != len(flat_rel):
            raise ValueError("relpos groups must be disjoint")
        if any(i < 1 or i > self.p for i in flat_rel):
            raise ValueError("relpos indices must lie in [1, p]")
        flat_y = [i for g in self.ypos for i in g]
        if len(set(flat_y)) != len(flat_y):
            raise ValueError("ypos groups must be disjoint")
        if any(i < 1 or i > self.m for i in flat_y):
            raise ValueError("ypos indices must lie in [1, m]")
        if any(not g for g in self.ypos):
            raise ValueError("ypos groups must be non-empty")
        for k, (qk, rel, rho) in enumerate(zip(self.q_per_component, self.relpos, self.r2)):
            if not 0 <= rho < 1:
                raise ValueError(f"r2[{k}] must lie in [0, 1)")
            if rho > 0 and not rel:
                raise InfeasibleR2(
                    f"component {k + 1} requests r2={rho} but lists no relevant directions"
                )
            if qk < len(rel):
                raise ValueError(
                    f"q_per_component[{k}] must cover the {len(rel)} relevant directions"
                )
            if qk > self.p:
                raise ValueError(f"q_per_component[{k}] exceeds p")
        if sum(self.q_per_component) > self.p:
            raise ValueError("designated predictors exceed p in total")

    @property
    def n_components(self) -> int:
        return len(self.r2)


@dataclass(frozen=True)
class PopulationTruth:
    """Everything needed to recompute population quantities analytically.

    The latent pieces (eigenvalues, sparse cross-covariance, mixing
    matrices) allow exact recomputation of the per-component R-squared and
    the population canonical correlations; the composed covariance blocks
    are what an oracle sees at the observed-variable level.
    """

    spec: SimulationSpec
    x_eigenvalues: np.ndarray
    y_eigenvalues: np.ndarray
    latent_cross_cov: np.ndarray
    x_mixing: np.ndarray
    y_mixing: np.ndarray
    informative_y: tuple[int, ...]
    relevant_predictors: tuple[tuple[int, ...], ...]
    cov_xx: np.ndarray
    cov_xy: np.ndarray
    cov_yy: np.ndarray


@dataclass(frozen=True)
class GeneratedDataset:
    x: DataBlock
    y: DataBlock
    truth: PopulationTruth


def _random_orthonormal(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def generate_relevant_subspace(spec: SimulationSpec) -> GeneratedDataset:
    """Sample a dataset from the relevant-subspace model."""
    rng = substream(spec.seed, "dataset")
    p, m = spec.p, spec.m
    lam = np.exp(-spec.gamma * np.arange(p))
    kap = np.exp(-spec.eta * np.arange(m))
    informative = tuple(g[0] - 1 for g in spec.ypos)

    # Sparse latent cross-covariance meeting each component's R-squared exactly.
    sigma = np.zeros((p, m))
    for k in range(spec.n_components):
        rows = np.array(spec.relpos[k], dtype=int) - 1
        col = informative[k]
        if spec.r2[k] == 0 or rows.size == 0:
            continue
        raw = rng.uniform(-1.0, 1.0, rows.size)
        while not np.any(raw):
            raw = rng.uniform(-1.0, 1.0, rows.size)
        load = np.sum(raw**2 / (lam[rows] * kap[col]))
        sigma[rows, col] = raw * np.sqrt(spec.r2[k] / load)

    # Designated predictor sets: each component's relevant directions plus
    # randomly chosen non-relevant fills; the leftover directions mix together.
    relevant_dirs = sorted({i - 1 for g in spec.relpos for i in g})
    available = [i for i in range(p) if i not in relevant_dirs]
    x_mixing = np.eye(p)
    predictor_sets = []
    for k in range(spec.n_components):
        own = [i - 1 for i in spec.relpos[k]]
        n_fill = spec.q_per_component[k] - len(own)
        fill = []
        if n_fill:
            pick = rng.choice(len(available), n_fill, replace=False)
            fill = [available[i] for i in sorted(pick)]
            available = [a for a in available if a not in fill]
        members = np.array(sorted(own + fill), dtype=int)
        predictor_sets.append(tuple(int(i) + 1 for i in members))
        if members.size > 1:
            x_mixing[np.ix_(members, members)] = _random_orthonormal(rng, members.size)
    leftover = np.array(available, dtype=int)
    if leftover.size > 1:
        x_mixing[np.ix_(leftover, leftover)] = _random_orthonormal(rng, leftover.size)

    y_mixing = np.eye(m)
    for k in range(spec.n_components):
        group = np.array(spec.ypos[k], dtype=int) - 1
        if group.size > 1:
            y_mixing[np.ix_(group, group)] = _random_orthonormal(rng, group.size)

    # Latent sample: W's informative columns are their regression on the
    # relevant Z directions plus independent residuals, so the stated joint
    # covariance is realized exactly.
    z = rng.standard_normal((spec.n, p)) * np.sqrt(lam)
    noise = rng.standard_normal((spec.n, m))
    w = noise * np.sqrt(kap)
    for k in range(spec.n_components):
        rows = np.array(spec.relpos[k], dtype=int) - 1
        col = informative[k]
        if rows.size == 0:
            continue
        signal = z[:, rows] @ (sigma[rows, col] / lam[rows])
        w[:, col] = signal + np.sqrt(kap[col] * (1.0 - spec.r2[k])) * noise[:, col]

    x_values = z @ x_mixing
    y_values = w @ y_mixing
    truth = PopulationTruth(
        spec=spec,
        x_eigenvalues=lam,
        y_eigenvalues=kap,
        latent_cross_cov=sigma,
        x_mixing=x_mixing,
        y_mixing=y_mixing,
        informative_y=informative,
        relevant_predictors=tuple(predictor_sets),
        cov_xx=x_mixing.T @ (lam[:, None] * x_mixing),
        cov_xy=x_mixing.T @ sigma @ y_mixing,
        cov_yy=y_mixing.T @ (kap[:, None] * y_mixing),
    )
    x_labels = tuple(f"x{j + 1}" for j in range(p))
    y_labels = tuple(f"y{j + 1}" for j in range(m))
    return GeneratedDataset(
        x=DataBlock(x_values, x_labels), y=DataBlock(y_values, y_labels), truth=truth
    )


def generate_null(n: int, p: int, q: int, seed: int = 0) -> GeneratedDataset:
    """Independent standard-normal blocks with no correlation anywhere."""
    spec = SimulationSpec(
        n=n, p=p, q_per_component=(), relpos=(), gamma=0.0,
        m=q, ypos=(), eta=0.0, r2=(), seed=seed,
    )
    return generate_relevant_subspace(spec)


def population_r2(truth: PopulationTruth) -> np.ndarray:
    """Per-component R-squared recomputed from the latent truth pieces."""
    spec = truth.spec
    out = np.zeros(spec.n_components)
    for k in range(spec.n_components):
        rows = np.array(spec.relpos[k], dtype=int) - 1
        col = truth.informative_y[k]
        if rows.size == 0:
            continue
        out[k] = np.sum(
            truth.latent_cross_cov[rows, col] ** 2
            / (truth.x_eigenvalues[rows] * truth.y_eigenvalues[col])
        )
    return out

