import numpy as np
import pytest
from numpy.testing import assert_allclose

from crossblock import (
    SimulationSpec,
    generate_null,
    generate_relevant_subspace,
    population_r2,
)
from crossblock.errors import InfeasibleR2


def table9_spec(n=10000, seed=0):
    return SimulationSpec(
        n=n, p=50, q_per_component=(15, 10), relpos=((1, 2), (3, 4, 6)), gamma=0.6,
        m=4, ypos=((1, 3), (2, 4)), eta=0.0, r2=(0.2, 0.1), seed=seed,
    )


def random_spec(rng):
    m = int(rng.integers(2, 6))
    n_comp = int(rng.integers(1, min(3, m) + 1))
    p = int(rng.integers(4 * n_comp, 30))
    dirs = list(rng.permutation(p)[: n_comp * 2] + 1)
    relpos = tuple(tuple(sorted(dirs[2 * k : 2 * k + 2])) for k in range(n_comp))
    ys = list(rng.permutation(m) + 1)
    ypos = tuple((ys[k],) for k in range(n_comp))
    q = tuple(int(rng.integers(2, p // n_comp)) for _ in range(n_comp))
    return SimulationSpec(
        n=int(rng.integers(10, 50)), p=p, q_per_component=q, relpos=relpos,
        gamma=float(rng.uniform(0, 0.8)), m=m, ypos=ypos,
        eta=float(rng.uniform(0, 0.5)), r2=tuple(rng.uniform(0.05, 0.9, n_comp)),
        seed=int(rng.integers(0, 1 << 31)),
    )


class TestSpecValidation:
    def test_overlapping_relpos_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            SimulationSpec(n=100, p=10, q_per_component=(3, 3), relpos=((1, 2), (2, 3)),
                           gamma=0.5, m=4, ypos=((1,), (2,)), eta=0.0, r2=(0.2, 0.1))

    def test_r2_with_no_directions_infeasible(self):
        with pytest.raises(InfeasibleR2):
            SimulationSpec(n=100, p=10, q_per_component=(0,), relpos=((),),
                           gamma=0.5, m=2, ypos=((1,),), eta=0.0, r2=(0.2,))

    def test_r2_must_be_below_one(self):
        with pytest.raises(ValueError, match="r2"):
            SimulationSpec(n=100, p=10, q_per_component=(3,), relpos=((1,),),
                           gamma=0.5, m=2, ypos=((1,),), eta=0.0, r2=(1.0,))

    def test_q_must_cover_relevant_directions(self):
        with pytest.raises(ValueError, match="cover"):
            SimulationSpec(n=100, p=10, q_per_component=(1,), relpos=((1, 2),),
                           gamma=0.5, m=2, ypos=((1,),), eta=0.0, r2=(0.2,))

    def test_total_designated_bounded_by_p(self):
        with pytest.raises(ValueError, match="exceed"):
            SimulationSpec(n=100, p=5, q_per_component=(3, 3), relpos=((1,), (2,)),
                           gamma=0.5, m=4, ypos=((1,), (2,)), eta=0.0, r2=(0.2, 0.1))


class TestGenerateNull:
    def test_deterministic(self):
        a = generate_null(500, 4, 3, seed=9)
        b = generate_null(500, 4, 3, seed=9)
        assert np.array_equal(a.x.values, b.x.values)
        assert np.array_equal(a.y.values, b.y.values)

    def test_different_seed_differs(self):
        a = generate_null(100, 3, 2, seed=1)
        b = generate_null(100, 3, 2, seed=2)
        assert not np.array_equal(a.x.values, b.x.values)

    def test_boundary_two_rows(self):
        ds = generate_null(2, 1, 1, seed=3)
        assert ds.x.n == 2 and ds.x.k == 1 and ds.y.k == 1

    def test_weak_sample_correlations_at_scale(self):
        ds = generate_null(10000, 10, 5, seed=4)
        r = np.corrcoef(ds.x.values, ds.y.values, rowvar=False)
        rxx, rxy = r[: ds.x.k, : ds.x.k], r[: ds.x.k, ds.x.k :]
        off = rxx - np.diag(np.diag(rxx))
        assert np.abs(off).max() < 0.05
        assert np.abs(rxy).max() < 0.05

    def test_truth_has_no_components(self):
        ds = generate_null(50, 3, 2, seed=5)
        assert population_r2(ds.truth).shape == (0,)
        assert np.allclose(ds.truth.cov_xx, np.eye(3))


class TestGenerateRelevantSubspace:
    def test_deterministic(self):
        spec = table9_spec(n=200, seed=6)
        a = generate_relevant_subspace(spec)
        b = generate_relevant_subspace(spec)
        assert np.array_equal(a.x.values, b.x.values)
        assert np.array_equal(a.y.values, b.y.values)

    def test_zero_r2_gives_noise_level_cross_correlations(self):
        spec = SimulationSpec(
            n=5000, p=8, q_per_component=(3,), relpos=((1,),), gamma=0.3,
            m=3, ypos=((1, 2),), eta=0.0, r2=(0.0,), seed=7,
        )
        ds = generate_relevant_subspace(spec)
        assert np.abs(ds.truth.cov_xy).max() == 0.0
        rxy = np.corrcoef(ds.x.values, ds.y.values, rowvar=False)[: ds.x.k, ds.x.k :]
        assert np.abs(rxy).max() < 4.0 / np.sqrt(5000)

    def test_population_r2_recovered_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            spec = random_spec(rng)
            ds = generate_relevant_subspace(spec)
            assert np.abs(population_r2(ds.truth) - np.array(spec.r2)).max() < 1e-12

    def test_joint_covariance_positive_definite(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            spec = random_spec(rng)
            ds = generate_relevant_subspace(spec)
            joint = np.block([
                [ds.truth.cov_xx, ds.truth.cov_xy],
                [ds.truth.cov_xy.T, ds.truth.cov_yy],
            ])
            np.linalg.cholesky(joint)

    def test_sample_eigenvalues_converge(self):
        ds = generate_relevant_subspace(table9_spec(n=10000, seed=9))
        centered = ds.x.values - ds.x.values.mean(0)
        sample = np.linalg.eigvalsh(centered.T @ centered / (ds.x.n - 1))[::-1]
        pop = np.exp(-0.6 * np.arange(50))
        assert np.abs(sample[:5] / pop[:5] - 1.0).max() < 0.10

    def test_designated_predictors_carry_the_signal(self):
        ds = generate_relevant_subspace(table9_spec(n=200, seed=10))
        carriers = {
            j + 1
            for j in range(50)
            if np.abs(ds.truth.cov_xy[j]).max() > 1e-12
        }
        designated = set(ds.truth.relevant_predictors[0]) | set(
            ds.truth.relevant_predictors[1]
        )
        assert carriers == designated
        assert len(ds.truth.relevant_predictors[0]) == 15
        assert len(ds.truth.relevant_predictors[1]) == 10

    def test_y_population_correlation_identity_when_eta_zero(self):
        ds = generate_relevant_subspace(table9_spec(n=100, seed=11))
        assert_allclose(ds.truth.cov_yy, np.eye(4), atol=1e-12)
