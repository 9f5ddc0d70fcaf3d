"""Resampling-based and parametric significance assessment.

Permutation tests break the row pairing between the two blocks by
reshuffling Y rows while X stays fixed; each LV's observed singular value
is compared position-wise against its permuted counterparts. Bootstrap
resampling keeps the row pairing, resamples rows with replacement, and
builds percentile confidence intervals for the singular-value-scaled
vector weights. The chi-square test applies to CCA only; there is no
parametric equivalent for PLS.

p-values are exact resampling counts (count / n_perm with a >= comparison),
so a singular value larger than every permuted draw reports p = 0. Both
resamplers evaluate draws from a prepared block pair (``prepare_pair``),
their own or one their caller shares, and draw through ``map_draws`` in
stacks, each gathered by ``take`` from a C-contiguous basis (never by fancy
index or from a strided view). A bootstrap stack is
evaluated from weighted moments of the prepared rows; a permutation stack
from its cross products, whose Gram eigenvalues give the null's values.
Both sum 1024 rows at a time: X's chunk stays in cache across a stack.
"""

import math
from dataclasses import dataclass

import numpy as np

from .blocks import _SUM_ROWS, DataBlock, PreparedPair
from .decomposition import (
    CCA,
    CrossBlockModel,
    _fit,
    _fit_zscored,
    _pair_for,
    align_reflections,
)
from .errors import MethodMismatch, ResamplingError
from .parallel import map_draws
from .rng import permutation_rows, substream

_BOOT_MAX_RETRIES = 100
# Fewest bootstrap draws whose 2.5% and 97.5% percentiles make an interval.
MIN_BOOTSTRAPS = 100


@dataclass(frozen=True)
class PermutationResult:
    """Observed singular values, their permutation null draws, and p-values."""

    singular_values: np.ndarray
    null_singular_values: np.ndarray
    p_values: np.ndarray
    n_perm: int


@dataclass(frozen=True)
class BlockIntervals:
    """One block's scaled weights (variables x LVs), by variable label, with
    their percentile interval. A weight is stable when its interval excludes zero."""

    labels: tuple[str, ...]
    observed: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    stable: np.ndarray


@dataclass(frozen=True)
class BootstrapResult:
    """Percentile confidence intervals for the scaled singular-vector weights:
    ``x`` holds U * s (p x r) and ``y`` holds V * s (q x r)."""

    x: BlockIntervals
    y: BlockIntervals
    n_boot: int


@dataclass(frozen=True)
class BartlettTest:
    start_lv: int
    chi_square: float
    df: int
    p_value: float


@dataclass(frozen=True)
class BartlettResult:
    """Nested sequence of chi-square tests, one per starting LV."""

    tests: tuple[BartlettTest, ...]


def permutation_matrix(seed: int, n_perm: int, n: int) -> np.ndarray:
    """The (n_perm, n) row permutations ``permutation_test`` draws for ``seed``.

    Row i is the i-th permutation taken from the (seed, "permutation")
    generator, so the first k rows do not depend on n_perm.
    """
    return permutation_rows(substream(seed, "permutation"), (n_perm, n))


def _singular_values(m: np.ndarray) -> np.ndarray:
    """Descending singular values of a stack via its smaller Grams (error ~eps*s1**2/s_k)."""
    g = m.swapaxes(-1, -2) @ m if m.shape[-2] >= m.shape[-1] else m @ m.swapaxes(-1, -2)
    return np.sqrt(np.maximum(np.linalg.eigvalsh(g)[..., ::-1], 0.0))


def _cross(xb: np.ndarray, y: np.ndarray) -> np.ndarray:
    """xb' y of one (n, q) block or a stack, summed over 1024-row chunks."""
    total = np.matmul(xb[:_SUM_ROWS].T, y[..., :_SUM_ROWS, :])
    for start in range(_SUM_ROWS, len(xb), _SUM_ROWS):
        total += np.matmul(xb[start : start + _SUM_ROWS].T, y[..., start : start + _SUM_ROWS, :])
    return total


def permutation_test(
    x: DataBlock,
    y: DataBlock,
    method: str,
    n_perm: int = 1000,
    seed: int = 0,
    permutations: np.ndarray | None = None,
    threads: int = 1,
    pair: PreparedPair | None = None,
) -> PermutationResult:
    """Positional permutation test of the singular values.

    Y rows are reshuffled uniformly at random each iteration while X stays
    fixed, the model is refitted, and LV k's observed singular value is
    compared against the distribution of permuted LV-k values. Permutation
    i is row i of ``permutation_matrix(seed, n_perm, n)``: the i-th
    permutation drawn from the (seed, "permutation") generator. The matrix is
    drawn a stack at a time, never whole; neither the stack size nor
    ``threads`` changes results.

    A row permutation leaves each block's own correlation matrix unchanged,
    so CCA whitens each block once (``prepare_pair``) and a permuted draw is
    the plain cross product of the whitened blocks, as for PLS on the
    z-scores; a permuted draw can never newly fail the rank guard.

    Parameters
    ----------
    permutations : optional (n_perm, n) integer array
        Explicit permutations to use instead of random draws: exact or
        forced-null checks, or one matrix shared by several methods.
    pair : optional PreparedPair
        ``prepare_pair(x, y, whiten=method == CCA)`` shared by the caller;
        it is checked against the blocks and method, and never changed.
    """
    if n_perm < 1:
        raise ValueError("n_perm must be at least 1")
    pair = _pair_for(x, y, method, pair)
    n, p = x.n, x.k
    scale = 1.0 / (n - 1)
    xb, yb = pair.data[:, 1 : 1 + p], np.ascontiguousarray(pair.data[:, 1 + p :])
    observed = _cross(xb, yb) * scale  # summed as the null's, so an identity draw ties
    observed_s = np.linalg.svd(observed, compute_uv=False)

    if permutations is None:
        batch = substream(seed, "permutation")
        draw = lambda k: permutation_rows(batch, (k, n))
    else:
        permutations = np.asarray(permutations)
        if permutations.shape != (n_perm, n):
            raise ValueError(f"permutations must have shape ({n_perm}, {n})")
        if not np.issubdtype(permutations.dtype, np.integer):
            raise ValueError(f"permutations must be integer row indices, got {permutations.dtype}")
        taken = 0

        def draw(k):
            nonlocal taken
            taken += k
            return permutations[taken - k : taken]

    null_s = np.empty((n_perm, observed_s.shape[0]))

    def evaluate(start, perms):
        m = _cross(xb, yb.take(perms, axis=0))  # (c, p, q), gathered from contiguous Y
        m *= scale
        null_s[start : start + len(perms)] = _singular_values(m)
        return ()  # the stack's results are in null_s

    map_draws(evaluate, draw, n_perm, n * y.k, threads)

    p_values = (null_s >= _singular_values(observed[None])[0]).sum(axis=0) / n_perm
    return PermutationResult(
        singular_values=observed_s, null_singular_values=null_s, p_values=p_values,
        n_perm=n_perm,
    )


def bootstrap_ci(
    x: DataBlock,
    y: DataBlock,
    method: str,
    n_boot: int = 1000,
    seed: int = 0,
    threads: int = 1,
    pair: PreparedPair | None = None,
) -> BootstrapResult:
    """Bootstrap 95% percentile intervals for the scaled vector weights.

    Each iteration draws n row indices with replacement, applies them to
    both blocks so the row pairing is kept, refits, corrects each LV's
    reflection against the observed U (the flip is applied to the paired V
    column as well), and scales U and V by the singular values. The interval
    distribution includes the observed scaled weights alongside the n_boot
    resampled draws.

    Draw i takes its row indices from the i-th ``integers(0, n, n)`` of the
    (seed, "bootstrap") generator. A draw that produces a constant column,
    or that fails the CCA rank guard, is redrawn for that slot only, from
    the (seed, "bootstrap-retry", i) generator, up to 100 attempts in all
    before the iteration aborts with ``ResamplingError``, whose message ends
    with the last failed draw's error; silently skipping draws would bias
    the distribution. ``pair`` is as in ``permutation_test``.
    """
    if n_boot < MIN_BOOTSTRAPS:
        raise ValueError(f"n_boot must be at least {MIN_BOOTSTRAPS}")
    pair, observed = _fit(x, y, method, pair)
    us_obs = observed.u * observed.s
    vs_obs = observed.v * observed.s
    n = x.n

    def fits(idx):
        """U * s and V * s of a stack of draws, aligned to the observed U, and
        each draw's error, or None (a constant column or a CCA rank failure)."""
        u, s, v, _, errors = _fit_zscored(pair, pair.sums(idx), basis=None)
        u, v, _ = align_reflections(observed.u, u, v)
        s = s[..., None, :]
        return u * s, v * s, errors

    def evaluate(start, idx):
        us, vs, errors = fits(idx)
        draws = list(zip(us, vs))
        for i in [i for i, error in enumerate(errors) if error is not None]:
            retry = substream(seed, "bootstrap-retry", start + i)
            for _ in range(_BOOT_MAX_RETRIES - 1):
                us, vs, (error,) = fits(retry.integers(0, n, (1, n)))
                if error is None:
                    draws[i] = us[0], vs[0]
                    break
            else:
                raise ResamplingError(f"bootstrap iteration {start + i} produced "
                                      f"{_BOOT_MAX_RETRIES} degenerate draws in a row; "
                                      f"the last: {error}")
        return draws

    batch = substream(seed, "bootstrap")
    draws = map_draws(evaluate, lambda k: batch.integers(0, n, (k, n)), n_boot,
                      n * pair.data.shape[1], threads)
    us_draws = np.stack([d[0] for d in draws] + [us_obs])
    vs_draws = np.stack([d[1] for d in draws] + [vs_obs])
    return BootstrapResult(x=_intervals(x.labels, us_obs, us_draws),
                           y=_intervals(y.labels, vs_obs, vs_draws), n_boot=n_boot)


def _intervals(labels, observed: np.ndarray, draws: np.ndarray) -> BlockIntervals:
    """The 95% percentile intervals of a (draw, variable, LV) stack."""
    lower, upper = np.percentile(draws, [2.5, 97.5], axis=0)
    return BlockIntervals(labels=labels, observed=observed, lower=lower, upper=upper,
                          stable=(lower > 0) | (upper < 0))


def bartlett_test(model: CrossBlockModel, n: int) -> BartlettResult:
    """Chi-square tests of the nested null hypotheses for a CCA model fitted on n rows.

    The test starting at LV k asks whether canonical correlations k..r are
    jointly zero: chi_square = -(n - 1 - (p + q + 1)/2) * sum_{i>=k}
    ln(1 - s_i^2) on (p - k + 1)(q - k + 1) degrees of freedom, p and q being
    the rows of the model's u and v, with the p-value from the upper tail.
    That tail is ``_chi2_sf``, a finite sum for the test's integer degrees
    of freedom, so no command imports scipy.
    """
    if model.method != CCA:
        raise MethodMismatch("the chi-square test applies to CCA models only")
    return _bartlett(model.s, n, model.u.shape[0], model.v.shape[0])


def _bartlett(s: np.ndarray, n: int, p: int, q: int) -> BartlettResult:
    """``bartlett_test`` on canonical correlations s of a fit of n rows."""
    if n <= p + q:
        raise ValueError(f"need n > p + q, got n={n}, p={p}, q={q}")
    mult = n - 1 - (p + q + 1) / 2
    # s^2 is bounded by 1 because a canonical correlation of 1 can come out
    # above 1 by roundoff; every test that includes one then reads p = 0.
    with np.errstate(divide="ignore"):
        log_terms = np.log1p(-np.minimum(np.square(s), 1.0))
    tests = []
    for k in range(1, len(s) + 1):
        stat = -mult * float(np.sum(log_terms[k - 1 :]))
        df = (p - k + 1) * (q - k + 1)
        tests.append(
            BartlettTest(start_lv=k, chi_square=stat, df=df, p_value=_chi2_sf(df, stat))
        )
    return BartlettResult(tests=tuple(tests))


def _chi2_sf(df: int, stat: float) -> float:
    """Upper tail of the chi-square distribution on df >= 1 (an integer) at stat.

    With lam = stat/2, a = (df mod 2)/2 and m = df // 2, the terms
    t_j = e^-lam lam^(a+j) / Gamma(a+j+1), j >= 0, and erfc(sqrt(lam)) for
    odd df sum to 1; the tail is t_0..t_{m-1} plus that erfc. Each term is
    formed from its logarithm, so none underflows before it is scaled. Below
    the mean df the tail is 1 minus t_m, t_{m+1}, ..., which shrink
    geometrically there: summing the near-1 tail directly would leave it
    above 1 and not monotone by rounding. A stat of 0 (or -0) gives 1, +inf
    gives 0 and NaN gives NaN.
    """
    if math.isnan(stat):
        return math.nan
    lam, a, m = stat / 2, (df % 2) / 2, df // 2
    if lam <= 0.0:  # also a stat whose half rounds to 0, where the tail rounds to 1
        return 1.0
    if lam == math.inf:
        return 0.0
    log_lam = math.log(lam)

    def term(j: int) -> float:
        return math.exp((a + j) * log_lam - lam - math.lgamma(a + j + 1))

    if stat >= df:
        return math.fsum([term(j) for j in range(m)] + ([math.erfc(math.sqrt(lam))] if a else []))
    lower = [term(m)]
    while lower[-1] > 1e-17 * lower[0]:
        lower.append(term(m + len(lower)))
    return 1.0 - math.fsum(lower)
