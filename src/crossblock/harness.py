"""Experiment protocols: full-sample analysis and subsampling studies.

The subsampling studies draw row subsets without replacement from a large
"population" dataset, re-run an analysis on every subset, and aggregate by
sample size. All three run through ``_sweep``, which owns the PCA
reference, the CCA size guard, skip capture and the cells, and draws through
``parallel._map_subsamples``, as ``pca.pca_stability`` does. A study
supplies only its per-subsample assessment and its summary:

* detectability: the fraction of subsamples in which an LV's permutation
  p-value falls at or below alpha. This is a descriptive rate over
  resamplings of one population, not statistical power.
* reproducibility by sample size: the average train/test and split-half z
  per LV across subsamples.
* false-positive sweep: detectability on a freshly generated null
  population, plus the any-LV rejection fraction. The any-LV decision is
  the family-wise max-statistic permutation test, which coincides with the
  leading LV's positional test because the observed leading singular value
  is the family maximum; it holds the any-LV false-positive rate at alpha
  where a union of the positional tests would inflate it several-fold.

CCA is refused outright (cells marked not-run, never zero) whenever a
subsample cannot support the within-block adjustment: the sample size must
exceed the X variable count and the within-block correlation matrices must
be full rank. Split-based assessments additionally need each half to clear
the same bar. In the full-sample analysis a rank-deficient X or Y block
makes CCA not-run with a reason naming the block; PLS results stand.

The subsamples of one sample size are one batch drawn from the
(seed, "subsample", size) generator (``pca_stability``'s key is
(seed, "pca-stability", size)), and each subsample's permutations come
from a seed derived from (seed, purpose, size, iteration). Reports are
therefore a pure function of (population data, config) for any thread
count. Both methods see identical draws, which keeps their comparison
paired: no seed is keyed by method, so PLS and CCA get the same
subsamples, bootstrap draws and partitions, and one permutation matrix per
subsample is drawn once and passed to both.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .blocks import DataBlock, prepare_pair
from .datagen import generate_null
from .decomposition import CCA, PLS, check_method
from .errors import ConstantColumn, RankDeficient
from .inference import (
    MIN_BOOTSTRAPS,
    BartlettResult,
    BootstrapResult,
    PermutationResult,
    _bartlett,
    bootstrap_ci,
    permutation_matrix,
    permutation_test,
)
from .parallel import _check_sample_sizes, _map_subsamples
from .pca import PcaModel, align_to_reference, component_scores, fit_pca, fit_reduction
from .reproducibility import (
    SplitHalfReport,
    TrainTestReport,
    split_half,
    train_test,
)
from .rng import derive_seed

NOT_RUN = "not-run"
OK = "ok"


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by the experiment protocols.

    ``pca_pre`` switches on pre-analysis reduction of the X block: an int
    fixes the retained component count, a float in (0, 1) sets the
    explained-variance target, None disables it. Resampling depths default
    to the full-scale protocol (1000 permutations, 1000 bootstrap draws,
    500 splits, 500 subsamples per size); scale them down for desk runs.
    """

    sample_sizes: tuple[int, ...] = (500, 250, 100, 50, 20)
    n_iterations: int = 500
    n_perm: int = 1000
    n_boot: int = 1000
    n_split: int = 500
    methods: tuple[str, ...] = (PLS, CCA)
    pca_pre: int | float | None = None
    alpha: float = 0.05
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        object.__setattr__(self, "sample_sizes", tuple(int(s) for s in self.sample_sizes))
        object.__setattr__(self, "methods", tuple(check_method(m) for m in self.methods))
        _check_sample_sizes(self.sample_sizes, None)
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        for name in ("n_iterations", "n_perm"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.n_split < 2:
            raise ValueError("n_split (--splits) must be at least 2 for a z score")
        if self.n_boot < MIN_BOOTSTRAPS:
            raise ValueError(f"n_boot must be at least {MIN_BOOTSTRAPS}")
        if not self.methods:
            raise ValueError("at least one method is required")
        pca = self.pca_pre
        if pca is not None and (
            isinstance(pca, bool) or not isinstance(pca, (int, float))
            or (pca < 1 if isinstance(pca, int) else not 0 < pca < 1)
        ):
            raise ValueError(
                f"pca_pre must be None, an int >= 1 or a float in (0, 1), got {pca!r}"
            )


@dataclass(frozen=True)
class MethodFullSample:
    """Full-sample results for one method (fields None where not applicable)."""

    method: str
    status: str
    reason: str | None
    permutation: PermutationResult | None = None
    bootstrap: BootstrapResult | None = None
    bartlett: BartlettResult | None = None
    train_test: TrainTestReport | None = None
    split_half: SplitHalfReport | None = None


@dataclass(frozen=True)
class FullSampleResult:
    per_method: tuple[MethodFullSample, ...]
    pca_model: PcaModel | None
    n_components_used: int | None
    x_labels: tuple[str, ...]
    y_labels: tuple[str, ...]

    def method(self, name: str) -> MethodFullSample:
        for entry in self.per_method:
            if entry.method == name:
                return entry
        raise KeyError(name)


@dataclass(frozen=True)
class SubsampleCell:
    """One (method, sample size, LV) aggregate."""

    method: str
    sample_size: int
    lv: int
    status: str
    detectability: float | None = None
    train_test_z: float | None = None
    split_half_z_u: float | None = None
    split_half_z_v: float | None = None
    n_completed: int = 0
    n_skipped: int = 0
    skip_reason: str | None = None


@dataclass(frozen=True)
class AnyLvCell:
    method: str
    sample_size: int
    status: str
    fraction: float | None
    n_completed: int


@dataclass(frozen=True)
class SubsampleReport:
    kind: str
    alpha: float
    lv_count: int
    n_iterations: int
    cells: tuple[SubsampleCell, ...]
    any_lv: tuple[AnyLvCell, ...] = field(default=())

    def cell(self, method: str, sample_size: int, lv: int) -> SubsampleCell:
        for c in self.cells:
            if c.method == method and c.sample_size == sample_size and c.lv == lv:
                return c
        raise KeyError((method, sample_size, lv))

    def any_lv_cell(self, method: str, sample_size: int) -> AnyLvCell:
        for c in self.any_lv:
            if c.method == method and c.sample_size == sample_size:
                return c
        raise KeyError((method, sample_size))


def split_half_lv_z(report: SplitHalfReport) -> np.ndarray:
    """LV-level split-half z: the weaker of the X-side and Y-side vector z.

    An LV's pattern reproduces only if both its X weights and its Y weights
    reproduce, so the LV is summarized by min(z_u, z_v).
    """
    return np.minimum(report.z_u, report.z_v)


def _cca_sample_guard(n_rows: int, p: int, half: bool) -> str | None:
    """Reason the within-block adjustment cannot be attempted, or None: the
    sample, and with ``half`` (split-based assessments) each half too, must
    exceed the X variable count."""
    if n_rows <= p:
        return f"sample size {n_rows} does not exceed the {p} X variables"
    if half and n_rows // 2 <= p:
        return "half-sample rank guard: " + _cca_sample_guard(n_rows // 2, p, half=False)
    return None


def run_full_sample(x: DataBlock, y: DataBlock, config: ExperimentConfig) -> FullSampleResult:
    """Population-level analysis: significance, reliability, reproducibility.

    Fits every configured method on the full blocks and collects permutation
    p-values, bootstrap stability masks, the chi-square sequence (CCA), and
    the train/test and split-half z tables. A CCA whose sample or split
    halves fail the size guard, or whose X or Y within-block correlation is
    rank deficient, is reported as not-run with the reason (the rank failure
    names the block, its smallest eigenvalue and the tolerance) while the
    other method's results stand. Each method's block pair is prepared once,
    for all its resamplers.
    """
    reduction = None if config.pca_pre is None else fit_reduction(x, config.pca_pre)
    pca_model, n_keep = reduction or (None, None)
    x_used = component_scores(x, *reduction) if reduction else x
    entries = []
    for method in config.methods:
        reason = _cca_sample_guard(x_used.n, x_used.k, half=True) if method == CCA else None
        if reason is None:
            try:
                pair = prepare_pair(x_used, y, whiten=method == CCA)
            except RankDeficient as exc:
                reason = str(exc)
        if reason is not None:
            entries.append(MethodFullSample(method=method, status=NOT_RUN, reason=reason))
            continue
        perm = permutation_test(
            x_used, y, method, n_perm=config.n_perm,
            seed=derive_seed(config.seed, "full-permutation"),
            threads=config.threads, pair=pair,
        )
        boot = bootstrap_ci(
            x_used, y, method, n_boot=config.n_boot,
            seed=derive_seed(config.seed, "full-bootstrap"),
            threads=config.threads, pair=pair,
        )
        tt = train_test(
            x_used, y, method, n_split=config.n_split,
            seed=derive_seed(config.seed, "full-train-test"),
            threads=config.threads, pair=pair,
        )
        sh = split_half(
            x_used, y, method, n_split=config.n_split,
            seed=derive_seed(config.seed, "full-split-half"),
            threads=config.threads, pair=pair,
        )
        del pair  # so the next method's pair never adds to this one in peak memory
        bart = None
        if method == CCA:  # on the permutation test's observed canonical correlations
            bart = _bartlett(perm.singular_values, n=x_used.n, p=x_used.k, q=y.k)
        entries.append(
            MethodFullSample(
                method=method, status=OK, reason=None,
                permutation=perm, bootstrap=boot, bartlett=bart,
                train_test=tt, split_half=sh,
            )
        )
    return FullSampleResult(
        per_method=tuple(entries),
        pca_model=pca_model,
        n_components_used=n_keep,
        x_labels=x_used.labels,
        y_labels=y.labels,
    )


def _subsample_blocks(x, y, idx, pca_reference):
    """Materialize one subsample, re-fitting and aligning the PCA reduction."""
    xs = DataBlock(x.values.take(idx, axis=0), x.labels)
    ys = DataBlock(y.values.take(idx, axis=0), y.labels)
    if pca_reference is not None:
        model = align_to_reference(fit_pca(xs), pca_reference[0])
        xs = component_scores(xs, model, pca_reference[1])
    return xs, ys


def _sweep(x, y, config, kind, evaluate, summarize) -> SubsampleReport:
    """The subsampling protocol shared by every study.

    For each sample size, ``n_iterations`` row subsets are drawn without
    replacement and materialized, with the PCA reduction re-fitted and
    aligned to the population fit when configured. CCA is blocked up front
    when the sample size (and for reproducibility, whose assessments split
    it, the half-sample size) does not exceed the X variable count.
    ``evaluate(size, i, xs, ys)`` returns the function that assesses
    subsample i for one method; it is called for every method that is not
    blocked, in config order. A constant column or a rank-deficient CCA
    records a skip. ``summarize(outcomes)`` turns a method's completed
    outcomes into per-LV cell fields and, under "any_lv", the any-LV
    fraction that studies other than reproducibility report.
    """
    if x.n != y.n:
        raise ValueError(f"x has {x.n} rows, y has {y.n}")
    pca_reference = None if config.pca_pre is None else fit_reduction(x, config.pca_pre)
    p_effective = pca_reference[1] if pca_reference else x.k
    r = min(p_effective, y.k)
    guards = {size: _cca_sample_guard(size, p_effective, half=kind == "reproducibility")
              for size in config.sample_sizes}

    def at_size(size):
        live = [m for m in config.methods if m != CCA or guards[size] is None]
        if not live:
            return None

        def one(i: int, idx: np.ndarray, _):
            # a skip keeps its exception without the traceback, whose frames
            # would pin the subsample's blocks and permutations
            try:
                xs, ys = _subsample_blocks(x, y, idx, pca_reference)
            except ConstantColumn as exc:
                return {m: exc.with_traceback(None) for m in live}
            assess = evaluate(size, i, xs, ys)
            out = {}
            for method in live:
                try:
                    out[method] = assess(method)
                except (RankDeficient, ConstantColumn) as exc:
                    out[method] = exc.with_traceback(None)
            return out

        return one

    cells, any_cells = [], []
    for size, results in _map_subsamples(
        at_size, x.n, config.sample_sizes, config.seed, "subsample", x.k + y.k, 0,
        config.n_iterations, config.threads,
    ):
        for method in config.methods:
            outcomes = [res[method] for res in results if method in res]
            done = [o for o in outcomes if not isinstance(o, Exception)]
            skips = [str(o) for o in outcomes if isinstance(o, Exception)]
            stats = summarize(done) if done else {}
            fraction = stats.pop("any_lv", None)
            status = OK if done else NOT_RUN
            blocked = guards[size] if method == CCA else None
            for lv in range(1, r + 1):
                cells.append(
                    SubsampleCell(
                        method=method, sample_size=size, lv=lv, status=status,
                        n_completed=len(done), n_skipped=config.n_iterations - len(done),
                        skip_reason=blocked or (skips[0] if skips else None),
                        **{name: float(v[lv - 1]) for name, v in stats.items()},
                    )
                )
            if kind != "reproducibility":
                any_cells.append(
                    AnyLvCell(method=method, sample_size=size, status=status,
                              fraction=fraction, n_completed=len(done))
                )
    return SubsampleReport(
        kind=kind, alpha=config.alpha, lv_count=r, n_iterations=config.n_iterations,
        cells=tuple(cells), any_lv=tuple(any_cells),
    )


def run_detectability(x: DataBlock, y: DataBlock, config: ExperimentConfig) -> SubsampleReport:
    """Rejection rates by sample size.

    For each sample size, ``n_iterations`` subsamples are drawn without
    replacement; each gets one permutation matrix, tested against every
    method, and LV k counts as detected when its p-value is at or below
    alpha. Per-iteration failures (a constant column in a tiny draw, a
    rank-deficient CCA subsample above the size guard) are recorded as
    skips, not fatal.
    """

    def evaluate(size, i, xs, ys):
        perms = permutation_matrix(
            derive_seed(config.seed, "detect-permutation", size, i), config.n_perm, size
        )
        return lambda method: permutation_test(
            xs, ys, method, n_perm=config.n_perm, permutations=perms
        ).p_values

    def summarize(p_values):
        hit = np.stack(p_values) <= config.alpha
        # Family-wise decision by the max-statistic rule: the observed leading
        # singular value is the family maximum, so comparing it against the
        # permuted leading values controls the any-LV error at alpha. A raw
        # union over the positional p-values would not.
        return {"detectability": hit.mean(axis=0), "any_lv": float(hit[:, 0].mean())}

    return _sweep(x, y, config, "detectability", evaluate, summarize)


def run_reproducibility_by_n(x: DataBlock, y: DataBlock, config: ExperimentConfig) -> SubsampleReport:
    """Average train/test and split-half z per LV by sample size.

    Each subsample runs both reproducibility assessments at depth
    ``n_split``; the reported cell is the mean z over subsamples whose
    assessment completed. CCA cells whose half-samples cannot clear the
    rank guard are marked not-run up front. Both assessments share one pair.
    """

    def evaluate(size, i, xs, ys):
        def assess(method):
            pair = prepare_pair(xs, ys, whiten=method == CCA)
            tt = train_test(
                xs, ys, method, n_split=config.n_split,
                seed=derive_seed(config.seed, "repro-train-test", size, i), pair=pair,
            )
            sh = split_half(
                xs, ys, method, n_split=config.n_split,
                seed=derive_seed(config.seed, "repro-split-half", size, i), pair=pair,
            )
            return tt.z, sh.z_u, sh.z_v

        return assess

    def summarize(outcomes):
        # np.nanmean's sum and count, without its warning for an LV that is NaN
        # in every subsample: that mean stays NaN, and the report writes null
        names = ("train_test_z", "split_half_z_u", "split_half_z_v")
        stacks = [np.stack(z) for z in zip(*outcomes)]
        with np.errstate(invalid="ignore"):
            return {name: np.where(np.isnan(z), 0, z).sum(axis=0) / (~np.isnan(z)).sum(axis=0)
                    for name, z in zip(names, stacks)}

    return _sweep(x, y, config, "reproducibility", evaluate, summarize)


def run_false_positive_sweep(
    config: ExperimentConfig, n: int = 10000, p: int = 10, q: int = 5
) -> SubsampleReport:
    """Detectability sweep on a freshly generated null population.

    Generates independent standard-normal blocks from the config seed, runs
    the detectability protocol, and reports the any-LV rejection fraction
    per method and sample size alongside the per-LV rates.
    """
    dataset = generate_null(n, p, q, seed=derive_seed(config.seed, "fpr-population"))
    return replace(run_detectability(dataset.x, dataset.y, config), kind="false-positive-sweep")
