"""The benchmark's workloads: CLI arguments, work counts and output checks.

Each workload is one ``crossblock`` command line. Its inputs come from the
benchmark seed alone: ``fpr-null`` generates its null population inside the
command, and the two CSV workloads read the structured relevant-subspace
dataset that the benchmark writes with ``crossblock simulate subspace``
before any timing starts.

Why these three: each pipeline spends its time in a different module, so an
optimization of one layer has a workload that exercises it and one that
should not move.

* ``fpr-null`` -- stream derivation and batched permutation SVDs of tiny
  matrices. Reads no CSV, runs no bootstrap, split or PCA.
* ``fit-structured`` -- few draws over 10000 rows: z-scoring of gathered
  copies, CSV parsing and n=10000 cross products; rng is about 1% of it.
* ``repro-sweep-pca`` -- the same fitting and reproducibility code as
  ``fit-structured`` but as tens of thousands of tiny fits, the only
  workload that refits PCA for every subsample.

Both CSV workloads read the paper's structured relevant-subspace population
(the acceptance suite's ``structured_spec``), but ``fit-structured`` with a
flatter X spectrum. It fits CCA on all 50 raw X columns, and at the paper's
``--gamma 0.6`` the population's smallest-to-largest eigenvalue ratio is
exp(-0.6 * 49) = 1.7e-13, next to the rank guard's 1e-13: in about 1 seed of
13 the sample correlation matrix falls below it and CCA is (rightly) not run,
which changes the work as well as the report. ``--gamma 0.5`` puts the ratio
at 2.3e-11, so every seed runs the same fits. ``repro-sweep-pca`` reduces X
to its leading PCA scores first, so it keeps the paper's value.

The checks accept any seed and still hold after a deliberate change of the
random-stream contract: they test statistical properties of the reports,
never exact values.
"""

import math

ALPHA = 0.05
# The FPR sweep thresholds its permutation p-values at 0.5 instead of ALPHA.
# The threshold only turns p-values into decisions after they are computed, so
# the measured work is the same, but the null band is then two-sided at this
# depth: a sweep whose permutations stop shuffling (every p-value 1) or that
# always rejects fails the check. At 0.05 the band's lower end would be 0.
FPR_ALPHA = 0.5

# The paper's structured population (the acceptance suite's structured_spec),
# with the X spectrum's decay rate as a parameter; see the module docstring.
STRUCTURED_R2 = (0.2, 0.1)
PAPER_GAMMA = 0.6
FLAT_GAMMA = 0.5


def structured_args(gamma):
    """``crossblock simulate`` arguments of the structured population, less seed and output."""
    return [
        "simulate", "subspace", "--n", "10000", "--p", "50",
        "--relevant-counts", "15,10", "--relpos", "1,2;3,4,6", "--gamma", str(gamma),
        "--m", "4", "--ypos", "1,3;2,4", "--eta", "0",
        "--r2", ",".join(str(v) for v in STRUCTURED_R2),
    ]

# Two-sided tail probability of the binomial bands; small enough that a
# correct program fails the check about once in 10^5 runs.
_BAND_TAIL = 1e-6
# Largest allowed distance between the observed and population canonical
# correlations at n=10000 (sampling sd about 0.009, upward bias below 0.01).
_CCA_TOLERANCE = 0.05


class Workload:
    """One benchmark workload: a CLI command and how to judge its report."""

    def __init__(self, name, why, depth, simulate, command, draws, check):
        self.name = name
        self.why = why
        self.depth = depth
        self.simulate = simulate  # ``crossblock simulate`` arguments of its CSVs, or None
        self._command = command
        self._draws = draws
        self._check = check

    def cli_args(self, seed, out_dir, data_dir=None, depth=None):
        """CLI arguments for one run; ``depth`` overrides the resampling depths."""
        depth = {**self.depth, **(depth or {})}
        args = self._command(depth, data_dir)
        return args + ["--seed", str(seed), "--out-dir", str(out_dir)]

    def draws(self, report, depth=None):
        """Resampled decompositions the run completed, from depths and report counts."""
        return self._draws({**self.depth, **(depth or {})}, report)

    def check(self, report, depth=None):
        """Problems found in the report; an empty list means it passed."""
        return self._check({**self.depth, **(depth or {})}, report)


def binomial_band(n, p, tail=_BAND_TAIL):
    """Smallest and largest success counts outside which each tail has mass < tail."""
    pmf = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
    lo, acc = 0, 0.0
    while acc + pmf[lo] < tail:
        acc += pmf[lo]
        lo += 1
    hi, acc = n, 0.0
    while acc + pmf[hi] < tail:
        acc += pmf[hi]
        hi -= 1
    return lo, hi


def _subsample(report):
    return report["sections"]["subsample"]


# --- fpr-null ---------------------------------------------------------------

def _fpr_command(depth, data_dir):
    return [
        "sweep", "--kind", "fpr", "--method", "both",
        "--sample-sizes", depth["sample_sizes"],
        "--iterations", str(depth["iterations"]),
        "--permutations", str(depth["permutations"]),
        "--alpha", str(FPR_ALPHA),
        "--fpr-n", "10000", "--fpr-p", "10", "--fpr-q", "5",
    ]


def _fpr_draws(depth, report):
    return sum(c["n_completed"] for c in _subsample(report)["any_lv"]) * depth["permutations"]


def null_rejection_rate(alpha, permutations):
    """Exact rejection rate of one permutation test on null data.

    The p-value is K / permutations, where K, the number of permuted singular
    values at or above the observed one, is uniform on 0..permutations.
    """
    return (math.floor(alpha * permutations) + 1) / (permutations + 1)


def _fpr_check(depth, report):
    problems = []
    rate = null_rejection_rate(FPR_ALPHA, depth["permutations"])
    cells = _subsample(report)["any_lv"]
    sizes = [int(s) for s in depth["sample_sizes"].split(",")]
    if len(cells) != 2 * len(sizes):
        problems.append(f"expected {2 * len(sizes)} any-LV cells, found {len(cells)}")
    pooled = {}
    for c in cells:
        where = f"{c['method']} n={c['sample_size']}"
        n = c["n_completed"]
        if c["status"] != "ok" or n != depth["iterations"]:
            problems.append(f"{where}: status {c['status']}, {n} completed")
            continue
        hits = round(c["fraction"] * n)
        lo, hi = binomial_band(n, rate)
        if not lo <= hits <= hi:
            problems.append(f"{where}: {hits}/{n} rejections outside [{lo}, {hi}]")
        total = pooled.setdefault(c["method"], [0, 0])
        total[0] += hits
        total[1] += n
    for method, (hits, n) in pooled.items():
        lo, hi = binomial_band(n, rate)
        if not lo <= hits <= hi:
            problems.append(f"{method} pooled: {hits}/{n} rejections outside [{lo}, {hi}]")
    return problems


# --- fit-structured ---------------------------------------------------------

def _csv_args(data_dir):
    return ["--x", str(data_dir / "x.csv"), "--y", str(data_dir / "y.csv")]


def _fit_command(depth, data_dir):
    return ["fit", *_csv_args(data_dir), "--method", "both",
            "--permutations", str(depth["permutations"]),
            "--bootstraps", str(depth["bootstraps"]),
            "--splits", str(depth["splits"])]


def _fit_draws(depth, report):
    total = 0
    for entry in report["sections"]["full_sample"]["per_method"].values():
        if entry.get("status") != "ok":
            continue
        tt, sh = entry["train_test"], entry["split_half"]
        total += depth["permutations"] + depth["bootstraps"]
        total += tt["n_split"] - tt["n_failed"]
        total += 2 * (sh["n_split"] - sh["n_failed"])  # two half-sample fits per split
    return total


def _fit_check(depth, report):
    per_method = report["sections"]["full_sample"]["per_method"]
    problems = []
    for method in ("pls", "cca"):
        if per_method.get(method, {}).get("status") != "ok":
            problems.append(f"{method}: not run")
    if problems:
        return problems
    pls_p = per_method["pls"]["permutation"]["p_values"][:2]
    if not all(p is not None and p <= ALPHA for p in pls_p):
        problems.append(f"PLS LV1-2 p-values {pls_p} not all <= {ALPHA}")
    cca_s = per_method["cca"]["permutation"]["singular_values"][:2]
    for k, (got, r2) in enumerate(zip(cca_s, STRUCTURED_R2), start=1):
        want = math.sqrt(r2)
        if got is None or abs(got - want) > _CCA_TOLERANCE:
            problems.append(f"CCA LV{k} correlation {got} not within "
                            f"{_CCA_TOLERANCE} of {want:.3f}")
    return problems


# --- repro-sweep-pca --------------------------------------------------------

def _repro_command(depth, data_dir):
    return ["sweep", "--kind", "reproducibility", *_csv_args(data_dir),
            "--method", "both", "--sample-sizes", depth["sample_sizes"],
            "--iterations", str(depth["iterations"]),
            "--splits", str(depth["splits"]), "--pca-components", "auto"]


def _repro_draws(depth, report):
    # Each completed subsample ran n_split train/test fits and 2 * n_split
    # split-half fits; failed splits inside a subsample are not reported.
    done = sum(c["n_completed"] for c in _subsample(report)["cells"] if c["lv"] == 1)
    return done * 3 * depth["splits"]


def _repro_check(depth, report):
    problems = []
    cells = _subsample(report)["cells"]
    if not cells:
        problems.append("no cells")
    for c in cells:
        where = f"{c['method']} n={c['sample_size']} LV{c['lv']}"
        if c["status"] != "ok":
            problems.append(f"{where}: status {c['status']} ({c['skip_reason']})")
        elif c["lv"] == 1:
            zs = (c["train_test_z"], c["split_half_z_u"], c["split_half_z_v"])
            if not all(z is not None and math.isfinite(z) for z in zs):
                problems.append(f"{where}: non-finite z {zs}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fpr-null",
            "rng stream derivation and batched tiny permutation SVDs on the "
            "sweep's own 10000x10/5 null population; no CSV, bootstrap, split or PCA",
            {"sample_sizes": "500,250,100,50,20", "iterations": 20, "permutations": 250},
            None, _fpr_command, _fpr_draws, _fpr_check,
        ),
        Workload(
            "fit-structured",
            "fit on the 10000x50/10000x4 structured CSVs: few draws over many rows, "
            "so z-scoring, CSV parsing and n=10000 cross products dominate",
            {"permutations": 100, "bootstraps": 100, "splits": 20},
            structured_args(FLAT_GAMMA), _fit_command, _fit_draws, _fit_check,
        ),
        Workload(
            "repro-sweep-pca",
            "reproducibility sweep with per-subsample PCA on the structured CSVs: "
            "tens of thousands of tiny fits, where per-call overhead dominates",
            {"sample_sizes": "500,250,100,50", "iterations": 10, "splits": 25},
            structured_args(PAPER_GAMMA), _repro_command, _repro_draws, _repro_check,
        ),
    )
}
