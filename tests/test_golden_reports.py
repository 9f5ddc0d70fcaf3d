"""Byte-level pins of the canonical reports of small harness runs.

Each case builds a report document exactly as the CLI does and compares
the sha256 of its JSON against a recorded value. A refactor of the
harness, the resamplers or the report builders must leave every hash
unchanged; a deliberate output change re-records the affected hashes and
says so in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from crossblock import (
    DataBlock,
    ExperimentConfig,
    SimulationSpec,
    generate_relevant_subspace,
    run_detectability,
    run_false_positive_sweep,
    run_full_sample,
    run_reproducibility_by_n,
)
from crossblock.decomposition import PLS
from crossblock.io import ReportDocument, full_sample_section, subsample_section


def population(n=2000, seed=0):
    spec = SimulationSpec(
        n=n, p=6, q_per_component=(3,), relpos=((1,),), gamma=0.3,
        m=3, ypos=((1, 2),), eta=0.0, r2=(0.4,), seed=seed,
    )
    ds = generate_relevant_subspace(spec)
    return ds.x, ds.y


def with_sparse_column(x, every):
    """Replace the first X column by one that is non-zero on every
    ``every``-th row only, so small subsamples (or their halves) often draw
    it constant and are skipped."""
    values = x.values.copy()
    values[:, 0] = 0.0
    values[::every, 0] = 1.0
    return DataBlock(values, x.labels)


def sweep(kind, run, x, y, **cfg):
    config = ExperimentConfig(seed=7, **cfg)
    report = run(x, y, config)
    return ReportDocument.build(
        kind=kind, seed=config.seed, config=cfg,
        sections={"subsample": subsample_section(report)},
    )


def detect(x, y, **cfg):
    cfg = {"sample_sizes": (100, 30), "n_iterations": 6, "n_perm": 30, **cfg}
    return sweep("sweep-detectability", run_detectability, x, y, **cfg)


def repro(x, y, **cfg):
    cfg = {"sample_sizes": (60, 20), "n_iterations": 3, "n_split": 5, **cfg}
    return sweep("sweep-reproducibility", run_reproducibility_by_n, x, y, **cfg)


def fpr():
    cfg = {"sample_sizes": (80, 20), "n_iterations": 6, "n_perm": 30}
    config = ExperimentConfig(seed=7, **cfg)
    report = run_false_positive_sweep(config, n=400, p=4, q=3)
    return ReportDocument.build(
        kind="sweep-fpr", seed=config.seed, config=cfg,
        sections={"subsample": subsample_section(report)},
    )


def full(**cfg):
    x, y = population(n=300, seed=1)
    cfg = {"n_perm": 30, "n_boot": 100, "n_split": 6, **cfg}
    config = ExperimentConfig(seed=7, **cfg)
    return ReportDocument.build(
        kind="fit", seed=config.seed, config=cfg,
        sections={"full_sample": full_sample_section(run_full_sample(x, y, config))},
    )


CASES = {
    "detect-plain": lambda: detect(*population()),
    "detect-pca-int": lambda: detect(*population(), pca_pre=3),
    "detect-pca-fraction": lambda: detect(*population(), pca_pre=0.8),
    "detect-constant-skips": lambda: detect(with_sparse_column(population()[0], 100),
                                            population()[1]),
    "detect-pls-only": lambda: detect(*population(), methods=(PLS,)),
    "detect-cca-blocked": lambda: detect(*population(), sample_sizes=(6, 5)),
    "repro-plain": lambda: repro(*population()),
    "repro-pca": lambda: repro(*population(), pca_pre=2),
    "repro-half-guard": lambda: repro(*population(), sample_sizes=(12,)),
    "repro-constant-skips": lambda: repro(with_sparse_column(population()[0], 20),
                                          population()[1], sample_sizes=(40,),
                                          n_iterations=6),
    "fpr": fpr,
    "full-plain": lambda: full(),
    "full-pca": lambda: full(pca_pre=3),
}

GOLDEN = {
    "detect-cca-blocked": "9bbe3c9beb412c04ef681c8b4ea07e8c5758c5bb3c7d1b9412111c0bf3f24ef5",
    "detect-constant-skips": "799f101589bb9c3294ffd3107a23d71033e24c8eea651508b86e201eab2e327b",
    "detect-pca-fraction": "bbb73d51b576934adeee98b7de8f40b76d183d66e702d35684538853272394bf",
    "detect-pca-int": "e719523268284effeeefbf4dea64bb58373b002d5102a8fd05cf0dcccab3cdb6",
    "detect-plain": "610aa8135537d0bbda9285bb6441cc9565bd0f343c7aec386a7c32853ee0d6ba",
    "detect-pls-only": "93bcf076b21c445e1b712d7e6e211386bc46de62e766e087f1b6bdaebcd64c76",
    "fpr": "0c616fafdf0526a7b9b41ae25853759c690d69985f165c9e0bb52534471fb2f0",
    "full-pca": "af29616c4e11b33181afac9b53c555b2457c1b7a711b0f14fbdd98fcc49eb790",
    "full-plain": "5c29cbac2894e609b18715aab2c30bda049c7210ca7638681886ae1acbf00a0a",
    "repro-constant-skips": "206037eac5823cb6d7b453483f9df4cd54729e8655ace935c9ce7f1d62faf42f",
    "repro-half-guard": "ca6445da6a95995fa3bd844d49842cc04fea78a6cdc08dad3fe79518b62365ac",
    "repro-pca": "2ed65048fe19b9de172aa279cd009bbf057ced17d06e475de85a107cd7440ff4",
    "repro-plain": "a2fe72d2f67e958f1f0a8e4c5436588e716a38cb02f9c8558f8228d04aa5e3c7",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_unchanged(case, monkeypatch):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    text = CASES[case]().to_json()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[case]


def test_cases_reach_the_paths_they_pin():
    """Guard against a case silently losing the branch it was written for."""
    def cells(case):
        return CASES[case]().section("subsample")["cells"]

    skipped = [c for c in cells("detect-constant-skips") if c["skip_reason"]]
    assert any("constant" in c["skip_reason"] for c in skipped)
    assert any(c["status"] == "ok" and c["n_skipped"] for c in cells("detect-constant-skips"))
    assert any(c["status"] == "ok" and c["n_skipped"] for c in cells("repro-constant-skips"))
    blocked = [c for c in cells("detect-cca-blocked") if c["method"] == "cca"]
    assert blocked and all(c["status"] == "not-run" for c in blocked)
    half = [c for c in cells("repro-half-guard") if c["method"] == "cca"]
    assert half and all(c["skip_reason"].startswith("half-sample rank guard: ") for c in half)
    assert {c["method"] for c in cells("detect-pls-only")} == {"pls"}
    for case in ("full-plain", "full-pca"):
        per_method = CASES[case]().section("full_sample")["per_method"]
        assert all(body["status"] == "ok" for body in per_method.values())
    assert np.isfinite(
        [c["detectability"] for c in cells("detect-pca-fraction") if c["status"] == "ok"]
    ).all()
