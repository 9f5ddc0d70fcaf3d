"""Byte-level pins of the canonical reports of small harness runs.

Each case builds a report document exactly as the CLI does and compares
the sha256 of its JSON against a recorded value (``GOLDEN``), and the
sha256 of its ``sections`` alone against another (``GOLDEN_SECTIONS``). A
refactor of the harness, the resamplers or the report builders must leave
every hash unchanged; a deliberate output change re-records the affected
hashes and says so in CHANGES.md. A contract bump that moves no reported
number re-records ``GOLDEN`` only, and ``GOLDEN_SECTIONS`` shows that.
"""

import hashlib
import json

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
    "detect-cca-blocked": "8ba1e68d18d87ac79d058a6aa2598af85e7ebceb06b20be365cdcad736d81482",
    "detect-constant-skips": "00e72fdd0cafbab9c7cde0977d67d547d23820cf9297cf9c5bc133481be9c1ed",
    "detect-pca-fraction": "c53be461b626112fad093a6b48bea1b9e1686c3ab9055d5ef6241784da02870a",
    "detect-pca-int": "0cef40f49caf10aa270fbdf3ebfcfc45ab959601196fca42f65adca3ffec690a",
    "detect-plain": "ef4642999b315f1d9934ad36885a3b0dcc7ddbfca230b39e9f66d38be73fd894",
    "detect-pls-only": "2d35d57ebdb058ddc7231cc36f060fef2aebbd4db16c4321611618dcca3f1660",
    "fpr": "a8d43730f7d6ce165e500623f0e32c01d01d6fa6c5709218cef6296cafffb79d",
    "full-pca": "680f4e593e3e8e09dcca65503c13bf39e4125ac8462d0a4ca411ab7a2739ef89",
    "full-plain": "77e8ccc0d742a0dc65ffd7a5aebe8b37afdc65147907c9f5fa89e633dcd61e5f",
    "repro-constant-skips": "8fa6387e9127e687ef025ed7d0974a24ee59646c4b40d66caa441e0016aa5e2e",
    "repro-half-guard": "c57a66a7e387c3ca28e022aff320cbf506aad1aa661dd7ba8534b8d878910d66",
    "repro-pca": "c8f22da9df326cbf342784c07de991f21c3a1e9757cff588508378c5f46701e5",
    "repro-plain": "0a5a1db096548a13e1a553d094ef472a0d6a80b9d06c98466fb7bc1a2261366e",
}

# sha256 of each case's ``sections`` alone, serialized as ``to_json`` does;
# metadata (versions, contract numbers) is outside these bytes.
GOLDEN_SECTIONS = {
    "detect-cca-blocked": "71946ec8ca44ea3a261c6687417d07c649b2ae4b8810ed173f507d380e1fd877",
    "detect-constant-skips": "cfb985f428e2fb91c7073067ff58984d7a33f0434989693dbe98219f986052ec",
    "detect-pca-fraction": "b488ec24f9a1ae5ea07a43d260f84128471c1868c1ffa1278ce3aa91021c004a",
    "detect-pca-int": "c2ad7b4ecf45c89d33b894359c752337d02df58fadc33d134ff572119488ff97",
    "detect-plain": "8dafa500e8591a23027206784ed44fe58cbd7912e579ec21a0b317e024843b5e",
    "detect-pls-only": "096eee4e38570b4aa16b33279f91283ca94cb5f4a97448e9fd1c6b34af2c0d38",
    "fpr": "570855bd2eea957bfb71478592bcdb4c127ecbde792fdafa5c09c690dd991dda",
    "full-pca": "f911d822f812ac9da94041b59a6fe8d13714c4de08f322dc16a841393c5be184",
    "full-plain": "3fbc0db8b874f9ead14f06c95a134d7a3abc9159776b36f95cba4bc626331304",
    "repro-constant-skips": "d5533984e8e7c0a9b7264c865cdb71b7d33401db5ba70bbd0a25020ee5bdf200",
    "repro-half-guard": "3839e6ba51ac5f5bc1bef33ebf500ac0ed0eea3e0d2c0d8aec0041dc5f5a2865",
    "repro-pca": "074185845054b3ccddfd24334f5d6400cd1ca94642213d44917e1765b081d89d",
    "repro-plain": "a3e605f8797049d2b9fb94e19726a128228a152ec946501c96d4f755dcb0ed89",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_unchanged(case, monkeypatch):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    text = CASES[case]().to_json()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_sections_unchanged(case):
    text = json.dumps(CASES[case]().sections, sort_keys=True, indent=2, allow_nan=False)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_SECTIONS[case]


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
