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
    "detect-cca-blocked": "c62fea14db2eef1b2aeade300eca0c3e6987e8d19b0ff1eb07de33081877110c",
    "detect-constant-skips": "787ce14204b0b4855744441cf88f3700ba9d9116291c85de7c1d1ce71a401356",
    "detect-pca-fraction": "8e2bc22f50339c57ba4f099f192e5d0f957e977b25a6a0dd646e49387892ccb3",
    "detect-pca-int": "7d5092cb0a1fc33f796f6c8613c44c418896216424fbd549bafe3db128417014",
    "detect-plain": "ea3fc107a63e4885fa89c871a66d7a48de10017095825bba36607f410bc0f387",
    "detect-pls-only": "08010164c0c93c55735a26ea440785535c77901bd4b8b436b2d83db34bb5fa45",
    "fpr": "c753d6a53e2638409d8fe03c601d6cf960c25d019b82ec5eea61890c975b8205",
    "full-pca": "aa275e30ec31e5fe5cfb36b24e026c9a3065f3eb0b3cee16c7f377ffe83d7552",
    "full-plain": "3b42bc09cf1a4af2ca8dd11eef48b896873992bf33adb3d81a6744ca717e1e6c",
    "repro-constant-skips": "a193b3c05c288a35282e86ee9820c220011fcfa14ffb1241feb46996afaf45c8",
    "repro-half-guard": "ce183269ae938293ab8f90a966174ff91774aca6c45b18faadbbff6ec26053fe",
    "repro-pca": "ee4abd430bcca73d050782385f3e069d31e46fcb72290efb04786b9deb841ca7",
    "repro-plain": "874f6c5607d40edc6f2cd01c1e72bc31772c4915cf68ffb4f914ef9b240d91cb",
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
    "full-pca": "6f16fab19075377b26016d43f8418ed214c6ebb8b45c7a2bb5e0b9122b0c8f02",
    "full-plain": "75efeaadb731d33ffe61e2dc56ed448ddc8c4a5d8a529b4182e6d0bc2bd4c394",
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
