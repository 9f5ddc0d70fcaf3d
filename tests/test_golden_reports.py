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
    "detect-cca-blocked": "64317126e79a7ecc84feca6649ca68948835efe8b91a71337561be28bc55009e",
    "detect-constant-skips": "5fef8c5e67ef8ce4569e31c5d209051fec78547002c3b07f2766b17e6194e5a3",
    "detect-pca-fraction": "677cd01a8ba701e82efddc9a1fa1e757a68f916324194760b5f1b35f69a88b09",
    "detect-pca-int": "f05e22f68b4559507d7665a93aa81875b1be46ba33d3c30d1948da48558d6f13",
    "detect-plain": "265b918be0fabba54b3bdbde48edfb14fcd616d6d4e37c8d7b55d42b0132a6a7",
    "detect-pls-only": "4060baf940ea2f26bcc7b367260039172c0b4f3ce21e23b060ad0509fc1dbd2a",
    "fpr": "e5e9963854af96904ba302348aa82f86b5497dca30d74b85d3fdd1a86f1e9c14",
    "full-pca": "1205b86d18408e63ea9599cc187e05ca374a5f9601f4e2f09d5f536e2e6fbe92",
    "full-plain": "255f3b7a27f3d82689beb5390d8d75ffb11c64fa1ebb7d2a05b84779a3d0d13a",
    "repro-constant-skips": "28807d40a94da46a7bfd9e66a2b53189b8b8e0e695511da0b53195c53601a876",
    "repro-half-guard": "d94a713a0ea9e185a22dbb288655834f272f975fbeffa212538e71ce8fa9ba24",
    "repro-pca": "86cd162ef30afe7405dc062c9dd22b9c06c4372f6096e0a06a1be6bee7ef250d",
    "repro-plain": "9ba863dece06d3e9b4cff7edc501adcda75ef11b475954af6213160d4627d415",
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
    "full-pca": "ea64224974afbd35f651b001886f8ba50719ae1cf657521f6661a0ccc9aed654",
    "full-plain": "88523344a26868dae81f56b961900f65057d1dea78c5fd40b1f94a757092a01c",
    "repro-constant-skips": "b52189c9f3fac8ebdbe9ade27460ff847697404af41f30443a67a46101d32764",
    "repro-half-guard": "97440a91c28a17c6b11002ad25f4c4af31bfb448c89893a164676d82647f3b59",
    "repro-pca": "7c0534541edab8fa302d1abd95e0513bcbc3a69a063a6f8d2b24681d8108aea8",
    "repro-plain": "facb84d63e45e2dc29e1645b02a7d91f5e1c78b5673c5b02067657b5a530fefc",
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
