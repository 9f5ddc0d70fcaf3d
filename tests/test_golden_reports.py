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
    "detect-cca-blocked": "04dd337b6c394dd3561b7ec5a627168a48572101df9c7b31dcee763f313bd40f",
    "detect-constant-skips": "0ae4151bec52aa30ba2822bfb33adbd9143cfb6a0a2989cd6c804ed40efcfb8b",
    "detect-pca-fraction": "e8377a81d9f047e829f2d76d9fb2bb8291b52f8a8587e64734c02ae0df1e4221",
    "detect-pca-int": "48d8e6d3eb3f692e8ea7fd28c9ad6cc5a5ae54b92c8a6086932461008273137b",
    "detect-plain": "98ae3418026fdd618d4907a817ada2842d82213187da1eb19feaa5df44e4f1f0",
    "detect-pls-only": "ad3cf87ad593c38798a7ab3c3ac2a71e6b99db34b271aecabe68ca99df892e29",
    "fpr": "ad09c9e4a58dd5d9b893b8cccaba44dda1503494ca8ad261a2aa64b218ca4e67",
    "full-pca": "3e0966ac7d49af264891c9fa341dcdc2d043a03bf353b473f05d2c1417839b36",
    "full-plain": "3e6f8749564cdb2c19ec1f54a0d9a74ad00ffadcfda8d2bea29a4640eff4ae92",
    "repro-constant-skips": "f3ff78351943ddcd9aa5d37dca0fb24a6557b146f88ccf569c0a8f664a6184a8",
    "repro-half-guard": "d4509fdfec096c5aad60909929dbe782847875ea8764b3f1aca3f413bcb1951c",
    "repro-pca": "b8cd3855aa07e570a93579ef25e2e39e3a868910be4359fe9e14b8a615cd0b25",
    "repro-plain": "9780e46828df1485d529e9aae134cd0be2b2ee4ef037bfef8dbe8de4c18c393c",
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
    "full-pca": "360dde6b1985ece88aa577d9d29cceb9612a22488f809daf1477a0fe6ec5b7b5",
    "full-plain": "efb7319a3c1cba7d74ebb7a144563ee11abc1960b112504e2fb14d6c309d0a18",
    "repro-constant-skips": "59f48fc26c95f9cb9f1c7953e33f9ba51ad5527873f063c41dec7995ede93d41",
    "repro-half-guard": "3839e6ba51ac5f5bc1bef33ebf500ac0ed0eea3e0d2c0d8aec0041dc5f5a2865",
    "repro-pca": "476517339de69c83a2baa0b24053f51d5125e9aa5bed3e22f37accd4ae63b006",
    "repro-plain": "e7a1ae72ab6e51f52a770564c428cfb1ee126f4380dc10a5d6e0934ae64a8896",
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
