"""Byte-level pins of the files the CLI writes.

``test_golden_reports.py`` pins report sections built in-process. This
module pins what only the command line produces: the config echo in each
report's metadata, the CSV data and truth files of ``simulate``, the CSV
bundle of ``--format csv``, and the tables of ``plot-data``. Each command
runs in-process on a small dataset; every file it writes is hashed and the
paths it prints are compared, in order, with the recorded ones. A refactor
of the CLI or of the writers must leave every entry unchanged.
"""

import hashlib
import json

import pytest

from crossblock.cli import main

SIMULATE = ("simulate", "subspace", "--n", "200", "--p", "8", "--relevant-counts", "3",
            "--relpos", "1,2", "--m", "3", "--ypos", "1,2", "--r2", "0.3", "--gamma", "0.4",
            "--seed", "6")
BLOCKS = ("--x", "data/x.csv", "--y", "data/y.csv")

# (output directory, command) in run order; later commands read earlier outputs.
COMMANDS = (
    ("data", SIMULATE),
    ("fit", ("fit", *BLOCKS, "--config", "fit_config.json", "--bootstraps", "100",
             "--splits", "4", "--format", "csv", "--seed", "3")),
    ("reproduce", ("reproduce", *BLOCKS, "--method", "pls", "--splits", "4",
                   "--null-calibrate", "--seed", "4")),
    ("sweep", ("sweep", "--kind", "fpr", "--sample-sizes", "40,20", "--iterations", "3",
               "--permutations", "10", "--fpr-n", "200", "--fpr-p", "4", "--fpr-q", "2",
               "--format", "csv", "--seed", "5")),
    ("pca", ("pca", "stability", "--x", "data/x.csv", "--sample-sizes", "60,30",
             "--iterations", "3", "--no-align", "--seed", "6")),
    ("plots", ("plot-data", "--report", "reproduce/reproduce.json",
               "--kind", "z-distributions")),
)
FIT_CONFIG = {"permutations": 20, "method": "both", "pca_components": 3}

# Printed path (relative to the working directory) -> sha256 of the file.
PINNED = {
    "data/x.csv":
        "80296827cb11eb98f8eafe3f9a1491122031676e7202fde77e62f94b81bae390",
    "data/y.csv":
        "3cd6cdb9429a41e2be7c7c340792b487090ddd825f3e7c11a00ebe8ab65707e6",
    "data/truth_cov_xx.csv":
        "902820eb116e9e08b3419a3b15cd1fc08fc43f08104c6431a4dbe4600249b0b4",
    "data/truth_cov_xy.csv":
        "91c9f7f166cbff62e6bd953f78d01d8d78537fd61b3073e6f57071d1a2b4a918",
    "data/truth_cov_yy.csv":
        "a1596fe724ed90bcc687b2678fbd14b3014303a90805bf49b1b6e1d1efecc539",
    "data/truth.json":
        "35d46f81517b813e49c7c5ed8807093fcc3751f9c6f9abdad49820b62c0c4a34",
    "fit/fit/metadata.json":
        "2a95e6e93ae172ef99d464d4d65f7387c7e9bc7bc777ef4e5bb5269919d797f5",
    "fit/fit/singular_values_pls.csv":
        "f5f207126a76515fff39dbeb816ec3ca0d47cee6ceccc7bcb1a89d645f518604",
    "fit/fit/reproducibility_z_pls.csv":
        "45384bd89056f8d2c3aa0763cbfe808c8a6a9006d70eb3dfd7a6a7ab30b6b2c8",
    "fit/fit/stable_weights_pls.csv":
        "803d19ec0050ecf567bce876806933038cf40ded0e817da6c5ef0c347d4021b6",
    "fit/fit/singular_values_cca.csv":
        "cdb33e43df98c2c72378dec797cc48c040bd1005b5d42de932d7d00272598ca6",
    "fit/fit/reproducibility_z_cca.csv":
        "5a5c3b3559119372760a88b6fec96e30d146b3e3cd22003e6e1715276dbe9d3e",
    "fit/fit/bartlett_cca.csv":
        "ee63db7d158b84a9da6bd2d1ac6d9018ecff860780efbdaecc7591441915308d",
    "fit/fit/stable_weights_cca.csv":
        "f8cac3ebe2562fc801d9a2360d2c362f3d29f3b3a7c816894a56a232284f6e04",
    "reproduce/reproduce.json":
        "d1df88fdd9d78e9e747e1255f4d40db686488f46a9f2eed4d8a9809e37294ada",
    "sweep/sweep_fpr/metadata.json":
        "8b84ea6b3304003b06ad0945aa9cdbd82c0a988897d3a4890e8eaa0a75222814",
    "sweep/sweep_fpr/subsample_cells.csv":
        "5ed0df97aa0ed08b8ec4711fdbc2eff958450ed4fa57891fb0556f312db72338",
    "sweep/sweep_fpr/any_lv_rejection.csv":
        "ef6c593d6998dcad9d48f8a29617fa666dd7810df66709c52c78ddf8b8139c61",
    "pca/pca_stability.json":
        "a9a046157bbaaf7ae98f0cfe7027f85883e7d1b3d778576c321c9b7b808da89f",
    "plots/z_distribution_reproducibility_pls_train_test.csv":
        "3cbd0e5bb4f5f60f60ac46be24acb1ea27281bd7f988e7acccaf17e7fc27ccf2",
    "plots/z_distribution_reproducibility_pls_split_half_u.csv":
        "7976e01a6356855f0111f287c34c1229bf33edbdc00ab7a8bba531abef309b7f",
    "plots/z_distribution_reproducibility_pls_split_half_v.csv":
        "fe781441f77d96814f2c67b921db671ec93ae71566fc44228427dd3fc92a040d",
}


@pytest.fixture
def outputs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    (tmp_path / "fit_config.json").write_text(json.dumps(FIT_CONFIG), encoding="utf-8")
    printed = []
    for out_dir, command in COMMANDS:
        capsys.readouterr()
        assert main([*command, "--out-dir", out_dir]) == 0, command
        printed += capsys.readouterr().out.splitlines()
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")
                     if p.is_file() and p.name != "fit_config.json")
    hashes = {path: hashlib.sha256((tmp_path / path).read_bytes()).hexdigest()
              for path in printed}
    return printed, written, hashes


def test_cli_writes_the_pinned_files(outputs):
    printed, written, hashes = outputs
    assert printed == list(PINNED)
    assert written == sorted(PINNED)
    assert hashes == PINNED
