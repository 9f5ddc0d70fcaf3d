"""Byte-level pins of the files the CLI writes.

``test_golden_reports.py`` pins report sections built in-process. This
module pins what only the command line produces: the config echo in each
report's metadata, the CSV data and truth files of ``simulate``, the CSV
bundle of ``--format csv``, the JSON reports of ``permute``, ``bootstrap``,
``pca fit`` and the detectability and reproducibility sweeps, the score
CSVs of ``pca scores``, and the tables of ``plot-data``. Each command
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
    ("permute", ("permute", *BLOCKS, "--permutations", "10", "--seed", "7")),
    ("bootstrap", ("bootstrap", *BLOCKS, "--bootstraps", "100", "--seed", "8")),
    ("fitjson", ("fit", *BLOCKS, "--method", "pls", "--permutations", "20",
                 "--bootstraps", "100", "--splits", "4", "--pca-components", "auto",
                 "--seed", "9")),
    ("pcafit", ("pca", "fit", "--x", "data/x.csv")),
    ("scores", ("pca", "scores", "--x", "data/x.csv")),
    ("scores", ("pca", "scores", "--x", "data/x.csv", "--pca-components", "0.9",
                "--scores-out", "scores/fraction.csv")),
    ("detect", ("sweep", "--kind", "detectability", *BLOCKS, "--sample-sizes", "40,20",
                "--iterations", "3", "--permutations", "10", "--seed", "10")),
    ("repro", ("sweep", "--kind", "reproducibility", *BLOCKS, "--sample-sizes", "60,30",
               "--iterations", "3", "--splits", "4", "--pca-components", "3",
               "--seed", "11")),
    ("plots", ("plot-data", "--report", "fitjson/fit.json", "--kind", "weight-intervals")),
    ("plots", ("plot-data", "--report", "pcafit/pca_fit.json", "--kind", "eigenspectrum")),
    ("plots", ("plot-data", "--report", "detect/sweep_detectability.json",
               "--kind", "detectability-bars")),
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
        "6c30ea5ff93cc4786755210d37a6f269f59ed398709b06472e5bd3aca0c12ca3",
    "fit/fit/metadata.json":
        "6748e20fff34f8dd1be2b15a6479da0eedf510bf90a188f7fbb23c39c6ca2303",
    "fit/fit/singular_values_pls.csv":
        "f5f207126a76515fff39dbeb816ec3ca0d47cee6ceccc7bcb1a89d645f518604",
    "fit/fit/reproducibility_z_pls.csv":
        "84bc9a7e9e94906a5874be36b5c65c486d9248246e334e7cec82a3b2ccd4565d",
    "fit/fit/stable_weights_pls.csv":
        "c3901e2108fc33057c2d011d0cdf42d442a679d470c569812eafb70ce6471c8b",
    "fit/fit/singular_values_cca.csv":
        "cdb33e43df98c2c72378dec797cc48c040bd1005b5d42de932d7d00272598ca6",
    "fit/fit/reproducibility_z_cca.csv":
        "bc828f2738644ce4b361ecba3b904c2ac5e75d93da88933a41928bcea6a08e10",
    "fit/fit/bartlett_cca.csv":
        "080599d81f714f7f02ecb061d7bb02405d0df9c525da0d9c9c73193beb9c3a13",
    "fit/fit/stable_weights_cca.csv":
        "4a6a28359e23e59b17f4ca563a41a91fc80b4e54da741f71ea00aa2c61c2ff44",
    "reproduce/reproduce.json":
        "b5c51aa68051e3cc02fc48dec7cc8379b3cee179c2744980d6ffa4fad4c34207",
    "sweep/sweep_fpr/metadata.json":
        "fcf95b712cb5596bedc5d23a51e9b5fd769a128f9dae5a1cc07ed126d36e0fe3",
    "sweep/sweep_fpr/subsample_cells.csv":
        "5ed0df97aa0ed08b8ec4711fdbc2eff958450ed4fa57891fb0556f312db72338",
    "sweep/sweep_fpr/any_lv_rejection.csv":
        "ef6c593d6998dcad9d48f8a29617fa666dd7810df66709c52c78ddf8b8139c61",
    "pca/pca_stability.json":
        "579164b1e4b4deb2f497650a614102490323f36d582cdb51b27081b207adba10",
    "plots/z_distribution_reproducibility_pls_train_test.csv":
        "f766bd0daae4050c2d304f0c67f09a39286f16453865bd28bfe03fa7841c0e8c",
    "plots/z_distribution_reproducibility_pls_split_half_u.csv":
        "5c58480dfa3a2454ca2d8c5fb4de62cfca709f78872005999c0880ef2a9d113d",
    "plots/z_distribution_reproducibility_pls_split_half_v.csv":
        "003582757dfaf37e2169635fb71577c012aad684992a2f7201e94273a8409bf4",
    "permute/permute.json":
        "8afcdb234eaf4c81c8260ef5974061ba556c72dc2c7a25a8bc151295364c65ea",
    "bootstrap/bootstrap.json":
        "4b689ce257dc8d92ecef66326267fd5690e8f08447ab5a0537ce4ae975246e98",
    "fitjson/fit.json":
        "ff2f2951ae1d25dde90ee979da97a1c6ce8581ad9e127eef3a56ab5270bd2fde",
    "pcafit/pca_fit.json":
        "5276b44451c7bae03b8548e84b9424cf3087aba82eb26d83581acc565f69cb17",
    "scores/scores.csv":
        "c1624b8fdbaeb362aed76043b97fb1dddd8e01d606e7755d7c66d7e70a07e83a",
    "scores/fraction.csv":
        "5594c5afd5572141a41eeb51367d3369a9cef84b7e1e559801faad92f0e750e4",
    "detect/sweep_detectability.json":
        "b809a9e15413209bafbd79b67eb9f348e4fca6011c49d158fc0e3c8a37fa738f",
    "repro/sweep_reproducibility.json":
        "44e70713f773a4316ca99a5deb6fa436a3e9a8f4cd558684b8d79c24fdaaf967",
    "plots/weight_intervals_pls.csv":
        "ec9189706f4c3f040d12885b0f9ac1ebbbad409b84b3fbf75e439ff7840ddc95",
    "plots/eigenspectrum.csv":
        "fcf57aa62400701dc512753458c8230384aaa210434f9f9f2bd321be612e5952",
    "plots/detectability_bars.csv":
        "ae3bd7171bfe86d5320956ad01d0c2bc6a8ec53c19c3f13361bc8fce3b5345e6",
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
