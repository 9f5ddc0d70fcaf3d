"""Byte-level pins of the files the CLI writes.

``test_golden_reports.py`` pins report sections built in-process. This
module pins what only the command line produces: the config echo in each
report's metadata, the CSV data and truth files of ``simulate``, the CSV
bundles of ``--format csv`` (``fit`` with and without a PCA fraction, the
fpr sweep, ``permute`` and ``reproduce --null-calibrate``), the JSON
reports of ``permute``, ``bootstrap``, ``pca fit`` and the detectability
and reproducibility sweeps, the score CSVs of ``pca scores``, and the
tables of ``plot-data``. Each command runs in-process on a small dataset;
every file it writes is hashed and the paths it prints are compared, in
order, with the recorded ones. A refactor of the CLI or of the writers must
leave every entry unchanged.

Two more properties are checked on every report kind: a CSV bundle reads
back into the JSON report's sections, and an option given as a flag or in
a config file writes the same bytes.
"""

import csv
import hashlib
import json

import numpy as np
import pytest

import crossblock.cli as cli
from crossblock.blocks import DataBlock
from crossblock.cli import main
from crossblock.io import write_block_csv

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
    ("permutecsv", ("permute", *BLOCKS, "--permutations", "10", "--format", "csv",
                    "--seed", "7")),
    ("reproducecsv", ("reproduce", *BLOCKS, "--method", "pls", "--splits", "4",
                      "--null-calibrate", "--format", "csv", "--seed", "4")),
    ("fitpca", ("fit", *BLOCKS, "--method", "pls", "--permutations", "20", "--bootstraps", "100",
                "--splits", "4", "--pca-components", "0.9", "--format", "csv", "--seed", "9")),
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
        "b17c09fc8d92c56cac9d5e645b1c58731f5174ff8fed1edc6a9d9b0f8e96ecbf",
    "fit/fit/full_sample.per_method.pls.bootstrap.x.csv":
        "b764932a1e6d2112446fb45c8561f652017e1850f266bfecea0602c352a68ff0",
    "fit/fit/full_sample.per_method.pls.bootstrap.y.csv":
        "a3f20b164bc078636433d3fc617cbca257204a52d494472e500328a327185d17",
    "fit/fit/full_sample.per_method.pls.permutation.csv":
        "f7009e0984e22e378eba33363a5fe4664e1441d8632e9025414868370e392ae2",
    "fit/fit/full_sample.per_method.pls.train_test.csv":
        "7155fd25babe6f159df377cfbec8d49899e13c3f9c234081825368097bc8d68e",
    "fit/fit/full_sample.per_method.pls.split_half.csv":
        "5559c94ac2b03e98164ee66d430fd22ef312274abdaa84be8ff34a38e437dbad",
    "fit/fit/full_sample.per_method.cca.bootstrap.x.csv":
        "02414c71e58209fba12d087fadd2953e31890fb82269ab008b7b9930b86762f6",
    "fit/fit/full_sample.per_method.cca.bootstrap.y.csv":
        "9875963254cde98ed84ab8de65dfaf580b04bf61af7d625c950399e8a66322ee",
    "fit/fit/full_sample.per_method.cca.permutation.csv":
        "2aa905d1e544ef7c09f908fc51d32a5a9c1e7e24119812d006f20111e70ac4b4",
    "fit/fit/full_sample.per_method.cca.train_test.csv":
        "284ae070095c2783ea4124a1d2c4323c278cdef1d6abb7778ea575032e65047e",
    "fit/fit/full_sample.per_method.cca.split_half.csv":
        "775cc71ad4cfdf6521e427bcdba2a2a7e51e7c15f0a16bd91f815ee72281a7ae",
    "fit/fit/full_sample.per_method.cca.bartlett.csv":
        "080599d81f714f7f02ecb061d7bb02405d0df9c525da0d9c9c73193beb9c3a13",
    "fit/fit/full_sample.pca.csv":
        "97845b0a2c86536a6e8bcd240885481e031a7f6bd13957e2853bea90584422fc",
    "reproduce/reproduce.json":
        "b5c51aa68051e3cc02fc48dec7cc8379b3cee179c2744980d6ffa4fad4c34207",
    "sweep/sweep_fpr/metadata.json":
        "3a8302b8f8259f19efcb24578d38a0f942e4c087ed36d852512d1948c4b1b5bb",
    "sweep/sweep_fpr/subsample.cells.csv":
        "5ed0df97aa0ed08b8ec4711fdbc2eff958450ed4fa57891fb0556f312db72338",
    "sweep/sweep_fpr/subsample.any_lv.csv":
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
        "a5f28618235164fc2779d182c1e8a1c84bd9f7ff6e3bd4bc7958b292e8688b6d",
    "plots/weight_intervals_pls.csv":
        "ec9189706f4c3f040d12885b0f9ac1ebbbad409b84b3fbf75e439ff7840ddc95",
    "plots/eigenspectrum.csv":
        "fcf57aa62400701dc512753458c8230384aaa210434f9f9f2bd321be612e5952",
    "plots/detectability_bars.csv":
        "ae3bd7171bfe86d5320956ad01d0c2bc6a8ec53c19c3f13361bc8fce3b5345e6",
    "permutecsv/permute/metadata.json":
        "d24a1a813a60d0ede8338418405e8e0a3e5e31e436292b72da3b5cbb089a2a45",
    "permutecsv/permute/permutation_pls.csv":
        "e8c39577236eeff2f3f6dd1682633f0ce91f0e68fee8d6ea0321c6954d9e964d",
    "permutecsv/permute/permutation_pls.null_singular_values.csv":
        "a7debfd4a9f787d83fa7fcb57f3d883b4a3f5ff5b3609d523f016fe9e6f881c4",
    "permutecsv/permute/permutation_cca.csv":
        "f94f94b6e939aa9854a7d6618764d4bc2fc75ecca5943d9ae308fedf06244528",
    "permutecsv/permute/permutation_cca.null_singular_values.csv":
        "d4891dbb4618fcc0dd0eaa31d2ff9f361f86d72f4bfcc8723fef8f5d66aff24f",
    "reproducecsv/reproduce/metadata.json":
        "2e7ca991bdad7b89521dcf6c81be183847d7ef8b1288ae34ca39a0e18623158e",
    "reproducecsv/reproduce/reproducibility_pls.train_test.csv":
        "68597b262a3afe880186c85a665abbf9abf7307ac2c73e8edb23f055c29d81b2",
    "reproducecsv/reproduce/reproducibility_pls.train_test.draws.csv":
        "279249a6da41e133f139f020a445243f9a0cc6e0d7d958c3ffaca1591006006c",
    "reproducecsv/reproduce/reproducibility_pls.split_half.csv":
        "0a4e4795fce6dcc866a73f1b8e476b1eeaa7ed5080c2fafc94cc0bc743e0b8a2",
    "reproducecsv/reproduce/reproducibility_pls.split_half.u_draws.csv":
        "ca24896c60645b54b41e72a3edbb1703ed20d24c2e958dc48e34c19b90de8214",
    "reproducecsv/reproduce/reproducibility_pls.split_half.v_draws.csv":
        "1c94c45c5a1cadfbdb9a1d176d4f730fb98fc62bc5f1fbf6e37cf06f5d692aa1",
    "reproducecsv/reproduce/reproducibility_pls.null_train_test.csv":
        "8997d83550d745af596108fa44955f80bf57925552fb12b7e142b6ee6885cd74",
    "reproducecsv/reproduce/reproducibility_pls.null_train_test.draws.csv":
        "70d176c05d1eaed0f3e3b504862aeef84655b8f7159d12022eeb065beeae0986",
    "reproducecsv/reproduce/reproducibility_pls.null_split_half.csv":
        "3271ee28b00503be4198a74753c60e105fdfebb9fa921aea0d3e03f3058d7781",
    "reproducecsv/reproduce/reproducibility_pls.null_split_half.u_draws.csv":
        "10016aba2d843f5aaf6f80ad8ce40f983fdb01dcb453c5e9db1130b79250b36c",
    "reproducecsv/reproduce/reproducibility_pls.null_split_half.v_draws.csv":
        "fef2cad9384dd45cb6eca20531db384e9d61062e3847fa3d1cd8db7be6b9634a",
    "fitpca/fit/metadata.json":
        "e18557d9acc6691f6cfb26d82ce45bbaf08f9e899dd4df728b83dbef4b2c74f5",
    "fitpca/fit/full_sample.per_method.pls.bootstrap.x.csv":
        "aedb00bf3e54a0dc01ce20a72e49b1891015a04a929dceab5438c2cad6499c1b",
    "fitpca/fit/full_sample.per_method.pls.bootstrap.y.csv":
        "0383158c86ad002a6f0bfd30cc62460d622e58d5e2476333af35e1c7fa5082b4",
    "fitpca/fit/full_sample.per_method.pls.permutation.csv":
        "ee79ffa740810a24e87fe32b515a14cac1907e27f37d6fa05a316cb9b4de5a80",
    "fitpca/fit/full_sample.per_method.pls.train_test.csv":
        "17956914045518aa4cef5ef882fe024cfa6af88ae49f423b2fd26d2bac368e23",
    "fitpca/fit/full_sample.per_method.pls.split_half.csv":
        "9e58e6ad42b502a2f13abdc8d7258469415d73f62fc169f3f8fea39fc152999a",
    "fitpca/fit/full_sample.pca.csv":
        "97845b0a2c86536a6e8bcd240885481e031a7f6bd13957e2853bea90584422fc",
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


# ---------------------------------------------------------------------------
# The CSV bundle is the JSON report's sections flattened
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory holding what the commands read: the simulated blocks, the
    fit config file, and a Y block with a collinear column (CCA not run)."""
    base = tmp_path_factory.mktemp("inputs")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(base)
        assert main([*SIMULATE, "--out-dir", "data"]) == 0
    (base / "fit_config.json").write_text(json.dumps(FIT_CONFIG), encoding="utf-8")
    y = np.random.default_rng(1).normal(size=(200, 3))
    y[:, 2] = y[:, 0] - y[:, 1]
    write_block_csv(DataBlock(y, ("y1", "y2", "y3")), base / "collinear_y.csv")
    return base


# Every CSV command above, plus one command of each report kind.
ROUND_TRIP = {
    **{out_dir: command for out_dir, command in COMMANDS if "csv" in command},
    "fit-cca-not-run": ("fit", "--x", "data/x.csv", "--y", "collinear_y.csv",
                        "--permutations", "10", "--bootstraps", "100", "--splits", "4"),
    "detectability": ("sweep", "--kind", "detectability", *BLOCKS, "--sample-sizes", "40,20",
                      "--iterations", "3", "--permutations", "10"),
    "reproducibility": ("sweep", "--kind", "reproducibility", *BLOCKS, "--sample-sizes",
                        "60,30", "--iterations", "3", "--splits", "4",
                        "--pca-components", "3"),
    "bootstrap": ("bootstrap", *BLOCKS, "--bootstraps", "100"),
    "pca-fit": ("pca", "fit", "--x", "data/x.csv"),
    "pca-stability": ("pca", "stability", "--x", "data/x.csv", "--sample-sizes", "60,30",
                      "--iterations", "3"),
    # two components of different sizes: relevant_predictors is ragged
    "simulate": ("simulate", "subspace", "--n", "100", "--p", "8", "--relevant-counts", "3,2",
                 "--relpos", "1;2", "--m", "3", "--ypos", "1;2", "--r2", "0.3,0.2",
                 "--gamma", "0.4"),
}


def _read_cell(text):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def _at(root: dict, keys) -> dict:
    for key in keys:
        root = root.setdefault(key, {})
    return root


def read_bundle(bundle):
    """The sections a CSV bundle holds: metadata.json's, with every table put
    back at its path as the rule of ``io._tables`` laid it out."""
    sections = json.loads((bundle / "metadata.json").read_text(encoding="utf-8"))["sections"]
    for path in sorted(bundle.glob("*.csv")):
        with open(path, encoding="utf-8", newline="") as fh:
            headers, *rows = csv.reader(fh)
        rows = [[_read_cell(c) for c in row] for row in rows]
        keys = path.stem.split(".")
        if headers[0] in ("lv", "component", "variable"):  # a dict's own table
            first = 2 if headers[0] == "variable" else 1
            if keys[-1] == headers[first]:  # one of the dict's several tables
                keys = keys[:-1]
            parent = _at(sections, keys)
            if headers[0] == "variable":
                parent["labels"] = list(dict.fromkeys(row[0] for row in rows))
                width = len(rows) // len(parent["labels"])
                for j, field in enumerate(headers[2:], 2):
                    parent[field] = [[row[j] for row in rows[i:i + width]]
                                     for i in range(0, len(rows), width)]
            else:
                for j, field in enumerate(headers[1:], 1):
                    parent[field] = [row[j] for row in rows]
        else:
            parent = _at(sections, keys[:-1])
            parent[keys[-1]] = ([row[1:] for row in rows] if headers[0] == "row"
                                else [dict(zip(headers, row)) for row in rows])
    return sections


@pytest.mark.parametrize("name", ROUND_TRIP)
def test_csv_bundle_reads_back_as_the_json_sections(inputs, tmp_path, monkeypatch, name):
    monkeypatch.chdir(inputs)
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    for fmt in ("json", "csv"):
        assert main([*ROUND_TRIP[name], "--format", fmt, "--out-dir", str(tmp_path / fmt)]) == 0
    [report_path] = (tmp_path / "json").glob("*.json")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    bundle = tmp_path / "csv" / report_path.stem
    meta = json.loads((bundle / "metadata.json").read_text(encoding="utf-8"))
    assert meta["metadata"] == report["metadata"]
    # canonical JSON tells 1 from 1.0 and -0.0 from 0.0, so floats compare bit for bit
    canonical = lambda sections: json.dumps(sections, sort_keys=True, allow_nan=False)
    assert canonical(read_bundle(bundle)) == canonical(report["sections"])


# ---------------------------------------------------------------------------
# A flag and a config file echo one value
# ---------------------------------------------------------------------------

def _analysis(command, *flags):
    return lambda d: (command, "--x", str(d / "x.csv"), "--y", str(d / "y.csv"), *flags)


_PERMUTE = _analysis("permute", "--permutations", "5")
_DETECT = ("sweep", "--kind", "detectability", "--permutations", "5")
# (option, flag text, config value, argv of a command given the data directory)
SAME_VALUE = [
    ("seed", "4", 4, _PERMUTE),
    ("out_dir", "o", "o", _PERMUTE),
    ("format", "csv", "csv", _PERMUTE),
    ("threads", "2", 2, _PERMUTE),
    ("method", "pls", "pls", _PERMUTE),
    ("permutations", "7", 7, _analysis("permute")),
    ("bootstraps", "100", 100, _analysis("bootstrap")),
    ("splits", "3", 3, _analysis("reproduce", "--method", "pls")),
    ("iterations", "3", 3, _analysis(*_DETECT, "--sample-sizes", "40")),
    ("sample_sizes", "40,30", [40, 30], _analysis(*_DETECT, "--iterations", "2")),
    ("alpha", "0.1", 0.1, _analysis(*_DETECT, "--sample-sizes", "40", "--iterations", "2")),
    ("pca_components", "0.9", 0.9, _analysis("fit", "--method", "pls", "--permutations", "5",
                                             "--bootstraps", "100", "--splits", "3")),
    ("pca_components", "3", 3, _analysis("sweep", "--kind", "reproducibility",
                                         "--sample-sizes", "60", "--iterations", "2",
                                         "--splits", "3")),
]


def test_every_option_has_a_same_value_case():
    assert {case[0] for case in SAME_VALUE} == set(cli._OPTIONS)


@pytest.mark.parametrize("key, flag, value, argv", SAME_VALUE,
                         ids=[f"{case[0]}-{case[1]}" for case in SAME_VALUE])
def test_a_flag_and_a_config_file_write_the_same_bytes(inputs, tmp_path, monkeypatch,
                                                       key, flag, value, argv):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    written = {}
    for source in ("flag", "config"):
        run_dir = tmp_path / source
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        if source == "flag":
            options = ("--" + key.replace("_", "-"), flag)
        else:
            (run_dir / "cfg.json").write_text(json.dumps({key: value}), encoding="utf-8")
            options = ("--config", "cfg.json")
        assert main([*argv(inputs / "data"), *options]) == 0
        written[source] = {str(p.relative_to(run_dir)): p.read_bytes()
                           for p in sorted(run_dir.rglob("*"))
                           if p.is_file() and p.name != "cfg.json"}
    assert written["flag"]
    assert written["flag"] == written["config"]
