"""One prepared pair shared by every resampler of a (blocks, method) analysis.

``permutation_test``, ``bootstrap_ci``, ``train_test``, ``split_half`` and
``null_calibration`` take an optional pair that ``prepare_pair`` returned.
Passing it must change no bit of any result; a pair prepared for other
blocks or the other method is refused; a prepared pair is read-only; and the
harness and the ``reproduce`` command prepare each method's pair once.
"""

import dataclasses
import sys

import numpy as np
import pytest

from crossblock import (
    DataBlock,
    ExperimentConfig,
    bootstrap_ci,
    null_calibration,
    permutation_test,
    run_full_sample,
    run_reproducibility_by_n,
    split_half,
    train_test,
)
from crossblock.blocks import prepare_pair
from crossblock.cli import main
from crossblock.decomposition import CCA, PLS

RESAMPLERS = {
    "permutation_test": lambda x, y, method, threads, pair=None: permutation_test(
        x, y, method, n_perm=40, seed=1, threads=threads, pair=pair),
    "bootstrap_ci": lambda x, y, method, threads, pair=None: bootstrap_ci(
        x, y, method, n_boot=100, seed=2, threads=threads, pair=pair),
    "train_test": lambda x, y, method, threads, pair=None: train_test(
        x, y, method, n_split=30, seed=3, threads=threads, pair=pair),
    "split_half": lambda x, y, method, threads, pair=None: split_half(
        x, y, method, n_split=30, seed=4, threads=threads, pair=pair),
    "null_calibration": lambda x, y, method, threads, pair=None: null_calibration(
        x, y, method, n_split=30, seed=5, threads=threads, pair=pair),
}


def blocks(n=120, p=4, q=3, seed=0):
    rng = np.random.default_rng(seed)
    xv = rng.normal(size=(n, p))
    yv = 0.5 * xv[:, :q] + rng.normal(size=(n, q))
    return (DataBlock(xv, tuple(f"x{j}" for j in range(p))),
            DataBlock(yv, tuple(f"y{j}" for j in range(q))))


def arrays(result):
    """Every array of a result (or a tuple of results, or a result a field holds), as bytes."""
    if isinstance(result, tuple):
        return [a for r in result for a in arrays(r)]
    if dataclasses.is_dataclass(result):
        return [a for f in dataclasses.fields(result) for a in arrays(getattr(result, f.name))]
    return [np.asarray(result).tobytes()]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("method", [PLS, CCA])
@pytest.mark.parametrize("name", sorted(RESAMPLERS))
def test_a_shared_pair_changes_no_bits(name, method, threads):
    x, y = blocks()
    pair = prepare_pair(x, y, whiten=method == CCA)
    run = RESAMPLERS[name]
    assert arrays(run(x, y, method, threads, pair)) == arrays(run(x, y, method, threads))


# name: (method of the call, the pair it is given, what the error must say)
MISMATCHES = {
    "whitened pair to pls": (PLS, lambda x, y: prepare_pair(x, y, whiten=True),
                             r"basis whitened \(CCA\), the call needs z-scored \(PLS\)"),
    "z-scored pair to cca": (CCA, lambda x, y: prepare_pair(x, y),
                             r"basis z-scored \(PLS\), the call needs whitened \(CCA\)"),
    "rows": (PLS, lambda x, y: prepare_pair(*blocks(n=121)), "it was prepared from other blocks"),
    "X columns": (PLS, lambda x, y: prepare_pair(*blocks(p=5)),
                  "it was prepared from other blocks"),
    "Y columns": (PLS, lambda x, y: prepare_pair(*blocks(q=2)),
                  "it was prepared from other blocks"),
    "same shape": (PLS, lambda x, y: prepare_pair(*blocks(seed=1)),
                   "it was prepared from other blocks"),
    "one block other": (CCA, lambda x, y: prepare_pair(x, blocks(seed=1)[1], whiten=True),
                        "it was prepared from other blocks"),
}


@pytest.mark.parametrize("mismatch", sorted(MISMATCHES))
@pytest.mark.parametrize("name", sorted(RESAMPLERS))
def test_a_pair_that_does_not_match_is_refused(name, mismatch):
    x, y = blocks()
    method, make, message = MISMATCHES[mismatch]
    with pytest.raises(ValueError, match=f"^prepared pair does not match: {message}$"):
        RESAMPLERS[name](x, y, method, 1, make(x, y))


@pytest.mark.parametrize("whiten", [False, True])
def test_a_prepared_pair_is_read_only(whiten):
    pair = prepare_pair(*blocks(), whiten=whiten)
    for m in (pair.data, *(pair.roots or ())):
        assert not m.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 1.0


@pytest.fixture
def preparations(monkeypatch):
    """Record the ``whiten`` flag of every ``prepare_pair`` call, wherever it is looked up."""
    calls = []
    original = prepare_pair

    def counted(x, y, whiten=False):
        calls.append(whiten)
        return original(x, y, whiten=whiten)

    for name, module in list(sys.modules.items()):
        if name != "crossblock" and not name.startswith("crossblock."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)
    return calls


def test_full_sample_prepares_once_per_method(preparations):
    x, y = blocks(n=200)
    config = ExperimentConfig(n_perm=20, n_boot=100, n_split=5, seed=1)
    result = run_full_sample(x, y, config)
    assert [entry.status for entry in result.per_method] == ["ok", "ok"]
    assert preparations == [False, True]


def test_reproducibility_sweep_prepares_once_per_subsample_and_method(preparations):
    x, y = blocks(n=200)
    config = ExperimentConfig(sample_sizes=(60, 40), n_iterations=3, n_split=5, seed=1)
    report = run_reproducibility_by_n(x, y, config)
    assert all(c.status == "ok" and c.n_skipped == 0 for c in report.cells)
    assert sorted(preparations) == [False] * 6 + [True] * 6


def test_reproduce_prepares_once_per_method(preparations, tmp_path):
    for block, name in zip(blocks(n=100), "xy"):
        np.savetxt(tmp_path / f"{name}.csv", block.values, delimiter=",",
                   header=",".join(block.labels), comments="")
    assert main(["reproduce", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
                 "--splits", "4", "--null-calibrate", "--out-dir", str(tmp_path)]) == 0
    assert preparations == [False, True]
