"""The stacked resampling kernel: rank guard, stack and thread invariance,
the number of linalg calls a batch of draws makes, and the permutation
test's working set.

Draws are evaluated as stacks. These tests pin what that must not change
(report bytes, for any stack size and thread count, a thread count below
1 counting as 1) and what it must keep (one batched linalg call per stack,
not one per draw; one eigh per block for both the rank guard and the
root, and eigvalsh only for the permutation null's singular values).
"""

import collections
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import crossblock.inference as inference
import crossblock.parallel as parallel
from crossblock import (
    DataBlock,
    ExperimentConfig,
    SimulationSpec,
    bootstrap_ci,
    generate_null,
    generate_relevant_subspace,
    null_calibration,
    permutation_test,
    run_detectability,
    run_full_sample,
    run_reproducibility_by_n,
    split_half,
    train_test,
)
from crossblock.blocks import _SUM_ROWS, RANK_REL_TOL, _adjustment_roots, prepare_pair
from crossblock.decomposition import METHODS, PLS
from crossblock.errors import RankDeficient
from crossblock.inference import permutation_matrix
from crossblock.io import ReportDocument, full_sample_section, subsample_section, write_block_csv


def test_borderline_rank_guard_gives_roots_or_rank_deficient():
    # the guard and the root come from one eigh, so a matrix whose smallest
    # eigenvalue sits at the tolerance either passes both or fails the guard
    rng = np.random.default_rng(3)
    outcomes = collections.Counter()
    for _ in range(600):
        q, _ = np.linalg.qr(rng.normal(size=(7, 7)))
        smallest = RANK_REL_TOL * (1.0 + 0.02 * rng.uniform(-1.0, 1.0) ** 3)
        r = (q * np.geomspace(1.0, smallest, 7)) @ q.T
        r = (r + r.T) / 2.0
        ax, by, error = _adjustment_roots(r, np.eye(2))
        if error is None:
            # roundoff bound: eps times the condition number, about 2e-3
            assert np.abs(ax @ r @ ax - np.eye(7)).max() < 1e-2
            outcomes["roots"] += 1
        else:
            assert isinstance(error, RankDeficient) and error.block == "x"
            outcomes["rank"] += 1
    assert outcomes["roots"] > 100 and outcomes["rank"] > 100


def population():
    spec = SimulationSpec(
        n=600, p=6, q_per_component=(3,), relpos=((1,),), gamma=0.3,
        m=3, ypos=((1, 2),), eta=0.0, r2=(0.4,), seed=4,
    )
    ds = generate_relevant_subspace(spec)
    return ds.x, ds.y


def report_bytes(kind, threads):
    x, y = population()
    config = ExperimentConfig(sample_sizes=(80, 30), n_iterations=4, n_perm=30, n_boot=100,
                              n_split=8, pca_pre=3, seed=5, threads=threads)
    if kind == "full":
        section = full_sample_section(run_full_sample(x, y, config))
    elif kind == "detectability":
        section = subsample_section(run_detectability(x, y, config))
    else:
        section = subsample_section(run_reproducibility_by_n(x, y, config))
    doc = ReportDocument.build(kind=kind, seed=5, config={}, sections={"s": section})
    return doc.to_json().encode()


@pytest.mark.parametrize("kind", ["full", "detectability", "reproducibility"])
def test_reports_identical_across_stack_sizes_and_threads(kind, monkeypatch):
    reports = set()
    for elements in (1, 10**9):  # one draw per stack; every batch in one stack
        monkeypatch.setattr(parallel, "_DRAW_CHUNK_ELEMENTS", elements)
        for threads in (1, 2):
            reports.add(report_bytes(kind, threads))
    assert len(reports) == 1


def draw_bytes(x, y, threads):
    """Every resampler's per-draw results (bootstrap: its intervals) as bytes."""
    arrays = []
    for method in METHODS:
        perm = permutation_test(x, y, method, n_perm=20, seed=3, threads=threads)
        arrays.append(perm.null_singular_values)
        boot = bootstrap_ci(x, y, method, n_boot=100, seed=3, threads=threads)
        arrays += [boot.x.lower, boot.x.upper, boot.y.lower, boot.y.upper]
        arrays.append(train_test(x, y, method, n_split=6, seed=3, threads=threads).draws)
        half = split_half(x, y, method, n_split=6, seed=3, threads=threads)
        tt, sh = null_calibration(x, y, method, n_split=4, seed=3, threads=threads)
        arrays += [half.u_draws, half.v_draws, tt.draws, sh.u_draws]
    return b"".join(a.tobytes() for a in arrays)


@pytest.mark.parametrize("q", [3, 1])
def test_draws_identical_across_stack_sizes_and_threads_above_the_row_chunk(q, monkeypatch):
    # above _SUM_ROWS rows, moment sums and permutation products add row chunks
    ds = generate_null(_SUM_ROWS + 300, 4, q, seed=10)
    outcomes = set()
    for elements in (1, 10**9):  # one draw per stack; every batch in one stack
        monkeypatch.setattr(parallel, "_DRAW_CHUNK_ELEMENTS", elements)
        for threads in (1, 2):
            outcomes.add(draw_bytes(ds.x, ds.y, threads))
    assert len(outcomes) == 1


@pytest.mark.parametrize("whiten", [False, True])
def test_a_draws_sums_do_not_depend_on_its_stack(whiten):
    ds = generate_null(_SUM_ROWS + 300, 4, 1, seed=11)
    pair = prepare_pair(ds.x, ds.y, whiten=whiten)
    rows = np.random.default_rng(5).integers(0, ds.x.n, (5, ds.x.n))
    stacked = pair.sums(rows)
    for i in range(len(rows)):
        assert stacked[i].tobytes() == pair.sums(rows[i : i + 1])[0].tobytes()


@pytest.fixture
def linalg_calls(monkeypatch):
    calls = collections.Counter()
    for name in ("svd", "eigh", "eigvalsh"):
        def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("fn", [train_test, split_half])
def test_split_batch_makes_a_constant_number_of_linalg_calls(fn, method, linalg_calls):
    x, y = (DataBlock(b.values[:200], b.labels) for b in population())
    totals = []
    for n_split in (25, 100):  # both batches fit in one stack at 200 rows
        linalg_calls.clear()
        fn(x, y, method, n_split=n_split, seed=6)
        assert linalg_calls["eigvalsh"] == 0
        totals.append(sum(linalg_calls.values()))
    # per half: one batched SVD, plus one eigh per block for CCA
    assert totals[0] == totals[1] <= 6


def test_only_the_permutation_null_makes_eigvalsh_calls(linalg_calls, monkeypatch):
    """Bootstrap, splits and the reproducibility sweep make no eigvalsh call;
    every one in the full sample is the permutation null's singular values."""
    null_calls = []

    def counted(m, _fn=inference._singular_values):
        null_calls.append(len(m))
        return _fn(m)

    monkeypatch.setattr(inference, "_singular_values", counted)
    x, y = population()
    config = ExperimentConfig(sample_sizes=(80,), n_iterations=3, n_perm=30, n_boot=100,
                              n_split=8, pca_pre=3, seed=5)
    run_reproducibility_by_n(x, y, config)
    assert linalg_calls["eigvalsh"] == 0 and linalg_calls["eigh"] > 0
    run_full_sample(x, y, config)
    assert linalg_calls["eigvalsh"] == len(null_calls) > 0


@pytest.mark.parametrize("method", METHODS)
def test_streamed_permutations_equal_the_explicit_matrix(method):
    ds = generate_null(2000, 5, 4, seed=8)
    per_stack = parallel._DRAW_CHUNK_ELEMENTS // (2000 * 4)
    n_perm = 3 * per_stack + 1  # four stacks, the last one short
    streamed = permutation_test(ds.x, ds.y, method, n_perm=n_perm, seed=6)
    explicit = permutation_test(ds.x, ds.y, method, n_perm=n_perm, seed=6,
                                permutations=permutation_matrix(6, n_perm, 2000))
    assert streamed.null_singular_values.tobytes() == explicit.null_singular_values.tobytes()
    assert streamed.p_values.tobytes() == explicit.p_values.tobytes()


def test_permutation_working_set_does_not_grow_with_n_perm():
    # permutations are drawn a stack at a time, so ten times the draws add
    # only their null singular values, not a (n_perm, n) matrix or gather
    ds = generate_null(5000, 6, 4, seed=9)

    def peak(n_perm):
        tracemalloc.start()
        try:
            result = permutation_test(ds.x, ds.y, PLS, n_perm=n_perm, seed=2)
            return tracemalloc.get_traced_memory()[1], result.null_singular_values.nbytes
        finally:
            tracemalloc.stop()

    small, small_null = peak(100)
    large, large_null = peak(1000)
    assert large - small <= large_null - small_null + 1024  # and a few Python ints


@pytest.mark.parametrize("threads", [0, -1])
def test_map_draws_counts_threads_below_one_as_one(threads, monkeypatch):
    rounds = []

    def bounded(fn, n_items, threads=1, _map=parallel.parallel_map):
        rounds.append(n_items)
        assert len(rounds) <= 14, "map_draws makes no progress"  # 7 draws, two runs
        return _map(fn, n_items, threads)

    monkeypatch.setattr(parallel, "parallel_map", bounded)
    drawn = []

    def draw(k):
        assert 1 <= k <= 7 - len(drawn)  # fails where an unclamped count would loop
        drawn.extend(range(len(drawn), len(drawn) + k))
        return np.arange(len(drawn) - k, len(drawn))

    def fn(start, stack):
        return [(start, int(d)) for d in stack]

    got = parallel.map_draws(fn, draw, 7, 3, threads)
    drawn.clear()
    assert got == parallel.map_draws(fn, draw, 7, 3, 1)


def test_cli_threads_below_one_run_serially(tmp_path):
    x, y = population()
    write_block_csv(x, tmp_path / "x.csv")
    write_block_csv(y, tmp_path / "y.csv")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "SOURCE_DATE_EPOCH": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    reports = set()
    for threads in ("1", "0", "-1"):
        out = tmp_path / f"t{threads}"
        subprocess.run(
            [sys.executable, "-m", "crossblock", "fit", "--x", str(tmp_path / "x.csv"),
             "--y", str(tmp_path / "y.csv"), "--permutations", "20", "--bootstraps", "100",
             "--splits", "6", "--seed", "2", "--threads", threads, "--out-dir", str(out)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        reports.add((out / "fit.json").read_bytes())
    assert len(reports) == 1
