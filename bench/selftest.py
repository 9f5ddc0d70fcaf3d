"""Self-tests of the benchmark: span arithmetic, tiny-depth smoke runs, the result line.

    python3 bench/selftest.py

Takes under a minute. The file name keeps it out of the package's own pytest
collection; ``python3 -m pytest bench/selftest.py`` runs it as well.
"""

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from compare import output_change  # noqa: E402
from tracer import Tracer, aggregate, layer_metrics, self_times  # noqa: E402
from workloads import FLAT_GAMMA, WORKLOADS, binomial_band, null_rejection_rate  # noqa: E402

CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "fpr-null": {"sample_sizes": "100,20", "iterations": 3, "permutations": 20},
    "fit-structured": {"permutations": 20, "bootstraps": 100, "splits": 5},
    "repro-sweep-pca": {"sample_sizes": "100,50", "iterations": 2, "splits": 5},
}


class Ticks:
    """A clock that advances by one on every reading."""

    def __init__(self):
        self.now = -1.0

    def __call__(self):
        self.now += 1.0
        return self.now


class SpanArithmeticTest(unittest.TestCase):
    def test_self_time_subtracts_nested_children(self):
        spans = [("root", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("b", 5.0, 9.0, 0),
                 ("a.child", 2.0, 3.0, 1)]
        self.assertEqual(self_times(spans), [3.0, 2.0, 4.0, 1.0])

    def test_overlapping_children_count_once_and_clip_to_parent(self):
        spans = [("p", 0.0, 10.0, -1), ("c1", 1.0, 6.0, 0), ("c2", 4.0, 8.0, 0),
                 ("c3", 9.0, 12.0, 0)]
        self.assertEqual(self_times(spans)[0], 2.0)

    def test_tracer_records_items_raises_and_counts(self):
        tracer = Tracer(clock=Ticks())

        def leaf(v):
            if v < 0:
                raise ValueError(v)
            return v

        traced_leaf = tracer.wrap("leaf", leaf, hook=lambda a, k, r: {"seen": r})
        traced_map = tracer.wrap_parallel_map(lambda fn, n, threads=1: [fn(i) for i in range(n)])

        def outer():
            with self.assertRaises(ValueError):
                traced_leaf(-1)
            return traced_map(lambda i: traced_leaf(i + 1), 2)

        self.assertEqual(tracer.wrap("outer", outer)(), [1, 2])
        stats = aggregate(tracer.records())
        self.assertEqual(stats["leaf"]["calls"], 3)
        self.assertEqual(stats["leaf"]["raised"], 1)
        self.assertEqual(stats["leaf"]["extra"], {"seen": 3})
        self.assertEqual(stats["outer"]["calls"], 1)
        self.assertEqual(stats["outer"]["items"], 2)  # map items are named after their caller
        self.assertEqual(stats["parallel.parallel_map"]["extra"], {"items": 2})
        # every clock reading is one tick: leaf spans last 1, each item 3, map 9, outer 13
        self.assertEqual(stats["leaf"]["self_s"], 3.0)
        self.assertEqual(stats["parallel.parallel_map"]["self_s"], 9.0 - 6.0)
        self.assertEqual(stats["outer"]["self_s"], (13.0 - 1.0 - 9.0) + 2 * (3.0 - 1.0))

    def test_missing_target_leaves_its_metrics_out(self):
        doc = {"import_s": 0.5, "absent": ["blocks.whiten"],
               "spans": [("cli.main", 0.0, 1.0, -1, False, False, None)]}
        metrics = layer_metrics(doc)
        self.assertNotIn("blocks.whiten.calls", metrics)
        self.assertIn("blocks.zscore.calls", metrics)

    def test_binomial_band_holds_the_mean(self):
        lo, hi = binomial_band(100, 0.05)
        self.assertLessEqual(lo, 5)
        self.assertGreaterEqual(hi, 5)
        self.assertLess(hi, 30)


class CheckTest(unittest.TestCase):
    """The report checks on synthetic reports."""

    @staticmethod
    def _fpr_report(hits):
        depth = WORKLOADS["fpr-null"].depth
        sizes = [int(v) for v in depth["sample_sizes"].split(",")]
        n = depth["iterations"]
        cells = [{"method": m, "sample_size": size, "status": "ok", "n_completed": n,
                  "fraction": hits / n} for m in ("pls", "cca") for size in sizes]
        return {"sections": {"subsample": {"any_lv": cells}}}

    def test_null_rejection_rate_counts_the_observed_rank(self):
        self.assertEqual(null_rejection_rate(0.5, 4), 3 / 5)  # K in {0, 1, 2} of 0..4

    def test_fpr_check_is_two_sided(self):
        check = WORKLOADS["fpr-null"].check
        half = WORKLOADS["fpr-null"].depth["iterations"] // 2
        self.assertEqual(check(self._fpr_report(half)), [])
        self.assertNotEqual(check(self._fpr_report(0)), [])  # permutations never reject
        self.assertNotEqual(check(self._fpr_report(2 * half)), [])  # always reject

    def test_fit_population_clears_the_rank_guard(self):
        # fit-structured fits CCA on all 50 raw X columns: the population's
        # smallest-to-largest X eigenvalue ratio must sit far enough above the
        # rank guard that no seed's sample correlation matrix falls below it
        sys.path.insert(0, str(run.ROOT / "src"))
        from crossblock.blocks import RANK_REL_TOL

        simulate = WORKLOADS["fit-structured"].simulate
        self.assertEqual(simulate[simulate.index("--gamma") + 1], str(FLAT_GAMMA))
        self.assertGreater(math.exp(-FLAT_GAMMA * 49), 100 * RANK_REL_TOL)

    def test_output_change_tells_metadata_from_sections(self):
        parent = {"sha256": "a", "sections_sha256": "s"}
        self.assertEqual(output_change(parent, dict(parent)), "same output")
        self.assertEqual(output_change(parent, {"sha256": "b", "sections_sha256": "s"}),
                         "metadata only")
        self.assertEqual(output_change(parent, {"sha256": "b", "sections_sha256": "t"}),
                         "output changed")


class WorkloadSmokeTest(unittest.TestCase):
    """Each workload at tiny depth, untraced and traced, through the real CLI."""

    @classmethod
    def setUpClass(cls):
        run.WORK.mkdir(exist_ok=True)
        cls.tmp = run.WORK / "selftest"
        shutil.rmtree(cls.tmp, ignore_errors=True)
        cls.tmp.mkdir()
        cls.env = run.child_env(run.ROOT / "src")
        cls.deadline = run.Deadline(run.time.perf_counter())
        for workload in WORKLOADS.values():
            if workload.simulate:
                run.make_inputs(workload, 5, cls.tmp / workload.name, cls.env, cls.deadline)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def _run(self, name, traced):
        workload = WORKLOADS[name]
        out = self.tmp / f"{name}-{int(traced)}"
        out.mkdir()
        args = workload.cli_args(5, out, self.tmp / name, depth=TINY[name])
        spans = self.tmp / f"{name}.spans.json"
        cmd = ([sys.executable, str(run.BENCH / "tracer.py"), "--spans", str(spans), "--"]
               if traced else [sys.executable, "-m", "crossblock"]) + args
        sample = run.spawn(cmd, self.env, self.tmp, self.tmp / f"{name}.log", self.deadline)
        self.assertEqual(sample["exit_code"], 0, (self.tmp / f"{name}.log").read_text())
        report, whole, sections = run.read_report(out)
        self.assertEqual(workload.check(report, TINY[name]), [])
        self.assertGreater(workload.draws(report, TINY[name]), 0)
        return whole, sections, json.loads(spans.read_text()) if traced else None

    def _smoke(self, name):
        plain = self._run(name, traced=False)
        traced = self._run(name, traced=True)
        self.assertEqual(plain[:2], traced[:2], "tracing changed the report")
        metrics = layer_metrics(traced[2])
        self.assertEqual(traced[2]["absent"], [])
        expected = {m["name"] for m in CONFIG["per_layer"]} - {"trace.overhead_frac"}
        self.assertEqual(set(metrics), expected)
        return metrics

    def test_fpr_null(self):
        metrics = self._smoke("fpr-null")
        draws = 2 * 2 * 3 * 20  # methods x sizes x iterations x permutations
        self.assertEqual(metrics["inference.permutation_test.draws"][0], draws)
        self.assertEqual(metrics["io.load_csv.calls"][0], 0)

    def test_fit_structured(self):
        metrics = self._smoke("fit-structured")
        self.assertEqual(metrics["io.load_csv.calls"][0], 2)
        self.assertEqual(metrics["inference.bootstrap_ci.draws"][0], 2 * 100)
        self.assertEqual(metrics["reproducibility.splits"][0], 2 * 2 * 5)

    def test_repro_sweep_pca(self):
        metrics = self._smoke("repro-sweep-pca")
        self.assertEqual(metrics["harness.iterations"][0], 2 * 2)
        self.assertEqual(metrics["linalg.matrices_per_call"][0], 1.0)


class CommandTest(unittest.TestCase):
    """The benchmark command: its result line, and refusal without the program."""

    def _bench(self, root, *args):
        return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args],
                              cwd=root, capture_output=True, text=True, timeout=180)

    def test_result_line_has_the_end_to_end_metrics(self):
        done = self._bench(run.ROOT, "--workload", "fpr-null", "--seed", "3",
                           "--seconds", "1", "--trace", "0")
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), {m["name"] for m in CONFIG["end_to_end"]})
        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_refuses_a_tree_without_the_program(self):
        bare = run.WORK / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            done = self._bench(bare, "--workload", "fpr-null", "--seed", "1",
                               "--seconds", "1", "--trace", "0")
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
