import argparse
import json
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from numpy.testing import assert_allclose

from crossblock import (
    ExperimentConfig,
    bootstrap_ci,
    fit_pca,
    generate_null,
    permutation_test,
    run_detectability,
    run_full_sample,
    split_half,
    train_test,
)
import crossblock.cli as cli
import crossblock.io as crossblock_io
import crossblock.parallel as parallel
from crossblock.blocks import DataBlock
from crossblock.cli import main
from crossblock.errors import EmptyFile, MissingSection, NonNumericCell, RaggedRows
from crossblock.io import (
    ReportDocument,
    emit_plot_data,
    full_sample_section,
    load_csv,
    result_section,
    subsample_section,
    write_block_csv,
    write_report,
)


def write_text(path, text):
    Path(path).write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_basic_with_header(self, tmp_path):
        p = write_text(tmp_path / "d.csv", "a,b\n1,2\n3,4\n5,6\n")
        b = load_csv(p)
        assert b.n == 3 and b.k == 2
        assert b.labels == ("a", "b")
        assert_allclose(b.values, [[1, 2], [3, 4], [5, 6]])

    def test_repeated_label_refused_naming_both_columns(self, tmp_path):
        # a bundle's long tables key rows by label, so labels are unique within a block
        p = write_text(tmp_path / "d.csv", "a,b,a\n1,2,3\n4,5,6\n")
        with pytest.raises(ValueError, match="label 'a' names columns 1 and 3"):
            load_csv(p)

    def test_blank_cell_coordinates(self, tmp_path):
        p = write_text(tmp_path / "d.csv", "a,b\n1,2\n3,\n5,6\n")
        with pytest.raises(NonNumericCell) as err:
            load_csv(p)
        assert err.value.row == 3 and err.value.col == 2

    def test_non_numeric_cell(self, tmp_path):
        p = write_text(tmp_path / "d.csv", "a,b\n1,2\nx,4\n")
        with pytest.raises(NonNumericCell):
            load_csv(p)

    def test_non_finite_rejected(self, tmp_path):
        p = write_text(tmp_path / "d.csv", "a,b\n1,2\nnan,4\n")
        with pytest.raises(NonNumericCell):
            load_csv(p)

    def test_ragged_rows(self, tmp_path):
        p = write_text(tmp_path / "d.csv", "a,b\n1,2\n3,4,5\n")
        with pytest.raises(RaggedRows) as err:
            load_csv(p)
        assert err.value.row == 3

    def test_empty_file(self, tmp_path):
        p = write_text(tmp_path / "d.csv", "")
        with pytest.raises(EmptyFile):
            load_csv(p)

    def test_header_only(self, tmp_path):
        p = write_text(tmp_path / "d.csv", "a,b\n")
        with pytest.raises(EmptyFile):
            load_csv(p)

    @pytest.mark.parametrize("header", ["a,b", '"a",b'])
    def test_a_byte_order_mark_is_not_part_of_the_first_label(self, tmp_path, header):
        # Excel's "CSV UTF-8" export starts the file with one; the writers add none
        path = tmp_path / "d.csv"
        path.write_bytes(f"\ufeff{header}\n1,2\n3,4\n".encode("utf-8"))
        block = load_csv(path)
        assert block.labels == ("a", "b")
        assert_allclose(block.values, [[1, 2], [3, 4]])
        assert not write_block_csv(block, tmp_path / "w.csv").read_bytes().startswith(
            "\ufeff".encode("utf-8"))

    def test_round_trip_exact(self, tmp_path):
        ds = generate_null(60, 4, 2, seed=1)
        path = write_block_csv(ds.x, tmp_path / "x.csv")
        back = load_csv(path)
        assert np.array_equal(back.values, ds.x.values)
        assert back.labels == ds.x.labels
        rxx = np.corrcoef(ds.x.values, rowvar=False)
        assert np.abs(np.corrcoef(back.values, rowvar=False) - rxx).max() < 1e-12


def bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


# Finite doubles, with the extremes st.floats may not reach every run added
# explicitly: subnormals, the normal boundaries, -0.0 and the largest double.
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                     1.7976931348623157e308, -1.7976931348623157e308, -0.0, 1e-300, 1e300]),
)


class TestLoadCsvFastPath:
    """The one-call parse agrees with the cell-by-cell scan, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(matrix=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=2,
                                                  max_side=6), elements=FINITE))
    def test_random_matrices_load_like_the_scan(self, tmp_path_factory, matrix):
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        labels = tuple(f"c{j}" for j in range(matrix.shape[1]))
        write_block_csv(DataBlock(matrix, labels), path)
        with mock.patch.object(crossblock_io, "_scan_csv",
                               side_effect=AssertionError("fell back to the scan")):
            fast = load_csv(path)
        scan = crossblock_io._scan_csv(path)
        assert np.array_equal(bits(fast.values), bits(matrix))
        assert np.array_equal(bits(fast.values), bits(scan.values))
        assert fast.labels == scan.labels == labels

    @pytest.mark.parametrize("text,expected", [
        ("a,b\n1,2\n3,\n", (NonNumericCell, 3, 2)),
        ("a,b\n1,2\nx,4\n", (NonNumericCell, 3, 1)),
        ("a,b\n1,2\nnan,4\n", (NonNumericCell, 3, 1)),
        ("a,b\n1,inf\n3,4\n", (NonNumericCell, 2, 2)),
        ("a,b\n1,2\n3,-inf\n", (NonNumericCell, 3, 2)),
        ("a,b\n1,2\n3,1e999\n", (NonNumericCell, 3, 2)),
        ("a,b\n1,2\n3\n", (RaggedRows, 3, None)),
        ("a,b\n1,2\n3,4,5\n", (RaggedRows, 3, None)),
        ("a,b,c\n1,2\n3,4\n", (RaggedRows, 2, None)),
        ("a,b\n1,2\n   \n3,4\n", (RaggedRows, 3, None)),
        ("a,b\n", (EmptyFile, None, None)),
        ("a,b\n\n\r\n", (EmptyFile, None, None)),
        ("", (EmptyFile, None, None)),
        # rows are numbered as the file has them, blank rows included
        ("a,b\n1,2\n\n3,4\n5,x\n", (NonNumericCell, 5, 2)),
        ("\na,b\n1,2\n3,x\n", (NonNumericCell, 4, 2)),
        ('a,b\n"1,5",2\n3,4\n', (NonNumericCell, 2, 1)),
        ("a,b\n1,2\n\n3,4\n\n", [[1, 2], [3, 4]]),
        ("a,b\r\n1,2\r\n3,4\r\n", [[1, 2], [3, 4]]),
        ("a,b\r1,2\r3,4\r", [[1, 2], [3, 4]]),
        ("a , b\n 1 ,2\t\n3, 4 \n", [[1, 2], [3, 4]]),
        ('a,b\n"1.5",2\n3,"-4"\n', [[1.5, 2], [3, -4]]),
        ("a,b\n1_000,2\n3,4\n", [[1000, 2], [3, 4]]),
        ("a,b\n\u0661\u0662,2\n3,\uff14\n", [[12, 2], [3, 4]]),
        # a byte-order mark is not a cell, and the rows keep their numbers
        ("\ufeffa,b\n1,2\nx,4\n", (NonNumericCell, 3, 1)),
        ("\ufeff\na,b\n1,2\n3,x\n", (NonNumericCell, 4, 2)),
        ("\ufeffa,b\n1,2\n3,4\n", [[1, 2], [3, 4]]),
        ('\ufeff"a",b\n1,2\n3,4\n', [[1, 2], [3, 4]]),
    ])
    def test_edge_cases_match_the_scan(self, tmp_path, text, expected):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcomes = []
            for parse in (lambda: load_csv(path), lambda: crossblock_io._scan_csv(path)):
                try:
                    block = parse()
                except (EmptyFile, NonNumericCell, RaggedRows) as err:
                    outcomes.append((type(err), err.row, err.col))
                else:
                    outcomes.append((block.labels, bits(block.values).tolist()))
        assert outcomes[0] == outcomes[1]
        if isinstance(expected, tuple):
            assert outcomes[0] == expected
        else:
            assert outcomes[0] == (("a", "b"), bits(np.array(expected, float)).tolist())


class TestReportDocument:
    def build_sample_report(self):
        ds = generate_null(80, 3, 2, seed=2)
        cfg = ExperimentConfig(sample_sizes=(30,), n_iterations=4, n_perm=20,
                               n_boot=100, n_split=6, seed=3)
        rep = run_detectability(ds.x, ds.y, cfg)
        return ReportDocument.build(
            kind="sweep-detectability", seed=3, config={"alpha": 0.05},
            sections={"subsample": subsample_section(rep)},
        )

    def test_json_round_trip_byte_identical(self):
        doc = self.build_sample_report()
        text = doc.to_json()
        again = ReportDocument.from_json(text).to_json()
        assert text == again

    def test_no_nan_in_output(self):
        doc = self.build_sample_report()
        assert "NaN" not in doc.to_json()
        json.loads(doc.to_json())

    def test_missing_section(self):
        doc = self.build_sample_report()
        with pytest.raises(MissingSection):
            doc.section("pca")

    def test_result_sections_are_fields_by_name_with_draws_only_in_bulk(self):
        ds = generate_null(60, 3, 2, seed=4)
        cases = [
            (permutation_test(ds.x, ds.y, "pls", n_perm=10, seed=5),
             {"singular_values", "p_values", "n_perm"}, {"null_singular_values"}),
            (train_test(ds.x, ds.y, "pls", n_split=4, seed=5),
             {"z", "degenerate", "n_split", "n_failed"}, {"draws"}),
            (split_half(ds.x, ds.y, "pls", n_split=4, seed=5),
             {"z_u", "z_v", "degenerate_u", "degenerate_v", "n_split", "n_failed"},
             {"u_draws", "v_draws"}),
            (fit_pca(ds.x), {"eigenvalues", "variance_fraction", "n_kept"}, {"eigenvectors"}),
        ]
        for result, light, draws in cases:
            assert set(result_section(result, bulk=False)) == light
            section = result_section(result, bulk=True)
            assert set(section) == light | draws
            assert all(section[name] is getattr(result, name) for name in section)
        # a field holding a result is that result's section, by the same rule
        boot = bootstrap_ci(ds.x, ds.y, "pls", n_boot=100, seed=5)
        for bulk in (False, True):
            section = result_section(boot, bulk)
            assert set(section) == {"n_boot", "x", "y"}
            assert section["n_boot"] == 100
            for block in ("x", "y"):
                intervals = getattr(boot, block)
                assert set(section[block]) == {"labels", "observed", "lower", "upper", "stable"}
                assert all(value is getattr(intervals, name)
                           for name, value in section[block].items())
        assert (boot.x.labels, boot.y.labels) == (ds.x.labels, ds.y.labels)

    def test_write_json_and_csv_bundle(self, tmp_path):
        doc = self.build_sample_report()
        [json_path] = write_report(doc, tmp_path, stem="rep", format="json")
        assert json_path.read_text(encoding="utf-8") == doc.to_json()
        paths = write_report(doc, tmp_path, stem="rep", format="csv")
        assert [p.name for p in paths] == [
            "metadata.json", "subsample.cells.csv", "subsample.any_lv.csv"]
        header = (tmp_path / "rep" / "subsample.cells.csv").read_text().splitlines()[0]
        assert header.startswith("method,sample_size,lv,status,detectability")
        # the section's scalars, which no table holds, are in metadata.json
        scalars = {k: v for k, v in doc.section("subsample").items()
                   if k not in ("cells", "any_lv")}
        assert set(scalars) == {"kind", "alpha", "n_iterations", "lv_count"}
        assert json.loads(paths[0].read_text())["sections"] == {"subsample": scalars}


class TestPlotData:
    def full_report(self):
        ds = generate_null(100, 3, 2, seed=4)
        cfg = ExperimentConfig(n_perm=20, n_boot=100, n_split=10, seed=5)
        res = run_full_sample(ds.x, ds.y, cfg)
        return ReportDocument.build(
            kind="fit", seed=5, config={},
            sections={"full_sample": full_sample_section(res)},
        )

    def test_detectability_bars_schema(self, tmp_path):
        ds = generate_null(80, 3, 2, seed=6)
        cfg = ExperimentConfig(sample_sizes=(30,), n_iterations=4, n_perm=20, seed=7)
        rep = run_detectability(ds.x, ds.y, cfg)
        doc = ReportDocument.build(kind="sweep", seed=7, config={},
                                   sections={"subsample": subsample_section(rep)})
        [path] = emit_plot_data(doc, "detectability-bars", tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0] == "method,sample_size,lv,value"
        assert len(lines) == 1 + 2 * 2  # two methods x two LVs

    def test_weight_intervals_schema(self, tmp_path):
        doc = self.full_report()
        paths = emit_plot_data(doc, "weight-intervals", tmp_path)
        assert {p.name for p in paths} == {
            "weight_intervals_pls.csv", "weight_intervals_cca.csv",
        }
        lines = paths[0].read_text().splitlines()
        assert lines[0] == "block,variable,lv,lower,upper,stable"
        assert len(lines) == 1 + (3 + 2) * 2

    def test_z_distributions_wide_schema(self, tmp_path):
        doc = self.full_report()
        with pytest.raises(MissingSection):
            emit_plot_data(doc, "z-distributions", tmp_path)
        from crossblock import split_half, train_test
        from crossblock.io import result_section

        ds = generate_null(100, 3, 2, seed=8)
        tt = train_test(ds.x, ds.y, "pls", n_split=12, seed=9)
        sh = split_half(ds.x, ds.y, "pls", n_split=12, seed=9)
        doc2 = ReportDocument.build(
            kind="reproduce", seed=9, config={},
            sections={"reproducibility_pls": {
                "train_test": result_section(tt, bulk=True),
                "split_half": result_section(sh, bulk=True),
            }},
        )
        paths = emit_plot_data(doc2, "z-distributions", tmp_path)
        names = {p.name for p in paths}
        assert "z_distribution_reproducibility_pls_train_test.csv" in names
        first = sorted(paths)[0].read_text().splitlines()
        assert first[0].startswith("draw,lv1,lv2")
        assert len(first) == 13

    def test_eigenspectrum_requires_pca(self, tmp_path):
        doc = self.full_report()
        with pytest.raises(MissingSection):
            emit_plot_data(doc, "eigenspectrum", tmp_path)

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot_data(self.full_report(), "pie-chart", tmp_path)


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_simulate_fit_cycle(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert self.run("simulate", "null", "--n", "200", "--p", "4", "--q", "3",
                        "--seed", "2", "--out-dir", str(data)) == 0
        out = tmp_path / "out"
        assert self.run("fit", "--x", str(data / "x.csv"), "--y", str(data / "y.csv"),
                        "--permutations", "30", "--bootstraps", "100", "--splits", "10",
                        "--seed", "5", "--out-dir", str(out)) == 0
        report = json.loads((out / "fit.json").read_text())
        assert report["metadata"]["seed"] == 5
        assert "pls" in report["sections"]["full_sample"]["per_method"]

    def test_seeded_reruns_byte_identical(self, tmp_path):
        data = tmp_path / "data"
        self.run("simulate", "null", "--n", "150", "--p", "3", "--q", "2",
                 "--seed", "4", "--out-dir", str(data))
        args = ("fit", "--x", str(data / "x.csv"), "--y", str(data / "y.csv"),
                "--permutations", "25", "--bootstraps", "100", "--splits", "8",
                "--seed", "11")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert self.run(*args, "--out-dir", str(out1)) == 0
        assert self.run(*args, "--out-dir", str(out2)) == 0
        assert (out1 / "fit.json").read_bytes() == (out2 / "fit.json").read_bytes()

    @pytest.mark.parametrize("command", [
        ("fit", "--permutations", "20", "--bootstraps", "100", "--splits", "6"),
        ("bootstrap", "--bootstraps", "100"),
        ("sweep", "--kind", "detectability", "--iterations", "4", "--permutations", "20",
         "--splits", "4", "--sample-sizes", "60,30"),
    ])
    def test_reports_identical_across_thread_counts(self, tmp_path, command):
        data = tmp_path / "data"
        self.run("simulate", "null", "--n", "150", "--p", "3", "--q", "2",
                 "--seed", "4", "--out-dir", str(data))
        args = (*command, "--x", str(data / "x.csv"), "--y", str(data / "y.csv"),
                "--seed", "11")
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            assert self.run(*args, "--threads", threads, "--out-dir", str(out)) == 0
            [path] = out.glob("*.json")
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]
        metadata = json.loads(reports[0])["metadata"]
        assert metadata["stream_contract"] == 2
        assert "threads" not in metadata["config"]

    @pytest.mark.parametrize("command", [
        ("permute", "--permutations", "40"),
        ("fit", "--permutations", "40", "--bootstraps", "100", "--splits", "6"),
    ])
    def test_permutation_threads_leave_reports_unchanged(self, tmp_path, command):
        data = tmp_path / "data"
        self.run("simulate", "null", "--n", "150", "--p", "3", "--q", "2",
                 "--seed", "4", "--out-dir", str(data))
        args = (*command, "--x", str(data / "x.csv"), "--y", str(data / "y.csv"),
                "--seed", "11")
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            seen = []

            def recording(*a):  # the resamplers' thread count is map_draws's last argument
                seen.append(a[-1])
                return parallel.map_draws(*a)

            with mock.patch("crossblock.inference.map_draws", recording):
                assert self.run(*args, "--threads", threads, "--out-dir", str(out)) == 0
            assert set(seen) == {int(threads)}
            [path] = out.glob("*.json")
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]
        metadata = json.loads(reports[0])["metadata"]
        assert metadata["stream_contract"] == 2 and metadata["numerics_contract"] == 5

    @pytest.mark.parametrize("kind", ["fpr", "detectability"])
    def test_sweep_reports_identical_across_runs_and_thread_counts(self, tmp_path, kind):
        if kind == "fpr":
            blocks = ("--fpr-n", "300", "--fpr-p", "4", "--fpr-q", "2")
        else:
            data = tmp_path / "data"
            self.run("simulate", "null", "--n", "150", "--p", "3", "--q", "2",
                     "--seed", "4", "--out-dir", str(data))
            blocks = ("--x", str(data / "x.csv"), "--y", str(data / "y.csv"))
        args = ("sweep", "--kind", kind, "--iterations", "4", "--permutations", "20",
                "--sample-sizes", "60,30", "--seed", "11", *blocks)
        reports = []
        for run, threads in enumerate(("1", "1", "2", "8")):  # a repeated run, then more threads
            out = tmp_path / f"run{run}"
            assert self.run(*args, "--threads", threads, "--out-dir", str(out)) == 0
            reports.append((out / f"sweep_{kind}.json").read_bytes())
        assert len(set(reports)) == 1

    def test_simulate_subspace_writes_truth(self, tmp_path):
        data = tmp_path / "sub"
        assert self.run("simulate", "subspace", "--n", "100", "--p", "8",
                        "--relevant-counts", "3", "--relpos", "1,2", "--m", "3",
                        "--ypos", "1,2", "--r2", "0.3", "--gamma", "0.4",
                        "--seed", "6", "--out-dir", str(data)) == 0
        for name in ("x.csv", "y.csv", "truth.json", "truth_cov_xx.csv",
                     "truth_cov_xy.csv", "truth_cov_yy.csv"):
            assert (data / name).exists()

    def test_config_file_and_flag_override(self, tmp_path):
        data = tmp_path / "d"
        self.run("simulate", "null", "--n", "120", "--p", "3", "--q", "2",
                 "--seed", "1", "--out-dir", str(data))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"permutations": 15, "seed": 9, "method": "pls"}))
        out = tmp_path / "out"
        assert self.run("permute", "--x", str(data / "x.csv"), "--y", str(data / "y.csv"),
                        "--config", str(cfg), "--out-dir", str(out)) == 0
        rep = json.loads((out / "permute.json").read_text())
        assert rep["metadata"]["seed"] == 9
        assert rep["metadata"]["config"]["permutations"] == 15
        assert list(rep["sections"]) == ["permutation_pls"]

    @pytest.mark.parametrize("config, key", [
        ({"permutation": 5}, "permutation"),  # misspelled: would run at 1000
        ({"permutations": "5"}, "permutations"),
        ({"permutations": True}, "permutations"),
        ({"sample_sizes": [60, 2.5]}, "sample_sizes"),
        ({"format": "xml"}, "format"),  # would fail only after the run
        ({"method": "PLS"}, "method"),  # would run as an unknown section name
    ], ids=["misspelled", "string", "bool", "float-entry", "format-choice", "method-choice"])
    def test_bad_config_file_exits_2_naming_the_key(self, tmp_path, capsys, config, key):
        data = tmp_path / "d"
        self.run("simulate", "null", "--n", "120", "--p", "3", "--q", "2",
                 "--seed", "1", "--out-dir", str(data))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        capsys.readouterr()
        assert self.run("permute", "--x", str(data / "x.csv"), "--y", str(data / "y.csv"),
                        "--config", str(cfg), "--out-dir", str(out)) == 2
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    def test_fit_refuses_too_few_bootstraps_before_any_resampling(self, tmp_path, capsys):
        data = tmp_path / "d"
        self.run("simulate", "null", "--n", "60", "--p", "3", "--q", "2",
                 "--seed", "1", "--out-dir", str(data))
        out = tmp_path / "out"
        capsys.readouterr()
        with mock.patch.object(cli, "run_full_sample",
                               side_effect=AssertionError("resampling ran")):
            assert self.run("fit", "--x", str(data / "x.csv"), "--y", str(data / "y.csv"),
                            "--bootstraps", "50", "--out-dir", str(out)) == 2
        assert "n_boot must be at least 100" in capsys.readouterr().err
        assert not out.exists()

    def test_plot_data_takes_out_dir_from_the_config_file(self, tmp_path, monkeypatch):
        report = tmp_path / "out"
        assert self.run("sweep", "--kind", "fpr", "--iterations", "3",
                        "--permutations", "10", "--sample-sizes", "40",
                        "--fpr-n", "200", "--fpr-p", "4", "--fpr-q", "2",
                        "--seed", "3", "--out-dir", str(report)) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out_dir": str(tmp_path / "from_config")}))
        monkeypatch.chdir(tmp_path)
        args = ("plot-data", "--report", str(report / "sweep_fpr.json"),
                "--kind", "detectability-bars", "--config", str(cfg))
        assert self.run(*args) == 0
        assert (tmp_path / "from_config" / "detectability_bars.csv").exists()
        assert not (tmp_path / "detectability_bars.csv").exists()
        assert self.run(*args, "--out-dir", str(tmp_path / "from_flag")) == 0
        assert (tmp_path / "from_flag" / "detectability_bars.csv").exists()

    @pytest.mark.parametrize("flag, config", [
        (("--pca-components", "0.5"), None),
        (("--pca-components", "0"), None),
        (("--pca-components", "auto"), None),
        (("--pca-components", "inf"), None),
        ((), {"pca_components": 2.7}),  # would be truncated to 2
    ], ids=["0.5", "0", "auto", "inf", "config-2.7"])
    def test_pca_stability_components_must_be_a_positive_integer(self, tmp_path, capsys,
                                                                 flag, config):
        data = tmp_path / "d"
        self.run("simulate", "null", "--n", "60", "--p", "4", "--q", "2",
                 "--seed", "2", "--out-dir", str(data))
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            flag = ("--config", str(cfg))
        capsys.readouterr()
        assert self.run("pca", "stability", "--x", str(data / "x.csv"), "--sample-sizes", "30",
                        "--iterations", "3", *flag, "--out-dir", str(tmp_path / "out")) == 2
        assert "--pca-components" in capsys.readouterr().err

    @pytest.mark.parametrize("splits", ["0", "1"])
    @pytest.mark.parametrize("command", ["fit", "reproduce"])
    def test_fewer_than_two_splits_exit_2_naming_the_flag(self, tmp_path, capsys, command,
                                                           splits):
        # a z score divides by the spread of the splits, which one split lacks
        data = tmp_path / "d"
        self.run("simulate", "null", "--n", "60", "--p", "3", "--q", "2",
                 "--seed", "1", "--out-dir", str(data))
        out = tmp_path / "out"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.run(command, "--x", str(data / "x.csv"), "--y", str(data / "y.csv"),
                            "--splits", splits, "--out-dir", str(out)) == 2
        assert "n_split (--splits) must be at least 2 for a z score" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("iterations", ["0", "1"])
    def test_pca_stability_needs_two_iterations(self, tmp_path, capsys, iterations):
        data = tmp_path / "d"
        self.run("simulate", "null", "--n", "60", "--p", "4", "--q", "2",
                 "--seed", "2", "--out-dir", str(data))
        out = tmp_path / "out"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.run("pca", "stability", "--x", str(data / "x.csv"),
                            "--sample-sizes", "30", "--iterations", iterations,
                            "--out-dir", str(out)) == 2
        assert "n_iter (--iterations) must be at least 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan", "two"])
    def test_unparsable_pca_components_exits_2_naming_the_flag(self, tmp_path, capsys, value):
        data = tmp_path / "d"
        self.run("simulate", "null", "--n", "60", "--p", "4", "--q", "2",
                 "--seed", "2", "--out-dir", str(data))
        capsys.readouterr()
        assert self.run("fit", "--x", str(data / "x.csv"), "--y", str(data / "y.csv"),
                        "--pca-components", value, "--out-dir", str(tmp_path / "out")) == 2
        assert "--pca-components" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ("sweep", "--kind", "fpr", "--fpr-n", "200", "--fpr-p", "4", "--fpr-q", "2",
         "--permutations", "5"),
        ("pca", "stability"),
    ], ids=["sweep-fpr", "pca-stability"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_sample_sizes_exit_2_naming_the_flag(self, tmp_path, capsys, command, source):
        data = tmp_path / "d"
        self.run("simulate", "null", "--n", "60", "--p", "4", "--q", "2",
                 "--seed", "2", "--out-dir", str(data))
        if command[0] == "pca":
            command = (*command, "--x", str(data / "x.csv"))
        sizes = ("--sample-sizes", "")
        if source == "config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"sample_sizes": []}))
            sizes = ("--config", str(cfg))
        capsys.readouterr()
        out = tmp_path / "out"
        assert self.run(*command, *sizes, "--iterations", "3", "--out-dir", str(out)) == 2
        assert "--sample-sizes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ("sweep", "--kind", "fpr", "--fpr-n", "200", "--fpr-p", "4", "--fpr-q", "2",
         "--permutations", "5"),
        ("pca", "stability"),
    ], ids=["sweep-fpr", "pca-stability"])
    def test_a_repeated_sample_size_exits_2_naming_it(self, tmp_path, capsys, command):
        data = tmp_path / "d"
        self.run("simulate", "null", "--n", "60", "--p", "4", "--q", "2",
                 "--seed", "2", "--out-dir", str(data))
        if command[0] == "pca":
            command = (*command, "--x", str(data / "x.csv"))
        capsys.readouterr()
        out = tmp_path / "out"
        assert self.run(*command, "--sample-sizes", "50,50,9", "--iterations", "3",
                        "--out-dir", str(out)) == 2
        assert "sample size 50 is listed more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ("sweep", "--kind", "fpr", "--fpr-n", "200", "--fpr-p", "4", "--fpr-q", "2",
         "--permutations", "5"),
        ("pca", "stability"),
    ], ids=["sweep-fpr", "pca-stability"])
    def test_a_sample_size_above_the_population_exits_2_naming_both(self, tmp_path, capsys,
                                                                     command):
        data = tmp_path / "d"
        self.run("simulate", "null", "--n", "200", "--p", "4", "--q", "2",
                 "--seed", "2", "--out-dir", str(data))
        if command[0] == "pca":
            command = (*command, "--x", str(data / "x.csv"))
        capsys.readouterr()
        out = tmp_path / "out"
        assert self.run(*command, "--sample-sizes", "9,250", "--iterations", "3",
                        "--out-dir", str(out)) == 2
        assert "sample size 250 exceeds the population's 200 rows" in capsys.readouterr().err
        assert not out.exists()

    def test_a_refused_flag_returns_2_and_help_returns_0(self, capsys):
        assert self.run("permute", "--x", "a", "--y", "b", "--permutations", "x") == 2
        assert "argument --permutations: invalid int value: 'x'" in capsys.readouterr().err
        assert self.run("permute", "--help") == 0
        assert "--permutations" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (("sweep", "--kind", "fpr", "--sample-sizes", "500,abc"),
         "argument --sample-sizes: expected comma-separated integers, got '500,abc'"),
        (("simulate", "subspace", "--r2", "0.2,x"),
         "argument --r2: expected comma-separated numbers, got '0.2,x'"),
        (("simulate", "subspace", "--relpos", "1,x"),
         "argument --relpos: expected ';'-separated groups of comma-separated integers, "
         "got '1,x'"),
    ], ids=["int-list", "float-list", "groups"])
    def test_a_refused_list_flag_names_the_expected_form(self, tmp_path, capsys, argv, message):
        assert self.run(*argv, "--out-dir", str(tmp_path / "out")) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_exit_codes(self, tmp_path, capsys):
        data = tmp_path / "d"
        self.run("simulate", "null", "--n", "6", "--p", "8", "--q", "2",
                 "--seed", "1", "--out-dir", str(data))
        # missing file -> I/O error
        assert self.run("fit", "--x", str(tmp_path / "nope.csv"),
                        "--y", str(data / "y.csv")) == 4
        # rank-deficient CCA on n <= p data -> numerical failure
        assert self.run("permute", "--x", str(data / "x.csv"),
                        "--y", str(data / "y.csv"), "--method", "cca",
                        "--permutations", "10", "--out-dir", str(tmp_path)) == 3
        # malformed csv -> input error
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,x\n2,3\n")
        assert self.run("fit", "--x", str(bad), "--y", str(data / "y.csv"),
                        "--out-dir", str(tmp_path)) == 2

    def test_sweep_and_plot_data(self, tmp_path):
        out = tmp_path / "out"
        assert self.run("sweep", "--kind", "fpr", "--iterations", "6",
                        "--permutations", "25", "--sample-sizes", "40,20",
                        "--fpr-n", "300", "--fpr-p", "4", "--fpr-q", "2",
                        "--seed", "3", "--out-dir", str(out)) == 0
        plots = tmp_path / "plots"
        assert self.run("plot-data", "--report", str(out / "sweep_fpr.json"),
                        "--kind", "detectability-bars", "--out-dir", str(plots)) == 0
        assert (plots / "detectability_bars.csv").exists()

    def test_pca_commands(self, tmp_path):
        data = tmp_path / "d"
        self.run("simulate", "null", "--n", "150", "--p", "5", "--q", "2",
                 "--seed", "2", "--out-dir", str(data))
        out = tmp_path / "out"
        assert self.run("pca", "fit", "--x", str(data / "x.csv"),
                        "--out-dir", str(out)) == 0
        assert self.run("pca", "scores", "--x", str(data / "x.csv"),
                        "--pca-components", "2",
                        "--scores-out", str(out / "scores.csv")) == 0
        scores = load_csv(out / "scores.csv")
        assert scores.k == 2
        assert self.run("pca", "stability", "--x", str(data / "x.csv"),
                        "--sample-sizes", "60,30", "--iterations", "15",
                        "--seed", "4", "--out-dir", str(out)) == 0
        rep = json.loads((out / "pca_stability.json").read_text())
        assert rep["sections"]["pca_stability"]["cells"]

    def test_csv_format_bundle(self, tmp_path):
        data = tmp_path / "d"
        self.run("simulate", "null", "--n", "100", "--p", "3", "--q", "2",
                 "--seed", "8", "--out-dir", str(data))
        out = tmp_path / "out"
        assert self.run("fit", "--x", str(data / "x.csv"), "--y", str(data / "y.csv"),
                        "--permutations", "15", "--bootstraps", "100", "--splits", "6",
                        "--seed", "2", "--format", "csv", "--out-dir", str(out)) == 0
        bundle = out / "fit"
        per_method = [f"full_sample.per_method.{m}.{t}.csv" for m in ("pls", "cca")
                      for t in ("bootstrap.x", "bootstrap.y", "permutation", "train_test",
                                "split_half")]
        assert sorted(p.name for p in bundle.iterdir()) == sorted([
            "metadata.json", "full_sample.per_method.cca.bartlett.csv", *per_method])
        # a degenerate z is flagged, not only an empty cell, and n_failed is kept
        train_test = bundle / "full_sample.per_method.pls.train_test.csv"
        assert train_test.read_text().splitlines()[0] == "lv,z,degenerate"
        meta = json.loads((bundle / "metadata.json").read_text())["sections"]
        assert meta["full_sample"]["per_method"]["pls"]["train_test"] == {
            "n_failed": 0, "n_split": 6}
        # the block labels sit with the values no table holds, whatever the block widths
        assert meta["full_sample"]["x_labels"] == ["x1", "x2", "x3"]
        assert meta["full_sample"]["y_labels"] == ["y1", "y2"]

    @pytest.mark.parametrize("swap", [False, True])
    def test_fit_reports_cca_not_run_for_collinear_block(self, tmp_path, swap):
        rng = np.random.default_rng(12)
        x = DataBlock(rng.normal(size=(300, 4)), ("x1", "x2", "x3", "x4"))
        y = rng.normal(size=(300, 3))
        y[:, 2] = y[:, 0] - y[:, 1]
        y = DataBlock(y, ("y1", "y2", "y3"))
        if swap:
            x, y = y, x
        paths = [write_block_csv(b, tmp_path / f"{n}.csv") for n, b in (("x", x), ("y", y))]
        out = tmp_path / "out"
        assert self.run("fit", "--x", str(paths[0]), "--y", str(paths[1]),
                        "--permutations", "20", "--bootstraps", "100", "--splits", "6",
                        "--seed", "1", "--out-dir", str(out)) == 0
        per_method = json.loads((out / "fit.json").read_text())["sections"]["full_sample"][
            "per_method"]
        assert per_method["pls"]["status"] == "ok"
        assert per_method["cca"]["status"] == "not-run"
        reason = per_method["cca"]["reason"]
        assert f"of {'x' if swap else 'y'!r} is rank deficient" in reason
        assert "smallest eigenvalue" in reason and "tolerance" in reason

    def test_fit_keeps_pls_when_cca_halves_cannot_clear_the_guard(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        x = DataBlock(rng.normal(size=(6, 3)), ("x1", "x2", "x3"))
        y = DataBlock(rng.normal(size=(6, 2)), ("y1", "y2"))
        paths = [write_block_csv(b, tmp_path / f"{n}.csv") for n, b in (("x", x), ("y", y))]
        out = tmp_path / "out"
        assert self.run("fit", "--x", str(paths[0]), "--y", str(paths[1]), "--method", "both",
                        "--permutations", "20", "--bootstraps", "100", "--splits", "2",
                        "--out-dir", str(out)) == 0
        per_method = json.loads((out / "fit.json").read_text())["sections"]["full_sample"][
            "per_method"]
        assert per_method["pls"]["status"] == "ok"
        assert per_method["cca"] == {
            "status": "not-run",
            "reason": "half-sample rank guard: sample size 3 does not exceed the 3 X variables",
        }

    def test_pca_stability_on_one_column_names_the_flag_and_its_default(self, tmp_path,
                                                                          capsys):
        path = write_block_csv(DataBlock(np.random.default_rng(0).normal(size=(40, 1)), ("a",)),
                               tmp_path / "x.csv")
        capsys.readouterr()
        assert self.run("pca", "stability", "--x", str(path), "--sample-sizes", "20",
                        "--iterations", "3", "--out-dir", str(tmp_path / "out")) == 2
        assert ("n_pc (--pca-components, default 2) must be in [1, 1]"
                in capsys.readouterr().err)

    def test_pca_stability_names_a_column_constant_in_a_subsample(self, tmp_path, capsys):
        values = np.random.default_rng(0).normal(size=(200, 3))
        values[:, 1] = 0.0
        values[7, 1] = 1.0  # rare: constant in any subsample without row 8
        path = write_block_csv(DataBlock(values, ("age", "rare", "score")), tmp_path / "x.csv")
        capsys.readouterr()
        assert self.run("pca", "stability", "--x", str(path), "--sample-sizes", "20",
                        "--iterations", "5", "--out-dir", str(tmp_path / "out")) == 2
        assert "column 'rare' is constant" in capsys.readouterr().err

    def test_bootstrap_giving_up_names_the_last_draws_cause(self, tmp_path, capsys):
        # 12 rows resampled rarely hold 10 distinct ones, so X fails the rank guard
        rng = np.random.default_rng(0)
        x = write_block_csv(DataBlock(rng.normal(size=(12, 10)),
                                      tuple(f"x{j}" for j in range(10))), tmp_path / "x.csv")
        y = write_block_csv(DataBlock(rng.normal(size=(12, 2)), ("y1", "y2")), tmp_path / "y.csv")
        capsys.readouterr()
        assert self.run("bootstrap", "--method", "cca", "--x", str(x), "--y", str(y),
                        "--bootstraps", "100", "--out-dir", str(tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert "100 degenerate draws in a row" in err
        assert "the last: within-block correlation of 'x' is rank deficient" in err

    def test_pca_component_count_capped_alike_in_fit_and_scores(self, tmp_path):
        data = tmp_path / "d"
        self.run("simulate", "null", "--n", "150", "--p", "50", "--q", "2",
                 "--seed", "3", "--out-dir", str(data))
        x, y = str(data / "x.csv"), str(data / "y.csv")
        out = tmp_path / "out"
        assert self.run("pca", "scores", "--x", x, "--pca-components", "60",
                        "--scores-out", str(out / "scores.csv")) == 0
        assert load_csv(out / "scores.csv").k == 50
        assert self.run("fit", "--x", x, "--y", y, "--method", "pls",
                        "--permutations", "10", "--bootstraps", "100", "--splits", "4",
                        "--pca-components", "60", "--out-dir", str(out)) == 0
        section = json.loads((out / "fit.json").read_text())["sections"]["full_sample"]
        assert section["n_components_used"] == 50
        assert len(section["x_labels"]) == 50


# Every subcommand's flags as parsed: option string -> (default, choices, required).
_OPT, _REQ = (None, None, False), (None, None, True)
_METHODS, _FORMATS = ("pls", "cca", "both"), ("json", "csv")
_COMMON_FLAGS = {"--config": _OPT, "--seed": _OPT, "--out-dir": _OPT,
                 "--format": (None, _FORMATS, False), "--threads": _OPT}
_ANALYSIS_FLAGS = {**_COMMON_FLAGS, "--x": _REQ, "--y": _REQ,
                   "--method": (None, _METHODS, False)}
FLAGS = {
    "simulate null": {**_COMMON_FLAGS, "--n": (10000, None, False), "--p": (10, None, False),
                      "--q": (5, None, False)},
    "simulate subspace": {
        **_COMMON_FLAGS, "--n": (10000, None, False), "--p": (50, None, False),
        "--relevant-counts": ((15, 10), None, False),
        "--relpos": (((1, 2), (3, 4, 6)), None, False), "--gamma": (0.6, None, False),
        "--m": (4, None, False), "--ypos": (((1, 3), (2, 4)), None, False),
        "--eta": (0.0, None, False), "--r2": ((0.2, 0.1), None, False),
    },
    "fit": {**_ANALYSIS_FLAGS, "--permutations": _OPT, "--bootstraps": _OPT, "--splits": _OPT,
            "--pca-components": _OPT},
    "permute": {**_ANALYSIS_FLAGS, "--permutations": _OPT},
    "bootstrap": {**_ANALYSIS_FLAGS, "--bootstraps": _OPT},
    "reproduce": {**_ANALYSIS_FLAGS, "--splits": _OPT, "--null-calibrate": (False, None, False)},
    "sweep": {
        **_COMMON_FLAGS, "--kind": (None, ("detectability", "fpr", "reproducibility"), True),
        "--x": _OPT, "--y": _OPT, "--method": (None, _METHODS, False), "--sample-sizes": _OPT,
        "--iterations": _OPT, "--permutations": _OPT, "--splits": _OPT, "--alpha": _OPT,
        "--pca-components": _OPT, "--fpr-n": (10000, None, False),
        "--fpr-p": (10, None, False), "--fpr-q": (5, None, False),
    },
    "pca fit": {**_COMMON_FLAGS, "--x": _REQ},
    "pca scores": {**_COMMON_FLAGS, "--x": _REQ, "--pca-components": _OPT,
                   "--scores-out": _OPT},
    "pca stability": {**_COMMON_FLAGS, "--x": _REQ, "--sample-sizes": _OPT,
                      "--iterations": _OPT, "--pca-components": _OPT,
                      "--align": (True, None, False), "--no-align": (True, None, False)},
    "plot-data": {"--config": _OPT, "--out-dir": _OPT, "--report": _REQ,
                  "--kind": (None, ("detectability-bars", "weight-intervals",
                                    "eigenspectrum", "z-distributions"), True)},
}

# One argv per subcommand that sets every flag, and the namespace it parses to.
_COMMON_ARGV = ("--config", "c.json", "--seed", "7", "--out-dir", "o", "--format", "csv",
                "--threads", "2")
_COMMON_VARS = {"config": "c.json", "seed": 7, "out_dir": "o", "format": "csv", "threads": 2}
_XY_ARGV = ("--x", "x.csv", "--y", "y.csv")
PARSED = {
    "simulate null": (
        ("simulate", "null", "--n", "50", "--p", "3", "--q", "2"),
        {"command": "simulate", "generator": "null", "n": 50, "p": 3, "q": 2},
    ),
    "simulate subspace": (
        ("simulate", "subspace", "--n", "60", "--p", "8", "--relevant-counts", "3,2",
         "--relpos", "1,2;3", "--gamma", "0.5", "--m", "3", "--ypos", "1;2,3", "--eta", "0.1",
         "--r2", "0.3,0.2"),
        {"command": "simulate", "generator": "subspace", "n": 60, "p": 8,
         "relevant_counts": (3, 2), "relpos": ((1, 2), (3,)), "gamma": 0.5, "m": 3,
         "ypos": ((1,), (2, 3)), "eta": 0.1, "r2": (0.3, 0.2)},
    ),
    "fit": (
        ("fit", *_XY_ARGV, "--method", "cca", "--permutations", "11", "--bootstraps", "120",
         "--splits", "9", "--pca-components", "auto"),
        {"command": "fit", "x": "x.csv", "y": "y.csv", "method": "cca", "permutations": 11,
         "bootstraps": 120, "splits": 9, "pca_components": "auto"},
    ),
    "permute": (
        ("permute", *_XY_ARGV, "--method", "pls", "--permutations", "11"),
        {"command": "permute", "x": "x.csv", "y": "y.csv", "method": "pls",
         "permutations": 11},
    ),
    "bootstrap": (
        ("bootstrap", *_XY_ARGV, "--method", "both", "--bootstraps", "120"),
        {"command": "bootstrap", "x": "x.csv", "y": "y.csv", "method": "both",
         "bootstraps": 120},
    ),
    "reproduce": (
        ("reproduce", *_XY_ARGV, "--method", "cca", "--splits", "9", "--null-calibrate"),
        {"command": "reproduce", "x": "x.csv", "y": "y.csv", "method": "cca", "splits": 9,
         "null_calibrate": True},
    ),
    "sweep": (
        ("sweep", "--kind", "fpr", *_XY_ARGV, "--method", "pls", "--sample-sizes", "30,20",
         "--iterations", "4", "--permutations", "11", "--splits", "9", "--alpha", "0.1",
         "--pca-components", "0.9", "--fpr-n", "100", "--fpr-p", "4", "--fpr-q", "2"),
        {"command": "sweep", "kind": "fpr", "x": "x.csv", "y": "y.csv", "method": "pls",
         "sample_sizes": (30, 20), "iterations": 4, "permutations": 11, "splits": 9,
         "alpha": 0.1, "pca_components": "0.9", "fpr_n": 100, "fpr_p": 4, "fpr_q": 2},
    ),
    "pca fit": (
        ("pca", "fit", "--x", "x.csv"),
        {"command": "pca", "task": "fit", "x": "x.csv"},
    ),
    "pca scores": (
        ("pca", "scores", "--x", "x.csv", "--pca-components", "3", "--scores-out", "s.csv"),
        {"command": "pca", "task": "scores", "x": "x.csv", "pca_components": "3",
         "scores_out": "s.csv"},
    ),
    "pca stability": (
        ("pca", "stability", "--x", "x.csv", "--sample-sizes", "30,20", "--iterations", "4",
         "--pca-components", "2", "--no-align"),
        {"command": "pca", "task": "stability", "x": "x.csv", "sample_sizes": (30, 20),
         "iterations": 4, "pca_components": "2", "align": False},
    ),
    "plot-data": (  # the one command without the common flags
        ("plot-data", "--report", "r.json", "--kind", "eigenspectrum", "--out-dir", "o",
         "--config", "c.json"),
        {"command": "plot-data", "report": "r.json", "kind": "eigenspectrum", "out_dir": "o",
         "config": "c.json"},
    ),
}


def _leaf_parsers(parser, path=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
        return
    for name, child in subs[0].choices.items():
        yield from _leaf_parsers(child, (*path, name))


class TestCliFlags:
    """Pins every subcommand's flags, so a refactor of their declaration that
    drops, adds or re-types one fails here."""

    def test_every_subcommand_is_pinned(self):
        assert {path for path, _ in _leaf_parsers(cli.build_parser())} == set(FLAGS)
        assert set(PARSED) == set(FLAGS)

    @pytest.mark.parametrize("path", sorted(FLAGS))
    def test_option_strings_defaults_choices_and_required(self, path):
        parser = dict(_leaf_parsers(cli.build_parser()))[path]
        got = {
            "/".join(a.option_strings):
                (a.default, tuple(a.choices) if a.choices else None, a.required)
            for a in parser._actions if not isinstance(a, argparse._HelpAction)
        }
        assert got == FLAGS[path]

    @pytest.mark.parametrize("path", sorted(FLAGS))
    def test_an_argv_setting_every_flag_parses_to_typed_values(self, path):
        argv, expected = PARSED[path]
        if path != "plot-data":
            argv, expected = argv + _COMMON_ARGV, {**expected, **_COMMON_VARS}
        got = vars(cli.build_parser().parse_args(list(argv)))
        # repr tells 11 from 11.0 and (3, 2) from [3, 2], which == does not
        assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in expected.items()}
