"""CSV ingestion, report documents, and plot-ready data emission.

Reports are plain JSON documents with a canonical serialization: keys are
sorted, floats use their shortest exact decimal representation, and
non-finite values are stored as null. Serialize -> parse -> serialize is
byte-identical, and because every random stream is seed-derived, rerunning
a command with the same seed rewrites the same bytes.

CSV files follow RFC-4180 conventions: UTF-8, a header row, comma
separator, decimal points, no thousands separators.
"""

import csv
import json
import os
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .blocks import DataBlock
from .decomposition import NUMERICS_CONTRACT
from .errors import EmptyFile, MissingSection, NonNumericCell, RaggedRows
from .harness import AnyLvCell, FullSampleResult, SubsampleCell, SubsampleReport
from .inference import BootstrapResult
from .pca import PcaStabilityResult
from .rng import STREAM_CONTRACT

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# CSV data blocks
# ---------------------------------------------------------------------------

def load_csv(path) -> DataBlock:
    """Read a rectangular numeric CSV file into a DataBlock.

    The first non-blank row is the header; it is read with ``csv``, and the
    body is parsed in one ``np.loadtxt`` call. When that fast parse fails
    (a cell it cannot read, a row width that differs from the header, no
    data rows, or a non-finite value), the file is scanned again cell by
    cell with ``csv`` and ``float``. The scan accepts what the fast parse
    does not (quoted numbers, ``1_000``, non-ASCII digits) and is the one
    place that rejects a file: ``EmptyFile`` when there are no data rows,
    ``RaggedRows`` with the row of the first row whose width differs, and
    ``NonNumericCell`` with the row and column of the first empty,
    non-numeric or non-finite cell. Coordinates are 1-based and count every
    row of the file, the header and blank rows included.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        # readline, not iteration, so that fh.tell() stays usable
        reader = csv.reader(iter(fh.readline, ""))
        labels = tuple(c.strip() for c in next((r for r in reader if r), ()))
        values = _parse_body(fh)
    if values is None or values.shape[1] != len(labels):
        return _scan_csv(path)
    return DataBlock(values, labels)


def _parse_body(fh):
    """The rest of ``fh`` as a finite float matrix, or None if the fast parse fails."""
    start = fh.tell()
    # np.loadtxt warns on input without data rows; leave those to the scan
    if not any(line.strip("\r\n") for line in iter(fh.readline, "")):
        return None
    fh.seek(start)
    try:
        values = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _scan_csv(path: Path) -> DataBlock:
    """Parse cell by cell, raising ParseErrors with 1-based file coordinates."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [(i, r) for i, r in enumerate(csv.reader(fh), 1) if r]
    if not rows:
        raise EmptyFile(f"{path} contains no data")
    labels = tuple(c.strip() for c in rows[0][1])
    body = rows[1:]
    if not body:
        raise EmptyFile(f"{path} has a header but no data rows")
    width = len(labels)
    values = np.empty((len(body), width))
    for i, (row_no, row) in enumerate(body):
        if len(row) != width:
            raise RaggedRows(f"expected {width} fields, found {len(row)}", row=row_no)
        for j, cell in enumerate(row):
            try:
                v = float(cell)
            except ValueError:
                raise NonNumericCell(
                    f"cell {cell!r} is not numeric", row=row_no, col=j + 1
                ) from None
            if not np.isfinite(v):
                raise NonNumericCell(f"cell {cell!r} is not finite", row=row_no, col=j + 1)
            values[i, j] = v
    return DataBlock(values, labels)


def write_block_csv(block: DataBlock, path) -> Path:
    """Write a DataBlock with full-precision decimal values."""
    return _write_table(Path(path), block.labels, block.values.tolist())


def write_matrix_csv(matrix: np.ndarray, path) -> Path:
    """Write a bare matrix with generated column headers c1..ck."""
    matrix = np.atleast_2d(matrix)
    return _write_table(Path(path), [f"c{j + 1}" for j in range(matrix.shape[1])],
                        matrix.tolist())


# ---------------------------------------------------------------------------
# Report documents
# ---------------------------------------------------------------------------

def _plain(obj):
    """Convert to JSON-safe plain Python; non-finite floats become None."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None
    return obj


def _canonical_json(obj) -> str:
    """The one serialization of every JSON file a run writes: sorted keys,
    2-space indent, no NaN, and a closing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _timestamp() -> str | None:
    """Deterministic timestamp: only SOURCE_DATE_EPOCH produces one.

    Reports must be byte-identical across reruns with the same seed, so
    wall-clock time is never written implicitly.
    """
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return None
    return datetime.fromtimestamp(int(epoch), tz=timezone.utc).isoformat()


@dataclass(frozen=True)
class ReportDocument:
    """A versioned, canonically serializable analysis report."""

    data: dict

    @classmethod
    def build(cls, kind: str, seed, config: dict, sections: dict) -> "ReportDocument":
        return cls(
            data=_plain(
                {
                    "schema_version": SCHEMA_VERSION,
                    "metadata": {
                        "tool": "crossblock",
                        "version": __version__,
                        "kind": kind,
                        "seed": seed,
                        "stream_contract": STREAM_CONTRACT,
                        "numerics_contract": NUMERICS_CONTRACT,
                        "created_at": _timestamp(),
                        "config": config,
                    },
                    "sections": sections,
                }
            )
        )

    @classmethod
    def from_json(cls, text: str) -> "ReportDocument":
        return cls(data=json.loads(text))

    def to_json(self) -> str:
        return _canonical_json(self.data)

    def section(self, name: str) -> dict:
        try:
            return self.data["sections"][name]
        except KeyError:
            raise MissingSection(f"report has no {name!r} section") from None

    @property
    def sections(self) -> dict:
        return self.data.get("sections", {})

    @property
    def metadata(self) -> dict:
        return self.data.get("metadata", {})


# ---------------------------------------------------------------------------
# Section builders (result dataclasses -> JSON-plain dicts)
# ---------------------------------------------------------------------------

# Fields a result's section carries only with ``bulk``: per-draw arrays and eigenvectors.
_BULK_FIELDS = ("null_singular_values", "draws", "u_draws", "v_draws", "eigenvectors")


def result_section(result, bulk: bool) -> dict:
    """A result dataclass's fields by name, less ``_BULK_FIELDS`` unless ``bulk``."""
    return {f.name: getattr(result, f.name) for f in fields(result)
            if bulk or f.name not in _BULK_FIELDS}


def bootstrap_section(result: BootstrapResult, x_labels, y_labels) -> dict:
    return {
        "n_boot": result.n_boot,
        "x": {
            "labels": list(x_labels),
            "observed": result.observed_us,
            "lower": result.us_lower,
            "upper": result.us_upper,
            "stable": result.us_stable,
        },
        "y": {
            "labels": list(y_labels),
            "observed": result.observed_vs,
            "lower": result.vs_lower,
            "upper": result.vs_upper,
            "stable": result.vs_stable,
        },
    }


def pca_stability_section(result: PcaStabilityResult) -> dict:
    cells = []
    for row, size in enumerate(result.sample_sizes):
        for pc in range(result.n_pc):
            cells.append(
                {
                    "sample_size": size,
                    "pc": pc + 1,
                    "mean": result.mean[row, pc],
                    "sd": result.sd[row, pc],
                    "z": result.z[row, pc],
                }
            )
    return {
        "aligned": result.aligned,
        "n_iter": result.n_iter,
        "cells": cells,
    }


def full_sample_section(result: FullSampleResult) -> dict:
    per_method = {}
    for entry in result.per_method:
        if entry.status != "ok":
            per_method[entry.method] = {"status": entry.status, "reason": entry.reason}
            continue
        section = {
            "status": entry.status,
            "bootstrap": bootstrap_section(entry.bootstrap, result.x_labels, result.y_labels),
        }
        for name in ("permutation", "train_test", "split_half"):
            section[name] = result_section(getattr(entry, name), bulk=False)
        if entry.bartlett is not None:
            section["bartlett"] = [result_section(t, bulk=False) for t in entry.bartlett.tests]
        per_method[entry.method] = section
    out = {
        "x_labels": list(result.x_labels),
        "y_labels": list(result.y_labels),
        "per_method": per_method,
    }
    if result.pca_model is not None:
        out["pca"] = result_section(result.pca_model, bulk=False)
        out["n_components_used"] = result.n_components_used
    return out


def subsample_section(report: SubsampleReport) -> dict:
    """The report's fields; each cell keyed by its dataclass field names."""
    return asdict(report)


# ---------------------------------------------------------------------------
# Writing reports
# ---------------------------------------------------------------------------

def _write_table(path: Path, headers, rows) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        for row in rows:
            writer.writerow(["" if v is None else _cell(v) for v in row])
    return path


def _records_table(path: Path, headers, records) -> Path:
    """One row per record (a dict), its values in ``headers`` order."""
    return _write_table(path, headers, ([r[h] for h in headers] for r in records))


def _cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return v


def write_report(report: ReportDocument, out_dir, stem: str = "report",
                 format: str = "json") -> list[Path]:
    """Write a report as a single JSON document or a CSV bundle.

    The CSV bundle holds one table per file plus metadata.json carrying the
    seed and config needed for an exact rerun.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if format == "json":
        path = out_dir / f"{stem}.json"
        path.write_text(report.to_json(), encoding="utf-8")
        return [path]
    if format != "csv":
        raise ValueError(f"unknown report format {format!r}")
    written = []
    bundle = out_dir / stem
    bundle.mkdir(parents=True, exist_ok=True)
    meta = bundle / "metadata.json"
    meta.write_text(_canonical_json({"schema_version": report.data.get("schema_version"),
                                     "metadata": report.metadata}), encoding="utf-8")
    written.append(meta)
    for name, section in report.sections.items():
        written.extend(_section_tables(bundle, name, section))
    return written


def _section_tables(bundle: Path, name: str, section) -> list[Path]:
    out = []
    if name == "subsample":
        out.append(_records_table(bundle / "subsample_cells.csv",
                                  [f.name for f in fields(SubsampleCell)], section["cells"]))
        if section.get("any_lv"):
            out.append(_records_table(bundle / "any_lv_rejection.csv",
                                      [f.name for f in fields(AnyLvCell)], section["any_lv"]))
        return out
    if name == "full_sample":
        for method, body in section["per_method"].items():
            if body.get("status") != "ok":
                out.append(_write_table(
                    bundle / f"status_{method}.csv", ["method", "status", "reason"],
                    [[method, body.get("status"), body.get("reason")]],
                ))
                continue
            perm = body["permutation"]
            out.append(_write_table(
                bundle / f"singular_values_{method}.csv",
                ["lv", "singular_value", "p_value"],
                [[i + 1, s, p] for i, (s, p) in
                 enumerate(zip(perm["singular_values"], perm["p_values"]))],
            ))
            out.append(_write_table(
                bundle / f"reproducibility_z_{method}.csv",
                ["lv", "train_test_z", "split_half_z_u", "split_half_z_v"],
                [[i + 1, tz, zu, zv] for i, (tz, zu, zv) in enumerate(zip(
                    body["train_test"]["z"], body["split_half"]["z_u"],
                    body["split_half"]["z_v"]))],
            ))
            if "bartlett" in body:
                out.append(_records_table(
                    bundle / f"bartlett_{method}.csv",
                    ["start_lv", "chi_square", "df", "p_value"], body["bartlett"],
                ))
            out.append(_write_table(
                bundle / f"stable_weights_{method}.csv",
                ["block", "variable", "lv", "observed", "lower", "upper", "stable"],
                _weight_rows(body["bootstrap"]),
            ))
        return out
    if name == "pca":
        return [_eigenspectrum_table(bundle / "eigenspectrum.csv", section)]
    if name == "pca_stability":
        out.append(_write_table(
            bundle / "pca_stability.csv",
            ["sample_size", "pc", "mean", "sd", "z", "aligned"],
            [[c["sample_size"], c["pc"], c["mean"], c["sd"], c["z"], section["aligned"]]
             for c in section["cells"]],
        ))
        return out
    # generic sections (permutation, bootstrap, reproducibility, ...) go to JSON
    path = bundle / f"{name}.json"
    path.write_text(_canonical_json(section), encoding="utf-8")
    return [path]


def _eigenspectrum_table(path: Path, section: dict) -> Path:
    return _write_table(
        path, ["component", "eigenvalue", "cumulative_variance_fraction"],
        [[i + 1, w, f] for i, (w, f) in
         enumerate(zip(section["eigenvalues"], section["variance_fraction"]))],
    )


def _weight_rows(boot: dict):
    """(block, variable, lv, observed, lower, upper, stable) rows of a bootstrap section."""
    for block_name in ("x", "y"):
        side = boot[block_name]
        for vi, label in enumerate(side["labels"]):
            for lv, observed in enumerate(side["observed"][vi]):
                yield [block_name, label, lv + 1, observed,
                       side["lower"][vi][lv], side["upper"][vi][lv], side["stable"][vi][lv]]


# ---------------------------------------------------------------------------
# Plot-ready data emission
# ---------------------------------------------------------------------------

PLOT_KINDS = ("detectability-bars", "weight-intervals", "eigenspectrum", "z-distributions")


def emit_plot_data(report: ReportDocument, kind: str, out_dir) -> list[Path]:
    """Emit plot-ready CSV files for one figure family.

    detectability-bars: method,sample_size,lv,value (one row per bar).
    weight-intervals: block,variable,lv,lower,upper,stable (one file per method).
    eigenspectrum: component,eigenvalue,cumulative_variance_fraction.
    z-distributions: one file per metric, one column per LV, one row per draw.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if kind == "detectability-bars":
        section = report.section("subsample")
        rows = [
            [c["method"], c["sample_size"], c["lv"], c["detectability"]]
            for c in section["cells"]
            if c["status"] == "ok" and c["detectability"] is not None
        ]
        if not rows:
            raise MissingSection("report has no detectability cells")
        return [_write_table(out_dir / "detectability_bars.csv",
                             ["method", "sample_size", "lv", "value"], rows)]
    if kind == "weight-intervals":
        section = report.section("full_sample")
        written = []
        for method, body in section["per_method"].items():
            if body.get("status") != "ok":
                continue
            written.append(_write_table(
                out_dir / f"weight_intervals_{method}.csv",
                ["block", "variable", "lv", "lower", "upper", "stable"],
                (row[:3] + row[4:] for row in _weight_rows(body["bootstrap"])),
            ))
        if not written:
            raise MissingSection("report has no bootstrap results")
        return written
    if kind == "eigenspectrum":
        sections = report.sections
        section = sections.get("pca", sections.get("full_sample", {}).get("pca"))
        if section is None:
            raise MissingSection("report has no PCA section")
        return [_eigenspectrum_table(out_dir / "eigenspectrum.csv", section)]
    if kind == "z-distributions":
        written = []
        for section_name, metrics in _draw_sources(report):
            for metric, draws in metrics:
                if draws is None:
                    continue
                headers = ["draw"] + [f"lv{j + 1}" for j in range(len(draws[0]))]
                rows = [[i + 1] + list(row) for i, row in enumerate(draws)]
                written.append(_write_table(
                    out_dir / f"z_distribution_{section_name}_{metric}.csv", headers, rows,
                ))
        if not written:
            raise MissingSection("report carries no reproducibility draw distributions")
        return written
    raise ValueError(f"unknown plot kind {kind!r}, expected one of {PLOT_KINDS}")


def _draw_sources(report: ReportDocument):
    """(name, [(metric, draws or None), ...]) of each reproducibility section."""
    for name, section in report.sections.items():
        if name.startswith("reproducibility"):
            tt = section.get("train_test", {})
            sh = section.get("split_half", {})
            yield name, [("train_test", tt.get("draws")), ("split_half_u", sh.get("u_draws")),
                         ("split_half_v", sh.get("v_draws"))]
