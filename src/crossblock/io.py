"""CSV ingestion, report documents, and plot-ready data emission.

Reports are plain JSON documents with a canonical serialization: keys are
sorted, floats use their shortest exact decimal representation, and
non-finite values are stored as null. Serialize -> parse -> serialize is
byte-identical, and because every random stream is seed-derived, rerunning
a command with the same seed rewrites the same bytes.

CSV files follow RFC-4180 conventions: UTF-8 (a leading byte-order mark is
skipped on reading), a header row, comma separator, decimal points, no
thousands separators.
"""

import csv
import json
import os
from dataclasses import dataclass, fields, is_dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .blocks import DataBlock
from .decomposition import NUMERICS_CONTRACT
from .errors import EmptyFile, MissingSection, NonNumericCell, RaggedRows
from .harness import FullSampleResult, SubsampleReport
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
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
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
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
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
    """A result dataclass's fields by name, less ``_BULK_FIELDS`` unless ``bulk``;
    a field holding a result, or a tuple of results, becomes sections by the same rule."""
    return {f.name: _section_value(getattr(result, f.name), bulk) for f in fields(result)
            if bulk or f.name not in _BULK_FIELDS}


def _section_value(value, bulk: bool):
    if is_dataclass(value):
        return result_section(value, bulk)
    if isinstance(value, tuple) and value and all(map(is_dataclass, value)):
        return [result_section(v, bulk) for v in value]
    return value


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
        section = {"status": entry.status}
        for name in ("bootstrap", "permutation", "train_test", "split_half"):
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
    return result_section(report, bulk=False)


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


def _cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return v


def write_report(report: ReportDocument, out_dir, stem: str = "report",
                 format: str = "json") -> list[Path]:
    """Write a report as a single JSON document or a CSV bundle.

    The CSV bundle is the JSON sections flattened by the rule of ``_tables``:
    one file per table, plus metadata.json holding the seed and config needed
    for an exact rerun and, under their section paths, the values no table
    holds. An empty cell is a JSON null.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if format == "json":
        path = out_dir / f"{stem}.json"
        path.write_text(report.to_json(), encoding="utf-8")
        return [path]
    if format != "csv":
        raise ValueError(f"unknown report format {format!r}")
    bundle = out_dir / stem
    bundle.mkdir(parents=True, exist_ok=True)
    tables, rest = _tables(report.sections)
    meta = bundle / "metadata.json"
    meta.write_text(_canonical_json({"schema_version": report.data.get("schema_version"),
                                     "metadata": report.metadata, "sections": rest}),
                    encoding="utf-8")
    return [meta] + [_write_table(bundle / f"{name}.csv", *table)
                     for name, table in tables.items()]


def _tables(section: dict, path: tuple = ()) -> tuple[dict, dict]:
    """The dict ``section`` at ``path`` of a report's sections as
    ({name: (headers, rows)}, the values no table holds, nested as in it).

    Within each dict:
    - a list of records becomes one table, a column per key;
    - the 1-D arrays of one length share one table, keyed by a 1-based
      position column (``component`` in a ``pca`` dict, ``lv`` elsewhere);
    - the (variable x LV) matrices of a dict with ``labels`` of their row
      count become one long table: ``variable``, ``lv``, then a column per
      matrix;
    - any other matrix becomes a wide table: ``row``, then ``c1``..``ck``;
    - a list of labels (strings) that no long table consumes is one of the
      values no table holds.

    A table is named by the path of what it holds: a dict's own tables (its
    arrays and long table) by the dict's path, followed by their first
    field's name when the dict has more than one.
    """
    shapes = {key: _shape(value) for key, value in section.items()}
    labels = section["labels"] if shapes.get("labels") == "labels" else ()
    long = {k: v for k, v in section.items() if shapes[k] == "matrix" and len(v) == len(labels)}
    if long:
        shapes["labels"] = "long"  # the long table's variable column
    groups = {}
    for key, value in section.items():
        if shapes[key] == "array":
            groups.setdefault(len(value), {})[key] = value
    position = "component" if path[-1:] == ("pca",) else "lv"
    own = [(next(iter(g)), [position, *g],
            [[i + 1, *row] for i, row in enumerate(zip(*g.values()))]) for g in groups.values()]
    if long:
        width = len(next(iter(long.values()))[0])
        own.insert(0, (next(iter(long)), ["variable", "lv", *long],
                       [[label, lv + 1, *(m[i][lv] for m in long.values())]
                        for i, label in enumerate(labels) for lv in range(width)]))
    tables = {".".join(path if len(own) == 1 else (*path, first)): (headers, rows)
              for first, headers, rows in own}
    rest = {}
    for key, value in section.items():
        name = ".".join((*path, key))
        if shapes[key] == "dict":
            inner_tables, inner = _tables(value, (*path, key))
            tables.update(inner_tables)
            if inner or not value:
                rest[key] = inner
        elif shapes[key] == "records":
            headers = list(value[0])
            tables[name] = headers, [[record[h] for h in headers] for record in value]
        elif shapes[key] == "matrix" and key not in long:
            tables[name] = (["row", *(f"c{j + 1}" for j in range(len(value[0])))],
                            [[i + 1, *row] for i, row in enumerate(value)])
        elif shapes[key] in (None, "labels"):
            rest[key] = value
    return tables, rest


def _shape(value):
    """"dict", "records", "matrix" (rectangular), "labels" (1-D, of strings),
    "array" (1-D), or None for a scalar, an empty list or a ragged one."""
    if isinstance(value, dict):
        return "dict"
    if not isinstance(value, list) or not value:
        return None
    if all(isinstance(v, dict) for v in value):
        return "records"
    if all(isinstance(v, list) for v in value):
        return "matrix" if len({len(v) for v in value}) == 1 else None
    return "labels" if all(isinstance(v, str) for v in value) else "array"


# ---------------------------------------------------------------------------
# Plot-ready data emission
# ---------------------------------------------------------------------------

PLOT_KINDS = ("detectability-bars", "weight-intervals", "eigenspectrum", "z-distributions")


def emit_plot_data(report: ReportDocument, kind: str, out_dir) -> list[Path]:
    """Emit plot-ready CSV files for one figure family.

    Each kind selects and renames columns of the CSV bundle's tables:
    detectability-bars: method,sample_size,lv,value (one row per bar).
    weight-intervals: block,variable,lv,lower,upper,stable (one file per method).
    eigenspectrum: component,eigenvalue,cumulative_variance_fraction.
    z-distributions: one file per metric, one column per LV, one row per draw.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tables, _ = _tables(report.sections)
    if kind == "detectability-bars":
        rows = [row[:4] for row in _select(tables.get("subsample.cells"), "method",
                                           "sample_size", "lv", "detectability", "status")
                if row[4] == "ok" and row[3] is not None]
        if not rows:
            raise MissingSection("report has no detectability cells")
        return [_write_table(out_dir / "detectability_bars.csv",
                             ["method", "sample_size", "lv", "value"], rows)]
    if kind == "weight-intervals":
        written = []
        for method in report.section("full_sample")["per_method"]:
            prefix = f"full_sample.per_method.{method}.bootstrap."
            rows = [[block, *row] for block in ("x", "y") for row in _select(
                tables.get(prefix + block), "variable", "lv", "lower", "upper", "stable")]
            if rows:
                written.append(_write_table(
                    out_dir / f"weight_intervals_{method}.csv",
                    ["block", "variable", "lv", "lower", "upper", "stable"], rows))
        if not written:
            raise MissingSection("report has no bootstrap results")
        return written
    if kind == "eigenspectrum":
        rows = _select(tables.get("pca", tables.get("full_sample.pca")),
                       "component", "eigenvalues", "variance_fraction")
        if not rows:
            raise MissingSection("report has no PCA section")
        return [_write_table(out_dir / "eigenspectrum.csv",
                             ["component", "eigenvalue", "cumulative_variance_fraction"], rows)]
    if kind == "z-distributions":
        written = []
        for name in report.sections:
            for metric, table in (("train_test", "train_test.draws"),
                                  ("split_half_u", "split_half.u_draws"),
                                  ("split_half_v", "split_half.v_draws")):
                if name.startswith("reproducibility") and f"{name}.{table}" in tables:
                    headers, rows = tables[f"{name}.{table}"]
                    written.append(_write_table(
                        out_dir / f"z_distribution_{name}_{metric}.csv",
                        ["draw", *(f"lv{j}" for j in range(1, len(headers)))], rows))
        if not written:
            raise MissingSection("report carries no reproducibility draw distributions")
        return written
    raise ValueError(f"unknown plot kind {kind!r}, expected one of {PLOT_KINDS}")


def _select(table, *columns) -> list[list]:
    """The rows of a (headers, rows) table, cut to ``columns``; none for no table."""
    if table is None:
        return []
    headers, rows = table
    index = [headers.index(c) for c in columns]
    return [[row[i] for i in index] for row in rows]
