"""Per-layer tracing of one crossblock CLI run, from outside the package.

Run as a child process:

    python3 bench/tracer.py --spans FILE -- <crossblock CLI arguments>

It imports ``crossblock.cli``, replaces the module-level functions named in
``TARGETS`` with timing wrappers wherever callers look them up (every
``crossblock`` module global bound to the original object, class attributes
for methods, and the ``numpy.linalg`` attributes that crossblock calls),
runs the CLI in-process, and writes the spans it kept in memory to FILE when
the CLI returns. No file of the package changes, and an untraced run never
imports this module.

A span is (name, start, end, parent). A layer's self time is its spans'
duration minus the part of each interval that child spans cover. Work done
inside ``parallel_map`` is recorded as item spans named after the span that
called ``parallel_map``, so a bootstrap draw counts towards
``inference.bootstrap_ci`` and a subsample towards ``harness``.

The benchmark (``run.py --trace 1``) turns the spans file into the per-layer
metrics with ``layer_metrics``. Counts are exact; values marked computed
(``*.mb``, ``*.gather_mb``) come from array shapes, not from measurement.
"""

import argparse
import importlib
import inspect
import json
import math
import os
import sys
import threading
import time

# Span record fields.
NAME, START, END, PARENT, RAISED, ITEM, EXTRA = range(7)


class Tracer:
    """Records nested spans around wrapped calls; keeps everything in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, fn, args, kwargs, hook=None, item=False, parent=None):
        """Call fn inside a span; ``hook(args, kwargs, result)`` adds counts."""
        stack = self._stack()
        rec = [name, 0.0, 0.0, stack[-1] if stack else parent, False, item, None]
        self.spans.append(rec)
        stack.append(rec)
        rec[START] = self.clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec[RAISED] = True
            raise
        finally:
            rec[END] = self.clock()
            stack.pop()
        if hook is not None:
            rec[EXTRA] = hook(args, kwargs, result)
        return result

    def wrap(self, name, fn, hook=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)

        return traced

    def wrap_parallel_map(self, fn):
        """Trace parallel_map and record each work item under its caller's name."""
        def traced(work, n_items, *args, **kwargs):
            caller = self.current()
            owner = caller[NAME] if caller is not None else "parallel.item"

            def mapped(work, n_items, *args, **kwargs):
                span = self.current()

                def item(i):
                    return self.call(owner, work, (i,), {}, item=True, parent=span)

                return fn(item, n_items, *args, **kwargs)

            return self.call("parallel.parallel_map", mapped, (work, n_items, *args), kwargs,
                             hook=_items)

        return traced

    def records(self):
        """Spans as (name, start, end, parent index, raised, item, extra) tuples."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        return [
            (rec[NAME], rec[START], rec[END],
             -1 if rec[PARENT] is None else index[id(rec[PARENT])],
             rec[RAISED], rec[ITEM], rec[EXTRA])
            for rec in self.spans
        ]


def self_times(spans):
    """Self time of each span: its duration minus the union of its children.

    ``spans`` holds (name, start, end, parent index, ...) tuples with -1 for
    a root. Child intervals are clipped to the parent and merged first, so
    overlapping children (work items on several threads) are counted once.
    """
    children = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def _blank():
    return {"calls": 0, "items": 0, "self_s": 0.0, "total_s": 0.0, "raised": 0, "extra": {}}


def aggregate(spans):
    """Per span name: calls, work items, self and total seconds, raised, extras."""
    stats = {}
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _, raised, item, extra = span
        s = stats.setdefault(name, _blank())
        s["self_s"] += own
        if item:
            s["items"] += 1
            continue
        s["calls"] += 1
        s["total_s"] += end - start
        s["raised"] += bool(raised)
        for key, value in (extra or {}).items():
            s["extra"][key] = s["extra"].get(key, 0) + value
    return stats


# --- count hooks: (args, kwargs, result) -> {counter: number} ----------------

def _items(args, kwargs, result):
    return {"items": args[1]}


def _input_bytes(args, kwargs, result):
    return {"bytes": args[0].nbytes}


def _matrices(args, kwargs, result):
    shape = getattr(args[0], "shape", ())
    return {"matrices": math.prod(shape[:-2])}


def _permutation_work(args, kwargs, result):
    x, y = args[0], args[1]
    gathered = result.n_perm * x.n * y.k * 8  # the permuted float64 Y copies
    return {"draws": result.n_perm, "gather_bytes": gathered}


def _bootstrap_work(args, kwargs, result):
    return {"draws": result.n_boot}


def _split_counts(args, kwargs, result):
    return {"splits": result.n_split, "failed": result.n_failed}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _written_bytes(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


def _subsample_counts(args, kwargs, report):
    counts = {"iterations": 0, "skipped": 0, "blocked": 0, "attempted": 0, "completed": 0}
    sizes = {c.sample_size for c in report.cells}
    counts["iterations"] = report.n_iterations * len(sizes)
    for c in report.cells:
        if c.status != "ok":
            counts["blocked"] += 1
        if c.lv == 1:
            counts["attempted"] += c.n_completed + c.n_skipped
            counts["completed"] += c.n_completed
            if c.status == "ok":
                counts["skipped"] += c.n_skipped
    return counts


def _full_sample_counts(args, kwargs, result):
    done = sum(entry.status == "ok" for entry in result.per_method)
    return {"attempted": len(result.per_method), "completed": done,
            "blocked": len(result.per_method) - done}


# Wrap targets: (crossblock module, attribute, span name, count hook). Several
# targets may share a span name; a span name is absent when any of its
# targets no longer exists.
TARGETS = (
    ("rng", "substream", "rng.substream", None),
    ("rng", "derive_seed", "rng.derive_seed", None),
    ("blocks", "_zscore_values", "blocks.zscore", _input_bytes),
    ("blocks", "_adjustment_roots", "blocks.whiten", None),
    ("blocks", "DataBlock.__post_init__", "blocks.datablock", None),
    ("decomposition", "_fit_zscored", "decomposition.fit", None),
    ("decomposition", "fit_pls", "decomposition.fit", None),
    ("decomposition", "fit_cca", "decomposition.fit", None),
    ("decomposition", "align_reflections", "decomposition.align", None),
    ("inference", "permutation_test", "inference.permutation_test", _permutation_work),
    ("inference", "bootstrap_ci", "inference.bootstrap_ci", _bootstrap_work),
    ("reproducibility", "train_test", "reproducibility.train_test", _split_counts),
    ("reproducibility", "split_half", "reproducibility.split_half", _split_counts),
    ("pca", "fit_pca", "pca.fit_pca", None),
    ("pca", "component_scores", "pca.component_scores", None),
    ("pca", "align_to_reference", "pca.align_to_reference", None),
    ("datagen", "generate_relevant_subspace", "datagen.generate", None),
    ("harness", "run_full_sample", "harness.run", _full_sample_counts),
    ("harness", "run_detectability", "harness.run", _subsample_counts),
    ("harness", "run_reproducibility_by_n", "harness.run", _subsample_counts),
    ("harness", "run_false_positive_sweep", "harness.run", None),
    ("io", "load_csv", "io.load_csv", _file_bytes),
    ("io", "write_report", "io.write_report", _written_bytes),
    ("io", "ReportDocument.build", "io.report", None),
    ("io", "full_sample_section", "io.report", None),
    ("io", "subsample_section", "io.report", None),
)
LINALG = ("svd", "eigh", "eigvalsh")


def _rebind(original, replacement):
    """Point every crossblock module global bound to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if name == "crossblock" or name.startswith("crossblock."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer):
    """Wrap every target; return the span names that could not be wrapped."""
    import numpy.linalg

    missing = set()
    plan = []
    for module_name, attr, span, hook in TARGETS:
        try:
            owner = importlib.import_module(f"crossblock.{module_name}")
        except ImportError:
            missing.add(span)
            continue
        owner_path, _, fn_name = attr.rpartition(".")
        if owner_path:
            owner = getattr(owner, owner_path, None)
        original = inspect.getattr_static(owner, fn_name, None) if owner is not None else None
        if original is None:
            missing.add(span)
        else:
            plan.append((owner, fn_name, original, span, hook, bool(owner_path)))
    for owner, fn_name, original, span, hook, is_member in plan:
        if span in missing:
            continue
        if is_member:
            if isinstance(original, classmethod):
                setattr(owner, fn_name, classmethod(tracer.wrap(span, original.__func__, hook)))
            else:
                setattr(owner, fn_name, tracer.wrap(span, original, hook))
        else:
            _rebind(original, tracer.wrap(span, original, hook))
    parallel = sys.modules.get("crossblock.parallel")
    if parallel is not None and hasattr(parallel, "parallel_map"):
        _rebind(parallel.parallel_map, tracer.wrap_parallel_map(parallel.parallel_map))
    else:
        missing.add("parallel.parallel_map")
    for fn_name in LINALG:
        setattr(numpy.linalg, fn_name,
                tracer.wrap(f"linalg.{fn_name}", getattr(numpy.linalg, fn_name), _matrices))
    return sorted(missing)


def _ratio(num, den, empty):
    return num / den if den else empty


def layer_metrics(doc):
    """Per-layer metrics {name: (value, unit)} from a spans document.

    A metric whose span could not be wrapped is left out. Ratios over no
    attempts read 1 (nothing was wasted); rates over no work read 0.
    """
    stats = aggregate(doc["spans"])
    absent = set(doc["absent"])
    out = {}

    def get(span):
        return stats.get(span) or _blank()

    def extra(span, key):
        return get(span)["extra"].get(key, 0)

    def add(metric, value, unit, *spans):
        if not absent.intersection(spans):
            out[metric] = (value, unit)

    def calls_and_self(span):
        add(f"{span}.calls", get(span)["calls"], "count", span)
        add(f"{span}.self_s", get(span)["self_s"], "s", span)

    rng = ("rng.substream", "rng.derive_seed")
    calls_and_self("rng.substream")
    add("rng.derive_seed.calls", get("rng.derive_seed")["calls"], "count", "rng.derive_seed")
    add("rng.self_share", _ratio(sum(get(s)["self_s"] for s in rng),
                                 get("cli.main")["total_s"], 0.0), "ratio", *rng)

    calls_and_self("blocks.zscore")
    add("blocks.zscore.mb", extra("blocks.zscore", "bytes") / 1e6, "MB", "blocks.zscore")
    calls_and_self("blocks.whiten")
    calls_and_self("blocks.datablock")

    for f in LINALG:
        span = f"linalg.{f}"
        add(f"{span}.calls", get(span)["calls"], "count")
        if f != "eigvalsh":
            add(f"{span}.matrices", extra(span, "matrices"), "count")
        add(f"{span}.self_s", get(span)["self_s"], "s")
    add("linalg.matrices_per_call", _ratio(sum(extra(f"linalg.{f}", "matrices") for f in LINALG),
                                           sum(get(f"linalg.{f}")["calls"] for f in LINALG), 0.0),
        "ratio")

    fit = get("decomposition.fit")
    calls_and_self("decomposition.fit")
    add("decomposition.fit.failed", fit["raised"], "count", "decomposition.fit")
    add("decomposition.fit.useful_ratio", _ratio(fit["calls"] - fit["raised"], fit["calls"], 1.0),
        "ratio", "decomposition.fit")
    add("decomposition.align.calls", get("decomposition.align")["calls"], "count",
        "decomposition.align")

    perm, boot = "inference.permutation_test", "inference.bootstrap_ci"
    calls_and_self(perm)
    add(f"{perm}.draws", extra(perm, "draws"), "count", perm)
    add(f"{perm}.gather_mb", extra(perm, "gather_bytes") / 1e6, "MB", perm)
    calls_and_self(boot)
    add(f"{boot}.draws", extra(boot, "draws"), "count", boot)

    split = ("reproducibility.train_test", "reproducibility.split_half")
    for span in split:
        add(f"{span}.self_s", get(span)["self_s"], "s", span)
    add("reproducibility.splits", sum(extra(s, "splits") for s in split), "count", *split)
    add("reproducibility.failed_splits", sum(extra(s, "failed") for s in split), "count", *split)

    calls_and_self("pca.fit_pca")
    calls_and_self("pca.component_scores")
    add("pca.align_to_reference.calls", get("pca.align_to_reference")["calls"], "count",
        "pca.align_to_reference")
    calls_and_self("datagen.generate")

    pm = "parallel.parallel_map"
    add(f"{pm}.calls", get(pm)["calls"], "count", pm)
    add(f"{pm}.items", extra(pm, "items"), "count", pm)
    add(f"{pm}.self_s", get(pm)["self_s"], "s", pm)

    run = "harness.run"
    add("harness.self_s", get(run)["self_s"], "s", run)
    add("harness.iterations", extra(run, "iterations"), "count", run)
    add("harness.skipped", extra(run, "skipped"), "count", run)
    add("harness.blocked_cells", extra(run, "blocked"), "count", run)
    add("harness.completed_ratio", _ratio(extra(run, "completed"), extra(run, "attempted"), 1.0),
        "ratio", run)

    calls_and_self("io.load_csv")
    add("io.load_csv.mb_per_s", _ratio(extra("io.load_csv", "bytes") / 1e6,
                                       get("io.load_csv")["total_s"], 0.0),
        "MB/s", "io.load_csv")
    add("io.report.self_s", get("io.report")["self_s"] + get("io.write_report")["self_s"], "s",
        "io.report", "io.write_report")
    add("io.write_report.bytes", extra("io.write_report", "bytes"), "bytes", "io.write_report")
    add("cli.import_s", doc["import_s"], "s")
    add("cli.self_s", get("cli.main")["self_s"], "s")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="file the spans are written to")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="-- followed by the crossblock CLI arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    start = time.perf_counter()
    import crossblock.cli
    import_s = time.perf_counter() - start

    tracer = Tracer()
    absent = install(tracer)
    code = 1
    try:
        code = tracer.call("cli.main", crossblock.cli.main, (cli_args,), {})
    finally:
        with open(args.spans, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"import_s": import_s, "absent": absent, "exit_code": code,
                                 "spans": tracer.records()}))
    return code


if __name__ == "__main__":
    sys.exit(main())
