"""Benchmark of the crossblock CLI: end-to-end metrics per workload, or a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--record FILE] [--src DIR]

Run from anywhere; it benchmarks the package under ``src/`` next to this
directory (or ``--src``). Each run:

1. generates the workload's inputs from ``--seed`` (the structured CSVs via
   ``crossblock simulate subspace``), outside every timed metric;
2. imports ``crossblock.cli`` once in a fresh interpreter, which writes the
   bytecode cache and reports the toolchain versions;
3. runs the workload as CLI child processes (``crossblock.cli.main``, as
   ``python3 -m crossblock`` does) in a closed loop with one client, one at a
   time, for ``--seconds``. Each child gets one BLAS thread and
   ``CROSSBLOCK_THREADS=1``, and records when its ``import crossblock.cli``
   finished, so every child is also one set-up sample;
4. checks every child: exit code 0, a report that parses, the workload's
   semantic checks, and the same report sha256 as every other child of the
   run (the sha256 of ``sections`` alone is recorded for ``compare.py``);
5. prints each metric with its median, quartiles, unit and child count, then
   one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` (spawn
to exit), ``draws_per_s`` (resampled decompositions per wall second),
``cpu_s`` and ``peak_rss_mb`` (the child's rusage), and ``setup_s`` (spawn
until ``import crossblock.cli`` returned, which every CLI call pays).
``fail_frac`` is printed and carried by ``failed``/``attempted``.

With ``--trace 1`` untraced children alternate with children run under
``tracer.py``, and the metrics are the per-layer ones: counts from the traced
children (which must agree exactly), times as medians, and
``trace.overhead_frac``, the traced median wall time over the untraced one,
minus one.

``--record FILE`` appends the run's full record (samples, hashes,
environment, input digests) as one JSON line; ``compare.py`` reads those.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

# Every run must end within 180 s; a child still running this long after the
# run started is killed and counted as failed.
RUN_LIMIT_S = 170

END_TO_END_UNITS = {
    "wall_s": "s", "draws_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
}

# Untraced child: the CLI entry point of ``python3 -m crossblock``, plus the
# wall-clock time at which the import finished, written to argv[1].
_LAUNCH = """
import sys, time
import crossblock.cli
with open(sys.argv[1], "w") as fh:
    fh.write(repr(time.time()))
sys.exit(crossblock.cli.main(sys.argv[2:]))
"""
# The warm-up import writes the bytecode cache and reports the toolchain.
_WARM_UP = """
import json, platform, numpy, scipy
import crossblock.cli
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__,
                  "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")}}))
"""


def child_env(src):
    """Environment for every crossblock child: pinned threads, no report timestamp."""
    env = dict(os.environ)
    env.pop("SOURCE_DATE_EPOCH", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "CROSSBLOCK_THREADS"):
        env[var] = "1"
    return env


class Deadline:
    """Kills a child that would make the run overrun RUN_LIMIT_S."""

    def __init__(self, started):
        self.started = started

    def remaining(self):
        return max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))


def spawn(cmd, env, cwd, log_path, deadline):
    """Run one child to completion; return wall, CPU and peak RSS from wait4."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(deadline.remaining(), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit_code": proc.returncode,
    }


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_report(out_dir):
    """Parse the single JSON report a child wrote; return (report, whole sha, sections sha)."""
    paths = sorted(Path(out_dir).glob("*.json"))
    if len(paths) != 1:
        raise ValueError(f"expected one report, found {len(paths)}")
    raw = paths[0].read_bytes()
    report = json.loads(raw)
    sections = json.dumps(report["sections"], sort_keys=True, separators=(",", ":"))
    return (report, hashlib.sha256(raw).hexdigest(),
            hashlib.sha256(sections.encode("utf-8")).hexdigest())


def host_info(src, env, toolchain):
    """Machine, toolchain and source version; recorded with every run."""
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": None, "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache_root = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_root.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            info["caches"][f"L{level}"] = size
    info["blas_threads"] = env["OPENBLAS_NUM_THREADS"]
    info.update(toolchain)
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(src.parent.parent))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=src.parent, env=git_env,
                             capture_output=True, text=True, timeout=30)
        info["commit"] = rev.stdout.strip() if rev.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        info["commit"] = "unknown"
    return info


def make_inputs(workload, seed, data_dir, env, deadline):
    """Write the workload's CSVs for this seed; return their digests and sizes."""
    cmd = [sys.executable, "-m", "crossblock", *workload.simulate, "--seed", str(seed),
           "--out-dir", str(data_dir)]
    data_dir.mkdir(parents=True)
    sample = spawn(cmd, env, data_dir, data_dir / "simulate.log", deadline)
    if sample["exit_code"] != 0:
        log = (data_dir / "simulate.log").read_text(errors="replace")
        raise RuntimeError(f"simulate exited {sample['exit_code']}: {log[-500:]}")
    files = {name: {"sha256": sha256_file(data_dir / name),
                    "bytes": (data_dir / name).stat().st_size} for name in ("x.csv", "y.csv")}
    return {"generate_s": sample["wall_s"], "files": files}


def warm_up(env, cwd, deadline):
    """Import crossblock.cli once, untimed; return the toolchain it reports."""
    sample = spawn([sys.executable, "-c", _WARM_UP], env, cwd, cwd / "warm-up.log", deadline)
    log = (cwd / "warm-up.log").read_text(errors="replace")
    if sample["exit_code"] != 0:
        raise RuntimeError(f"import crossblock.cli exited {sample['exit_code']}: {log[-500:]}")
    return json.loads(log)


def run_child(workload, seed, run_dir, index, env, data_dir, deadline, spans_path=None):
    """One CLI child, checked; returns its sample record."""
    out_dir = run_dir / f"out-{index}"
    out_dir.mkdir()
    cli_args = workload.cli_args(seed, out_dir, data_dir)
    imported = run_dir / f"imported-{index}"
    if spans_path is None:
        cmd = [sys.executable, "-c", _LAUNCH, str(imported), *cli_args]
    else:
        cmd = [sys.executable, str(BENCH / "tracer.py"), "--spans", str(spans_path), "--",
               *cli_args]
    spawned = time.time()
    sample = spawn(cmd, env, run_dir, run_dir / f"child-{index}.log", deadline)
    sample.update(traced=spans_path is not None, draws=0, problems=[], sha256=None,
                  sections_sha256=None, setup_s=None)
    if imported.exists():
        sample["setup_s"] = float(imported.read_text()) - spawned
    if sample["exit_code"] != 0:
        log = (run_dir / f"child-{index}.log").read_text(errors="replace")
        sample["problems"].append(f"exit code {sample['exit_code']}: {log[-300:]}")
    else:
        try:
            report, sample["sha256"], sample["sections_sha256"] = read_report(out_dir)
            sample["draws"] = workload.draws(report)
            sample["problems"] += workload.check(report)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            sample["problems"].append(f"unreadable report: {exc!r}")
    shutil.rmtree(out_dir)
    sample["draws_per_s"] = sample["draws"] / sample["wall_s"]
    return sample


def summary(values):
    """(median, q1, q3, n) as statistics.quantiles gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)


def mark_inconsistent(samples):
    """Every child of a run must write the same report bytes (and so the same sections)."""
    ref = next((s["sha256"] for s in samples if s["sha256"] is not None), None)
    for s in samples:
        if s["sha256"] not in (None, ref):
            s["problems"].append("report differs from the first child's")


def end_to_end(samples):
    metrics = {name: summary(s[name] for s in samples if s[name] is not None)
               for name in END_TO_END_UNITS}
    return {name: (m, END_TO_END_UNITS[name]) for name, m in metrics.items()}


def per_layer(samples, spans_docs):
    """Per-layer metrics from the traced children, plus the tracing overhead."""
    from tracer import layer_metrics

    runs = [layer_metrics(doc) for doc in spans_docs]
    metrics = {}
    for name, (_, unit) in runs[0].items():
        values = [r[name][0] for r in runs]
        if unit == "count" and len(set(values)) > 1:
            for s in samples:
                if s["traced"]:
                    s["problems"].append(f"traced count {name} differs between children")
                    break
        metrics[name] = (summary(values), unit)
    traced = statistics.median(s["wall_s"] for s in samples if s["traced"])
    plain = statistics.median(s["wall_s"] for s in samples if not s["traced"])
    ratio = traced / plain - 1.0
    metrics["trace.overhead_frac"] = ((ratio, ratio, ratio, 1), "ratio")
    absent = sorted(set().union(*(set(doc["absent"]) for doc in spans_docs)))
    return metrics, absent


def run(args):
    workload = WORKLOADS[args.workload]
    src = Path(args.src).resolve() if args.src else ROOT / "src"
    if not (src / "crossblock" / "cli.py").is_file():
        print(f"error: no crossblock package under {src}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    deadline = Deadline(started)
    env = child_env(src)
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir()
    try:
        record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "depth": workload.depth,
                  "src": str(src.relative_to(ROOT) if src.is_relative_to(ROOT) else src)}
        data_dir = run_dir / "data"
        record["inputs"] = (make_inputs(workload, args.seed, data_dir, env, deadline)
                            if workload.simulate else None)
        record["environment"] = host_info(src, env, warm_up(env, run_dir, deadline))

        samples, spans_docs = [], []
        loop_start = time.perf_counter()
        while True:
            index = len(samples)
            traced = bool(args.trace) and index % 2 == 1
            spans_path = run_dir / f"spans-{index}.json" if traced else None
            sample = run_child(workload, args.seed, run_dir, index, env, data_dir, deadline,
                               spans_path)
            samples.append(sample)
            if traced and spans_path.exists():
                spans_docs.append(json.loads(spans_path.read_text()))
                spans_path.unlink()
            elapsed = time.perf_counter() - loop_start
            typical = statistics.median(s["wall_s"] for s in samples)
            if elapsed + typical > args.seconds and (not args.trace or len(samples) >= 2):
                break
        mark_inconsistent(samples)

        if args.trace:
            if not spans_docs:
                raise RuntimeError("no traced child wrote its spans")
            metrics, absent = per_layer(samples, spans_docs)
        else:
            metrics, absent = end_to_end(samples), []
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(bool(s["problems"]) for s in samples)
    ref = next((s for s in samples if s["sha256"]), {})
    record.update(correct=failed == 0, attempted=len(samples), failed=failed,
                  samples=samples, absent=absent,
                  sha256=ref.get("sha256"), sections_sha256=ref.get("sections_sha256"),
                  metrics={n: {"value": m[0], "q1": m[1], "q3": m[2], "n": m[3], "unit": u}
                           for n, (m, u) in metrics.items()})

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  depth {json.dumps(workload.depth)}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    if record["inputs"]:
        print("inputs " + json.dumps(record["inputs"], sort_keys=True))
    for name, (m, unit) in metrics.items():
        print(f"{name:40s} {m[0]:14.6g} {unit:6s} median  [q1 {m[1]:.6g}, q3 {m[2]:.6g}]  "
              f"n={m[3]}")
    for name in absent:
        print(f"{name:40s} absent (wrap target missing)")
    print(f"{'fail_frac':40s} {failed / len(samples):14.6g} {'ratio':6s} "
          f"({failed} of {len(samples)} runs failed)")
    print(f"report sha256 {record['sha256']}  sections sha256 {record['sections_sha256']}")
    for i, s in enumerate(samples):
        for problem in s["problems"]:
            print(f"child {i} FAILED: {problem}")
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": m[0], "unit": unit} for name, (m, unit) in metrics.items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the run's full record to this JSON-lines file")
    parser.add_argument("--src", help="directory holding the crossblock package (default src/)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
