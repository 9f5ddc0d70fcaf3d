"""Compare two sets of benchmark runs, parent against change.

    python3 bench/compare.py collect --parent DIR --change DIR [--workload NAME ...]
                             [--trace 0|1] [--out-dir DIR]
    python3 bench/compare.py report PARENT.jsonl [CHANGE.jsonl]

``collect`` runs this directory's ``run.py`` against two source trees (each
holding ``src/crossblock``), so both sides use identical benchmark code and
settings: 10 pairs per workload, seeds 1 to 10, each run ``run_seconds`` of
``BENCHMARK.json`` long, which is what the bounds were set for. Pair i uses
seed i on both sides, and the side that runs first alternates from pair to
pair. Records go to
``parent.jsonl`` and ``change.jsonl`` in the output directory, and the report
is printed.

``report`` prints one row per workload and metric: each side's median and
quartiles over its runs, the spread (quartile distance over the median),
the share of seed-paired runs the change won (ties count for neither), and
a verdict:

* ``improved``: the change won at least 9 of 10 pairs and the medians differ,
  in the better direction, by more than the parent's quartile distance;
* ``unresolved``: the parent's spread exceeds the metric's bound, unless
  every change run beats every parent run;
* ``regressed``: the change's median is worse by more than the bound;
* ``within bound`` otherwise.

Per-layer metrics in ``count`` units (from ``--trace 1`` runs) are compared
exactly, pair by pair. Each pair's report hashes are compared too: equal whole
reports are ``same output``; equal ``sections`` under a different whole report
is ``metadata only`` (such as a removed config echo); different ``sections`` is
``output changed``. With one file, ``report`` prints the spreads only, which is
how the benchmark's own steadiness is checked.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import summary

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WIN_SHARE = 0.9
PAIRS = 10


def load(path):
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                runs.setdefault((record["workload"], record["trace"]), []).append(record)
    return runs


def specs():
    """Metric name -> (better, bound or None) from BENCHMARK.json."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {m["name"]: (m["better"], m["bound"]) for m in config["end_to_end"]}
    out.update({m["name"]: (m["better"], None) for m in config["per_layer"]})
    return out


def verdict(parent, change, better, bound):
    """Verdict and change win share for seed-paired per-run values."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    share = wins / len(pairs)
    p_med, p_q1, p_q3, _ = summary(parent)
    c_med = statistics.median(change)
    gain = sign * (c_med - p_med)
    if share >= WIN_SHARE and gain > p_q3 - p_q1:
        return "improved", share
    beats_all = all(sign * (c - p) > 0 for c in change for p in parent)
    if bound is not None and (p_q3 - p_q1) / p_med > bound and not beats_all:
        return "unresolved", share
    if bound is not None and -gain / p_med > bound:
        return "regressed", share
    return "within bound", share


def _values(records, name):
    return [r["metrics"][name]["value"] for r in records if name in r["metrics"]]


def output_change(parent, change):
    """How a change run's report differs from the parent run's of the same seed."""
    if parent["sha256"] == change["sha256"]:
        return "same output"
    if parent["sections_sha256"] == change["sections_sha256"]:
        return "metadata only"
    return "output changed"


def report(parent_path, change_path=None):
    metric_specs = specs()
    parent = load(parent_path)
    change = load(change_path) if change_path else {}
    worst = 0
    for key in sorted(parent):
        workload, trace = key
        p_runs = sorted(parent[key], key=lambda r: r["seed"])
        c_runs = sorted(change.get(key, []), key=lambda r: r["seed"])
        if change_path:
            seeds = {r["seed"] for r in p_runs} & {r["seed"] for r in c_runs}
            p_runs = [r for r in p_runs if r["seed"] in seeds]
            c_runs = [r for r in c_runs if r["seed"] in seeds]
        failed = sum(r["failed"] for r in p_runs), sum(r["failed"] for r in c_runs)
        print(f"\n{workload} (trace {trace}): {len(p_runs)} runs, failed children "
              f"parent {failed[0]}" + (f", change {failed[1]}" if change_path else ""))
        if change_path:
            outcomes = {}
            for p, c in zip(p_runs, c_runs):
                outcomes.setdefault(output_change(p, c), []).append(str(p["seed"]))
            for outcome, seeds in sorted(outcomes.items()):
                print(f"  reports: {outcome} on seeds {','.join(seeds)}")
        for name in p_runs[0]["metrics"]:
            unit = p_runs[0]["metrics"][name]["unit"]
            better, bound = metric_specs.get(name, ("lower", None))
            pv = _values(p_runs, name)
            med, q1, q3, _ = summary(pv)
            spread = (q3 - q1) / med if med else 0.0
            row = f"  {name:38s} {unit:6s} parent {med:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f}"
            if not change_path:
                if bound is not None:
                    status = "ok" if spread <= bound / 3 else ("near bound" if spread <= bound
                                                             else "OVER BOUND")
                    row += f" bound {bound} {status}"
                    worst = max(worst, spread / bound)
                print(row)
                continue
            cv = _values(c_runs, name)
            if len(cv) != len(pv):
                print(row + "  change: absent")
                continue
            c_med, c_q1, c_q3, _ = summary(cv)
            row += f"  change {c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}]"
            if unit == "count":
                same = pv == cv
                row += "  counts equal" if same else f"  counts DIFFER {pv[0]} -> {cv[0]}"
            else:
                outcome, share = verdict(pv, cv, better, bound)
                row += f"  won {share:.0%}  {outcome}"
            print(row)
    if not change_path:
        print(f"\nlargest spread / bound: {worst:.2f} (steady when below 0.33)")


def collect(args):
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    records = {side: out_dir / f"{side}.jsonl" for side in sides}
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in config["workloads"]]
    seconds = config["run_seconds"]
    for workload in workloads:
        for seed in range(1, PAIRS + 1):
            order = ("parent", "change") if seed % 2 == 1 else ("change", "parent")
            for side in order:
                cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", str(args.trace), "--src", str(sides[side] / "src"),
                       "--record", str(records[side])]
                done = subprocess.run(cmd, capture_output=True, text=True)
                status = done.stdout.strip().splitlines()[-1] if done.returncode == 0 else (
                    f"exit {done.returncode}: {done.stderr.strip()[-300:]}")
                print(f"{workload} seed {seed} {side}: {status[:160]}", flush=True)
    report(records["parent"], records["change"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    col = sub.add_parser("collect", help="run alternating parent/change pairs, then report")
    col.add_argument("--parent", required=True, help="source tree of the parent commit")
    col.add_argument("--change", required=True, help="source tree of the change")
    col.add_argument("--workload", action="append", help="repeat for several (default all)")
    col.add_argument("--trace", type=int, choices=(0, 1), default=0)
    col.add_argument("--out-dir", default=str(ROOT / ".bench_work" / "compare"))
    rep = sub.add_parser("report", help="print the comparison of two record files")
    rep.add_argument("parent")
    rep.add_argument("change", nargs="?")
    args = parser.parse_args(argv)
    if args.command == "collect":
        collect(args)
    else:
        report(args.parent, args.change)
    return 0


if __name__ == "__main__":
    sys.exit(main())
