"""Compare benchmark runs of a parent and a change, made in alternation.

Usage:

    python3 perfbench/compare.py PARENT CHANGE
    python3 perfbench/compare.py --run PARENT_ROOT CHANGE_ROOT OUT [--seeds N]
                                 [--workloads W ...] [--tiny]

The first form judges two result sets. PARENT and CHANGE are files or
directories of files holding the captured stdout of ``perfbench/run.py
--trace 0`` runs. A parent run and a change run with the same workload and
seed form a pair, and the two must have been made one right after the
other: sorted by start time, no other run of that workload lies between
them. The host's speed drifts over minutes, so only runs made in
alternation are compared, and the verdict rests on the ratio change/parent
of each pair. For every workload and end-to-end metric it prints each side's
median and quartiles, the median pair ratio and its quartile spread, and a
verdict against the metric's bound in BENCHMARK.json:

    regression   the median ratio is worse than 1 by more than the bound
    improved     the median ratio is better than 1 by more than the bound
                 and the change wins at least nine pairs in ten
    within bound neither
    unresolved   fewer than MIN_PAIRS pairs, runs not made in alternation,
                 or the ratios' quartile spread exceeds the bound

The second form makes such runs: for each seed and workload it runs the
benchmark in the PARENT_ROOT and CHANGE_ROOT checkouts one after the other
(parent first on even seeds, change first on odd ones), writes their
outputs to OUT/parent and OUT/change, and then judges them. Each run lasts
the ``run_seconds`` of BENCHMARK.json (1 s with --tiny).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from run import META_PREFIX  # noqa: E402

MIN_PAIRS = 3
WIN_SHARE = 0.9       # share of pairs the change must win to be judged improved
RUN_TIMEOUT_S = 900


def load(path):
    """{workload: {seed: run}} of the untraced runs under path.

    A run is {"started": wall-clock start, "metrics": {name: value}}.
    """
    path = Path(path)
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    out = defaultdict(dict)
    for file in files:
        meta = None
        for line in file.read_text(errors="replace").splitlines():
            if line.startswith(META_PREFIX):
                meta = json.loads(line[len(META_PREFIX):])
            elif meta is not None and line.startswith("{"):
                result = json.loads(line)
                if not meta["trace"]:
                    out[meta["workload"]][meta["seed"]] = {
                        "started": meta["started"],
                        "metrics": {k: m["value"] for k, m in result["metrics"].items()}}
                meta = None
    return out


def alternated_pairs(parent, change):
    """[(parent run, change run)] by seed, or None unless made in alternation."""
    if not parent or set(parent) != set(change):
        return None
    order = sorted([(r["started"], seed) for seed, r in parent.items()]
                   + [(r["started"], seed) for seed, r in change.items()])
    adjacent = all(order[i][1] == order[i + 1][1] for i in range(0, len(order), 2))
    return [(parent[s], change[s]) for s in sorted(parent)] if adjacent else None


def quartiles(values):
    """(median, q1, q3); the quartiles collapse to the median for a single value."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def verdict(pairs, name, better, bound):
    """(median ratio change/parent, ratio spread, verdict) of one metric."""
    if pairs is None:
        return None, None, "unresolved (runs not made in alternation)"
    ratios = [c["metrics"][name] / p["metrics"][name] for p, c in pairs]
    ratio, q1, q3 = quartiles(ratios)
    spread = (q3 - q1) / ratio
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (ratio - 1.0)
    wins = sum(sign * (r - 1.0) < 0 for r in ratios)
    if len(pairs) < MIN_PAIRS:
        return ratio, spread, f"unresolved (fewer than {MIN_PAIRS} pairs)"
    if spread > bound:
        return ratio, spread, "unresolved (ratios spread beyond the bound)"
    if worse > bound:
        return ratio, spread, "regression"
    if -worse > bound:
        if wins >= WIN_SHARE * len(ratios):
            return ratio, spread, "improved"
        return ratio, spread, "unresolved (the change wins too few pairs)"
    return ratio, spread, "within bound"


def judge(parent_path, change_path):
    spec = json.loads(common.BENCHMARK_JSON.read_text())
    parent, change = load(parent_path), load(change_path)
    print(f"{'workload':<15} {'metric':<16} {'parent median [q1, q3]':>28} "
          f"{'change median [q1, q3]':>28} {'ratio':>7} {'spread':>7} {'bound':>6}  verdict")
    for workload in sorted(parent.keys() | change.keys()):
        pairs = alternated_pairs(parent[workload], change[workload])
        for metric in spec["end_to_end"]:
            name = metric["name"]
            ratio, spread, word = verdict(pairs, name, metric["better"], metric["bound"])
            sides = []
            for runs in (parent[workload], change[workload]):
                values = [r["metrics"][name] for r in runs.values()]
                sides.append("{:.4g} [{:.4g}, {:.4g}]".format(*quartiles(values))
                             if values else "no runs")
            shown = (f"{ratio:>7.3f} {spread:>7.3f}" if ratio is not None
                     else f"{'-':>7} {'-':>7}")
            print(f"{workload:<15} {name:<16} {sides[0]:>28} {sides[1]:>28} {shown}"
                  f" {metric['bound']:>6.0%}  {word}")


def run_alternating(args):
    """Run parent and change one after the other per seed; save their outputs."""
    out = Path(args.out)
    for side in ("parent", "change"):
        (out / side).mkdir(parents=True, exist_ok=True)
    roots = {"parent": Path(args.parent_root).resolve(),
             "change": Path(args.change_root).resolve()}
    seconds = 1 if args.tiny else json.loads(common.BENCHMARK_JSON.read_text())["run_seconds"]
    for seed in range(1, args.seeds + 1):
        for workload in args.workloads:
            for side in (("parent", "change") if seed % 2 == 0 else ("change", "parent")):
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                if args.tiny:
                    cmd.append("--tiny")
                proc = subprocess.run(cmd, cwd=roots[side], capture_output=True, text=True,
                                      timeout=RUN_TIMEOUT_S)
                if proc.returncode != 0:
                    print(f"compare: {side} {workload} seed {seed} exited "
                          f"{proc.returncode}:\n{proc.stderr}", file=sys.stderr)
                    return 1
                (out / side / f"{workload}-{seed}.txt").write_text(proc.stdout)
                print(f"ran {side} {workload} seed {seed}", file=sys.stderr)
    judge(out / "parent", out / "change")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run", action="store_true",
                        help="make alternated runs first (PARENT_ROOT CHANGE_ROOT OUT)")
    parser.add_argument("paths", nargs="+")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=list(common.WORKLOADS),
                        choices=common.WORKLOADS)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.run:
        if len(args.paths) != 3:
            parser.error("--run takes PARENT_ROOT CHANGE_ROOT OUT")
        args.parent_root, args.change_root, args.out = args.paths
        return run_alternating(args)
    if len(args.paths) != 2:
        parser.error("give PARENT and CHANGE")
    judge(*args.paths)
    return 0


if __name__ == "__main__":
    sys.exit(main())
