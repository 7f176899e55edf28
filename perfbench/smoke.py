"""Smoke check of the benchmark at tiny sizes.

Usage (from the root of a source checkout): python3 perfbench/smoke.py

Runs every workload with --tiny, untraced and traced, and asserts that the
last line holds every declared metric with its unit, that the human-readable
lines name them too, and that the correctness checks ran. It also checks
that each workload's check rejects a corrupted output, that the benchmark
refuses a directory without the program, and that compare.py pairs runs
made in alternation and judges them. Takes about a minute.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from run import META_PREFIX  # noqa: E402

RUN = [sys.executable, str(common.ROOT / "perfbench" / "run.py")]


def run_tiny(workload, trace):
    proc = subprocess.run(RUN + ["--workload", workload, "--seed", "1", "--seconds", "1",
                                 "--trace", str(trace), "--tiny"],
                          capture_output=True, text=True, cwd=common.ROOT, timeout=170)
    assert proc.returncode == 0, (workload, trace, proc.stderr)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert lines[-2].startswith(META_PREFIX), lines[-2]
    meta = json.loads(lines[-2][len(META_PREFIX):])
    end_to_end, per_layer = common.declared_metrics()
    declared = per_layer if trace else end_to_end
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert set(result["metrics"]) == set(declared), workload
    for name, unit in declared.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit, (name, metric)
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
        assert any(line.startswith(f"{name} = ") and f" {unit}" in line for line in lines)
    assert result["correct"] is True, (workload, meta["errors"])
    assert result["attempted"] >= 1 and meta["checked"] >= 1, meta
    assert result["failed"] == 0, (workload, meta["errors"])
    if workload in ("geometry", "kepler_csv") and not trace:
        assert meta["known_defects"]["attempted"] >= 1, meta["known_defects"]


def corrupted_outputs_are_rejected():
    """Each workload's check must flag a wrong output."""
    sys.path.insert(0, str(common.SRC))
    from calc_cli import CalcCli
    from dense_products import DenseProducts
    from geometry import Geometry
    from kepler_csv import KeplerCsv

    def first_result(wl, pick):
        op = next(op for op in wl.ops(0) if pick(op))
        args = wl.prepare(op)
        out = wl.run(args)
        assert wl.check(op, args, out) is None, op
        return op, args, out

    wl = CalcCli(1, True)
    try:
        op, args, out = first_result(wl, lambda op: op[0] == "script")
        assert wl.check(op, args, out.replace(b"\n", b" + 1*e1\n", 1))
        op, args, out = first_result(wl, lambda op: op[0] == "golden")
        assert wl.check(op, args, out.replace(b"e12", b"e21", 1))
    finally:
        wl.close()

    wl = DenseProducts(1, True)
    op, args, out = first_result(wl, lambda op: op[1] == "gp")
    assert wl.check(op, args, out * 1.001)

    wl = Geometry(1, True)
    op, args, out = first_result(wl, lambda op: op[0] == "frame")
    assert wl.check(op, args, out + args[1].basis_vector(1) * 1e-3)

    wl = KeplerCsv(1, True)
    try:
        op, args, out = first_result(wl, lambda op: op[0] == 0)
        text = wl.csv_path.read_text().splitlines()
        last = text[-1].split(",")
        last[13] = repr(float(last[13]) + 0.01)
        wl.csv_path.write_text("\n".join(text[:-1] + [",".join(last)]) + "\n")
        assert wl.check(op, args, out)
    finally:
        wl.close()


def refuses_bare_directory():
    bare = common.TMP / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(common.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(common.BENCHMARK_JSON, bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "geometry",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, cwd=bare, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc


def compare_judges_alternated_runs():
    """compare.py pairs runs made one after the other, and only those."""
    import compare

    parent = {1: {"started": 0.0}, 2: {"started": 1.0}}
    assert compare.alternated_pairs(parent, {1: {"started": 0.5}, 2: {"started": 1.5}})
    assert compare.alternated_pairs(parent, {1: {"started": 2.0}, 2: {"started": 3.0}}) is None
    runs = common.TMP / "smoke-compare"
    shutil.rmtree(runs, ignore_errors=True)
    try:
        proc = subprocess.run([sys.executable, str(common.ROOT / "perfbench" / "compare.py"),
                               "--run", str(common.ROOT), str(common.ROOT), str(runs),
                               "--seeds", "3", "--workloads", "geometry", "--tiny"],
                              capture_output=True, text=True, cwd=common.ROOT, timeout=170)
    finally:
        shutil.rmtree(runs, ignore_errors=True)
    assert proc.returncode == 0, proc.stderr
    end_to_end, _ = common.declared_metrics()
    lines = [line for line in proc.stdout.splitlines() if line.startswith("geometry ")]
    assert len(lines) == len(end_to_end), proc.stdout
    assert not any("alternation" in line for line in lines), proc.stdout


def main():
    for workload in common.WORKLOADS:
        for trace in (0, 1):
            run_tiny(workload, trace)
            print(f"ok  {workload} --trace {trace}")
    corrupted_outputs_are_rejected()
    print("ok  checks reject corrupted outputs")
    refuses_bare_directory()
    print("ok  refuses a directory without the program")
    compare_judges_alternated_runs()
    print("ok  compare.py")
    return 0


if __name__ == "__main__":
    sys.exit(main())
