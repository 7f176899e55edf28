"""Paths, metric declarations and statistics shared by the benchmark files.

The benchmark runs from the root of a source checkout. It imports the
program from ``src/`` and the word-reduction oracle from ``tests/oracles.py``;
nothing is installed.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLE_PATH = ROOT / "tests" / "oracles.py"
GOLDEN_SCRIPT = ROOT / "tests" / "data" / "golden_script.ga"
GOLDEN_OUTPUT = ROOT / "tests" / "data" / "golden_output.txt"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"

REQUIRED = (SRC / "gacalc" / "__init__.py", ORACLE_PATH, GOLDEN_SCRIPT,
            GOLDEN_OUTPUT, BENCHMARK_JSON)

WORKLOADS = ("calc_cli", "dense_products", "geometry", "kepler_csv")

TAIL_MIN_BEYOND = 10

# Seconds each host-speed probe takes at the reference speed: that of a
# quiet 2-CPU x86-64 VM with CPython 3.11. Times are reported scaled to it.
# The process probe's value makes both probes give the same slowness when
# they are run side by side.
LOOP_REFERENCE_S = 1.4e-3
PROCESS_REFERENCE_S = 9.2e-3


def missing_inputs():
    """Files the benchmark needs that this checkout lacks."""
    return [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]


def spans_path(workload, seed):
    """Where a traced run writes its spans (TSV), child processes' included."""
    return OUT / f"spans-{workload}-{seed}.tsv"


def child_env():
    """Environment for processes that import the program from ``src/``."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def declared_metrics():
    """(end_to_end, per_layer) from BENCHMARK.json, each a name -> unit dict."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def load_oracle():
    """Import the test suite's independent word-reduction oracle by path."""
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def loop_slowness():
    """How many times slower than at the reference speed a fixed loop runs now.

    On a shared host the speed of a CPU drifts by tens of percent for
    seconds to minutes. The loop does the kind of work the program does in
    process (dict lookups keyed by ints, float arithmetic), so its time
    moves with the program's, and an op time divided by the median of
    probes taken next to it no longer moves with the host.
    """
    t0 = time.perf_counter()
    table = {}
    for i in range(6000):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0.0) + (i & 7) * 0.5
    return (time.perf_counter() - t0) / LOOP_REFERENCE_S


def process_slowness():
    """How many times slower than at the reference speed a bare interpreter starts now.

    An op that is a whole process (exec, page faults, imports, numpy's
    threads on every CPU) slows down with the host unlike a loop in this
    process does; the start of a bare interpreter slows down like it.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return (time.perf_counter() - t0) / PROCESS_REFERENCE_S


def tail(values, nominal):
    """(percentile, value) for the tail latency of a sample.

    The percentile is ``nominal`` when at least TAIL_MIN_BEYOND samples lie
    beyond it, else the highest whole percentile that keeps that many
    beyond. Nearest-rank definition.
    """
    data = sorted(values)
    n = len(data)
    p = nominal
    if n - math.ceil(p * n / 100) < TAIL_MIN_BEYOND:
        p = max(0, math.floor(100 * (n - TAIL_MIN_BEYOND) / n)) if n else 0
    rank = max(1, math.ceil(p * n / 100))
    return p, data[rank - 1]


class Workload:
    """A workload: set-up in the constructor, then rounds of ops.

    Subclasses define ``ops(round_index)``, ``run(args)`` (the timed part of
    one op) and ``check(op, args, output)``, which returns None when the
    output is right and a description of the mismatch otherwise. ``run``
    raises when the op fails loudly.
    """

    name = ""
    in_process = True
    probe = staticmethod(loop_slowness)    # host-speed probe run before every op
    tail_percentile = 95     # nominal; sized so each run has >= 10 samples beyond
    trace_rounds = 1         # rounds in the traced run's fixed op list

    def __init__(self, seed, tiny):
        self.seed = seed
        self.tiny = tiny
        self.tracer = None
        self.child_traces = []

    def prepare(self, op):
        """Untimed inputs of one op; the op itself by default."""
        return op

    def defect_ops(self):
        """Ops whose inputs hit a known defect of the program; none by default.

        They are not part of the timed loop, so that it has no failing op.
        Each timed run runs and checks them once, untimed, and reports how
        many still fail in its metadata: the defect stays in sight, and a
        fix shows as they start to pass.
        """
        return []

    def close(self):
        pass


class OpFailed(Exception):
    """An op ended in an error the program reported (for example an exit code)."""


def max_diff(a, b):
    """Largest coefficient difference of two index-tuple term dicts."""
    return max((abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in a.keys() | b.keys()),
               default=0.0)
