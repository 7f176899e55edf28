"""One workload process: set up, report ready, then run the timed or traced loop.

Started by run.py with the program's ``src/`` on PYTHONPATH. It prints
``ready PROBES`` on its protocol stream once set-up is done and waits for
``go`` (run) or anything else (exit) on stdin. PROBES is a JSON object: the
slowness measured by each host-speed probe run just before and just after
set-up, in this process and so on the CPU that did the set-up, and the
seconds those probes took together. The result is one JSON line on the
protocol stream; everything else the process prints goes to stderr.

A closed loop with one client: each op starts when the previous one and its
correctness check have finished. Ops run in rounds, and a run is a whole
number of rounds, so every run sees the same mix of op kinds. A host-speed
probe runs before every op; op times are reported scaled by it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

MAX_REPORTED_ERRORS = 5
# Whole tail windows in every timed run: the tail stays at the nominal
# percentile, and the median of two windows is steadier than one window.
MIN_WINDOWS = 2
IMPORT_SAMPLES = 3
SETUP_PROBES = 3      # host-speed probes just before and just after set-up


def _workload(name, seed, tiny):
    if name == "calc_cli":
        from calc_cli import CalcCli as cls
    elif name == "dense_products":
        from dense_products import DenseProducts as cls
    elif name == "geometry":
        from geometry import Geometry as cls
    else:
        from kepler_csv import KeplerCsv as cls
    return cls(seed, tiny)


def _cpu_now():
    own = time.process_time()
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own + kids.ru_utime + kids.ru_stime


class Tally:
    """Op outcomes: latencies, CPU, and failures of one pass."""

    def __init__(self):
        self.latencies = []
        self.cpu = []
        self.failed = 0
        self.wrong = 0
        self.checked = 0
        self.errors = []

    def fail(self, op, message, wrong=False):
        self.failed += 1
        self.wrong += wrong
        if len(self.errors) < MAX_REPORTED_ERRORS:
            self.errors.append(f"{op}: {message}")


def run_jobs(wl, ops, tally, check=True, probes=None, tracer=None):
    """Run ops one after another, timing each and checking its output.

    Each op's inputs (operands in a fresh algebra, say) are prepared just
    before it, untimed, and dropped after it, so the memory of one op does
    not add to the next. With ``probes`` a list, the workload's host-speed
    probe is run just before each op and its slowness appended. With a
    ``tracer``, spans are recorded around the op itself.
    """
    for op in ops:
        args = wl.prepare(op)
        if probes is not None:
            probes.append(wl.probe())
        if tracer is not None:
            if wl.in_process:
                tracer.install()
            else:
                wl.tracer = tracer
        c0 = _cpu_now()
        t0 = time.perf_counter()
        try:
            out = wl.run(args)
            error = None
        except Exception as exc:  # an op that raises counts as failed, not as a crash
            out, error = None, exc
        finally:
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.uninstall()
                wl.tracer = None
        tally.cpu.append(_cpu_now() - c0)
        tally.latencies.append(t1 - t0)
        if error is not None:
            tally.fail(op, f"{type(error).__name__}: {error}")
        elif check:
            tally.checked += 1
            problem = wl.check(op, args, out)
            if problem:
                tally.fail(op, problem, wrong=True)
        del args, out


def defect_report(wl):
    """Run and check the workload's known-defect ops once, untimed."""
    tally = Tally()
    run_jobs(wl, wl.defect_ops(), tally)
    return {"attempted": len(tally.latencies), "failed": tally.failed,
            "errors": tally.errors}


def op_speed_factors(probes, count):
    """Host slowness during each of ``count`` ops from the probes around it.

    Probe j is taken just before op j and probe ``count`` after the last op;
    op j uses the median of the two probes before it and the two after.
    """
    return [statistics.median(probes[max(0, j - 1):j + 3]) for j in range(count)]


def timed_run(wl, seconds):
    """Whole rounds, for ``seconds`` and at least MIN_WINDOWS tail windows.

    Every op time is divided by the host slowness the probes next to it
    measured, so the metrics read the same whether the shared host runs
    fast or slow. Metrics are medians over rounds, each holding every op
    kind once; the raw (unscaled) figures go to the metadata.
    """
    width = window_rounds(len(wl.ops(0)), wl.tail_percentile)
    min_rounds = 1 if wl.tiny else MIN_WINDOWS * width
    rounds, probes = [], []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        tally = Tally()
        run_jobs(wl, wl.ops(len(rounds)), tally, probes=probes)
        rounds.append(tally)
    probes.append(wl.probe())
    loop_s = time.perf_counter() - start
    factors = iter(op_speed_factors(probes, sum(len(r.latencies) for r in rounds)))
    scaled = []
    for r in rounds:
        f = [next(factors) for _ in r.latencies]
        scaled.append(([x / k for x, k in zip(r.latencies, f)],
                       [x / k for x, k in zip(r.cpu, f)]))
    usage = resource.getrusage(
        resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN)
    metrics = round_metrics(scaled, wl.tail_percentile)
    metrics["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    raw = round_metrics([(r.latencies, r.cpu) for r in rounds], wl.tail_percentile)
    total = Tally()
    for r in rounds:
        total.latencies += r.latencies
        total.failed += r.failed
        total.wrong += r.wrong
        total.checked += r.checked
        total.errors += r.errors[:max(0, MAX_REPORTED_ERRORS - len(total.errors))]
    info = {"rounds": len(rounds), "ops_per_round": len(rounds[0].latencies),
            "loop_s": loop_s, "latency_tail": metrics.pop("latency_tail"),
            "host_speed_factor": statistics.median(probes),
            "unscaled": {k: v for k, v in raw.items() if k != "latency_tail"}}
    return total, metrics, info


def round_metrics(rounds, nominal):
    """Throughput, latency and CPU metrics from (latencies, cpu) of each round."""
    p, tail_s, window = windowed_tail([lat for lat, _ in rounds], nominal)
    return {
        "ops_per_s": statistics.median(len(lat) / sum(lat) for lat, _ in rounds),
        "latency_p50_ms": statistics.median(statistics.median(lat)
                                            for lat, _ in rounds) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "cpu_ms_per_op": statistics.median(sum(cpu) / len(cpu) for _, cpu in rounds) * 1e3,
        "latency_tail": {"percentile": p, **window},
    }


def window_rounds(per_round, nominal):
    """The fewest whole rounds holding TAIL_MIN_BEYOND samples beyond ``nominal``."""
    need = math.ceil(common.TAIL_MIN_BEYOND * 100 / (100 - nominal))
    return math.ceil(need / per_round)


def windowed_tail(round_latencies, nominal):
    """(percentile, tail, window info): the median tail over windows of rounds.

    Leftover rounds join the last window. Only a run shorter than one
    window (a --tiny run) uses all its samples at a lowered percentile.
    """
    width = window_rounds(len(round_latencies[0]), nominal)
    count = max(1, len(round_latencies) // width)
    windows = []
    for w in range(count):
        end = len(round_latencies) if w == count - 1 else (w + 1) * width
        windows.append([x for lat in round_latencies[w * width:end] for x in lat])
    tails = [common.tail(win, nominal) for win in windows]
    return (min(p for p, _ in tails), statistics.median(t for _, t in tails),
            {"windows": count, "samples": sum(map(len, windows))})


def traced_run(wl):
    """Per-layer metrics from a fixed op list, and the cost of tracing it.

    A first pass runs and checks every op untraced (it also warms caches).
    The second runs each op twice, untraced and then traced, so that drift
    in machine speed cancels from ``trace.overhead_frac``. A layer the
    workload does not use reports 0 calls and 0 s.
    """
    import tracer as tracing

    ops = [op for r in range(wl.trace_rounds) for op in wl.ops(r)]
    common.OUT.mkdir(exist_ok=True)
    spans = common.spans_path(wl.name, wl.seed)
    spans.unlink(missing_ok=True)
    checked = Tally()
    run_jobs(wl, ops, checked)
    tr = tracing.Tracer()
    plain, traced = Tally(), Tally()
    for op in ops:
        run_jobs(wl, [op], plain, check=False)
        run_jobs(wl, [op], traced, check=False, tracer=tr)
    tr.write_spans(spans)
    for child in wl.child_traces:
        with open(child, encoding="utf-8") as fh:
            tr.merge(json.load(fh))
    metrics = tr.metrics()
    metrics.update(import_metrics())
    metrics["trace.overhead_frac"] = sum(traced.latencies) / sum(plain.latencies) - 1
    info = {"trace_ops": len(ops), "spans": len(tr.span_start),
            "spans_dropped": tr.dropped, "span_file": str(spans.relative_to(common.ROOT))}
    return checked, metrics, info


def import_metrics():
    """Interpreter start and ``import gacalc`` cost, each the median of IMPORT_SAMPLES."""
    env = common.child_env()
    walls, gacalc_s, numpy_s = [], [], []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env)
        walls.append(time.perf_counter() - t0)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gacalc"],
                              check=True, env=env, capture_output=True, text=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[0].startswith("import time:"):
                try:
                    cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
                except ValueError:
                    continue
        gacalc_s.append(cumulative.get("gacalc", 0.0))
        numpy_s.append(cumulative.get("numpy", 0.0))
    return {"import.python_s": statistics.median(walls),
            "import.gacalc_s": statistics.median(gacalc_s),
            "import.numpy_s": statistics.median(numpy_s)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    t0 = time.perf_counter()
    probes = [common.loop_slowness() for _ in range(SETUP_PROBES)]
    probe_s = time.perf_counter() - t0
    wl = _workload(args.workload, args.seed, args.tiny)
    t0 = time.perf_counter()
    probes += [common.loop_slowness() for _ in range(SETUP_PROBES)]
    probe_s += time.perf_counter() - t0
    try:
        proto.write("ready " + json.dumps({"probe_s": probe_s, "slowness": probes}) + "\n")
        if sys.stdin.readline().strip() != "go":
            return 0
        if args.trace:
            tally, metrics, info = traced_run(wl)
        else:
            tally, metrics, info = timed_run(wl, args.seconds)
            info["known_defects"] = defect_report(wl)
    finally:
        wl.close()
    info.update({"attempted": len(tally.latencies), "failed": tally.failed,
                 "wrong": tally.wrong, "checked": tally.checked,
                 "errors": tally.errors})
    proto.write(json.dumps({"metrics": metrics, "info": info}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
