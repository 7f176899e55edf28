"""Run one gacalc benchmark workload and print its metrics.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: calc_cli, dense_products, geometry, kepler_csv (see BENCHMARK.json
and perfbench/README.md). With --trace 0 the workload process is first
started SETUP_SAMPLES times to time set-up (``setup_s`` is the median);
the last of them then runs the timed loop for S seconds and prints the
end-to-end metrics, each a median over rounds of ops (see worker.py). Times
are scaled to a reference host speed measured next to them (see "Host
speed" in perfbench/README.md); the unscaled figures are in the metadata. With
--trace 1 one process runs a fixed op list with spans around every public
gacalc function and prints the per-layer metrics.

The last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it, prefixed ``perfbench-meta``,
holds the run metadata. ``--tiny`` shrinks every workload for the smoke
check. Exit status is 0 on a completed run (failed ops included), 2 when the
checkout lacks the program or the oracle, 3 when a workload process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

SETUP_SAMPLES = 9
DEADLINE_S = 170.0
META_PREFIX = "perfbench-meta "


class WorkerError(Exception):
    pass


class Worker:
    """A workload process and its line protocol."""

    def __init__(self, args, deadline):
        cmd = [sys.executable, str(common.ROOT / "perfbench" / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        self.deadline = deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=common.child_env(), cwd=common.ROOT, text=True)

    def readline(self):
        wait = self.deadline - time.monotonic()
        if wait <= 0 or not select.select([self.proc.stdout], [], [], wait)[0]:
            raise WorkerError("workload process did not answer in time")
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerError(f"workload process exited with {self.proc.wait()}")
        return line.strip()

    def send(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


def measure(args):
    """(setup samples, scaled setup samples, worker result) of one run."""
    deadline = time.monotonic() + DEADLINE_S
    samples = 1 if args.trace or args.tiny else SETUP_SAMPLES
    setups, scaled = [], []
    for i in range(samples):
        worker = Worker(args, deadline)
        try:
            ready = worker.readline()
            elapsed = time.perf_counter() - worker.started
            if not ready.startswith("ready "):
                raise WorkerError("workload process broke the protocol")
            probes = json.loads(ready[len("ready "):])
            setups.append(elapsed - probes["probe_s"])
            scaled.append(setups[-1] / statistics.median(probes["slowness"]))
            if i < samples - 1:
                worker.send("exit")
                continue
            worker.send("go")
            result = json.loads(worker.readline())
        except BaseException:
            worker.proc.kill()
            raise
        finally:
            worker.close()
        if worker.proc.returncode != 0:
            raise WorkerError(f"workload process exited with {worker.proc.returncode}")
    return setups, scaled, result


def metadata(args, started, setups, info):
    commit = None
    if (common.ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=common.ROOT,
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((common.SRC / "gacalc").rglob("*.py")):
        digest.update(str(path.relative_to(common.SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    attempted = info["attempted"]
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "started": started,
            "trace": args.trace, "tiny": args.tiny, "commit": commit,
            "src_sha256": digest.hexdigest(), "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "setup_samples_s": setups,
            "failed_frac": info["failed"] / attempted if attempted else 0.0}
    meta.update(info)
    return meta


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one gacalc benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny op lists, for the smoke check")
    args = parser.parse_args(argv)

    missing = common.missing_inputs()
    if missing:
        print(f"perfbench: this checkout lacks {', '.join(missing)}; run from the "
              f"root of a gacalc source checkout", file=sys.stderr)
        return 2
    end_to_end, per_layer = common.declared_metrics()
    started = time.time()
    try:
        setups, scaled, result = measure(args)
    except (WorkerError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    values, info = result["metrics"], result["info"]
    if not args.trace:
        values["setup_s"] = statistics.median(scaled)
        info["unscaled"]["setup_s"] = statistics.median(setups)
    declared = per_layer if args.trace else end_to_end
    if set(values) != set(declared):
        print(f"perfbench: metrics {sorted(set(values) ^ set(declared))} do not match "
              f"BENCHMARK.json", file=sys.stderr)
        return 3

    for error in info["errors"]:
        print(f"perfbench: failed op {error}", file=sys.stderr)
    for name, unit in declared.items():
        note = ""
        if name == "latency_tail_ms":
            tail = info["latency_tail"]
            note = (f"  (median p{tail['percentile']} of {tail['windows']} windows, "
                    f"{tail['samples']} ops)")
        print(f"{name} = {values[name]:.6g} {unit}{note}")
    print(f"failed ops: {info['failed']} of {info['attempted']} "
          f"({info['wrong']} with wrong output, {info['checked']} checked)")
    defects = info.get("known_defects")
    if defects and defects["attempted"]:
        print(f"known-defect inputs (untimed, not in the result): {defects['failed']} "
              f"of {defects['attempted']} still fail")
        for error in defects["errors"]:
            print(f"perfbench: known defect {error}", file=sys.stderr)
    print(META_PREFIX + json.dumps(metadata(args, started, setups, info)))
    print(json.dumps({
        "correct": info["wrong"] == 0 and info["checked"] > 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
