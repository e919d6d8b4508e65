#!/usr/bin/env python3
"""perfbench: build archex from source and run one benchmark workload.

    python3 perfbench/run.py --workload mr_eps --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --make-reference

Run from the repository root (or anywhere: paths are taken relative to this
file). The first run configures and builds the archex libraries, the
archex_server binary and the perfbench runner into .bench_build/ at the
repository root; later runs only re-check the build. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are the end-to-end metrics
(setup_s is measured here: process start to the runner's "ready" line, the
median of several set-ups); with --trace 1 they are the per-layer metrics
of a separate traced run. See README.md for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("mr_eps", "ar_eps", "ar_eps_par", "serve_mix")
# Set-ups timed per run besides the measured one; setup_s is their median.
SETUP_PROBES = 8
RUNNER_TIMEOUT_S = 170


def build():
    """Configure once, then (re)build the targets the benchmark runs."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise SystemExit("perfbench: archex sources not found next to "
                         f"{HERE}; nothing to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench_runner",
                    "archex_server", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return (os.path.join(BUILD, "perfbench_runner"),
            os.path.join(BUILD, "archex", "examples", "archex_server"))


def stop(proc):
    """Kill the runner's process group (its server and pass processes too)."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def start(cmd):
    """Start the runner; return it and the seconds until it printed ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    line = proc.stdout.readline().strip()
    elapsed = time.perf_counter() - t0
    if line != "ready":
        stop(proc)
        raise SystemExit(f"perfbench: runner failed during set-up ({line!r})")
    return proc, elapsed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-reference", action="store_true",
                    help="brute-force the EPS instances into reference.json")
    args = ap.parse_args()

    runner, server = build()
    if args.make_reference:
        subprocess.run([runner, "--make-reference",
                        os.path.join(HERE, "reference.json")], check=True)
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    os.makedirs(OUT, exist_ok=True)
    workers = max(2, min(4, os.cpu_count() or 1))
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", os.path.join(HERE, "reference.json"),
           "--out-dir", OUT, "--server", server, "--workers", str(workers)]

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe, elapsed = start(cmd + ["--setup-only"])
            try:
                probe.communicate(timeout=30)
            finally:
                stop(probe)
            if probe.returncode != 0:
                raise SystemExit("perfbench: set-up probe failed")
            setups.append(elapsed)
    proc, elapsed = start(cmd)
    setups.append(elapsed)
    try:
        out, _ = proc.communicate(timeout=RUNNER_TIMEOUT_S)
    finally:
        stop(proc)
    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit("perfbench: runner printed no result")
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                        "unit": "s"}
    print(json.dumps(result))
    return 0 if proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
