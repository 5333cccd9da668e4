#!/usr/bin/env python3
"""Builds and runs one workload of the SN-SLP benchmark.

Run from the root of the repository:

    python3 snbench/run.py --workload execute --seed 1 --seconds 10 --trace 0

Workloads: execute, service_overload (see
snbench/README.md). The first run configures and builds the measured
program (the snslp library and the snslpd daemon) and the benchmark from
source into .bench_build/snbench; later runs only rebuild what changed.
Build output goes to standard error. Standard output ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the per-layer ones, from
the traced part of the run. Counts that must repeat are stored per
workload, seed and build (a hash of the two binaries) under
.bench_build/snbench/out and compared with every later run of the same
build.

Exit code: 0 when every output was correct; non-zero on a build failure,
a wrong output, a determinism mismatch or a timeout.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "snbench")
WORKLOADS = ("execute", "service_overload")
# The benchmark binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds; returns False on any failure."""
    def run(cmd):
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode == 0

    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        if not run(["cmake", "-S", HERE, "-B", BUILD] + generator):
            return False
    return (run(["cmake", "--build", BUILD, "-j", "4"]) and
            run([os.path.join(BUILD, "snbench_selftest")]))


def build_id():
    """Names the build by the bytes of the two measured binaries.

    The determinism check keeps the counts of each build apart: a run is
    compared only with earlier runs of the same program."""
    digest = hashlib.sha256()
    for name in ("snbench", "snslpd"):
        with open(os.path.join(BUILD, name), "rb") as binary:
            for chunk in iter(lambda: binary.read(1 << 20), b""):
                digest.update(chunk)
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("snbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(BUILD, "snbench"),
           "--workload=" + args.workload,
           "--seed=" + str(args.seed),
           "--seconds=" + str(args.seconds),
           "--trace=" + str(args.trace),
           "--daemon=" + os.path.join(BUILD, "snslpd"),
           "--out-dir=" + os.path.join(BUILD, "out"),
           "--build-id=" + build_id()]
    # Own process group, so a timeout also stops the daemon it forked.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("snbench: timed out", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
