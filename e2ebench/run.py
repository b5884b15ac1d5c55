#!/usr/bin/env python3
"""Builds and runs the AnoT end-to-end benchmark.

    python3 e2ebench/run.py --workload serve-icews14 --seed 1 --seconds 10 --trace 0

Run from the root of a source tree. The benchmark package in this
directory is configured and built from source into .bench_build/e2ebench
(a no-op when it is up to date), then the benchmark program runs the workload
in a private work directory that is removed afterwards. Build output and
diagnostics go to stderr; the last line of stdout is the program's JSON
result. The exit code is the program's, or 1 when the build fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
BINARY = BUILD / "anot_e2e"


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    traces = BUILD / "traces"
    traces.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    try:
        cmd = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", work]
        if args.trace:
            cmd += ["--trace-out", str(traces / f"{args.workload}.tsv")]
        proc = subprocess.Popen(cmd)
        # Pass a termination on to the program and wait for it to end, so
        # no benchmark process outlives this one.
        for sig in (signal.SIGINT, signal.SIGTERM):
            signal.signal(sig, lambda signum, _: proc.send_signal(signum))
        return proc.wait()
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
