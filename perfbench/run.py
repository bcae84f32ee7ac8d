#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/BENCHMARK.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload attach_session --seed 1 --seconds 20 --trace 0

The first run configures and builds the library from src/ plus the
benchmark binary into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs only rebuild what changed. Build output
goes to stderr, so the last stdout line is the benchmark's JSON result. A
traced run (--trace 1) writes its spans as Chrome trace-event JSON to
<build dir>/traces/<workload>-seed<seed>.json.
"""
import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("attach_session", "tool_io", "slim_deploy")
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    if not os.path.isdir(os.path.join(root, "src")) or not os.path.isfile(
            os.path.join(bench_dir, "CMakeLists.txt")):
        sys.exit("perfbench: run from the root of a checkout (src/ and perfbench/ missing)")

    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "cntr_perfbench"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))

    cmd = [os.path.join(build_dir, "cntr_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    # A SIGTERM to this script must not leave the benchmark running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit("perfbench: benchmark exited with %d" % proc.returncode)


if __name__ == "__main__":
    main()
