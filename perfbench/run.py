#!/usr/bin/env python3
"""Builds the perfbench program from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload big_job|fleet|serve --seed N \
        --seconds S --trace 0|1

The program and the dcolor library it links are configured and built with
CMake under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
build output goes to stderr. Temporary files of a run live under
$CARGO_TARGET_DIR/perfbench-tmp and are removed by the program. The last
line of standard output is the run's JSON result; a failed build exits
non-zero without printing one.
"""

import fcntl
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(target_dir):
    build_dir = os.path.join(target_dir, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # One build at a time per build tree.
    with open(os.path.join(target_dir, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    target_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(target_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    workdir = os.path.join(target_dir, "perfbench-tmp")
    os.makedirs(workdir, exist_ok=True)

    child = subprocess.Popen(
        [binary, *sys.argv[1:], "--workdir", workdir],
        stdout=subprocess.PIPE, text=True)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    try:
        output, _ = child.communicate()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0:
        sys.stderr.write(output)
        print(f"perfbench: program exited with {child.returncode}",
              file=sys.stderr)
        return child.returncode if child.returncode > 0 else 1
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
