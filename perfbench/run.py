#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload multiturn --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run configures and builds the
program's libraries and the perfbench binary (CMake, Release-with-debug-info
like the program's own default) into $CARGO_TARGET_DIR or .bench_build;
later runs only check that the build is current. The binary's output is
passed through unchanged, so its last line is the result JSON.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        sys.exit("perfbench: program sources (src/) not found next to perfbench/")
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(os.path.abspath(build_dir))
    except subprocess.CalledProcessError as e:
        sys.exit(f"perfbench: build failed ({e})")
    sys.stdout.flush()
    proc = subprocess.run([binary] + sys.argv[1:])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
