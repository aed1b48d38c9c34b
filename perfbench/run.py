#!/usr/bin/env python3
"""Build and run the qokit-cpp end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload optimize-maxcut --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --test      # the benchmark's own tests

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt)
that builds the library from the checkout's sources. The build directory
is $CARGO_TARGET_DIR when set, else .bench_build; it is configured on the
first run and rebuilt incrementally on every run. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. The
exit code is the benchmark's: 0 when every output matched its oracle.
"""
import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(targets):
    """Configure (once) and build `targets`; False when either step fails."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            print(f"perfbench: cannot run {cmd[0]}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def run_tests():
    if not build(["perfbench", "perfbench_tests"]):
        return 2
    unit = subprocess.run([os.path.join(build_dir(), "perfbench_tests")])
    contract = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s",
         os.path.join(BENCH_DIR, "tests"), "-p", "test_*.py"])
    return 0 if unit.returncode == 0 and contract.returncode == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.test:
        return run_tests()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not build(["perfbench"]):
        return 2
    out = build_dir()
    # Socket and trace files go to the build directory, named relative to
    # the working directory so the AF_UNIX path stays short.
    work_dir = os.path.relpath(out)
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace, "--work-dir", work_dir]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
