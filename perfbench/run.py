#!/usr/bin/env python3
"""Builds and runs the twimob benchmark.

    python3 perfbench/run.py --workload cold_paper --seed 1 --seconds 40 --trace 0

Run it from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles ../src) under
.bench_build/; later runs only check that the build is current. Build
output goes to stderr; the benchmark's report and its final JSON result
line go to stdout. The exit code is the benchmark's: 0 only when the run
completed and every output check passed.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

WORKLOADS = ("cold_paper", "live_ingest")
BUILD_ROOT = ".bench_build"
# The benchmark must end within 180 s of starting its measurement.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(command, timeout):
    """Runs a build step with its output on stderr; fails the run on error."""
    try:
        subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=timeout)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        fail("build step failed: %s" % error)


def build(root):
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("the twimob sources (src/) are missing; run from the repository root")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir = os.path.join(root, BUILD_ROOT, "cmake")
    os.makedirs(build_dir, exist_ok=True)
    # Runs sharing a checkout build one at a time.
    with open(os.path.join(root, BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            run_logged(["cmake", "-S", source, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator, 300)
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        run_logged(["cmake", "--build", build_dir, "--target",
                    "twimob_perfbench", "-j", jobs], 880)
    binary = os.path.join(build_dir, "twimob_perfbench")
    if not os.path.isfile(binary):
        fail("benchmark binary missing after the build")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    binary = build(root)
    work_dir = os.path.join(BUILD_ROOT, "work", "run-%d" % os.getpid())
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir,
               "--trace-dir", os.path.join(BUILD_ROOT, "traces")]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        output, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(output)
    sys.stdout.flush()
    sys.exit(process.returncode if process.returncode >= 0 else 1)


if __name__ == "__main__":
    main()
