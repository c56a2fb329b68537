#!/usr/bin/env python3
"""Builds and runs the stdchk checkpoint-storage benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload storm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --check-neutral
    python3 perfbench/run.py --check-similarity --seed 1

The first call configures and builds the library and the benchmark binary under
.bench_build/ (Release, lock-rank validator off); later calls only check
that the build is current. The binary's disk stores live under
.bench_build/stores/ and are removed when the run ends, whatever its
outcome. The last line on stdout is the JSON result; build and progress
output goes to stderr. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BENCH_DIR = os.path.join(REPO, ".bench_build")
BUILD_DIR = os.path.join(BENCH_DIR, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("storm", "incremental", "restart")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(REPO, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(REPO, "src", "core"))):
        fail("the stdchk sources (CMakeLists.txt, src/) are not beside "
             "perfbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                   "-j", jobs]
    before = os.stat(BINARY).st_mtime_ns if os.path.exists(BINARY) else None
    if subprocess.call(compile_cmd, stdout=sys.stderr) != 0:
        fail("build failed")
    if os.stat(BINARY).st_mtime_ns != before:
        flush_build_outputs()


def flush_build_outputs():
    """Writes the fresh build to disk now, so that its write-back does not
    compete with the disk-bound runs that follow."""
    for root, _, files in os.walk(BUILD_DIR):
        for name in files:
            path = os.path.join(root, name)
            if not os.path.isfile(path) or os.path.islink(path):
                continue
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def remove_stores(store_dir):
    """Removes a run's stores and commits the removal, so that the freeing
    of its blocks (and their discard, where the filesystem discards online)
    finishes inside this run rather than in the next one."""
    shutil.rmtree(store_dir, ignore_errors=True)
    parent = os.path.dirname(store_dir)
    if os.path.isdir(parent):
        fd = os.open(parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def run_binary(args, store_dir):
    cmd = [BINARY, "--store-dir", store_dir]
    if args.check_neutral:
        cmd.append("--check-neutral")
    elif args.check_similarity:
        cmd += ["--check-similarity", "--seed", str(args.seed)]
    else:
        trace_dir = os.path.join(BENCH_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--trace-dir", trace_dir]
    # The binary's set-up time starts here: CLOCK_MONOTONIC, the clock its
    # std::chrono::steady_clock reads.
    cmd += ["--launched-ns", str(time.monotonic_ns())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark binary did not finish within {RUN_TIMEOUT_S} s", 1)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        remove_stores(store_dir)
    return proc.returncode, out.decode(errors="replace").splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-neutral", action="store_true",
                        help="compare decorated and bare runs, then exit")
    parser.add_argument("--check-similarity", action="store_true",
                        help="print the incremental inputs' similarity "
                             "between successive images, then exit")
    args = parser.parse_args()
    check = args.check_neutral or args.check_similarity
    if not check and args.workload is None:
        fail("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    # Turn SIGTERM into an exception so the finally blocks stop the binary
    # and remove its stores.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build()
    store_dir = os.path.join(BENCH_DIR, "stores",
                             f"{args.workload or 'neutral'}-{os.getpid()}")
    code, lines = run_binary(args, store_dir)
    if check:
        print("\n".join(lines))
        return code
    if not lines:
        fail(f"benchmark binary exited with code {code} and printed no result", 1)
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"benchmark binary exited with code {code}; last line is not JSON", 1)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("benchmark binary result has unexpected keys", 1)
    print(json.dumps(result))
    if code != 0 or not result["correct"]:
        print("perfbench: output checks failed", file=sys.stderr)
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
