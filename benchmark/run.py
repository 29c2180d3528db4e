#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It configures and builds benchmark/
(libdisp from this checkout's sources plus the disp_perf program) into
.bench_build/ in Release mode, then runs disp_perf.  Build output goes to
standard error; the last line of standard output is the JSON result.  The
exit code is non-zero, and no result is printed, when the build or the run
fails.  --pin-reference (with --seed 1) rewrites the workload's pinned facts
in benchmark/reference.tsv instead of measuring.
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def source_digest():
    """A digest of the sources the benchmark builds and runs."""
    digest = hashlib.sha256()
    for top in ("src", "benchmark"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def source_stamp():
    """The git commit, with "-dirty-<digest>" when src/, benchmark/ or the
    root CMakeLists.txt differ from it; without git metadata, the digest."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--",
                                     "src", "benchmark", "CMakeLists.txt"],
                                    capture_output=True, text=True, timeout=30)
            if head.returncode == 0 and status.returncode == 0:
                commit = head.stdout.strip()
                return f"{commit}-dirty-{source_digest()}" if status.stdout.strip() else commit
        except OSError:
            pass
    return "sources-sha256:" + source_digest()


def build():
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", BUILD, "--target", "disp_perf", "-j", jobs]):
            subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-reference", action="store_true")
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("run.py: no libdisp sources (CMakeLists.txt, src/) next to benchmark/",
              file=sys.stderr)
        return 2
    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    spans = os.path.join(BUILD, "spans", f"{args.workload}-seed{args.seed}.tsv")
    cmd = [os.path.join(BUILD, "disp_perf"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--reference", os.path.join(HERE, "reference.tsv"),
           "--work-dir", os.path.join(BUILD, "work"),
           "--spans-out", spans, "--commit", source_stamp()]
    if args.pin_reference:
        cmd.append("--pin-reference")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: disp_perf did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
