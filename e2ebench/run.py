#!/usr/bin/env python3
"""Build and run the SampleTrack end-to-end benchmark (see README.md).

    python3 e2ebench/run.py --workload sync64-lowrate --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The program is built from source into
.bench_build/e2ebench (Release) on first use; build output goes to stderr.
The benchmark's own output goes to stdout, and its last line is the JSON
result. Detail records, chrome traces and prof reports land in .bench_out/.
Exits non-zero, printing no result, if the sources, the build or the run
fail.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# Beyond the measured window: three set-ups, warm-up, the last round and,
# in traced runs, the direct layer measurements.
RUN_SLACK_S = 120


def source_digest():
    """SHA-256 over the library sources and build file: identifies the code
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        paths += [os.path.join(base, f) for f in sorted(files)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "e2ebench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: smoke-test inputs")
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in [1, 600]")

    for needed in ("CMakeLists.txt", os.path.join("src", "include", "sampletrack")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"e2ebench: {needed} not found under {ROOT}; run from a "
                  "SampleTrack checkout", file=sys.stderr)
            return 2
    if not build():
        print("e2ebench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(BUILD_DIR, "e2ebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--out-dir", OUT_DIR,
           "--commit", commit(), "--source-digest", source_digest()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT,
                              timeout=args.seconds + RUN_SLACK_S).returncode
    except subprocess.TimeoutExpired:
        print("e2ebench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
