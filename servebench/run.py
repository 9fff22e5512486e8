#!/usr/bin/env python3
"""Builds pip-server and the servebench program, then runs one workload.

    python3 servebench/run.py --workload point_lookup --seed 1 \
        --seconds 15 --trace 0
    python3 servebench/run.py --workload all --seed 1
    python3 servebench/run.py --selftest

Run from the root of the repository. The build goes to .bench_build/
(Release). --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer ones; the last stdout line is servebench's JSON result. The
exit status is non-zero when an answer check fails, the build fails, or
the server cannot be driven; no result line is printed then.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TYPE = "Release"
WORKLOADS = ["point_lookup", "mc_analytic", "ingest_rw"]


def die(message, code=2):
    print("servebench: " + message, file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no PIP sources next to " + HERE + "; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed", 1)
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        die("build failed", 1)


def commit():
    """The checkout's git commit, or "unknown" outside a repository."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
    except OSError:
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_servebench(workload, args):
    cmd = [os.path.join(BUILD, "servebench"),
           "--server", os.path.join(BUILD, "pip", "examples", "pip-server"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--build-type", BUILD_TYPE, "--commit", commit()]
    return subprocess.run(cmd, cwd=ROOT).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    if args.selftest:
        build(["servebench_selftest"])
        sys.exit(subprocess.run(
            [os.path.join(BUILD, "servebench_selftest")]).returncode)
    if args.workload is None:
        die("--workload is required")
    if not 0 < args.seconds <= 150:
        die("--seconds must be in (0, 150]")
    build(["servebench", "example_pip_server"])
    sys.stdout.flush()
    if args.workload != "all":
        sys.exit(run_servebench(args.workload, args))
    status = 0
    for w in WORKLOADS:
        print("== " + w, flush=True)
        rc = run_servebench(w, args)
        status = status or rc
    sys.exit(status)


if __name__ == "__main__":
    main()
