#!/usr/bin/env python3
"""Build the perfbench binary from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload suite-inline --seed 1 --seconds 15 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the checkout root; build output goes to stderr so that the binary's last
stdout line -- the result JSON -- is the last line this script prints. Every
process started here is waited for, and killed (with its whole process group)
if it overruns its time limit.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite-inline", "suite-parallel", "campaign")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_bounded(cmd, timeout, stdout=None):
    """Runs cmd in its own process group; returns its exit code, or None when
    it overran `timeout` seconds (the group is then killed and reaped)."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if sys.exc_info()[0] is subprocess.TimeoutExpired:
            return None
        raise


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        code = run_bounded(step, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            print(f"perfbench: build step failed ({code}): {' '.join(step)}",
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        parser.error("want --seed >= 0 and 0 < --seconds <= 60")

    if not os.path.isdir(os.path.join(ROOT, "src")):
        print(f"perfbench: no simulator sources under {ROOT}", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        return 2

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir, f"spans-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    code = run_bounded(cmd, RUN_TIMEOUT_S)
    if code is None:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was killed",
              file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
