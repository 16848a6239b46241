#!/usr/bin/env python3
"""Builds and runs the accmg benchmark.

    python3 perfbench/run.py --workload <fig7-sweep|serve-warm|serve-cold>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test        build, then run the benchmark's
                                           own unit tests

Run it from the repository root. The first call configures and builds the
repository's libraries plus the benchmark binary into $CARGO_TARGET_DIR
(default .bench_build); later calls only rebuild what changed. The binary
then runs under a wall-clock watchdog: if it hangs or dies, this script
prints a result line that counts every unfinished operation as failed and
exits non-zero. The last line of standard output is the JSON result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig7-sweep", "serve-warm", "serve-cold")
# The binary must finish well inside the 180 s a run may take.
WATCHDOG_MARGIN_S = 90
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def run_step(cmd, timeout):
    """Runs a build step with its output sent to stderr; False on failure."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build step failed: {e}")
        return False
    if proc.returncode != 0:
        log(f"build step failed with exit code {proc.returncode}: {cmd}")
        return False
    return True


def build(out):
    """Configures (once) and builds; returns True when both binaries exist."""
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.exists(os.path.join(out, "Makefile")):
        if not run_step(["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                        timeout=BUILD_TIMEOUT_S):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    left = max(1, deadline - time.monotonic())
    return run_step(["cmake", "--build", out, "-j", jobs], timeout=left)


def last_progress(lines):
    """The last 'progress attempted=A completed=C' the binary printed."""
    attempted = completed = 0
    for line in lines:
        if line.startswith("progress "):
            fields = dict(f.split("=", 1) for f in line.split()[1:])
            attempted = int(fields.get("attempted", attempted))
            completed = int(fields.get("completed", completed))
    return attempted, completed


def run_benchmark(binary, args):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    limit = args.seconds + WATCHDOG_MARGIN_S
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    lines = []
    timed_out = False
    try:
        out, _ = proc.communicate(timeout=limit)
        lines = out.splitlines()
    except subprocess.TimeoutExpired:
        timed_out = True
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        lines = out.splitlines()
    for line in lines[:-1]:
        print(line)

    result = None
    if lines and not timed_out:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is not None and isinstance(result, dict) and "correct" in result:
        print(lines[-1], flush=True)
        return 0 if proc.returncode == 0 and result["correct"] else 1

    # Hang or crash: report the unfinished operations as failed.
    attempted, completed = last_progress(lines)
    attempted = max(attempted, completed + 1)
    why = "watchdog fired" if timed_out else f"exit code {proc.returncode}"
    log(f"the benchmark binary did not report a result ({why})")
    print(json.dumps({"correct": False, "attempted": attempted,
                      "failed": attempted - completed, "metrics": {}}),
          flush=True)
    return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="run the benchmark's own unit tests")
    args = parser.parse_args()
    if not args.test and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    if not build(out):
        return 1
    if args.test:
        return subprocess.run([os.path.join(out, "perfbench_tests")],
                              check=False).returncode
    return run_benchmark(os.path.join(out, "perfbench"), args)


if __name__ == "__main__":
    sys.exit(main())
