#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/bench.exe with dune (release profile, build directory
.bench_build/dune, dune cache off so nothing is written outside the
checkout), runs it, and relays its output. The last line of standard output
is the JSON result; the exit code is non-zero when the build fails, when the
checkout is incomplete, or when a correctness check fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["list-read", "hash-write", "kv-zipf", "explore-corpus"]
BUILD_DIR = os.path.join(".bench_build", "dune")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(targets):
    for path in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(path):
            fail(2, "not at the root of a complete checkout (missing %s)" % path)
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", os.path.abspath(BUILD_DIR), "-j", "2",
           "--display", "quiet"] + targets
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True,
                           timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail(3, "dune not found")
    except subprocess.TimeoutExpired:
        fail(3, "build timed out")
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail(3, "build failed")


def exe(name):
    return os.path.join(BUILD_DIR, "default", "perfbench", name)


def run(cmd, timeout):
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        fail(4, "benchmark timed out after %d s" % timeout)
    sys.stdout.write(out)
    sys.stdout.flush()
    return p.returncode


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--revision",
                    default=os.environ.get("PERFBENCH_REVISION", "unknown"),
                    help="revision under test, recorded in the manifest")
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if a.selftest:
        build(["./perfbench/selftest.exe"])
        sys.exit(run([exe("selftest.exe")], RUN_TIMEOUT_S))
    if a.workload is None:
        fail(2, "--workload is required")
    if a.seconds < 1:
        fail(2, "--seconds must be at least 1")
    build(["./perfbench/bench.exe"])
    spans_dir = os.path.join("perfbench", "out")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, "spans-%s-%d.jsonl" % (a.workload, a.seed))
    cmd = [exe("bench.exe"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--revision", a.revision,
           "--nproc", str(len(os.sched_getaffinity(0))),
           "--corpus", os.path.join("perfbench", "explorer.corpus")]
    if a.trace == 1:
        cmd += ["--spans-out", spans]
    sys.exit(run(cmd, RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
