#!/usr/bin/env python3
"""Build and run the strt benchmark for one workload.

  python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The first run configures and builds the
library and strt_bench (perfbench/CMakeLists.txt, Release) under the build
directory -- $CARGO_TARGET_DIR when set, else .bench_build -- and later runs
only rebuild what changed.  strt_bench runs with every STRT_* variable
removed from its environment, so it measures the library's defaults.  Its
standard output is passed through; the last line is the result object
{"correct", "attempted", "failed", "metrics"}.  The exit code is
strt_bench's: 0 when every answer checked out, non-zero otherwise or when the
build fails (then no result line is printed).

--size small runs the self-test size of the workload (see selftest.py).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run, build excluded, must end well inside 180 seconds.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(bdir):
    """Configures (once) and builds strt_bench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no strt sources at %s/src" % ROOT, file=sys.stderr)
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", bdir, "--target", "strt_bench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            print("run.py: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(bdir, "strt_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["serve_mix", "oneshot_cold", "restart_warm"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "small"], default="full")
    args = ap.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        return 2

    env = {k: v for k, v in os.environ.items() if not k.startswith("STRT_")}
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--size", args.size,
           "--out", os.path.join(bdir, "out"),
           "--digests", os.path.join(HERE, "digests.json")]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: strt_bench ran past %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 2
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
