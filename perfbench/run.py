#!/usr/bin/env python3
"""Build and run the end-to-end benchmark on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the benchmark program and
bin/serve from source with dune, runs one workload, and prints the
program's report; the last line of standard output is the JSON result.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("xmark-adhoc", "xmark-analytic", "serve-mixed")
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not all(os.path.exists(p) for p in ("dune-project", "lib", "bin/serve.ml")):
        print("perfbench: run from the root of an eXrQuy checkout", file=sys.stderr)
        return 2

    # Engine defaults read XRQ_* variables; the benchmark fixes its own
    # settings, so none may leak in. The dune cache would write outside
    # the checkout.
    env = {k: v for k, v in os.environ.items() if not k.startswith("XRQ_")}
    env["DUNE_CACHE"] = "disabled"

    build = subprocess.run(
        ["dune", "build", "--root", ".", "perfbench/xbench.exe", "bin/serve.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        return build.returncode

    cmd = ["_build/default/perfbench/xbench.exe", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    # own process group, so a hung run takes its server down with it
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(out, end="", file=sys.stderr)
        return proc.returncode
    print(out, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
