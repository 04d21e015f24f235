#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bulk-deepwalk --seed 1 --seconds 10 --trace 0

It builds the perfbench Go program from source, generates the inputs for
(workload, seed) in a separate process (cached under .bench_build/inputs),
then runs the measurement in a fresh process and forwards its output: the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Everything the benchmark writes, the Go
build cache included, stays under .bench_build in the checkout.
"""

import argparse
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORKLOADS = ("bulk-deepwalk", "serve-mixed", "serve-churn")


def run(cmd, env, timeout, capture=False):
    """Run cmd in its own process group and wait for it.

    On timeout the whole group (go build spawns compilers) is killed and
    reaped before the error propagates. Child stdout goes to our stderr
    unless captured, so only the measurement's result reaches stdout.
    """
    proc = subprocess.Popen(
        cmd,
        env=env,
        stdout=subprocess.PIPE if capture else sys.stderr,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    build = os.path.join(root, BUILD_DIR)
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
    )
    binary = os.path.join(build, "perfbench")
    inputs = os.path.join(build, "inputs")

    code, _ = run(["go", "build", "-o", binary, "./perfbench"], env, timeout=800)
    if code != 0:
        sys.exit("perfbench: build failed (run from the root of a repository checkout)")

    common = ["-workload", args.workload, "-seed", str(args.seed), "-inputs", inputs]
    code, _ = run([binary, "gen"] + common, env, timeout=600)
    if code != 0:
        sys.exit("perfbench: input generation failed")

    cmd = [binary, "run"] + common + ["-seconds", str(args.seconds), "-trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(build, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["-spans", os.path.join(spans, "%s-%d.jsonl" % (args.workload, args.seed))]
    code, out = run(cmd, env, timeout=170, capture=True)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
