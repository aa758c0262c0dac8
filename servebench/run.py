#!/usr/bin/env python3
"""Builds gfomc-serve and the load generator from source, then runs one
benchmark invocation, passing every argument through:

    python3 servebench/run.py --workload eval-warm --seed 1 --seconds 15 --trace 0

Run it from the repository root. Cargo output goes to stderr; the last
line of stdout is the benchmark's JSON result. Build outputs go to
$CARGO_TARGET_DIR (default: .bench_build).
"""
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The benchmark must end within this many seconds once built.
RUN_TIMEOUT_S = 170


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--locked",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "-p", "gfomc-servebench", "-p", "gfomc-serve", "--bins",
    ]
    if subprocess.run(build, stdout=sys.stderr, env=env).returncode != 0:
        sys.exit("servebench: build failed")
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "gfomc-servebench"),
           "--server", os.path.join(release, "gfomc-serve")] + sys.argv[1:]
    # A session of its own, so a timeout can stop the server child too.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        sys.exit(proc.wait(timeout=RUN_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("servebench: timed out")


if __name__ == "__main__":
    main()
