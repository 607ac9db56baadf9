#!/usr/bin/env python3
"""Build and run LAAR's end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload steady-stream --seed 1 --seconds 30 --trace 0

The benchmark is a Go program in this directory (its own module, which
uses the checkout's sources through a replace directive). This script
builds it with every Go cache, the binary and the traced run's spans kept
under the build directory ($CARGO_TARGET_DIR, default .bench_build), so
nothing outside the checkout is written, then runs it with the given
arguments and exits with its exit code. The last line the program prints
is the result.
"""
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    home = os.path.join(build, "home")
    os.makedirs(home, exist_ok=True)
    env = dict(
        os.environ,
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, "config"),
        XDG_CACHE_HOME=os.path.join(home, "cache"),
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed; run from the root of a LAAR checkout", file=sys.stderr)
        return 1
    args = [binary, *sys.argv[1:], "--spans-dir", os.path.join(build, "spans")]
    try:
        ran = subprocess.run(args, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
