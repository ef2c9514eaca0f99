#!/usr/bin/env python3
"""Build and run the cashbench benchmark from the root of a checkout.

    python3 cashbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

The Go program is built from source into .bench_build/ with every Go
cache kept inside the checkout, then run with the arguments given here.
Its exit code is passed through; a failed build exits 1 without a result.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "cashbench", "cashbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomod"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        CGO_ENABLED="0",
    )
    return env


def run(cmd, timeout, **kw):
    """Run cmd to completion; on timeout kill it and wait for it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"cashbench: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return 1


def main():
    go = shutil.which("go")
    if go is None:
        print("cashbench: no go toolchain on PATH", file=sys.stderr)
        return 1
    os.makedirs(os.path.dirname(BINARY), exist_ok=True)
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    build = [go, "build", "-C", os.path.join(ROOT, "cashbench"), "-o", BINARY, "."]
    if run(build, BUILD_TIMEOUT_S, env=go_env(), stdout=sys.stderr) != 0:
        print("cashbench: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    return run([BINARY] + sys.argv[1:], RUN_TIMEOUT_S, env=env)


if __name__ == "__main__":
    sys.exit(main())
