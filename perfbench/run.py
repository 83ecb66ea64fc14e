#!/usr/bin/env python3
"""Build and run cloudscope's benchmark.

Usage, from the root of a cloudscope checkout:

    python3 perfbench/run.py --workload study --seed 1 --seconds 15 --trace 0

The Go benchmark in this directory is built from source into the build
directory ($CARGO_TARGET_DIR, default .bench_build), with the Go build
cache and configuration kept there too, so nothing is written outside the
checkout. The benchmark's last line of standard output is its JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        fail("no cloudscope module at %s: run from the root of a full checkout" % ROOT)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = os.path.join(build_dir, "perfbench")

    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOTMPDIR": tmp,
        "GOCACHE": os.path.join(build_dir, "gocache"),
        "GOPATH": os.path.join(build_dir, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build_dir, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=850)
    except FileNotFoundError:
        fail("the go toolchain is not on PATH")
    except subprocess.TimeoutExpired:
        fail("building the benchmark timed out")
    if build.returncode != 0:
        fail("building the benchmark failed", build.returncode)

    # Replace this process with the benchmark, so no child outlives it.
    os.chdir(ROOT)
    os.execv(binary, [binary, "--trace-dir", os.path.join(build_dir, "traces")] + sys.argv[1:])


if __name__ == "__main__":
    main()
