#!/usr/bin/env python3
"""Build and run branchsim's benchmark.

Run from the root of a branchsim checkout:

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 30 --trace 0

The script builds the benchmark (the Go module in this directory, which
compiles the repository's packages from source) into the build directory,
then runs it with the given arguments. The build directory is
$CARGO_TARGET_DIR if set, else .bench_build; Go's build cache and temporary
files are kept there too, so nothing is written outside the checkout. The
benchmark's last line of standard output is its JSON result.
"""

import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(os.path.join(ROOT, "internal")):
        fail("no branchsim sources next to %s: run from a full checkout" % HERE)
    go = shutil.which("go")
    if go is None:
        fail("the go toolchain is not on PATH")

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    home = os.path.join(build, "home")
    env = dict(os.environ)
    env.update({
        # The go command keeps telemetry and configuration under the home
        # directory; point it into the build directory too.
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        fail("build failed")

    scratch = tempfile.mkdtemp(prefix="run-", dir=build)
    try:
        run = subprocess.run([binary, "--scratch", scratch] + sys.argv[1:], cwd=ROOT, env=env)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
