#!/usr/bin/env python3
"""Build and run the cals benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload window|saturated|serve \
        --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (the first run of a fresh checkout
compiles the whole library), then runs it with the same arguments. The
benchmark prints its human-readable lines and, last, one JSON result
line; its exit code is passed through. Without the library sources next
to it, it exits 2 without printing a result.
"""

import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
SOURCES = ["dune-project", os.path.join("lib", "core", "flow.mli"),
           os.path.join("perfbench", "dune")]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        fail("run from the root of a cals source checkout (missing %s)"
             % ", ".join(missing))
    dune = shutil.which("dune")
    build = [dune] if dune else ["opam", "exec", "--", "dune"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    # Build output goes to stderr: the last line of stdout is the result.
    built = subprocess.run(
        build + ["build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if built.returncode != 0:
        fail("build failed", 3)
    sys.stdout.flush()
    ran = subprocess.run([EXE] + sys.argv[1:])
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
