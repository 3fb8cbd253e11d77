#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mail --seed 1 --seconds 30 --trace 0

Every argument is passed on to perfbench/main.exe (see main.ml). The build
goes through dune inside the checkout (_build/), with dune's shared cache
off so nothing is read or written outside it; build output goes to stderr,
so the last line of stdout stays the benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "-j", "2", "./perfbench/main.exe"],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
        )
    except FileNotFoundError:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    sys.stdout.flush()
    os.execv(EXE, [EXE, "--out", os.path.join(HERE, "out")] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
