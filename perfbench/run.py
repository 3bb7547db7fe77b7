#!/usr/bin/env python3
"""Build the ipcp benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check [--seed N]

Run from the root of a checkout.  The benchmark executable is built with
dune inside the checkout (into _build/) and run with the same arguments;
its last line of standard output is the result object.  The build's own
output goes to standard error.  Exits non-zero, printing no result, when
the build fails.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/ipcpbench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "ipcpbench.exe")


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, TARGET],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: the build failed", file=sys.stderr)
        return 1
    bench = subprocess.Popen([EXE] + sys.argv[1:], cwd=ROOT)
    try:
        return bench.wait()
    finally:
        # stopped from outside: stop the benchmark too, and wait for it
        if bench.poll() is None:
            bench.kill()
            bench.wait()


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
