#!/usr/bin/env python3
"""Builds and runs the folearnd benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload evaluate-text --seed 1 --seconds 30 --trace 0

The first run configures and builds folearnd and the load generator
(Release) under .bench_build/perfbench; later runs only re-check the build.
Build output goes to stderr. The load generator's stdout is passed through;
its last line is the JSON result. See perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    command = ["cmake", "--build", BUILD, "--target", "folearnd_loadgen",
               "folearnd", "-j", "4"]
    return subprocess.call(command, stdout=sys.stderr) == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    loadgen = os.path.join(BUILD, "folearnd_loadgen")
    folearnd = os.path.join(BUILD, "folearn", "tools", "folearnd")
    return subprocess.call([loadgen] + sys.argv[1:] + ["--folearnd", folearnd])


if __name__ == "__main__":
    sys.exit(main())
