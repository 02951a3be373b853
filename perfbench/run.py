#!/usr/bin/env python3
"""Build the BOLT benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload contracts --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

The benchmark executable is built with dune into .bench_build/ (with
dune's shared cache off, so the build writes nothing outside the
checkout).  For one workload it then replaces this process, so no child
process outlives the run; `--workload all` runs every workload of
BENCHMARK.json in turn, each in its own process, waiting for each.
Without the repository's libraries next to perfbench/, the build fails
and the script exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys


def main():
    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build")
    if shutil.which("dune") is None:
        sys.exit("perfbench: dune is not on PATH")
    build = subprocess.run(
        ["dune", "build", "--root", root, "--build-dir", build_dir,
         "--cache=disabled", "--display", "quiet",
         "./perfbench/bolt_bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed (dune exit {build.returncode})")
    exe = os.path.join(build_dir, "default", "perfbench", "bolt_bench.exe")
    args = sys.argv[1:]
    i = args.index("--workload") + 1 if "--workload" in args else len(args)
    if args[i:i + 1] != ["all"]:
        sys.stdout.flush()
        os.execv(exe, [exe] + args)
    with open("BENCHMARK.json") as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    for name in names:
        sys.stdout.flush()
        code = subprocess.run([exe] + args[:i] + [name] + args[i + 1:]).returncode
        if code != 0:
            sys.exit(code)


if __name__ == "__main__":
    main()
