#!/usr/bin/env python3
"""Builds bench_e18_suite from the checkout's sources and runs it.

    python3 benchsuite/run.py --workload W --seed S --seconds T --trace 0|1
    python3 benchsuite/run.py compare PARENT_DIR CHANGE_DIR
    python3 benchsuite/run.py pins

Run it from the root of a checkout.  The build goes to $CARGO_TARGET_DIR
(default .bench_build), always optimized; it is incremental, so only the
first run of a checkout compiles.  Build output goes to stderr: the last
line of stdout is the benchmark's JSON result.  Results land in
--out (default .bench_out).  See benchsuite/README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "bench_e18_suite"


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(d)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "scenario", "registry.hpp")):
        print("run.py: the library sources (src/) are missing next to "
              "benchsuite/; run from a full checkout", file=sys.stderr)
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", BINARY])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            print("run.py: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(out, BINARY)


def commit():
    """The checkout's commit when it is a git work tree, else "unknown"."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.check_output(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            stderr=subprocess.DEVNULL, text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv):
    exe = build()
    if exe is None:
        return 2
    if argv[:1] == ["compare"]:
        rest = argv[1:]
        if "--benchmark" not in rest:
            rest += ["--benchmark", os.path.join(ROOT, "BENCHMARK.json")]
        return subprocess.call([exe, "compare"] + rest)
    if argv[:1] == ["pins"]:
        return subprocess.call([exe, "pins"])
    args = list(argv)
    if "--expected" not in args:
        args += ["--expected", os.path.join(HERE, "expected.json")]
    if "--commit" not in args:
        args += ["--commit", commit()]
    return subprocess.call([exe] + args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
