#!/usr/bin/env python3
"""Builds and runs the SVT benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test      # builds and runs the benchmark's unit tests

Run from anywhere inside a checkout of the repository. The library is built
with the repository's own Tier-1 configure command into .bench_build/svt,
the benchmark into .bench_build/perfbench; both builds are incremental, so
only the first run of a checkout compiles. Build output goes to stderr;
stdout carries only the benchmark's own lines, the last of which is the
JSON result. Spans of traced runs are written to .bench_build/traces.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
LIB_BUILD = BUILD / "svt"
BENCH_BUILD = BUILD / "perfbench"
RUN_TIMEOUT_S = 170


def run_build_step(args):
    """Runs one build command with its output sent to stderr."""
    result = subprocess.run(args, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"run.py: build step failed: {' '.join(map(str, args))}")


def build(target):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"run.py: {ROOT} holds no repository sources to build")
    jobs = str(os.cpu_count() or 1)
    if not (LIB_BUILD / "CMakeCache.txt").is_file():
        # The Tier-1 configure command, into the benchmark's build tree.
        run_build_step(["cmake", "-B", LIB_BUILD, "-S", ROOT])
    run_build_step(["cmake", "--build", LIB_BUILD, "--target", "svt", "-j", jobs])
    if not (BENCH_BUILD / "CMakeCache.txt").is_file():
        run_build_step(["cmake", "-B", BENCH_BUILD, "-S", ROOT / "perfbench",
                        f"-DSVT_LIBRARY={LIB_BUILD / 'libsvt.a'}"])
    run_build_step(["cmake", "--build", BENCH_BUILD, "--target", target, "-j", jobs])
    return BENCH_BUILD / target


def main(argv):
    if argv == ["--test"]:
        binary = build("perfbench_test")
        return subprocess.run([binary], cwd=ROOT).returncode
    if len(argv) % 2 != 0 or not argv:
        sys.exit("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")
    binary = build("svt_perfbench")
    traces = BUILD / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    try:
        result = subprocess.run([binary, *argv, "--trace-dir", traces], cwd=ROOT,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        sys.exit(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s")
    return result.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
