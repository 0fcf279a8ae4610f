#!/usr/bin/env python3
"""Build and run the TetrisLock flow benchmark.

Run from the root of a checkout:

    python3 flowbench/run.py --workload suite --seed 1 --seconds 25 --trace 0
    python3 flowbench/run.py --selftest

The benchmark is built from source (CMake, Release) into the directory named
by CARGO_TARGET_DIR, or .bench_build at the checkout root when it is unset,
and then run with the given arguments. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Traced runs write their
spans under <build dir>/traces/.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(target):
    """Configures (once) and builds `target`; returns the executable path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("flowbench: the repository sources are not next to flowbench/")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(
        ["cmake", "--build", out, "--target", target, "-j", jobs],
        check=True,
        stdout=sys.stderr,
    )
    return os.path.join(out, target)


def main(argv):
    try:
        if argv == ["--selftest"]:
            return subprocess.run([build("flowbench_selftest")]).returncode
        exe = build("flowbench")
    except subprocess.CalledProcessError as e:
        print(f"flowbench: build failed: {e}", file=sys.stderr)
        return 1
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    return subprocess.run([exe, *argv, "--trace-out", traces]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
