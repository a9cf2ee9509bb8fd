#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark with per-layer attribution.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every other argument is passed through to the perfbench binary (see
src/main.cc), which is built in Release mode from the checkout's sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build output
goes to stderr, so stdout carries only the binary's lines, the last of
which is the result object. Run metadata (git rev and dirty flag, when the
checkout is a git work tree) is passed to the binary, which stamps it on
every result together with the build type, compiler, nproc and seed. The
exit code is the binary's.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--parallel", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def git(*args):
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        p = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)
    except OSError:
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def main():
    if not os.path.exists(os.path.join(ROOT, "src", "runner", "pipeline.h")):
        print("perfbench: no library sources next to perfbench/ "
              "(run from a source checkout)", file=sys.stderr)
        return 2
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    rev = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    meta = ["--meta-git-rev", rev or "unknown",
            "--meta-dirty", "unknown" if status is None else str(int(bool(status)))]
    # A child process, not exec: the binary's peak-RSS and CPU figures read
    # getrusage(RUSAGE_CHILDREN), which an exec would inherit from the build.
    sys.stdout.flush()
    return subprocess.run([os.path.join(build_dir, "perfbench"), *sys.argv[1:],
                           *meta]).returncode


if __name__ == "__main__":
    sys.exit(main())
