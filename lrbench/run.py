#!/usr/bin/env python3
"""Build and run the lrcex benchmark from the root of a source checkout.

    python3 lrbench/run.py --workload corpus_search --seed 1 --seconds 26 --trace 0

Builds lrbench/main.exe with dune (build output goes to stderr), then runs
it with the given arguments plus the machine's core count and the code's
identity, and exits with its exit code. The last line of standard output is
the benchmark's JSON result. Fails with exit code 2, printing no result,
when the checkout has no dune project to build.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
SOURCES = ("dune-project", "lib", "bin", "lrbench")


def fail(message):
    print(f"lrbench: {message}", file=sys.stderr)
    sys.exit(2)


def commit():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at the checkout root; nothing to build")
    try:
        build = subprocess.run(
            # --cache=disabled: the shared dune cache lives outside the
            # checkout, and the benchmark writes only inside it.
            ["dune", "build", "--root", ".", "--cache=disabled", "./lrbench/main.exe"],
            cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join(ROOT, "_build", "default", "lrbench", "main.exe")
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    argv = [exe, *sys.argv[1:], "--nproc", str(nproc), "--commit", commit()]
    try:
        run = subprocess.run(argv, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
