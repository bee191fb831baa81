#!/usr/bin/env python3
"""Builds the tcpz benchmark from source and runs one workload.

    python3 tcpzbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The build goes to .bench_build/
(CMake, Release); a traced run writes its spans to .bench_build/spans/.
The benchmark's stdout passes through unchanged: its last line is the JSON
result. Exits non-zero without a result when the build or the run fails.
"""
import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "tcpzbench")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then rebuilds (a no-op when nothing changed)."""
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the benchmark's.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def source_id():
    """The commit when the checkout is a git repo, else a digest of the
    sources the benchmark compiles (src/ and this directory)."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main(argv):
    if not build():
        return 1
    args = [BINARY] + argv + ["--commit", source_id()]
    traced = "--trace" in argv[:-1] and argv[argv.index("--trace") + 1] != "0"
    if traced:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--span-dir", spans]
    proc = subprocess.run(args)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
