#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload traverse|serve-batch|serve-open \
        --seed N --seconds S --trace 0|1 [--tiny]

Builds perfbench/ (which compiles the library from src/) into
.bench_build/, runs the workload binary, and relays its output. The
last stdout line is the result JSON; nothing is printed as a result
when the build or any correctness check fails, and the exit code is
then nonzero. Build logs go to stderr.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                 BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", BUILD_DIR, "-j", "4"]):
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return os.path.exists(BINARY)


def source_sha256():
    """Hash of every file under src/ and perfbench/, so a result names
    the code it measured even outside a git checkout."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["traverse", "serve-batch", "serve-open"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args()

    if not build():
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--git-sha", git_sha(), "--source-sha", source_sha256()]
    if args.trace == "1":
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-dir", trace_dir]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"workload exceeded {RUN_TIMEOUT_S} s")
        return 3
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        log(f"workload failed with exit code {proc.returncode}")
        return proc.returncode if proc.returncode > 0 else 4

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
    except (IndexError, ValueError, AssertionError):
        log("workload printed no valid result line")
        return 5
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
