#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <offline_capture|serve_small|
        serve_large_durable> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Builds the program and the measuring
program from source into .bench_build/ (Release; the first run builds,
later runs reuse it).  Then, in a scratch directory under .bench_build/,
one process synthesises the seeded inputs and their reference analyses
and a fresh process measures the system on them; the scratch is removed
afterwards.  The measuring process's output is passed through: its last
line is the JSON result.  Build output goes to stderr.  Traced runs
(--trace 1) also leave a Chrome trace_event file in .bench_build/traces/.
"""

import argparse
import fcntl
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("offline_capture", "serve_small", "serve_large_durable")


def build():
    """Configure and build perfbench once per checkout (under a lock)."""
    BUILD.mkdir(exist_ok=True)
    binary = BUILD / "perfbench" / "perfbench"
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "perfbench" / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B",
                          str(BUILD / "perfbench"),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD / "perfbench"),
                      "--target", "perfbench", "--parallel",
                      str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr).returncode != 0:
                sys.exit("perfbench: build failed: " + " ".join(cmd))
    return binary


def commit_id():
    """The checkout's commit when it is a git work tree, else unknown."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the program's sources: names the code measured."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    binary = build()
    workdir = BUILD / "run" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--workdir", str(workdir.relative_to(ROOT))]
    cmd = [str(binary), "measure", *common,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id(), "--source-digest", source_digest()]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        rc = subprocess.run([str(binary), "prepare", *common], cwd=ROOT,
                            stdout=sys.stderr).returncode
        if rc == 0:
            rc = subprocess.run(cmd, cwd=ROOT).returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
