#!/usr/bin/env python3
"""Builds and runs the murphyd benchmark.

    python3 perfbench/run.py --workload hotel_hot --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
engine libraries and the load generator into .bench_build/ (later runs only
re-check the build). Build output goes to stderr; the benchmark's own stdout
is passed through, its last line being the result JSON. The exit code is the
benchmark's, or 1 when the build fails.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "murphy_perfbench"
WORKLOADS = ("hotel_hot", "fleet_live", "ingest_wire")


def run_child(cmd, timeout=None, **kwargs) -> int:
    """Runs cmd in a process group of its own and returns its exit code.
    On every way out (a timeout, an exception, SIGTERM) the whole group,
    compiler processes included, is killed and waited for."""
    child = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return child.wait(timeout=timeout)
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()


def build() -> bool:
    # Compiler temporaries stay inside the build tree too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "murphy_perfbench", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if run_child(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env):
            return False
    return BINARY.exists()


def source_id() -> str:
    """The git commit when there is one, plus a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "none"
    except OSError:
        sha = "none"
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*") if p.is_file())
        for f in files:
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return f"git:{sha} src-sha256:{digest.hexdigest()[:16]}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM becomes an exception, so run_child stops what it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        print("perfbench: no murphy sources next to perfbench/",
              file=sys.stderr)
        return 1
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", source_id()]
    try:
        # The benchmark's unix socket lives in its working directory.
        return run_child(cmd, timeout=175, cwd=BUILD)
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
