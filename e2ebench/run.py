#!/usr/bin/env python3
"""Builds pvcdb and the e2ebench binary from this checkout, then runs one
workload of the end-to-end benchmark.

    python3 e2ebench/run.py --workload chain_scan --seed 1 --seconds 12 --trace 0

Workloads: chain_scan, agg_having, mixed_durable. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer metrics of the traced replay.
The build (Release) goes to .bench_build at the checkout root; the first
run compiles, later runs only check it. The last line of stdout is the
result JSON; see e2ebench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = ".bench_build"
# The e2ebench binary stops itself at 170 s; this only backs it up.
RUN_TIMEOUT_S = 175


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout may not
    be a git repository, so this identifies the code measured)."""
    digest = hashlib.sha256()
    files = ["CMakeLists.txt"]
    for top in ("src", "tools", "e2ebench"):
        for base, dirs, names in os.walk(top):
            dirs.sort()
            files.extend(os.path.join(base, n) for n in sorted(names))
    for path in files:
        digest.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("no pvcdb sources next to e2ebench/ (CMakeLists.txt, src/)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "e2ebench", "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "e2ebench",
                  "pvcdb_server", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    os.chdir(ROOT)
    build()
    binary = os.path.join(BUILD, "e2ebench")
    server = os.path.join(BUILD, "pvcdb", "pvcdb_server")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--server-bin", server, "--commit", commit(),
           "--source-digest", source_digest()]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    # A signal to this wrapper reaches the binary, which then kills and
    # reaps every process it started before exiting.
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, lambda signum, _: proc.send_signal(signum))
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # SIGTERM first: the binary kills and reaps its servers.
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        # The binary removes its scratch directory itself, except when a
        # signal ended it.
        shutil.rmtree(os.path.join(BUILD, "e2ebench-run-%d" % proc.pid),
                      ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
