#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload registry|scopgen|serve \
        --seed N --seconds S --trace 0|1

Run it from the root of a source tree. It builds the benchmark and the
daemon with dune, runs one measurement, and passes the benchmark's
output through: its last line is the result object. Each run also
appends a record (arguments, source digest, host, result) to
.bench_build/perfbench/runs.jsonl.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
OUT_DIR = os.path.join(BUILD_DIR, "perfbench")
BENCH_EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
CLI_EXE = os.path.join(BUILD_DIR, "default", "bin", "wisefuse_cli.exe")
MANIFEST = os.path.join("perfbench", "digests.json")
RUN_TIMEOUT_S = 170


def source_digest():
    """MD5 over the program's sources: the checkout is not a git
    repository, so this stands in for the commit."""
    h = hashlib.md5()
    for top in ("lib", "bin", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["registry", "scopgen", "serve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a wisefuse source tree",
              file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--display", "quiet", "./perfbench/main.exe",
         "./bin/wisefuse_cli.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BENCH_EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--cli", CLI_EXE, "--manifest", MANIFEST, "--out", OUT_DIR]
    # its own session, so a timeout stops the daemon it spawned as well
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": int(args.trace),
        "source": source_digest(), "host": platform.node(),
        "machine": platform.machine(), "cpus": os.cpu_count(),
        "exit": proc.returncode, "notes": lines[:-1], "result": result,
    }
    with open(os.path.join(OUT_DIR, "runs.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    if result is None:
        print("perfbench: the benchmark printed no result", file=sys.stderr)
        return proc.returncode or 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
