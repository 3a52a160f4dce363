#!/usr/bin/env python3
"""Runs one workload of the prox benchmark and prints its metrics.

    python3 perfbench/run.py --workload knng-splub --seed 42 --seconds 15 --trace 0

Builds the `perfbench` binary from source (release, offline), lets it
prepare the workload's reference output or prefilled store in a work
directory inside the checkout, then runs the measurement in a fresh
process. The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`; the exit code is 0
only when every operation succeeded and every output was correct.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["knng-splub", "pam-tri", "knng-tri-par", "serve-mixed"]
# Generous caps so a hung child cannot outlive the run; the run itself
# measures for --seconds (plus at most one operation).
PREPARE_TIMEOUT_S = 40
RUN_TIMEOUT_S = 130


def build():
    """Builds the benchmark binary and returns its path."""
    cmd = [
        "cargo", "build", "--release", "--offline",
        "--manifest-path", str(HERE / "Cargo.toml"),
        "--message-format=json-render-diagnostics",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"run.py: building the benchmark failed (exit {proc.returncode})")
    for line in proc.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable") \
                and msg["target"]["name"] == "perfbench":
            return msg["executable"]
    sys.exit("run.py: cargo reported no perfbench executable")


def child(cmd, timeout):
    """Runs `cmd`; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"run.py: {cmd[1]} timed out after {timeout} s", file=sys.stderr)
        return 1, []
    lines = proc.stdout.splitlines()
    return proc.returncode, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", default=0, type=int, choices=[0, 1])
    args = ap.parse_args()
    if not (ROOT / "crates").is_dir():
        sys.exit(f"run.py: {ROOT} holds no crates/ to benchmark")

    exe = build()
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--trace", str(args.trace), "--work", str(work)]
    try:
        code, lines = child([exe, "prepare", *common], PREPARE_TIMEOUT_S)
        for line in lines:
            print(line)
        if code != 0:
            sys.exit(f"run.py: prepare failed (exit {code})")
        code, lines = child([exe, "run", *common, "--seconds", str(args.seconds)],
                            RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for line in lines:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or not result.get("correct"):
        if result is None:
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        sys.exit(1 if code == 0 else code)
    sys.exit(code)


if __name__ == "__main__":
    main()
