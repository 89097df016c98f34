#!/usr/bin/env python3
"""Build and run the ModChecker wall-clock benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

It builds perfbench/perfbench.exe from source with dune (build directory
.bench_build) and runs one workload. The last line printed is the result
object with the keys "correct", "attempted", "failed" and "metrics",
each metric with its unit from BENCHMARK.json; the line before it
records the host, the seed and the source revision. Exits
non-zero, printing no result, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
WORKLOADS = ("serve-warm", "oneshot-cold", "patrol-dirty")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found on PATH")


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a ModChecker source checkout")
    cmd = dune_command() + [
        "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", "--cache", "disabled",
        "./perfbench/perfbench.exe",
    ]
    # Build output goes to stderr: stdout carries only the result.
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail(f"build failed (exit {r.returncode})", 3)


def source_rev():
    """The git commit when there is one, else a digest of the sources."""
    try:
        r = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for d, dirs, files in os.walk("."):
        dirs[:] = sorted(x for x in dirs if not x.startswith((".", "_")))
        for f in sorted(files):
            p = os.path.join(d, f)
            h.update(p.encode())
            with open(p, "rb") as fh:
                h.update(hashlib.sha1(fh.read()).digest())
    return "src-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that every correctness gate rejects a "
                         "planted wrong expectation")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        fail("--workload is required")
    build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.self_test:
        r = run([EXE, "--self-test"], deadline)
        sys.stdout.write(r.stdout)
        if r.returncode != 0:
            fail(f"self-test failed (exit {r.returncode})", 5)
        return
    rev = source_rev()
    r = run([EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--rev", rev], deadline)
    if r.returncode != 0:
        fail(f"run failed (exit {r.returncode})", 5)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("run printed no result", 5)
    print("\n".join(lines[:-1]))
    result["metrics"] = with_units(result["metrics"], args.trace)
    print(json.dumps(result), flush=True)


def with_units(metrics, trace):
    """Every metric BENCHMARK.json lists for this mode, with its unit. A
    per-layer metric the workload does not report (its traced run never
    calls that layer) reads 0."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)["per_layer" if trace else "end_to_end"]
    unknown = set(metrics) - {m["name"] for m in spec}
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {sorted(unknown)}", 6)
    out = {}
    for m in spec:
        if m["name"] not in metrics and not trace:
            fail(f"no value for end-to-end metric {m['name']}", 6)
        out[m["name"]] = {"value": metrics.get(m["name"], 0.0),
                          "unit": m["unit"]}
    return out


def run(cmd, deadline):
    """Runs the program to completion, killing it at [deadline]."""
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"runs exceeded {RUN_TIMEOUT_S} s", 4)
    sys.stderr.write(r.stderr)
    return r


if __name__ == "__main__":
    main()
