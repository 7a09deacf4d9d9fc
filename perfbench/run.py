#!/usr/bin/env python3
"""Builds and runs the serving-stack benchmark.

    python3 perfbench/run.py --workload route_hot --seed 1 --seconds 40 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (the repo's library plus the perfbench binary, Release) into
.bench_build/perfbench; later runs only rebuild what changed. The binary's
report is printed as a table, one metric per line with its unit and sample
count, followed by the stamp and the correctness checks. The last line of
stdout is the result as one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json with --trace 0 and the
per-layer metrics with --trace 1. Exits non-zero, without a result line,
when the build or the run fails. See perfbench/GLOSSARY.md for what each
metric and workload means.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                fail("cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return os.path.join(BUILD, "perfbench")


def source_rev():
    """The git revision, or a digest of the sources in a plain checkout."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha1:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, default=0,
                        help="shrink the overlay (smoke tests only)")
    parser.add_argument("--corrupt-audit", action="store_true",
                        help="corrupt one audited answer (tests only)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    os.makedirs(os.path.join(BUILD_ROOT, "spans"), exist_ok=True)
    sock = os.path.join(".bench_build", "pb-%d.sock" % os.getpid())
    spans = os.path.join(".bench_build", "spans", "%s-seed%d-trace%d.jsonl"
                         % (args.workload, args.seed, args.trace))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--sock", sock, "--spans", spans, "--rev", source_rev(),
               "--build-type", BUILD_TYPE]
    if args.n:
        command += ["--n", str(args.n)]
    if args.corrupt_audit:
        command += ["--corrupt-audit"]
    try:
        run = subprocess.run(command, cwd=ROOT, capture_output=True,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        if os.path.exists(os.path.join(ROOT, sock)):
            os.unlink(os.path.join(ROOT, sock))
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail("perfbench exited with %d" % run.returncode)
    report = json.loads(lines[-1])

    metrics = report["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail("perfbench did not report " + ", ".join(missing))
    for m in wanted:
        if metrics[m["name"]]["unit"] != m["unit"]:
            fail("unit of %s is %s, BENCHMARK.json says %s"
                 % (m["name"], metrics[m["name"]]["unit"], m["unit"]))

    print("workload %s  seed %d  trace %d" % (args.workload, args.seed, args.trace))
    for m in wanted:
        got = metrics[m["name"]]
        print("  %-28s %18.6g %-6s n=%d"
              % (m["name"], got["value"], got["unit"], got["samples"]))
    print("stamp  " + json.dumps(report["stamp"], sort_keys=True))
    print("checks " + json.dumps(report["checks"], sort_keys=True))
    result = {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
