#!/usr/bin/env python3
"""Builds and runs the paper-reproduction benchmark.

    python3 perfbench/run.py --workload paper-sweep [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all          # every workload, one process each
    python3 perfbench/run.py --selftest              # decorator / output-check self-tests
    python3 perfbench/run.py --write-reference       # regenerate reference/*.digest

Run it from the repository root. It configures and builds perfbench/ in
Release mode under $CARGO_TARGET_DIR (default .bench_build), measures the
set-up time over several fresh processes, runs the workload in its own
process and prints, last, one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones of the traced replay. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper-sweep", "paper-heavy", "stream-overload"]
DEFAULT_SEED = 42
SETUP_PROBES = 15      # extra processes that stop at the first dispatch
RUN_DEADLINE_S = 170   # one workload run, build excluded


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures (Release) and builds; returns the build directory."""
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    configured = False
    if os.path.exists(cache):
        with open(cache) as f:
            configured = "CMAKE_BUILD_TYPE:STRING=Release\n" in f.read()
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if os.path.exists(cache):
            os.remove(cache)
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", str(min(4, nproc()))],
                   check=True, stdout=sys.stderr)
    return out


def tree_digest():
    """sha256 over the sources the benchmark builds (src/ and perfbench/)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "none"
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() if sha.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def reference_path(workload):
    return os.path.join(HERE, "reference", workload + ".digest")


def parse_result(stdout):
    for line in reversed(stdout.splitlines()):
        if line.startswith("RESULT "):
            return json.loads(line[len("RESULT "):])
    raise RuntimeError("benchmark printed no RESULT line")


def setup_probe(binary, workload, deadline):
    """Seconds from spawning a fresh process to its first world dispatch."""
    start = time.monotonic_ns()
    proc = subprocess.run([binary, "--workload", workload, "--setup-only",
                           "--reference", reference_path(workload)],
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError("set-up probe failed: " + proc.stderr.strip())
    return (parse_result(proc.stdout)["first_dispatch_ns"] - start) * 1e-9


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; prints its report; returns the final JSON object."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    setups = [setup_probe(binary, workload, deadline) for _ in range(SETUP_PROBES)]
    start = time.monotonic_ns()
    proc = subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace),
                           "--reference", reference_path(workload)],
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError("benchmark exited with status %d" % proc.returncode)
    result = parse_result(proc.stdout)
    setups.append((result["first_dispatch_ns"] - start) * 1e-9)

    for line in proc.stdout.splitlines():
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
            provenance["git_sha"] = git_sha()
            provenance["tree_sha256"] = tree_digest()
            provenance["setup_probes"] = len(setups)
            print("provenance " + json.dumps(provenance))
        elif not line.startswith("RESULT "):
            print(line)

    attempted, failed = result["attempted"], result["failed"]
    if trace:
        metrics = result["per_layer"]
    else:
        metrics = dict(result["end_to_end"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print("%s (seed %d, %d rounds, %d worlds):" % (workload, seed, result["rounds"], attempted))
    for name, m in metrics.items():
        print("  %-34s %16.6g %s" % (name, m["value"], m["unit"]))
    # failed_frac is reported here rather than gated: it is 0 on a correct
    # run, and the gate carries it as ok_frac = 1 - failed_frac.
    print("  %-34s %16.6g %s" % ("failed_frac", failed / max(attempted, 1), "ratio"))
    return {"correct": failed == 0 and attempted > 0 and not result["problems"],
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="one of %s, or all" % ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite reference/<workload>.digest at --seed")
    args = parser.parse_args()
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error("unknown workload " + args.workload)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]

    try:
        out = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1
    binary = os.path.join(out, "perfbench")

    if args.selftest:
        return subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode

    if args.write_reference:
        for workload in workloads:
            code = subprocess.run([binary, "--workload", workload, "--seed", str(args.seed),
                                   "--seconds", "0", "--write-reference",
                                   reference_path(workload)], stdout=sys.stderr).returncode
            if code != 0:
                return code
        return 0

    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(binary, workload, args.seed,
                                             args.seconds, args.trace)
    except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        return 1
    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
