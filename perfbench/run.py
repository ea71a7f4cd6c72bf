#!/usr/bin/env python3
"""Builds and runs the served-ledger benchmark (perfbench/ledger_bench.cc).

Run from the repository root:

  python3 perfbench/run.py --workload notarize|audit --seed N \
      --seconds S --trace 0|1 [--no-proof-cache] [--service-delay-us N]
  python3 perfbench/run.py --quick      # every workload briefly, both modes;
                                        # fails if a named metric is missing

The build goes to $CARGO_TARGET_DIR (default .bench_build) and is
incremental after the first run. The ledger's data directory is created
under the build directory and removed when the run ends. Progress goes to
stderr; the last line on stdout is the result object.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: ledgerdb sources (src/) not found next to perfbench/")
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4", "--target",
                  "ledger_bench"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "ledger_bench")


def run_once(binary, workload, seed, seconds, trace, extra):
    """Runs one workload; returns (exit code, parsed result or None)."""
    data = os.path.join(build_dir(), "data-%d" % os.getpid())
    shutil.rmtree(data, ignore_errors=True)
    # Relative paths keep the unix socket path short.
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--data", os.path.relpath(data, ROOT)] + extra
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                           text=True)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return 1, None
    finally:
        shutil.rmtree(data, ignore_errors=True)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return r.returncode, result


def quick(binary):
    """Every workload at a small scale, untraced and traced. Fails unless
    each run is correct and reports exactly the metrics BENCHMARK.json
    names for its mode, each a finite number."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, result = run_once(binary, w["name"], 1, 1, trace,
                                    ["--quick"])
            if (code != 0 or result is None or not result.get("correct")
                    or result.get("failed") != 0):
                log("quick: %s trace=%d failed (exit %d)" %
                    (w["name"], trace, code))
                ok = False
                continue
            got = set(result["metrics"])
            bad = [n for n, v in result["metrics"].items()
                   if not isinstance(v.get("value"), (int, float))
                   or not math.isfinite(v["value"])]
            if got != want[trace] or bad:
                log("quick: %s trace=%d missing %s, unexpected %s, "
                    "non-numeric %s" % (w["name"], trace,
                                        sorted(want[trace] - got),
                                        sorted(got - want[trace]), bad))
                ok = False
            else:
                log("quick: %s trace=%d ok (%d metrics)" %
                    (w["name"], trace, len(got)))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--no-proof-cache", action="store_true")
    p.add_argument("--service-delay-us", type=int, default=0)
    p.add_argument("--quick", action="store_true")
    args = p.parse_args()

    binary = build()
    if binary is None:
        return 1
    if args.quick:
        return quick(binary)
    if not args.workload:
        p.error("--workload is required")
    extra = []
    if args.no_proof_cache:
        extra.append("--no-proof-cache")
    if args.service_delay_us:
        extra += ["--service-delay-us", str(args.service_delay_us)]
    code, result = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace, extra)
    if result is None:
        log("perfbench: no result from %s" % args.workload)
        return code or 1
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
