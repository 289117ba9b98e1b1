#!/usr/bin/env python3
"""Build and run one RTGS benchmark workload; see perfbench/README.md.

    python3 perfbench/run.py --workload track_sync --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark is built from source into
.bench_build/perfbench (incremental after the first run). The last line
of stdout is the result object; the exit status is nonzero when a
correctness check fails, and nothing is printed as a result when the
build or the run cannot happen.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(f"error: {msg}")
    sys.exit(code)


def build(targets):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no RTGS sources (CMakeLists.txt, src/) to build")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  *targets])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """Check the result object's keys, metric names, units and values."""
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"unexpected result keys {sorted(result)}")
        return errors
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        errors.append("metric names differ from BENCHMARK.json: missing "
                      f"{sorted(set(want) - set(got))}, extra "
                      f"{sorted(set(got) - set(want))}")
    for name, m in got.items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"metric {name} is not a finite number: {v!r}")
        if name in want and m.get("unit") != want[name]:
            errors.append(f"metric {name} unit {m.get('unit')!r} != "
                          f"{want[name]!r}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        errors.append("failed must be a whole number >= 0")
    return errors


def check_hash(binary, digest):
    """track_sync is bitwise deterministic and its streams do not depend
    on the seed: one build must give one output hash on every run."""
    key = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    store = BUILD / "track_sync_hashes.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    if key in known and known[key] != digest:
        return [f"track_sync output hash {digest} differs from the "
                f"{known[key]} an earlier run of this build gave"]
    known[key] = digest
    store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return []


def self_test():
    build(["perfbench_tests"])
    proc = subprocess.run([str(BUILD / "perfbench_tests")])
    sys.exit(proc.returncode)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own unit tests")
    args = ap.parse_args()
    if args.self_test:
        self_test()
    if not args.workload:
        fail("--workload is required")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json is missing from the repository root")

    build(["rtgs_perfbench"])
    binary = BUILD / "rtgs_perfbench"
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{stem}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"benchmark printed nothing (exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last line is not a result object: {lines[-1]!r}")
    side = {}
    for line in lines[:-1]:
        tag, _, payload = line.partition(" ")
        if tag in ("host", "info", "e2e"):
            side[tag] = json.loads(payload)

    errors = check_result(result, args.trace)
    if proc.returncode != 0 or not result.get("correct", False):
        errors.append(f"benchmark reported a failed correctness check "
                      f"(exit {proc.returncode})")
    digest = side.get("info", {}).get("output_hash")
    if digest:
        errors += check_hash(binary, digest)

    record = {"host": side.get("host"), "info": side.get("info"),
              "result": result}
    if args.trace:
        record["e2e"] = side.get("e2e")
        # Tracing overhead: the traced run's own end-to-end figures
        # against the latest untraced run of this workload and seed.
        untraced = results / f"{stem}-trace0.json"
        e2e = side.get("e2e", {})
        if untraced.is_file() and "fps" in e2e:
            base = json.loads(untraced.read_text())["result"]["metrics"]
            overhead = base["fps"]["value"] / e2e["fps"] - 1
            record["trace_overhead_fps_frac"] = overhead
            log(f"tracing overhead vs untraced run: fps "
                f"{base['fps']['value']:.2f} -> {e2e['fps']:.2f} "
                f"({overhead:+.1%})")
        log(f"trace written to {cmd[-1]}")
    (results / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    for tag in ("host", "info"):
        if tag in side:
            print(tag, json.dumps(side[tag]))
    for e in errors:
        log(f"correctness check failed: {e}")
    result["correct"] = result.get("correct", False) and not errors
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
