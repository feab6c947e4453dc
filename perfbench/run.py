#!/usr/bin/env python3
"""Simulator speed benchmark: build perfbench, run one pass, check it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the perfbench program (and the microscale library it links) in
Release mode under .bench_build/perfbench, runs one pass of one
workload, checks every runner call's simulated outputs against
perfbench/references.json and the program's self-checks, and prints as
its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json for --trace 0 and the
per-layer ones for --trace 1. The traced pass also writes a Chrome
trace to .bench_build/perfbench/traces/. Exits non-zero without a
result line when the build or the program fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
REFERENCES = HERE / "references.json"
# Whole-pass deadline of the perfbench process, host seconds.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def build():
    """Configure (cheap once cached) and build incrementally; False on
    failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    # Keep the compiler's temporary files inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in (configure, ["cmake", "--build", str(BUILD), "-j", jobs]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S, env=env)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build failed:", " ".join(cmd))
            return False
    return True


def source_identity():
    """Git commit when the checkout is a repository, plus a digest of
    the sources the benchmark builds (works without git)."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    h = hashlib.sha256()
    files = sorted(p for d in ("src", "bench") for p in (ROOT / d).rglob("*")
                   if p.is_file() and p.suffix in (".cc", ".hh", ".txt"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return commit, h.hexdigest()[:16]


def in_band(outputs, band):
    """Names of the outputs that fall outside their [lo, hi] band."""
    return [k for k, (lo, hi) in band.items()
            if not lo <= outputs.get(k, float("nan")) <= hi]


def check_calls(workload, calls):
    """Count runner calls that crashed or left the reference band."""
    refs = json.loads(REFERENCES.read_text())[workload]
    failed = 0
    for call in calls:
        if not call["ok"]:
            log(f"{call['pass']} call failed: {call['error']}")
            failed += 1
            continue
        outside = in_band(call["outputs"], refs["band"])
        if outside:
            log(f"{call['pass']} call outside the reference band:",
                {k: call["outputs"].get(k) for k in outside})
            failed += 1
        elif str(call["model_seed"]) in refs["exact"]:
            same = call["outputs"] == refs["exact"][str(call["model_seed"])]
            log(f"{call['pass']} call, model seed {call['model_seed']}:",
                "identical" if same else "changed within noise")
    return failed


def chrome_trace_loads(path):
    try:
        events = json.loads(Path(path).read_text())["traceEvents"]
    except (OSError, ValueError, KeyError):
        return False
    return any(e.get("ph") == "X" for e in events)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload", args.workload)
        return 2
    expected = spec["per_layer" if args.trace else "end_to_end"]

    if not build():
        return 1

    cmd = [str(BINARY), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    trace_path = None
    if args.trace:
        trace_dir = BUILD / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{args.seed}.json"
        cmd += ["--trace-out", str(trace_path)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench exceeded {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        log(f"perfbench exited with {proc.returncode}")
        return 1
    report = json.loads(proc.stdout.strip().splitlines()[-1])

    manifest = report["manifest"]
    manifest["git_commit"], manifest["source_digest"] = source_identity()
    manifest["host_seconds"] = round(time.monotonic() - started, 3)
    if not manifest["release"]:
        log("WARNING: not a Release build; timings are not comparable")
    if trace_path is not None:
        manifest["chrome_trace"] = str(trace_path.relative_to(ROOT))
        report["checks"]["chrome_trace_loads"] = chrome_trace_loads(
            trace_path)

    calls = report["calls"]
    failed = check_calls(args.workload, calls)
    checks_ok = all(report["checks"].values())
    if not checks_ok:
        log("self-check failed:",
            [k for k, v in report["checks"].items() if not v])

    metrics = {}
    for m in expected:
        got = report["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log("metric missing or with the wrong unit:", m["name"], got)
            checks_ok = False
            continue
        metrics[m["name"]] = got

    print(json.dumps({"manifest": manifest, "checks": report["checks"]}))
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and checks_ok,
                      "attempted": len(calls), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
