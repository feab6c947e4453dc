#!/usr/bin/env python3
"""Maintenance commands for the perfbench benchmark.

    python3 perfbench/collect.py references
        Rebuild perfbench/references.json: each workload's simulated
        outputs for every model seed of a --seed DEFAULT_SEED pass
        (exact) and the seed-to-seed band over those plus the first
        model seed of each BAND_SEEDS pass, checked against a held-out
        seed that does not shape the band.

    python3 perfbench/collect.py steadiness [--runs 10] [--first-seed 101]
                                            [--workload NAME] [--out FILE]
        Run run.py --runs times per workload, each with another seed,
        and report every end-to-end metric's median and quartile spread
        (Q3 - Q1) / median. --out also runs one traced pass per workload
        and writes everything as JSON (the committed baseline lives in
        perfbench/results/).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

BAND_SEEDS = list(range(2, 10))
# Never used to shape the band; it only has to land inside it.
HELD_OUT_SEED = 4242
DEFAULT_SEED = 1
# Model seeds one pass cycles through (kSubSeeds in main.cc).
SUB_SEEDS = 8
# Each band edge moves out by the seed-to-seed range, and by at least
# this share of the larger magnitude; no output is ever negative.
MIN_MARGIN = 0.01


def simulated_outputs(workload, seed, calls):
    """{model seed: outputs} of the first `calls` calls of a pass."""
    proc = subprocess.run(
        [str(run.BINARY), "--workload", workload, "--seed", str(seed),
         "--calls", str(calls), "--setup-calls", "1", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True)
    out = {}
    for call in json.loads(proc.stdout.strip().splitlines()[-1])["calls"]:
        if not call["ok"]:
            raise RuntimeError(f"{workload} seed {seed}: {call['error']}")
        out[str(call["model_seed"])] = call["outputs"]
    return out


def make_band(samples):
    band = {}
    for key in samples[0]:
        values = [s[key] for s in samples]
        lo, hi = min(values), max(values)
        margin = max(hi - lo, MIN_MARGIN * max(abs(lo), abs(hi)))
        band[key] = [max(lo - margin, 0.0), hi + margin]
    return band


def references():
    if not run.build():
        return 1
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    refs = {}
    for w in (w["name"] for w in spec["workloads"]):
        exact = simulated_outputs(w, DEFAULT_SEED, SUB_SEEDS)
        samples = list(exact.values())
        for s in BAND_SEEDS:
            samples += simulated_outputs(w, s, 1).values()
        (held_out,) = simulated_outputs(w, HELD_OUT_SEED, 1).values()
        band = make_band(samples)
        outside = run.in_band(held_out, band)
        print(f"{w}: held-out seed {HELD_OUT_SEED}",
              f"outside band on {outside}" if outside else "inside band")
        refs[w] = {
            "default_seed": DEFAULT_SEED,
            "exact": exact,
            "band_seeds": [DEFAULT_SEED] + BAND_SEEDS,
            "band": band,
            "held_out": {"seed": HELD_OUT_SEED, "outputs": held_out,
                         "inside_band": not outside},
        }
    run.REFERENCES.write_text(json.dumps(refs, indent=2) + "\n")
    return 0


def run_pass(workload, seed, seconds, trace):
    """Result line and manifest of one run.py pass; raises if wrong."""
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect run")
    manifest = next(json.loads(line)["manifest"] for line in lines
                    if line.startswith('{"manifest"'))
    return result, manifest


def steadiness(args):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [args.workload] if args.workload else [
        w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for w in names:
        values = {m: [] for m in bounds}
        for i in range(args.runs):
            result, manifest = run_pass(w, args.first_seed + i,
                                        spec["run_seconds"], 0)
            if i == 0:
                summary[w] = {"manifest": manifest, "end_to_end": {}}
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        for m, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            summary[w]["end_to_end"][m] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds[m], "values": v}
            print(f"{w:26s} {m:14s} median {med:12.6g} spread "
                  f"{spread:6.2%} (bound {bounds[m]:.0%})", flush=True)
        if args.out:
            result, _ = run_pass(w, args.first_seed, spec["run_seconds"], 1)
            summary[w]["per_layer"] = {
                k: m["value"] for k, m in result["metrics"].items()}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description="perfbench maintenance")
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("references")
    st = sub.add_parser("steadiness")
    st.add_argument("--runs", type=int, default=10)
    st.add_argument("--first-seed", type=int, default=101)
    st.add_argument("--workload")
    st.add_argument("--out")
    args = ap.parse_args()
    return references() if args.cmd == "references" else steadiness(args)


if __name__ == "__main__":
    sys.exit(main())
