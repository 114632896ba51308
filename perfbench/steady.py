#!/usr/bin/env python3
"""Steadiness check: run each workload once per seed and report the
median, quartiles and quartile spread of every end-to-end metric.

    python3 perfbench/steady.py --seeds 1-10 [--workloads a,b] [--seconds N]
        [--binary PATH] [--out perfbench/results/steadiness.json]

The spread of a metric is (Q3 - Q1) / median over the runs, with the
quartiles of Python's statistics.quantiles(values, n=4). A metric is
steady when its spread is below a third of its bound in BENCHMARK.json.
Runs use the command in BENCHMARK.json unless --binary names an
already-built benchmark binary. Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    diagnostics = json.loads(lines[-2])["diagnostics"] if len(lines) > 1 else {}
    return result, diagnostics


def main():
    bench = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--binary")
    parser.add_argument("--out")
    args = parser.parse_args()
    command = [args.binary] if args.binary else bench["command"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result, diagnostics = run(command, workload, seed, args.seconds)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: output checks failed")
            runs.append({"seed": seed, "result": result, "diagnostics": diagnostics})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        metrics = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else 0.0
            ok = spread < bound / 3 or name == "setup_s"
            steady &= ok
            metrics[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bound, "steady": ok, "values": values}
            print(f"  {name:<24} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f} (bound {bound}) {'ok' if ok else 'UNSTEADY'}")
        probes = [p for r in runs for p in r["diagnostics"].get("host.probe_ms", [])]
        report["workloads"][workload] = {
            "metrics": metrics,
            "host_probe_ms": probes,
            "digests": {str(r["seed"]): r["diagnostics"].get("digest") for r in runs},
            "percentiles": {str(r["seed"]): {k: r["diagnostics"].get(k) for k in
                                             ("p50_at", "tail_at", "latency_tail")} for r in runs},
            "class_median_ms": {str(r["seed"]): r["diagnostics"].get("class_median_ms") for r in runs},
        }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
