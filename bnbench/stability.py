#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how steady it is.

    python3 bnbench/stability.py [--workloads cert_battery,cli_mix]
                                 [--seeds 1..10] [--seconds 35] [--record FILE]

Runs run.py once per workload and seed, one run at a time, from the root of
the checkout.  For every end-to-end metric it prints the median of the runs,
the first and third quartiles (statistics.quantiles with n=4) and their
distance as a share of the median, next to the metric's bound in
BENCHMARK.json.  A spread above a third of the bound is flagged.  With
--record, it also makes one traced run per workload (first seed) and writes
everything, with the machine's core count and Python version, to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, "bnbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "%g" % seconds, "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d: %d of %d operations failed"
                         % (workload, seed, result["failed"], result["attempted"]))
    return result, lines[:-1]


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default="1..10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--record")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    lo, _, hi = args.seeds.partition("..")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in workloads:
        values: dict[str, list[float]] = {}
        digests = {}
        for seed in seeds:
            result, lines = run_once(workload, seed, seconds, 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            digests[seed] = next(l.split()[-1] for l in lines
                                 if l.startswith("output_sha256"))
        summary = {}
        print("%s (%d seeds, %gs)" % (workload, len(seeds), seconds))
        for name, vals in values.items():
            s = spread(vals)
            summary[name] = dict(s, bound=bounds[name], values=vals)
            flag = "" if s["spread"] <= bounds[name] / 3 or name == "setup_s" else "  WIDE"
            print("  %-16s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.3f  bound %.2f%s"
                  % (name, s["median"], s["q1"], s["q3"], s["spread"], bounds[name], flag))
            print("  %-16s values %s" % ("", " ".join("%.4g" % v for v in vals)))
        entry = {"end_to_end": summary, "output_sha256": digests}
        if args.record:
            traced, lines = run_once(workload, seeds[0], seconds, 1)
            entry["per_layer_seed_%d" % seeds[0]] = {
                n: m["value"] for n, m in traced["metrics"].items()}
            traced_digest = next(l.split()[-1] for l in lines
                                 if l.startswith("output_sha256"))
            if traced_digest != digests[seeds[0]]:
                raise SystemExit("%s: traced output_sha256 differs" % workload)
        record["workloads"][workload] = entry
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=2) + "\n",
                                     encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
