#!/usr/bin/env python3
"""Benchmark for bnloci, standard library only.

    python3 bnbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.  The
workloads (see workloads.py) are cert_battery, sweep_large and cli_mix.
One client issues one operation at a time and waits for it (a closed loop
with a single client); cli_mix starts one `bnloci` process per operation.

--trace 0 measures the end-to-end metrics: operations are timed one by one
until their summed time reaches --seconds (and at least MIN_OPS ran), every
output is checked by an oracle that does not use the library, and a seeded
sample is run again to check that its bytes repeat.
--trace 1 runs a fixed prefix of the same operations three times: untraced,
with wrappers at every layer boundary (tracing.py), and untraced again.  It
reports the per-layer metrics, the start-up probes of the command line and
the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it print the same metrics for people,
with the sample counts and the workload's output_sha256.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# At least ten latency samples lie beyond p90.
MIN_OPS = 100
SETUP_REPEATS = 7
PROBE_REPEATS = 5
INPROCESS_REPEATS = 25
# Operations run again after the timed loop to check that their bytes repeat.
REEXEC = {"cert_battery": 50, "sweep_large": 20, "cli_mix": 8}
# Operations per second of the traced run's runner at the commit that
# defined the benchmark.  The traced run makes three passes over the first
# seconds/4 * rate operations, a count that does not depend on the speed of
# the code under test, so its per-layer totals compare across commits.
TRACE_RATE = {"cert_battery": 6000, "sweep_large": 75, "cli_mix": 200}
# The in-process probe of the command line: the README's certify example.
PROBE_ARGV = ["certify", "phi", "--curve", "general:7", "--locus1", "5,12,6",
              "--cs", "2,10,4"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cert_battery", "sweep_large", "cli_mix"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Tally:
    """Latencies, failures and output digests of one pass over operations."""

    def __init__(self, reexec: set[int]) -> None:
        self.latencies = array.array("q")
        self.busy_ns = 0
        self.rows = 0
        self.failures: list[str] = []
        self.codes: dict[int, int] = {}
        self.digest = hashlib.sha256()
        self.reexec = reexec
        self.fingerprints: dict[int, tuple] = {}


def fingerprint(outcome) -> tuple:
    return (outcome.code, hashlib.sha256(outcome.out).hexdigest())


def execute(wl, runner, op):
    """Run one operation; return (outcome or None, problem, nanoseconds)."""
    wl.prepare(op)
    start = perf_counter_ns()
    try:
        outcome = runner(op)
    except Exception as exc:  # a raising operation is a failed operation
        return None, "raised %r" % (exc,), perf_counter_ns() - start
    elapsed = perf_counter_ns() - start
    try:
        problem = wl.check(op, outcome)
    except Exception as exc:
        problem = "output could not be checked: %r" % (exc,)
    return outcome, problem, elapsed


def run_ops(wl, runner, tally: Tally, keep_going, tracer=None) -> None:
    """Run operations, continuing after the last one the tally holds."""
    i = len(tally.latencies)
    while keep_going(i, tally.busy_ns):
        op = wl.ops[i % len(wl.ops)]
        outcome, problem, elapsed = execute(wl, runner, op)
        if tracer is not None:
            tracer.fold()
        tally.latencies.append(elapsed)
        tally.busy_ns += elapsed
        if problem:
            tally.failures.append("op %d: %s" % (i, problem))
        if outcome is not None:
            tally.rows += outcome.rows
            tally.codes[outcome.code] = tally.codes.get(outcome.code, 0) + 1
            if i < MIN_OPS:
                tally.digest.update(b"%d %d\n" % (outcome.code, len(outcome.out)))
                tally.digest.update(outcome.out)
            if i in tally.reexec:
                tally.fingerprints[i] = fingerprint(outcome)
        i += 1


def check_repeats(wl, runner, tally: Tally) -> None:
    """Run the sampled operations again and compare their bytes."""
    for i, first in sorted(tally.fingerprints.items()):
        outcome, problem, _ = execute(wl, runner, wl.ops[i % len(wl.ops)])
        if outcome is None or fingerprint(outcome) != first:
            tally.failures.append("op %d: second run gave different bytes (%s)"
                                  % (i, problem))


def warm_up(wl, runner) -> None:
    """Fill the bytecode cache and lazy state before anything is timed."""
    for op in wl.ops[:3]:
        execute(wl, runner, op)


def setup_probe_s(workload: str, seed: int) -> float:
    """Time from starting a fresh interpreter to the point where the first
    operation could be timed: imports, fact database, inputs."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    elapsed = perf_counter() - start
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError("set-up probe failed for %s" % workload)
    return elapsed


def _median_ms(samples_ns) -> float:
    return statistics.median(samples_ns) / 1e6


def cli_probes() -> dict:
    """Split one `bnloci certify` process into interpreter, import and main."""
    from bnloci import cli

    env = dict(os.environ, PYTHONPATH=str(SRC))

    def wall_ms(argv):
        times = []
        for _ in range(PROBE_REPEATS):
            start = perf_counter_ns()
            subprocess.run([sys.executable, *argv], env=env, cwd=ROOT, check=True,
                           stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
            times.append(perf_counter_ns() - start)
        return _median_ms(times)

    interp = wall_ms(["-c", "pass"])
    imported = wall_ms(["-c", "import bnloci.cli"])

    def inprocess_ms(fn):
        times = []
        for _ in range(INPROCESS_REPEATS):
            sink = io.StringIO()
            with redirect_stdout(sink), redirect_stderr(sink):
                start = perf_counter_ns()
                fn()
                times.append(perf_counter_ns() - start)
        return _median_ms(times)

    return {
        "cli.interp_ms": interp,
        "cli.import_ms": imported - interp,
        "cli.main_ms": inprocess_ms(lambda: cli.main(list(PROBE_ARGV))),
        "cli.parse_ms": inprocess_ms(lambda: cli.build_parser().parse_args(PROBE_ARGV)),
    }


def end_to_end(wl, tally: Tally, setup_s: float) -> dict:
    # Read the memory peak before sorting the latencies, which makes a
    # temporary copy whose size depends on how many operations ran.
    peak_rss_mb = wl.peak_rss_kb() / 1024
    lat = tally.latencies
    seconds = tally.busy_ns / 1e9
    return {
        "ops_per_s": len(lat) / seconds,
        "latency_ms_p50": statistics.median(lat) / 1e6,
        "latency_ms_p90": statistics.quantiles(lat, n=10)[-1] / 1e6,
        "rows_per_s": tally.rows / seconds,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def plain_run(wl, args) -> tuple[dict, Tally, int]:
    picks = random.Random("reexec:%d" % args.seed).sample(
        range(MIN_OPS), REEXEC[args.workload])
    tally = Tally(set(picks))
    warm_up(wl, wl.run)
    budget = args.seconds * 1e9
    # The set-up probes are spread over the run, one before each slice of
    # the time budget, so that their median spans the same stretch of
    # machine time as the operations do.
    setups = []
    for k in range(1, SETUP_REPEATS + 1):
        setups.append(setup_probe_s(args.workload, args.seed))
        target = budget * k / SETUP_REPEATS
        run_ops(wl, wl.run, tally, lambda i, busy: busy < target)
    run_ops(wl, wl.run, tally, lambda i, busy: i < MIN_OPS)
    check_repeats(wl, wl.run, tally)
    metrics = end_to_end(wl, tally, statistics.median(setups))
    return metrics, tally, len(tally.latencies)


def traced_run(wl, args) -> tuple[dict, Tally, int]:
    import tracing

    count = max(MIN_OPS, round(args.seconds / 4 * TRACE_RATE[args.workload]))
    runner = getattr(wl, "run_inprocess", wl.run)
    warm_up(wl, runner)
    # Untraced, traced, untraced again: the mean of the two untraced passes
    # cancels drift in the machine's speed over the run.
    before, traced, after = Tally(set()), Tally(set()), Tally(set())
    run_ops(wl, runner, before, lambda i, busy: i < count)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        run_ops(wl, runner, traced, lambda i, busy: i < count, tracer)
    run_ops(wl, runner, after, lambda i, busy: i < count)
    traced.failures[:0] = before.failures + after.failures
    if len({t.digest.hexdigest() for t in (before, traced, after)}) != 1:
        traced.failures.append("traced and untraced outputs differ")
    metrics = tracing.layer_metrics(tracer.totals)
    metrics.update(cli_probes())
    cli_codes = traced.codes if hasattr(wl, "run_inprocess") else {}
    for code in (0, 2, 3, 4):
        metrics["cli.exit.%d" % code] = cli_codes.get(code, 0)
    metrics["trace.overhead_ratio"] = 2 * traced.busy_ns / (before.busy_ns + after.busy_ns)
    return metrics, traced, 3 * count


def report(args, metrics: dict, units: dict, tally: Tally, attempted: int) -> None:
    failed = min(len(tally.failures), attempted)
    for problem in tally.failures[:10]:
        print("bnbench: FAILED %s" % problem, file=sys.stderr)
    print("# bnbench workload=%s seed=%d trace=%d seconds=%g"
          % (args.workload, args.seed, args.trace, args.seconds))
    for name, value in metrics.items():
        note = ""
        if name.startswith("latency_ms"):
            note = "  (n=%d)" % len(tally.latencies)
        print("%-40s %-16r %s%s" % (name, value, units[name], note))
    print("%-40s %-16r ratio  (%d/%d)" % ("failed_ratio", failed / attempted,
                                          failed, attempted))
    print("%-40s %s" % ("output_sha256", tally.digest.hexdigest()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bnloci" / "__init__.py").is_file():
        print("bnbench: no bnloci sources under %s; run from a checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("BNLOCI_FACTS", None)
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    with tempfile.TemporaryDirectory(prefix=".bnbench-", dir=ROOT) as tmp:
        wl = workloads.build(args.workload, args.seed, Path(tmp))
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        run = traced_run if args.trace else plain_run
        metrics, tally, attempted = run(wl, args)
    if set(metrics) != set(units):
        raise SystemExit("bnbench: metrics %s do not match BENCHMARK.json"
                         % sorted(set(metrics) ^ set(units)))
    report(args, {n: metrics[n] for n in units}, units, tally, attempted)
    return 0


if __name__ == "__main__":
    sys.exit(main())
