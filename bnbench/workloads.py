"""Seeded workloads for the bnloci benchmark.

Each workload turns a seed into a fixed list of operations, runs one
operation at a time and checks its output with the oracles in oracles.py.
The same seed always gives the same list.  The library only ever sees the
generated arguments; it is called through module attributes at call time
(``certkit.certify_phi``, ``sweeps.table1_rows``, ``cli.main``) so that the
tracer's wrappers, when installed, are the functions that run.

Operations are generated in rounds of fixed composition, so two seeds give
the same mix of rules and request kinds and differ only in the arguments.
"""

from __future__ import annotations

import io
import json
import os
import random
import resource
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import oracles
from bnloci import certkit, cli, sweeps


class Outcome(NamedTuple):
    out: bytes      # the bytes a user would see: stdout, or the serialized result
    code: int       # process exit code; 0 for library calls
    rows: int       # output lines
    extra: object = None


# ---------------------------------------------------------------------------
# Certificate requests shared by cert_battery and cli_mix

# Worked examples from the README and the test suite, one per line:
# (rule, (genus, level, hyperelliptic), arguments after the curve).
CERT_CENTERS = (
    ("phi", (7, "general", "unknown"), ((5, 12, 6), (2, 10, 4))),
    ("phi", (11, "general", "unknown"), ((3, 12, 4), (1, 12, 4))),
    ("phi", (6, "general", "unknown"), ((2, 6, 3), (2, 10, 5))),
    ("phi", (2, "general", "unknown"), ((2, 4, 3), (1, 5, 2))),
    ("rfold", (6, "general", "unknown"), ((2, 10, 5), (1, 12, 5), 2)),
    ("rfold", (6, "general", "unknown"), ((2, 6, 3), (2, 10, 5), 1)),
    ("elem", (6, "general", "unknown"), ((2, 10, 5), (1, 12, 5), 2)),
    ("elem", (6, "general", "unknown"), ((2, 10, 5), (1, 12, 5), 1)),
    ("t9", (4, "general", "unknown"), ((2, 5, 2), 2, 12, 5)),
    ("t4", (6, "general", "unknown"), (2, 10, 5, 1, 25, 0, 10)),
    ("t4", (3, "general", "unknown"), (2, 4, 3, 1, 6, 0, 12)),
    ("t10", (6, "smooth", "no"), (2, 10, 5, 4, 26, 33)),
    ("t10", (3, "smooth", "yes"), (2, 5, 5, 1, 8, 1)),
    ("c8", (9, "petri", "unknown"), (2, 8, 3, 1, 21, 19)),
    ("c8", (5, "general", "unknown"), (2, 9, 4, 1, 23, 30)),
    ("np1", (2, "general", "unknown"), (2, 4)),
    ("np1", (10, "general", "unknown"), (6, 15)),
    ("np1", (20, "petri", "unknown"), (3, 25)),
    ("s", (6, "smooth", "no"), ((1, 26, 17),)),
    ("s", (6, "general", "unknown"), ((1, 10, 5),)),
    ("s", (7, "general", "unknown"), ((2, 10, 4),)),
)

RULE_FUNCS = {
    "phi": "certify_phi", "rfold": "certify_rfold", "elem": "certify_elem",
    "t9": "certify_t9", "t4": "certify_t4", "t10": "certify_t10",
    "c8": "certify_c8", "np1": "bn_np1_nonempty", "s": "s_nonempty",
}
LEVELS = ("smooth", "petri", "general")


def _nudge(value, slot: int, delta: int):
    """Add delta to the slot-th integer of a nested tuple; return the new
    value and the number of integers left to skip."""
    if isinstance(value, tuple):
        out = []
        for v in value:
            v, slot = _nudge(v, slot, delta)
            out.append(v)
        return tuple(out), slot
    return (value + delta if slot == 0 else value), slot - 1


def _count(value) -> int:
    return sum(map(_count, value)) if isinstance(value, tuple) else 1


def _repair(rule: str, g: int, args: tuple) -> tuple:
    """Clamp nudged arguments back into each rule's domain, so that a call
    may return no certificate but never raises."""
    def triple(t):
        """A locus or coherent system: rank and sections stay positive."""
        return (max(t[0], 1), t[1], max(t[2], 1))

    if rule == "phi":
        return (triple(args[0]), triple(args[1]))
    if rule in ("rfold", "elem"):
        return (triple(args[0]), triple(args[1]), max(args[2], 1))
    if rule == "t9":
        return (triple(args[0]), max(args[1], 1), args[2], args[3])
    if rule == "np1":
        return (max(args[0], 2), args[1])
    if rule == "s":
        return (triple(args[0]),)
    n1 = max(args[0], 2)
    k1 = max(args[2], n1 + 1)
    if rule == "t4":
        return (n1, args[1], k1, max(args[3], 1)) + args[4:]
    # t10 and c8: the codimension lies in [1, g].
    return (n1, args[1], k1, min(max(args[3], 1), g)) + args[4:]


def perturbed_request(rng: random.Random, center) -> tuple:
    """A request near a worked example: seven times in ten, the genus or one
    integer argument moves by one; the curve level changes one time in ten.
    About 60% of these requests still get a certificate."""
    rule, (g, level, hyper), args = center
    if rng.random() < 0.7:
        slot = rng.randrange(_count(args) + 1)
        delta = rng.choice((-1, 1))
        if slot == 0:
            g = max(2, g + delta)
        else:
            args, _ = _nudge(args, slot - 1, delta)
    if rng.random() < 0.1:
        level = rng.choice(LEVELS)
    return rule, (g, level, hyper), _repair(rule, g, args)


def _certify(rule, curve_spec, args, facts):
    fn = getattr(certkit, RULE_FUNCS[rule])
    curve = certkit.CurveClass(*curve_spec)
    if rule == "t9":
        return fn(curve, *args)
    return fn(curve, *args, facts)


# ---------------------------------------------------------------------------
# cert_battery


class CertBattery:
    """The certificate engine's own traffic: certify, serialize, revalidate.

    Chosen because certkit's rules, Certificate.to_json and revalidate do
    almost all of the work here, and interpreter start-up, fact files and
    sweeps do none; a serialization or rule speed-up should show here and
    nowhere else.
    """

    name = "cert_battery"
    ROUNDS = 400

    def __init__(self, seed: int, work: Path) -> None:
        rng = random.Random("cert_battery:%d" % seed)
        self.facts = certkit.FactDatabase()
        self.ops = []
        for _ in range(self.ROUNDS):
            batch = [perturbed_request(rng, c) for c in CERT_CENTERS]
            rng.shuffle(batch)
            self.ops.extend(batch)

    def prepare(self, op) -> None:
        pass

    def run(self, op) -> Outcome:
        rule, curve_spec, args = op
        cert = _certify(rule, curve_spec, args, self.facts)
        if cert is None:
            return Outcome(b"", 0, 0)
        text = cert.to_json()
        valid = certkit.revalidate(cert, self.facts)
        return Outcome(text.encode(), 0, text.count("\n") + 1, valid)

    def check(self, op, outcome: Outcome) -> str | None:
        if not outcome.out:
            return None
        if outcome.extra is not True:
            return "revalidate returned %r" % (outcome.extra,)
        return oracles.check_certificate(json.loads(outcome.out))

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# sweep_large

SWEEP_LOCI = ((6, 22, 7), (2, 5, 2), (3, 12, 4), (4, 14, 5))
TABLE1_GENERA = (6, 8, 10, 12, 14)
N2_MAX = 500


def _boundary_samples(rng: random.Random, g: int, locus1, n2s):
    """A few (mu, lambda) samples, increasing in mu, taken at swept points
    and spanning the swept range of lambda (which falls as n2 grows)."""
    n1, d1, k1 = locus1

    def lam(n2):
        return Fraction(k1, n1) * Fraction(n2 + 1, n2)

    lo, hi = lam(n2s[-1]), lam(n2s[0])
    picks = rng.sample(n2s, rng.randint(2, 6))
    mus = sorted({Fraction(d1, n1) + Fraction(oracles.d_min(g, n2), n2) for n2 in picks})
    return tuple((mu, lo + (hi - lo) * Fraction(rng.randint(0, 8), 8)) for mu in mus)


class SweepLarge:
    """Large table sweeps rendered as CSV.

    Chosen because sweeps.dmax_search and bncalc.beta_universal on tuple
    arguments dominate (table1 windows reach n2 = 500 at genera 6 to 14),
    while certkit and cli do no work; a dmax_search or tuple-argument
    speed-up should show here and leave cert_battery unchanged.
    """

    name = "sweep_large"
    ROUNDS = 400

    def __init__(self, seed: int, work: Path) -> None:
        rng = random.Random("sweep_large:%d" % seed)
        self.ops = []
        for _ in range(self.ROUNDS):
            batch = []
            genera = rng.sample(TABLE1_GENERA, 4)
            for stratum, g in enumerate(genera):
                width = rng.randint(4, 8)
                span = (N2_MAX - width - 2) // 4
                lo = 2 + stratum * span + rng.randrange(span)
                batch.append(("table1", (g, rng.choice(SWEEP_LOCI),
                                         range(lo, lo + width + 1))))
            for _ in range(2):
                lo = rng.randint(2, 250)
                hi = rng.randint(lo + 50, N2_MAX)
                batch.append(("table2", (range(lo, hi + 1),)))
            g = rng.randint(6, 14)
            locus1 = rng.choice(SWEEP_LOCI)
            lo = rng.randint(1, 200)
            n2s = range(lo, rng.randint(lo + 50, N2_MAX) + 1)
            samples = _boundary_samples(rng, g, locus1, n2s) if rng.random() < 0.5 else None
            batch.append(("bnmap", (g, locus1, n2s, samples)))
            batch.append(("ex40", (rng.randint(10, 39), rng.randint(2, 7))))
            rng.shuffle(batch)
            self.ops.extend(batch)

    def prepare(self, op) -> None:
        pass

    def run(self, op) -> Outcome:
        kind, params = op
        if kind == "table1":
            g, locus1, n2s = params
            rows = sweeps.table1_rows(g, locus1, n2s)
            header = sweeps.TABLE1_HEADER
        elif kind == "table2":
            (n2s,) = params
            rows = sweeps.table2_rows(n2s)
            header = sweeps.TABLE2_HEADER
        elif kind == "bnmap":
            g, locus1, n2s, samples = params
            boundary = None if samples is None else sweeps.RegionBoundary(g, samples)
            rows = sweeps.bnmap_rows(g, locus1, n2s, boundary)
            header = sweeps.BNMAP_HEADER
        else:
            g, n1 = params
            rows = sweeps.ex40_rows(g, n1)
            header = sweeps.EX40_HEADER
        text = sweeps.rows_to_csv(rows, header)
        return Outcome(text.encode(), 0, text.count("\n"))

    def check(self, op, outcome: Outcome) -> str | None:
        kind, params = op
        return oracles.check_sweep(kind, params, outcome.out.decode())

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# cli_mix

USER_FACTS = 1000


def _curve_text(curve_spec) -> str:
    g, level, hyper = curve_spec
    suffix = {"yes": ",hyp", "no": ",nonhyp"}.get(hyper, "")
    return "%s:%d%s" % (level, g, suffix)


def _triple(t) -> str:
    return "%d,%d,%d" % t


def certify_argv(rule: str, curve_spec, args) -> list[str]:
    argv = ["certify", rule, "--curve", _curve_text(curve_spec)]
    if rule in ("phi", "rfold", "elem"):
        argv += ["--locus1", _triple(args[0]), "--cs", _triple(args[1])]
        if rule != "phi":
            argv += ["--r", str(args[2])]
    elif rule == "t9":
        argv += ["--locus1", _triple(args[0])]
        argv += sum((["--" + f, str(v)] for f, v in zip("ndv", args[1:])), [])
    elif rule == "s":
        argv += ["--cs", _triple(args[0])]
    else:
        flags = {"t4": ("n1", "d1", "k1", "n", "e", "f", "d"),
                 "t10": ("n1", "d1", "k1", "c", "d", "k"),
                 "c8": ("n1", "d1", "k1", "c", "d", "e"),
                 "np1": ("n1", "d1")}[rule]
        argv += sum((["--" + f, str(v)] for f, v in zip(flags, args)), [])
    return argv


def _genus_constraint(rng: random.Random) -> dict:
    shape = rng.randrange(5)
    if shape == 0:
        return {}
    if shape == 1:
        return {"equals": rng.randint(2, 30)}
    if shape == 2:
        return {"min": rng.randint(2, 20)}
    if shape == 3:
        return {"parity": rng.choice(("odd", "even"))}
    return {"min": rng.randint(2, 20), "parity": rng.choice(("odd", "even"))}


def _genus_for(rng: random.Random, constraint: dict) -> int:
    choices = [
        g for g in range(2, 41)
        if constraint.get("equals", g) == g and g >= constraint.get("min", 2)
        and constraint.get("parity") in (None, ("even", "odd")[g % 2])
    ]
    return rng.choice(choices)


def fact_records(rng: random.Random, count: int) -> list[dict]:
    """User facts with distinct keys.  Ranks start at 3 and B sections at
    n + 2, so no record collides with a built-in fact or is shadowed by the
    rank-one and n+1-section rules."""
    seen = set()
    records = []
    while len(records) < count:
        kind = rng.choice(("S", "B", "Btilde"))
        n = rng.randint(3, 40)
        sections = rng.randint(n + (1 if kind == "S" else 2), n + 40)
        if rng.random() < 0.5:
            degree = rng.randint(1, 200)
        else:
            offset = rng.randint(-3, 30)
            degree = "g+%d" % offset if offset >= 0 else "g-%d" % -offset
        key = (kind, n, sections, degree)
        if key in seen:
            continue
        seen.add(key)
        records.append({
            "kind": kind, "n": n, "d": degree,
            ("v" if kind == "S" else "k"): sections,
            "level": rng.choice(LEVELS),
            "genus": _genus_constraint(rng),
            "citation": "synthetic fact %d" % len(records),
        })
    return records


def _degree_at(record: dict, g: int) -> int:
    d = record["d"]
    return d if isinstance(d, int) else g + int(d[1:])


def fact_hit_argv(rng: random.Random, record: dict, facts_path: str) -> list[str]:
    """A certify request that can only be answered by this user fact."""
    g = _genus_for(rng, record["genus"])
    d = _degree_at(record, g)
    n = record["n"]
    if record["kind"] == "S":
        return ["certify", "s", "--curve", "smooth:%d" % g,
                "--cs", _triple((n, d, record["v"])), "--facts", facts_path]
    # phi pairs the user's B fact with a rank-one general system (1, D, 2),
    # which the classical rule certifies once D >= g + 1; D > d/n keeps the
    # slope condition.
    big_d = max(g + 1, d // n + 1) + rng.randint(0, 3)
    return ["certify", "phi", "--curve", "general:%d" % g,
            "--locus1", _triple((n, d, record["k"])),
            "--cs", _triple((1, big_d, 2)), "--facts", facts_path]


def usage_error_argv(rng: random.Random, center) -> list[str]:
    """A certify request with a missing required flag or a malformed value."""
    rule, curve_spec, args = center
    argv = certify_argv(rule, curve_spec, args)
    flags = [i for i, a in enumerate(argv) if a.startswith("--") and a != "--curve"]
    i = rng.choice(flags)
    if rng.random() < 0.5 or "," not in argv[i + 1]:
        return argv[:i] + argv[i + 2:]
    return argv[:i + 1] + [argv[i + 1].rsplit(",", 1)[0]] + argv[i + 2:]


def small_sweep(rng: random.Random, which: int):
    if which == 0:
        g = rng.randint(8, 12)
        locus1 = rng.choice(SWEEP_LOCI)
        lo = rng.randint(2, 60)
        n2s = range(lo, lo + 4)
        argv = ["sweep", "table1", "--g", str(g), "--locus1", _triple(locus1),
                "--n2", "%d..%d" % (n2s[0], n2s[-1])]
        return argv, ("table1", (g, locus1, n2s))
    if which == 1:
        lo = rng.randint(2, 20)
        n2s = range(lo, lo + rng.randint(5, 30))
        return (["sweep", "table2", "--n2", "%d..%d" % (n2s[0], n2s[-1])],
                ("table2", (n2s,)))
    if which == 2:
        g, n1 = rng.randint(10, 39), rng.randint(2, 7)
        return (["sweep", "ex40", "--g", str(g), "--n1", str(n1)],
                ("ex40", (g, n1)))
    g = rng.randint(6, 14)
    locus1 = rng.choice(SWEEP_LOCI)
    lo = rng.randint(1, 40)
    n2s = range(lo, lo + rng.randint(5, 30))
    argv = ["sweep", "bnmap", "--g", str(g), "--locus1", _triple(locus1),
            "--n2", "%d..%d" % (n2s[0], n2s[-1])]
    return argv, ("bnmap", (g, locus1, n2s, None))


def beta_argv(rng: random.Random, variant: str):
    g, k = rng.randint(2, 20), rng.randint(1, 30)
    if variant == "classical":
        n, d = rng.randint(1, 5), rng.randint(-10, 30)
        return (["beta", "classical", "--g", str(g), "--n", str(n), "--d", str(d),
                 "--k", str(k)], oracles.beta_classical(g, n, d, k))
    n1, d1 = rng.randint(1, 5), rng.randint(-10, 30)
    n2, d2 = rng.randint(1, 5), rng.randint(-10, 30)
    fn = oracles.beta_universal if variant == "universal" else oracles.beta_twisted
    return (["beta", variant, "--g", str(g), "--b1", "%d,%d" % (n1, d1),
             "--b2", "%d,%d" % (n2, d2), "--k", str(k)],
            fn(g, n1, d1, n2, d2, k))


class CliMix:
    """One `bnloci` process per request, as a command-line user runs it.

    Chosen because interpreter start-up and import dominate, and because the
    fact database is used the way a user with a facts file uses it: a
    thousand user facts loaded, scanned linearly and saved.  A sweep
    speed-up should leave this workload unchanged; a start-up or fact-file
    speed-up should show here.
    """

    name = "cli_mix"
    ROUNDS = 40

    def __init__(self, seed: int, work: Path) -> None:
        rng = random.Random("cli_mix:%d" % seed)
        records = fact_records(rng, USER_FACTS + self.ROUNDS)
        self.user_records = records[:USER_FACTS]
        self.master = work / "facts.json"
        self.master.write_text(json.dumps(self.user_records, indent=2) + "\n",
                               encoding="utf-8")
        self.copy = work / "facts-run.json"
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k != cli.FACTS_ENV}
        self.env["PYTHONPATH"] = str(Path(certkit.__file__).resolve().parents[1])
        self.child_rss_kb = 0
        facts = str(self.master)
        adds = iter(records[USER_FACTS:])
        self.ops = []
        for r in range(self.ROUNDS):
            batch = [
                ("beta",) + beta_argv(rng, "universal"),
                ("beta",) + beta_argv(rng, ("classical", "twisted")[r % 2]),
                ("usage", usage_error_argv(rng, rng.choice(CERT_CENTERS))),
                ("sweep",) + small_sweep(rng, r % 4),
                ("facts_list", ["facts", "list"]),
                ("facts_add", ["facts", "add", json.dumps(next(adds)),
                               "--facts", str(self.copy)]),
                ("certify", fact_hit_argv(rng, rng.choice(self.user_records), facts)),
            ]
            for j in range(3):
                center = CERT_CENTERS[(3 * r + j) % len(CERT_CENTERS)]
                batch.append(("certify", certify_argv(*perturbed_request(rng, center))))
            miss = perturbed_request(rng, rng.choice(CERT_CENTERS))
            batch.append(("certify", certify_argv(*miss) + ["--facts", facts]))
            rng.shuffle(batch)
            self.ops.extend(batch)

    def prepare(self, op) -> None:
        if op[0] == "facts_add":
            shutil.copyfile(self.master, self.copy)

    def run(self, op) -> Outcome:
        proc = subprocess.Popen(
            [sys.executable, "-m", "bnloci.cli", *op[1]], cwd=self.work,
            env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return Outcome(out, proc.returncode, out.count(b"\n"))

    def run_inprocess(self, op) -> Outcome:
        """The same request through cli.main in this process, for tracing."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(op[1]))
        data = out.getvalue().encode()
        return Outcome(data, code, data.count(b"\n"))

    def check(self, op, outcome: Outcome) -> str | None:
        kind, argv = op[0], op[1]
        code, out = outcome.code, outcome.out
        if kind == "usage":
            return None if code == 2 and not out else "usage error gave exit %d" % code
        if kind == "certify":
            if code == 2:
                return "certify exit 2 on a well-formed request"
            try:
                cert = json.loads(out) if code in (0, 3) else None
            except ValueError:
                return "certify printed something that is not JSON"
            return (oracles.check_certify_exit(code, out, cert)
                    or (cert and oracles.check_certificate(cert)))
        if code != 0:
            return "%s exit %d" % (kind, code)
        text = out.decode()
        if kind == "beta":
            want = op[2]
            lines = text.splitlines()
            expect = ["beta = %d" % want]
            if argv[1] == "universal":
                expect.append("beta_negative_criterion = %s" % str(want < 0).lower())
            return None if lines == expect else "beta printed %r, want %r" % (lines, expect)
        if kind == "sweep":
            return oracles.check_sweep(op[2][0], op[2][1], text)
        if kind == "facts_list":
            lines = text.splitlines()
            if not lines or not all(l.startswith(("[builtin] ", "[user] ")) for l in lines):
                return "facts list printed %r" % (lines[:2],)
            return None
        # facts_add: the per-run copy gains exactly the one record.
        saved = json.loads(self.copy.read_text(encoding="utf-8"))
        added = json.loads(argv[2])
        if len(saved) != USER_FACTS + 1 or saved[-1]["citation"] != added["citation"]:
            return "facts add left %d records" % len(saved)
        return None if text.startswith("added ") else "facts add printed %r" % text

    def peak_rss_kb(self) -> int:
        return self.child_rss_kb


CLASSES = {c.name: c for c in (CertBattery, SweepLarge, CliMix)}
NAMES = tuple(CLASSES)


def build(name: str, seed: int, work: Path):
    return CLASSES[name](seed, work)
