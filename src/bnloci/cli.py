"""Command-line interface: BN numbers, certificates, sweeps and facts.

Exit codes for `certify`: 0 for a proved stable-strength certificate, 3 for
a certificate that is conditional or semistable-only, 4 when no rule
applies, 2 for usage errors.  All other subcommands exit 0 on success and 2
on usage errors.  Output is deterministic: identical inputs produce
byte-identical output, rationals print as p/q and appear in JSON only
inside hypothesis text, and no timestamps appear in data payloads.

The default facts file may be supplied via the BNLOCI_FACTS environment
variable; --facts overrides it.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .bncalc import (
    _ascii_int,
    beta_classical,
    beta_twisted,
    beta_universal,
    universal_neg_criterion,
)
from .certkit import (
    RULES as RULE_TABLE,
    CurveClass,
    Fact,
    FactDatabase,
    dumps_indented,
    run_rule,
)
# The rule entry points stay module globals of cli for bnbench/tracing.py.
from .certkit import (  # noqa: F401
    certify_c8,
    certify_elem,
    certify_phi,
    certify_rfold,
    certify_t4,
    certify_t9,
    certify_t10,
    bn_np1_nonempty,
    s_nonempty,
)
from .sweeps import (
    BNMAP_HEADER,
    EX40_HEADER,
    TABLE1_HEADER,
    TABLE2_HEADER,
    RegionBoundary,
    bnmap_rows,
    ex40_rows,
    rows_to_csv,
    table1_rows,
    table2_rows,
)

FACTS_ENV = "BNLOCI_FACTS"

# Every registry rule except "line", which only backs sub-certificates.
RULES = tuple(name for name in RULE_TABLE if name != "line")
TRIPLE_HELP = {
    "locus1": "n,d,k of the first locus",
    "cs": "n,d,v of the generated coherent system",
}


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("expected n,d but got %r" % (text,))
    return _ascii_int(parts[0]), _ascii_int(parts[1])


def _parse_triple(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("expected three comma-separated integers, got %r" % (text,))
    return _ascii_int(parts[0]), _ascii_int(parts[1]), _ascii_int(parts[2])


def _parse_span(text: str) -> range:
    """Parse "a..b" (inclusive, a <= b) or a single integer."""
    if ".." in text:
        lo, hi = map(_ascii_int, text.split("..", 1))
        if hi < lo:
            raise ValueError("span %r runs backwards" % (text,))
        return range(lo, hi + 1)
    value = _ascii_int(text)
    return range(value, value + 1)


def _facts_path(args) -> str | None:
    return args.facts or os.environ.get(FACTS_ENV) or None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnloci",
        description="Exact BN-number calculator, certificate engine and "
        "sweep enumerator for twisted Brill-Noether loci.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_beta = sub.add_parser("beta", help="evaluate a BN number")
    p_beta.add_argument("variant", choices=("classical", "twisted", "universal"))
    p_beta.add_argument("--g", type=_ascii_int, required=True)
    p_beta.add_argument("--n", type=_ascii_int)
    p_beta.add_argument("--d", type=_ascii_int)
    p_beta.add_argument("--b1")
    p_beta.add_argument("--b2")
    p_beta.add_argument("--k", type=_ascii_int, required=True)
    p_beta.add_argument("--format", choices=("text", "json"), default="text")
    p_beta.set_defaults(func=_cmd_beta)

    p_cert = sub.add_parser("certify", help="run one certificate rule")
    p_cert.add_argument("rule", choices=RULES)
    p_cert.add_argument("--curve", required=True,
                        help="level:genus[,hyp|nonhyp], e.g. general:7")
    triples = {p for rule in RULES for p in RULE_TABLE[rule].triples}
    for flag in dict.fromkeys(p for rule in RULES for p in RULE_TABLE[rule].params):
        if flag in triples:
            p_cert.add_argument("--" + flag, help=TRIPLE_HELP[flag])
        else:
            p_cert.add_argument("--" + flag, type=_ascii_int)
    p_cert.add_argument("--facts")
    p_cert.set_defaults(func=_cmd_certify)

    p_sweep = sub.add_parser("sweep", help="emit a deterministic CSV sweep")
    p_sweep.add_argument("kind", choices=("table1", "table2", "ex40", "bnmap"))
    p_sweep.add_argument("--g", type=_ascii_int, default=10)
    p_sweep.add_argument("--locus1", default="6,22,7")
    p_sweep.add_argument("--n1", type=_ascii_int)
    p_sweep.add_argument("--n2", default=None, help="range a..b or single value")
    p_sweep.add_argument("--boundary", help="boundary CSV of mu,lambda samples")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_facts = sub.add_parser("facts", help="list or add cited facts")
    p_facts.add_argument("action", choices=("list", "add"))
    p_facts.add_argument("record", nargs="?", help="JSON fact record for add")
    p_facts.add_argument("--facts")
    p_facts.add_argument("--format", choices=("text", "json"), default="text")
    p_facts.set_defaults(func=_cmd_facts)

    return parser


def _cmd_beta(args) -> int:
    g, k = args.g, args.k
    if args.variant == "classical":
        if args.n is None or args.d is None:
            print("beta classical needs --n and --d", file=sys.stderr)
            return 2
        value = beta_classical(g, args.n, args.d, k)
        payload = {"beta": value}
    else:
        if not args.b1 or not args.b2:
            print("beta %s needs --b1 and --b2" % args.variant, file=sys.stderr)
            return 2
        b1 = _parse_pair(args.b1)
        b2 = _parse_pair(args.b2)
        if args.variant == "twisted":
            value = beta_twisted(g, b1, b2, k)
            payload = {"beta": value}
        else:
            value = beta_universal(g, b1, b2, k)
            payload = {
                "beta": value,
                "beta_negative_criterion": universal_neg_criterion(g, b1, b2, k),
            }
    if args.format == "json":
        print(dumps_indented(payload))
    else:
        for key, val in payload.items():
            print("%s = %s" % (key, str(val).lower() if isinstance(val, bool) else val))
    return 0


def _cmd_certify(args) -> int:
    curve = CurveClass.parse(args.curve)
    facts = FactDatabase.load(_facts_path(args))
    rule = RULE_TABLE[args.rule]
    missing = [p for p in rule.params if getattr(args, p) is None]
    if missing:
        print(
            "rule %r needs --%s" % (args.rule, ", --".join(missing)),
            file=sys.stderr,
        )
        return 2
    inputs = {
        p: _parse_triple(getattr(args, p)) if p in rule.triples else getattr(args, p)
        for p in rule.params
    }
    diagnostics: list[str] = []
    cert = run_rule(args.rule, curve, inputs, facts, diagnostics=diagnostics)
    if cert is None:
        for line in diagnostics:
            print(line, file=sys.stderr)
        print("no certificate", file=sys.stderr)
        return 4
    print(cert.to_json())
    if cert.status != "proved" or cert.conclusion.strength != "stable":
        return 3
    return 0


def _cmd_sweep(args) -> int:
    if args.kind == "table1":
        span = _parse_span(args.n2) if args.n2 else range(2, 9)
        rows = table1_rows(args.g, _parse_triple(args.locus1), span)
        sys.stdout.write(rows_to_csv(rows, TABLE1_HEADER))
    elif args.kind == "table2":
        span = _parse_span(args.n2) if args.n2 else range(2, 11)
        rows = table2_rows(span)
        sys.stdout.write(rows_to_csv(rows, TABLE2_HEADER))
    elif args.kind == "ex40":
        if args.n1 is None:
            print("sweep ex40 needs --n1", file=sys.stderr)
            return 2
        rows = ex40_rows(args.g, args.n1)
        sys.stdout.write(rows_to_csv(rows, EX40_HEADER))
    else:  # bnmap
        if args.n2 is None:
            print("sweep bnmap needs --n2", file=sys.stderr)
            return 2
        boundary = None
        if args.boundary:
            boundary = RegionBoundary.from_csv(args.boundary, args.g)
        rows = bnmap_rows(
            args.g, _parse_triple(args.locus1), _parse_span(args.n2), boundary
        )
        sys.stdout.write(rows_to_csv(rows, BNMAP_HEADER))
    return 0


def _cmd_facts(args) -> int:
    path = _facts_path(args)
    if args.action == "list":
        facts = FactDatabase.load(path).facts()
        if args.format == "json":
            print(dumps_indented([f.to_record() for f in facts]))
        else:
            for fact in facts:
                origin = "builtin" if fact.builtin else "user"
                print(
                    "[%s] %s  level=%s  genus: %s  -- %s"
                    % (origin, fact.describe(), fact.level,
                       fact.genus.describe(), fact.citation)
                )
        return 0
    # add
    if not args.record:
        print("facts add needs a JSON fact record", file=sys.stderr)
        return 2
    if not path:
        print(
            "facts add needs --facts or %s to know where to persist" % FACTS_ENV,
            file=sys.stderr,
        )
        return 2
    # add creates the facts file; every other path needs it to exist.
    db = FactDatabase.load(path) if os.path.exists(path) else FactDatabase()
    record = json.loads(args.record)
    fact = Fact.from_record(record)
    db.add(fact)
    db.save(path)
    print("added %s" % fact.describe())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    # RecursionError: json gives up on deeply nested arrays or objects;
    # csv.Error: a boundary field beyond the csv module's size limit.
    except (ValueError, OSError, RecursionError, csv.Error) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
