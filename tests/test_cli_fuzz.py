"""Random requests through `main(argv)` keep the exit-code contract.

`certify` exits 0, 3 or 4 for a well-formed request and 2 for a usage error,
with JSON on stdout only with a certificate.  `beta`, `sweep` and `facts`
exit 0 or 2, with nothing on stdout on 2.  No request may raise.

Rules and flags are drawn from the rule registry, so every rule and every
flag the CLI derives from it is exercised.  Integer arguments and boundary
fields are sometimes numerals that int() reads but the CLI refuses: non-ASCII
digits, underscores, a leading "+" or a tab; a certify request holding one
exits 2.  Sweeps read boundary files with short and malformed rows; facts records and files hold floats, bools,
numeric strings and nested arrays where integers belong, degrees with
non-ASCII digits or underscores, and citations in non-ASCII text or with
lone surrogates that UTF-8 cannot encode."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bnloci.certkit import RULES as RULE_TABLE
from bnloci.cli import RULES, main

INTS = st.integers(-3, 40)
# int() reads each of these; the CLI refuses them all.
UNREADABLE = st.sampled_from(("\u0663", "\u0661\u0660", "1_0", "+4", "\t5"))
FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_exits_0_or_2(argv):
    code, out, _ = run_main(argv)
    assert code in (0, 2), (argv, code)
    if code == 2:
        assert out == "", argv
    out.encode("utf-8")  # a real stdout must be able to write it
    return code, out


@st.composite
def certify_requests(draw):
    refused = []

    def numeral():
        if draw(st.integers(0, 29)) == 0:
            refused.append(draw(UNREADABLE))
            return refused[-1]
        return str(draw(INTS))

    rule = draw(st.sampled_from(RULES))
    level = draw(st.sampled_from(("smooth", "petri", "general")))
    suffix = draw(st.sampled_from(("", ",hyp", ",nonhyp")))
    argv = ["certify", rule, "--curve", "%s:%s%s" % (level, numeral(), suffix)]
    spec = RULE_TABLE[rule]
    for param in spec.params:
        if draw(st.integers(0, 9)) == 0:
            continue  # a missing flag
        if param in spec.triples:
            value = ",".join(numeral() for _ in range(3))
        else:
            value = numeral()
        argv += ["--" + param, value]
    return rule, argv, bool(refused)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(certify_requests())
def test_certify_exit_contract(monkeypatch, request_):
    monkeypatch.delenv("BNLOCI_FACTS", raising=False)
    rule, argv, refused = request_
    code, out, _ = run_main(argv)
    assert code in ((2,) if refused else (0, 2, 3, 4)), (argv, code)
    if code in (2, 4):
        assert out == "", argv
    else:
        cert = json.loads(out)
        # S(n, d, v) may be answered by a cited fact of the database.
        assert cert["rule"] in ((rule, "fact") if rule == "s" else (rule,)), argv


def mostly(valid, bad, one_in=10):
    """A draw from `bad` one time in `one_in`, else one from `valid`."""
    # sampled_from draws uniformly; integers() favours its lower bound.
    return st.sampled_from(range(one_in)).flatmap(lambda i: bad if i == 0 else valid)


def joined(*parts):
    return st.tuples(*parts).map(lambda xs: ",".join(map(str, xs)))


OMIT = st.just(None)
MALFORMED = OMIT | st.sampled_from(("", "x", "1,x", ",", "2;5", "1.5", "..", "3..",
                                    "..4", "2..x", "2...4", "1,2,3,4", "2..1_0",
                                    "1,\u0662", "\u0663,2,1")) | UNREADABLE
GENERA = mostly(st.integers(2, 14), INTS | MALFORMED)
RANKS = st.integers(1, 5)
DEGREES = st.integers(-10, 30)


def add_flags(draw, argv, flags):
    for flag, values in flags:
        value = draw(values)
        if value is not None:
            argv += [flag, str(value)]
    return argv


@st.composite
def beta_requests(draw):
    variant = draw(st.sampled_from(("classical", "twisted", "universal")))
    pair = mostly(joined(RANKS, DEGREES), joined(INTS, INTS) | MALFORMED)
    return add_flags(draw, ["beta", variant], [
        ("--g", GENERA),
        ("--k", mostly(st.integers(0, 12), INTS | MALFORMED)),
        ("--n", mostly(RANKS, INTS | MALFORMED)),
        ("--d", mostly(DEGREES, MALFORMED)),
        ("--b1", pair),
        ("--b2", pair),
        ("--format", st.sampled_from(("text", "json"))),
    ])


@FUZZ
@given(beta_requests())
def test_beta_exit_contract(argv):
    code, out = assert_exits_0_or_2(argv)
    if code == 0:
        assert out.startswith("beta = ") or "beta" in json.loads(out), argv


MU_LAMBDA = st.tuples(st.integers(0, 20), st.integers(0, 9), st.integers(1, 4))
SAMPLE_ROWS = st.lists(MU_LAMBDA, max_size=4, unique_by=lambda s: s[0]).map(
    lambda samples: ["%d,%d/%d" % s for s in sorted(samples)])
FIELDS = (INTS.map(str) | st.tuples(INTS, INTS).map(lambda pq: "%d/%d" % pq)
          | st.sampled_from(("", "mu", "x", "1/", "/2", "1.5", " 3 ", "1/\u0662"))
          | UNREADABLE)
# A short row, a long row, or up to three arbitrary fields.
BAD_ROWS = (INTS.map(str) | joined(INTS, INTS, INTS)
            | st.lists(FIELDS, max_size=3).map(",".join))
# No boundary file, a header and samples, or samples with one bad row; one
# third each (`|` favours its first branch).
BOUNDARIES = st.sampled_from((
    OMIT,
    SAMPLE_ROWS.map(lambda rows: ["mu,lambda"] + rows),
    st.tuples(SAMPLE_ROWS, st.integers(0, 4), BAD_ROWS).map(
        lambda t: t[0][:t[1]] + [t[2]] + t[0][t[1]:]),
)).flatmap(lambda strategy: strategy)


@st.composite
def sweep_requests(draw):
    kind = draw(st.sampled_from(("table1", "table2", "ex40", "bnmap")))
    argv = add_flags(draw, ["sweep", kind], [
        ("--g", GENERA),
        ("--locus1", mostly(joined(RANKS, DEGREES, st.integers(1, 8)),
                            joined(INTS, INTS, INTS) | MALFORMED)),
        ("--n1", mostly(st.integers(2, 6), INTS | MALFORMED)),
        ("--n2", mostly(
            st.tuples(st.integers(2, 12), st.integers(0, 6)).map(
                lambda a: "%d..%d" % (a[0], a[0] + a[1])),
            st.tuples(INTS, INTS).map(lambda ab: "%d..%d" % ab)
            | INTS | MALFORMED)),
    ])
    return argv, draw(BOUNDARIES)


@FUZZ
@given(sweep_requests())
def test_sweep_exit_contract(tmp_path, request_):
    argv, rows = request_
    if rows is not None:
        path = tmp_path / "boundary.csv"
        path.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
        argv = argv + ["--boundary", str(path)]
    code, out = assert_exits_0_or_2(argv)
    if code == 0:
        assert out.count("\n") >= 1 and out.endswith("\n"), argv


JSON_SCALARS = (
    st.none() | st.booleans() | INTS
    | st.floats(allow_nan=False, allow_infinity=False)
    | INTS.map(str)
    | st.sampled_from(("g", "g+3", "g-2", "g+x", "S", "B", "general", "odd"))
    | st.text(max_size=4)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(("equals", "min", "parity")), inner,
                      max_size=3),
    max_leaves=6,
)
MISSING = object()


def field(valid):
    return mostly(valid, st.just(MISSING) | JSON_VALUES, one_in=20)


FACT_FIELDS = {
    "kind": field(st.sampled_from(("S", "B", "Btilde"))),
    "n": field(RANKS),
    "d": field(DEGREES | st.sampled_from(("g", "g+3", "g-1", "g+\u06610",
                                          "g+1_0", "g+ 3"))),
    "k": field(st.integers(1, 8)),
    "v": field(st.integers(1, 8)),
    "level": field(st.sampled_from(("smooth", "petri", "general"))),
    "genus": field(st.fixed_dictionaries({
        "equals": field(st.just(MISSING) | st.integers(2, 12)),
        "min": field(st.just(MISSING) | st.integers(2, 12)),
        "parity": field(st.just(MISSING) | st.sampled_from(("odd", "even"))),
    })),
    # ASCII, other text, or a lone surrogate; one third each.
    "citation": field(st.sampled_from((
        st.just("a citation"),
        st.text(st.characters(min_codepoint=0x80), min_size=1, max_size=4),
        st.sampled_from(("x\ud800", "\udfff")),
    )).flatmap(lambda strategy: strategy)),
}


def drop_missing(record):
    return {key: drop_missing(value) if isinstance(value, dict) else value
            for key, value in record.items() if value is not MISSING}


FACT_RECORDS = mostly(st.fixed_dictionaries(FACT_FIELDS).map(drop_missing),
                      JSON_VALUES)


@st.composite
def facts_requests(draw):
    """A facts file (absent, a JSON array of records, any JSON value or
    text that is not JSON), then one `facts add` and one `facts list`."""
    existing = draw(st.sampled_from(("absent", "records", "records", "json",
                                     "text")))
    if existing == "records":
        content = json.dumps(draw(st.lists(FACT_RECORDS, max_size=3)))
    elif existing == "json":
        content = json.dumps(draw(JSON_VALUES))
    elif existing == "text":
        content = draw(st.text(max_size=8))
    else:
        content = None
    record = draw(mostly(FACT_RECORDS.map(json.dumps), st.text(max_size=8)))
    fmt = draw(st.sampled_from(("text", "json")))
    return content, record, fmt


@FUZZ
@given(facts_requests())
def test_facts_exit_contract(monkeypatch, tmp_path, request_):
    monkeypatch.delenv("BNLOCI_FACTS", raising=False)
    content, record, fmt = request_
    path = tmp_path / "facts.json"
    path.unlink(missing_ok=True)
    if content is not None:
        path.write_text(content, encoding="utf-8")
    before = path.read_bytes() if content is not None else None
    code, out = assert_exits_0_or_2(["facts", "add", record, "--facts", str(path)])
    if code == 0:
        assert out.startswith("added ")
    else:
        # A refused record leaves the file as it was.
        assert (path.read_bytes() if path.exists() else None) == before
    code, out = assert_exits_0_or_2(
        ["facts", "list", "--facts", str(path), "--format", fmt])
    if code == 0 and fmt == "json":
        assert isinstance(json.loads(out), list)
