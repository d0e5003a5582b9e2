"""Random `certify` requests through `main(argv)` keep the exit-code
contract: 0, 3 or 4 for a well-formed request, 2 for a usage error, JSON on
stdout only with a certificate, and never an exception.

Rules and flags are drawn from the rule registry, so every rule and every
flag the CLI derives from it is exercised."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bnloci.certkit import RULES as RULE_TABLE
from bnloci.cli import RULES, main

INTS = st.integers(-3, 40)


@st.composite
def certify_requests(draw):
    rule = draw(st.sampled_from(RULES))
    level = draw(st.sampled_from(("smooth", "petri", "general")))
    suffix = draw(st.sampled_from(("", ",hyp", ",nonhyp")))
    argv = ["certify", rule, "--curve", "%s:%d%s" % (level, draw(INTS), suffix)]
    spec = RULE_TABLE[rule]
    for param in spec.params:
        if draw(st.integers(0, 9)) == 0:
            continue  # a missing flag
        if param in spec.triples:
            value = ",".join(str(draw(INTS)) for _ in range(3))
        else:
            value = str(draw(INTS))
        argv += ["--" + param, value]
    return rule, argv


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(certify_requests())
def test_certify_exit_contract(monkeypatch, request_):
    monkeypatch.delenv("BNLOCI_FACTS", raising=False)
    rule, argv = request_
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, code)
    if code in (2, 4):
        assert out.getvalue() == "", argv
    else:
        cert = json.loads(out.getvalue())
        # S(n, d, v) may be answered by a cited fact of the database.
        assert cert["rule"] in ((rule, "fact") if rule == "s" else (rule,)), argv
