"""Byte-level goldens for `bnloci certify`.

Each request goes through `main(argv)` and is compared with
`goldens/certify.json` on three things: the exit code, the sha256 of stdout
(the certificate JSON, or nothing) and the full stderr text.  The requests
are the worked-example centers, every +-1 change of their genus and of each
integer argument, and one request per rule with all of its flags missing.
The golden file is checked in and never rewritten by this test.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from bnloci.cli import main

GOLDEN = Path(__file__).parent / "goldens" / "certify.json"

# (rule, (genus, level, hyperelliptic), arguments after the curve), one per
# worked example of the README and the test suite.
CENTERS = (
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

FLAGS = {
    "phi": ("locus1", "cs"),
    "rfold": ("locus1", "cs", "r"),
    "elem": ("locus1", "cs", "r"),
    "t9": ("locus1", "n", "d", "v"),
    "t4": ("n1", "d1", "k1", "n", "e", "f", "d"),
    "t10": ("n1", "d1", "k1", "c", "d", "k"),
    "c8": ("n1", "d1", "k1", "c", "d", "e"),
    "np1": ("n1", "d1"),
    "s": ("cs",),
}


def _argv(rule, curve, args, with_flags=True):
    g, level, hyper = curve
    suffix = {"yes": ",hyp", "no": ",nonhyp"}.get(hyper, "")
    argv = ["certify", rule, "--curve", "%s:%d%s" % (level, g, suffix)]
    if with_flags:
        for flag, value in zip(FLAGS[rule], args):
            text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
            argv += ["--" + flag, text]
    return argv


def _integers(args):
    for value in args:
        yield from (value if isinstance(value, tuple) else (value,))


def _rebuild(args, flat):
    it = iter(flat)
    return tuple(
        tuple(next(it) for _ in value) if isinstance(value, tuple) else next(it)
        for value in args
    )


def requests():
    """Every request of the golden file, in file order, without repeats."""
    out = {}
    for rule, (g, level, hyper), args in CENTERS:
        variants = [((g, level, hyper), args)]
        for delta in (-1, 1):
            variants.append(((g + delta, level, hyper), args))
        flat = list(_integers(args))
        for i in range(len(flat)):
            for delta in (-1, 1):
                moved = flat[:i] + [flat[i] + delta] + flat[i + 1:]
                variants.append(((g, level, hyper), _rebuild(args, moved)))
        for curve, variant in variants:
            argv = _argv(rule, curve, variant)
            out[" ".join(argv)] = argv
    for rule in FLAGS:
        center = next(c for c in CENTERS if c[0] == rule)
        argv = _argv(rule, center[1], center[2], with_flags=False)
        out[" ".join(argv)] = argv
    return list(out.values())


def observe(argv):
    """Exit code, stdout sha256 and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    return {"argv": argv, "exit": code, "stdout_sha256": digest,
            "stderr": err.getvalue()}


def test_golden_file_covers_exactly_the_requests():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in golden] == requests()


def test_certify_matches_goldens(monkeypatch):
    monkeypatch.delenv("BNLOCI_FACTS", raising=False)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    mismatches = [
        (entry, seen) for entry, seen in
        ((entry, observe(entry["argv"])) for entry in golden)
        if seen != entry
    ]
    assert not mismatches, "%d requests differ; first: %r" % (
        len(mismatches), mismatches[0])
