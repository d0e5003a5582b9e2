"""A census of every registry rule over a bounded box.

Each request goes through `certkit.run_rule` with a diagnostics list and
ends in one of four exit classes, as `bnloci certify` would exit: 0 for a
proved stable certificate, 3 for a conditional or semistable one, 4 for no
certificate and 2 for a ValueError.  Per (rule, genus, level, hyperelliptic
flag), `goldens/census.json` records a sha256 over every request and what it
gave (the certificate JSON, the diagnostic lines or the ValueError text),
and the count per exit class.  It also records every distinct diagnostic
line, with its integers written N: together they are every message the
rules can emit.

The box is genus 2..6, every level and every flag.  Each rule's windows
surround its degree floor, and the kernel rules and `s` reach Mistretta's
boundary d = 2g + 2c.  Run this file as a script to write the golden; the
test never rewrites it.
"""

import hashlib
import json
import math
import re
from pathlib import Path

from bnloci.bncalc import line_bn_degree_bound
from bnloci.certkit import RULES, CurveClass, FactDatabase, _petri_f_bound, run_rule

GOLDEN = Path(__file__).parent / "goldens" / "census.json"
GENERA = range(2, 7)
LEVELS = ("smooth", "petri", "general")
FLAGS = ("unknown", "yes", "no")


def _floor(g, n1):
    """The least d1 with beta(1, d1, n1+1) >= 0."""
    return math.ceil(line_bn_degree_bound(g, n1))


def _line(g):
    for v in range(0, g + 4):
        for d in range(-1, 2 * g + 4):
            yield {"d": d, "v": v}


def _np1(g):
    for n1 in range(1, 6):
        for d1 in range(0, 2 * g + 2 * n1 + 4):
            yield {"n1": n1, "d1": d1}


def _s(g):
    yield {"cs": (0, 1, 1)}
    for v in range(1, g + 5):
        for d in range(0, 2 * v + 2):
            yield {"cs": (1, d, v)}
    for v in range(2, 6):
        for d in range(0, 2 * g + 5):
            yield {"cs": (2, d, v)}


def _loci(g):
    """First loci of the dual-span rules: rank 1..3 with n1+1 sections around
    the line floor and at d1 = 2*n1, the fact B(2, 10, 5), a locus no rule
    or fact covers, and one malformed locus."""
    loci = [(0, 1, 1), (2, 10, 5), (2, 2 * g, 4)]
    for n1 in (1, 2, 3):
        f = _floor(g, n1)
        loci += [(n1, d1, n1 + 1) for d1 in sorted({f - 1, f, f + 1, 2 * n1})]
    return loci


def _systems(g):
    """Generated systems: rank 1 around the general floor and at Mistretta's
    boundary d = 2(v-1) (c = v-1-g), the facts S(2, g+3, 4) and S(2, 10, 5),
    a system no rule or fact covers and two with v <= n."""
    systems = [(1, 2, 1), (2, 5, 2), (2, g + 3, 4), (2, 10, 5), (2, 2 * g, 3)]
    for v in (2, 3, g + 2, g + 3):
        f = _floor(g, v - 1)
        systems += [(1, d, v) for d in sorted({f - 1, f, f + 1, 2 * v - 3,
                                               2 * v - 2, 2 * v - 1})]
    return systems


def _phi(g):
    for locus1 in _loci(g):
        for cs in _systems(g):
            yield {"locus1": locus1, "cs": cs}


def _folds(g):
    yield {"locus1": (2, 10, 5), "cs": (1, 12, 5), "r": 0}
    for r in (1, 2):
        for locus1 in _loci(g):
            for cs in _systems(g):
                yield {"locus1": locus1, "cs": cs, "r": r}


def _t9(g):
    yield {"locus1": (0, 1, 1), "n": 1, "d": g + 1, "v": 2}
    for locus1 in ((2, 5, 2), (1, g + 1, 2), (3, 2 * g, 3)):
        for n in (1, 2):
            for d in range(n * g - 1, n * g + 4):
                for v in range(n, n + 5):
                    yield {"locus1": locus1, "n": n, "d": d, "v": v}


def _t4(g):
    yield {"n1": 1, "d1": 3, "k1": 2, "n": 1, "e": 0, "f": 0, "d": 10}
    yield {"n1": 2, "d1": 6, "k1": 3, "n": 0, "e": 0, "f": 0, "d": 10}
    for k1 in (3, 4):
        for d1 in (0, _floor(g, 2) - 1, _floor(g, 2), _floor(g, 2) + 1):
            for n in (1, 2):
                for f in (0, 1, 2):
                    for d in sorted({n * g + f, n * g + f + 1, 2 * g + 2 * f,
                                     2 * g + 2 * f + 1}):
                        lower = n * (g - 1) * (k1 - 2) + n * d1 + f * k1
                        for e in (lower - 1, lower, d * (k1 - 2)):
                            yield {"n1": 2, "d1": d1, "k1": k1, "n": n, "e": e,
                                   "f": f, "d": d}


def _t10(g):
    yield {"n1": 2, "d1": 6, "k1": 3, "c": 0, "d": 10, "k": 1}
    for k1 in (3, 5):
        for d1 in sorted({_floor(g, 2) - 1, _floor(g, 2), _floor(g, 2) + 1, 10}):
            for c in sorted({1, 2, g}):
                for d in (2 * g + 2 * c - 1, 2 * g + 2 * c, 2 * g + 2 * c + 1):
                    max_k = (d - g + 1) * (k1 - 2) - c * k1 - d1
                    for k in sorted({0, 1, max_k, max_k + 1}):
                        yield {"n1": 2, "d1": d1, "k1": k1, "c": c, "d": d, "k": k}


def _c8(g):
    yield {"n1": 2, "d1": 6, "k1": 2, "c": 1, "d": 10, "e": 1}
    for n1 in (2, 3):
        top = math.floor(_petri_f_bound(g, n1))
        for k1 in (n1 + 1, n1 + 2):
            for d1 in range(_floor(g, n1) - 1, top + 2):
                for c in (1, 2):
                    for d in (2 * g + 2 * c - 1, 2 * g + 2 * c, 2 * g + 2 * c + 1):
                        e_bound = (g - 1) * (k1 - n1) + c * k1 + d1
                        for e in (e_bound - 1, e_bound, d * (k1 - n1)):
                            yield {"n1": n1, "d1": d1, "k1": k1, "c": c, "d": d,
                                   "e": e}


BOXES = {"line": _line, "np1": _np1, "s": _s, "phi": _phi, "rfold": _folds,
         "elem": _folds, "t9": _t9, "t4": _t4, "t10": _t10, "c8": _c8}


def census():
    """The golden's content, computed afresh."""
    facts = FactDatabase()
    cells, lines = {}, set()
    for rule in RULES:
        box = BOXES[rule]
        for g in GENERA:
            requests = list(box(g))
            for level in LEVELS:
                for flag in FLAGS:
                    curve = CurveClass(g, level, flag)
                    digest = hashlib.sha256()
                    exits = {"0": 0, "2": 0, "3": 0, "4": 0}
                    for inputs in requests:
                        diagnostics = []
                        try:
                            cert = run_rule(rule, curve, inputs, facts,
                                            diagnostics=diagnostics)
                        except ValueError as exc:
                            code, text = "2", "ValueError: %s" % exc
                        else:
                            if cert is None:
                                code, text = "4", "\n".join(diagnostics)
                                lines.update(diagnostics)
                            else:
                                stable = (cert.status == "proved"
                                          and cert.conclusion.strength == "stable")
                                code, text = "0" if stable else "3", cert.to_json()
                        exits[code] += 1
                        digest.update(("%r\n%s\n" % (inputs, text)).encode())
                    cells["%s:%d:%s:%s" % (rule, g, level, flag)] = {
                        "sha256": digest.hexdigest(), "exits": exits}
    return {"cells": cells,
            "diagnostics": sorted({re.sub(r"[0-9]+", "N", x) for x in lines})}


def test_census_matches_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    seen = census()
    differ = [key for key in golden["cells"]
              if golden["cells"][key] != seen["cells"].get(key)]
    assert list(seen["cells"]) == list(golden["cells"])
    assert not differ, "%d cells differ; first: %s" % (len(differ), differ[0])
    assert seen["diagnostics"] == golden["diagnostics"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(census(), indent=1) + "\n", encoding="utf-8")
