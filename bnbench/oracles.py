"""Output oracles for the benchmark, written without importing bnloci.

Every check here re-derives what it needs from the closed forms of the
Brill-Noether numbers, so a bug in the library cannot hide behind the same
bug in its checker.  Each check returns None when the output is right and a
one-line reason when it is not.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction

TABLE1_HEADER = ["n2", "d_min_formula", "d_max_formula", "d_max_direct",
                 "paper_d_min", "paper_d_max"]
TABLE2_HEADER = ["n2", "g_min", "paper_g_min"]
BNMAP_HEADER = ["mu0_num", "mu0_den", "lambda0_num", "lambda0_den",
                "classification"]
EX40_HEADER = ["n1", "g", "d1", "k", "beta"]
HEADERS = {"table1": TABLE1_HEADER, "table2": TABLE2_HEADER,
           "bnmap": BNMAP_HEADER, "ex40": EX40_HEADER}

# The locus and genus for which the printed d_max closed form was derived.
TABLE1_CANONICAL = (10, (6, 22, 7))


def beta_classical(g: int, n: int, d: int, k: int) -> int:
    return n * n * (g - 1) + 1 - k * (k - d + n * (g - 1))


def beta_universal(g: int, n1: int, d1: int, n2: int, d2: int, k: int) -> int:
    return (n1 * n1 + n2 * n2) * (g - 1) + 2 - k * (
        k - n2 * d1 - n1 * d2 + n1 * n2 * (g - 1))


def beta_twisted(g: int, n1: int, d1: int, n2: int, d2: int, k: int) -> int:
    """Only the (n1, d1) bundle moves; (n2, d2) is the fixed twist."""
    return n1 * n1 * (g - 1) + 1 - k * (
        k - n2 * d1 - n1 * d2 + n1 * n2 * (g - 1))


def d_min(g: int, n2: int) -> int:
    """Least d with beta_classical(g, 1, d, n2 + 1) >= 0."""
    return n2 + -(-g * n2 // (n2 + 1))


def dmax_closed_form(n2: int) -> int:
    return (264 * n2 * n2 + 322 * n2 - 319) // (42 * (n2 + 1))


# ---------------------------------------------------------------------------
# Certificates


def conclusion_beta(g: int, c: dict) -> int:
    kind = c["kind"]
    if kind == "universal":
        return beta_universal(g, c["n1"], c["d1"], c["n2"], c["d2"], c["k"])
    if kind in ("bn", "s"):
        return beta_classical(g, c["n1"], c["d1"], c["k"])
    if kind == "twisted":
        # The moving bundle is (n2, d2); (n1, d1) is the twisting type.
        return beta_twisted(g, c["n2"], c["d2"], c["n1"], c["d1"], c["k"])
    raise ValueError("unknown conclusion kind %r" % (kind,))


def check_certificate(node: dict) -> str | None:
    """Every node's beta equals the closed form of its own conclusion."""
    g = node["curve"]["genus"]
    want = conclusion_beta(g, node["conclusion"])
    if node["beta"] != want:
        return "rule %s: beta %r, closed form gives %d" % (
            node["rule"], node["beta"], want)
    for sub in node["subcertificates"]:
        problem = check_certificate(sub)
        if problem:
            return problem
    return None


def _proved_stable(node: dict) -> bool:
    return node["status"] == "proved" and node["conclusion"]["strength"] == "stable"


def check_certify_exit(code: int, stdout: bytes, cert: dict | None) -> str | None:
    """0 only for a proved stable certificate, 3 for any other certificate,
    2 and 4 with nothing on stdout."""
    if code in (2, 4):
        return None if not stdout else "exit %d with output on stdout" % code
    if code not in (0, 3):
        return "exit code %d is outside the contract" % code
    if cert is None:
        return "exit %d without a certificate" % code
    if (code == 0) != _proved_stable(cert):
        return "exit %d for status=%s strength=%s" % (
            code, cert["status"], cert["conclusion"]["strength"])
    return None


# ---------------------------------------------------------------------------
# Sweep rows


def parse_csv(kind: str, text: str) -> tuple[list[dict], str | None]:
    lines = list(csv.reader(io.StringIO(text)))
    if not lines or lines[0] != HEADERS[kind]:
        return [], "%s: unexpected header %r" % (kind, lines[:1])
    rows = []
    for line in lines[1:]:
        if len(line) != len(HEADERS[kind]):
            return [], "%s: ragged row %r" % (kind, line)
        rows.append({h: (int(v) if v not in ("", "new", "inside", "unknown") else v)
                     for h, v in zip(HEADERS[kind], line)})
    return rows, None


def check_table1(g: int, locus1: tuple, n2s: range, rows: list[dict]):
    n1, d1, k1 = locus1
    if [r["n2"] for r in rows] != list(n2s):
        return "table1: n2 column %r" % ([r["n2"] for r in rows][:5],)
    for r in rows:
        n2 = r["n2"]
        dm = r["d_min_formula"]
        if not (beta_classical(g, 1, dm, n2 + 1) >= 0 > beta_classical(g, 1, dm - 1, n2 + 1)):
            return "table1: d_min_formula %d is not the sign flip at n2=%d" % (dm, n2)
        k = k1 * (n2 + 1)
        direct = r["d_max_direct"]
        if direct == "":
            if beta_universal(g, n1, d1, n2, dm, k) < 0:
                return "table1: blank d_max_direct but beta < 0 at d_min, n2=%d" % n2
        elif not (beta_universal(g, n1, d1, n2, direct, k) < 0
                  <= beta_universal(g, n1, d1, n2, direct + 1, k)):
            return "table1: d_max_direct %d is not the sign flip at n2=%d" % (direct, n2)
        # d_max_formula is gated only at genus 10, where it was derived.
        if g == TABLE1_CANONICAL[0]:
            if r["d_max_formula"] != dmax_closed_form(n2):
                return "table1: d_max_formula %r at n2=%d" % (r["d_max_formula"], n2)
            if tuple(locus1) == TABLE1_CANONICAL[1] and direct != "" and \
                    direct - r["d_max_formula"] not in (0, 1):
                return "table1: direct %d vs formula %d at n2=%d" % (
                    direct, r["d_max_formula"], n2)
    return None


def _table2_negative(g: int, n2: int) -> bool:
    return beta_universal(g, 2, 5, n2, d_min(g, n2), 2 * (n2 + 1)) < 0


def check_table2(n2s: range, rows: list[dict]):
    if [r["n2"] for r in rows] != list(n2s):
        return "table2: n2 column differs"
    for r in rows:
        n2, g = r["n2"], r["g_min"]
        if g == "" or g < max(n2 + 2, 2) or not _table2_negative(g, n2):
            return "table2: g_min %r is not negative at n2=%d" % (g, n2)
        if g - 1 >= max(n2 + 2, 2) and _table2_negative(g - 1, n2):
            return "table2: g_min %d is not the sign flip at n2=%d" % (g, n2)
    return None


def _classify(mu: Fraction, lam: Fraction, samples) -> str:
    if not samples or mu < samples[0][0] or mu > samples[-1][0]:
        return "unknown"
    height = samples[0][1]
    for (m1, l1), (m2, l2) in zip(samples, samples[1:]):
        if m1 <= mu <= m2:
            height = l1 + (l2 - l1) * (mu - m1) / (m2 - m1)
            break
    return "new" if lam > height else "inside"


def check_bnmap(g: int, locus1: tuple, n2s: range, samples, rows: list[dict]):
    n1, d1, k1 = locus1
    if len(rows) != len(n2s):
        return "bnmap: %d rows for %d ranks" % (len(rows), len(n2s))
    for n2, r in zip(n2s, rows):
        mu = Fraction(d1, n1) + Fraction(d_min(g, n2), n2)
        lam = Fraction(k1, n1) * Fraction(n2 + 1, n2)
        got_mu = Fraction(r["mu0_num"], r["mu0_den"])
        got_lam = Fraction(r["lambda0_num"], r["lambda0_den"])
        if (got_mu, got_lam) != (mu, lam) or r["mu0_den"] != mu.denominator:
            return "bnmap: point (%s, %s) at n2=%d, want (%s, %s)" % (
                got_mu, got_lam, n2, mu, lam)
        want = _classify(mu, lam, samples) if samples is not None else "unknown"
        if r["classification"] != want:
            return "bnmap: %s at n2=%d, want %s" % (r["classification"], n2, want)
    return None


def check_ex40(g: int, n1: int, rows: list[dict]):
    k = (n1 + 1) * (n1 + 1)
    lower = d_min(g, n1)
    d1s = [r["d1"] for r in rows]
    if d1s and d1s != list(range(lower, lower + len(d1s))):
        return "ex40: degrees %r do not start at %d" % (d1s[:3], lower)
    for r in rows:
        if (r["n1"], r["g"], r["k"]) != (n1, g, k):
            return "ex40: row header fields %r" % (r,)
        want = beta_universal(g, n1, r["d1"], n1, r["d1"], k)
        if r["beta"] != want or want >= 0:
            return "ex40: beta %r at d1=%d, closed form %d" % (r["beta"], r["d1"], want)
    after = lower + len(rows)
    if beta_universal(g, n1, after, n1, after, k) < 0:
        return "ex40: beta still negative at d1=%d past the range" % after
    return None


def check_sweep(kind: str, params: tuple, text: str) -> str | None:
    rows, problem = parse_csv(kind, text)
    if problem:
        return problem
    if kind == "table1":
        g, locus1, n2s = params
        return check_table1(g, locus1, n2s, rows)
    if kind == "table2":
        (n2s,) = params
        return check_table2(n2s, rows)
    if kind == "bnmap":
        g, locus1, n2s, samples = params
        return check_bnmap(g, locus1, n2s, samples, rows)
    g, n1 = params
    return check_ex40(g, n1, rows)
