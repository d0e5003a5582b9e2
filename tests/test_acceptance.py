"""Acceptance suite: one test per criterion, each printing a pass line.

All tolerances are exact (integer or rational equality); there is no
floating point anywhere.  Expected values marked as derived were computed
with the independent oracles in this file (direct formula evaluation,
exhaustive scans) and frozen.
"""

import json
from fractions import Fraction

from bnloci.bncalc import (
    beta_classical,
    beta_universal,
    chi_tensor,
    leading_coeff_t4,
    line_bn_degree_bound,
    neg_slope_criterion,
    asympt_neg,
    t4_beta_poly,
)
from bnloci.certkit import (
    CurveClass,
    FactDatabase,
    bn_np1_nonempty,
    certify_phi,
    certify_rfold,
    certify_t4,
    certify_t10,
    revalidate,
    s_nonempty,
)
from bnloci.cli import main
from bnloci.sweeps import (
    dmax_formula_bpn,
    dmax_search,
    dmin_formula,
    ex2_min_genus,
    ex40_d1_range,
)


def _ok(number: int, label: str) -> None:
    print("[criterion %d] %s: PASS" % (number, label))


def _cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_criterion_1_table2_exact(capsys):
    code, out = _cli(capsys, ["sweep", "table2"])
    assert code == 0
    rows = out.splitlines()[1:]
    got = [int(r.split(",")[1]) for r in rows]
    assert got == [9, 7, 6, 7, 8, 9, 10, 11, 12]
    printed = [int(r.split(",")[2]) for r in rows]
    assert printed == got
    _ok(1, "minimal-genus table reproduced exactly")


def test_criterion_2_table1_formulas(capsys):
    assert [dmax_formula_bpn(n2) for n2 in range(2, 9)] == [
        10, 17, 24, 31, 37, 44, 50,
    ]
    for n2 in range(4, 9):
        assert dmax_search(10, (6, 22, 7), n2) == dmax_formula_bpn(n2)
    for n2 in (2, 3):
        assert dmax_search(10, (6, 22, 7), n2) == dmax_formula_bpn(n2) + 1
    assert dmin_formula(10, 2) == 9

    code, out = _cli(capsys, ["sweep", "table1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "n2,d_min_formula,d_max_formula,d_max_direct,paper_d_min,paper_d_max"
    )
    rows = {int(r.split(",")[0]): r.split(",") for r in lines[1:]}
    # discrepancy annotations visible in the output for low rank
    for n2 in (2, 3):
        assert int(rows[n2][3]) == int(rows[n2][5]) + 1
    # printed lower bounds reported in the annotation column, not asserted
    assert [int(rows[n2][4]) for n2 in range(3, 9)] == [12, 15, 19, 23, 26, 30]
    assert int(rows[2][1]) == int(rows[2][4]) == 9
    _ok(2, "degree-window table with annotated discrepancies")


def test_criterion_3_worked_example_battery(capsys):
    facts = FactDatabase()

    # kernel pairing at genus 6: k = 5, beta = -23 < 0
    code, out = _cli(
        capsys, ["certify", "t4", "--curve", "general:6", "--n1", "2",
                 "--d1", "10", "--k1", "5", "--n", "1", "--e", "25",
                 "--f", "0", "--d", "10"],
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["witnesses"]["k"] == 5 and cert["beta"] == -23
    assert beta_universal(6, (2, 10), (4, -10), 5) == -23

    # rank-16 kernel at genus 6: k = 33, chi = 52, bound tight
    code, out = _cli(
        capsys, ["certify", "t10", "--curve", "smooth:6,nonhyp", "--n1", "2",
                 "--d1", "10", "--k1", "5", "--c", "4", "--d", "26",
                 "--k", "33"],
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["witnesses"]["k"] == 33
    assert chi_tensor(6, (2, 10), (1, 26)) == 52
    assert cert["witnesses"]["h0_tensor"] == 52
    assert cert["witnesses"]["max_k"] == 33  # the section bound is tight

    # dual-span pairing at genus 7: k = 24, beta = -64 < 0
    code, out = _cli(
        capsys, ["certify", "phi", "--curve", "general:7",
                 "--locus1", "5,12,6", "--cs", "2,10,4"],
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["witnesses"]["k"] == 24 and cert["beta"] == -64
    assert beta_universal(7, (5, 12), (2, 10), 24) == -64

    # self-paired family at genus 11: k = 16, beta = -362 < 0, full window
    code, out = _cli(
        capsys, ["certify", "phi", "--curve", "general:11",
                 "--locus1", "3,12,4", "--cs", "1,12,4"],
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["witnesses"]["k"] == 16 and cert["beta"] == -362
    assert beta_universal(11, (3, 12), (3, 12), 16) == -362
    assert list(ex40_d1_range(11, 3)) == [12, 13, 14, 15]

    # rank-2 pairing at genus 6: k = 15, beta = -38 < 0
    code, out = _cli(
        capsys, ["certify", "phi", "--curve", "general:6",
                 "--locus1", "2,6,3", "--cs", "2,10,5"],
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["witnesses"]["k"] == 15 and cert["beta"] == -38
    assert beta_universal(6, (2, 6), (3, 10), 15) == -38
    assert certify_phi(
        CurveClass(6, "general"), (2, 6, 3), (2, 10, 5), facts
    ).status == "proved"
    _ok(3, "worked-example oracle battery")


def test_criterion_4_negativity_criterion_equivalence():
    failures = 0
    for n1 in range(1, 5):
        for d1 in range(-10, 11):
            mu1 = Fraction(d1, n1)
            b1 = (n1, d1)
            for n2 in range(1, 5):
                for d2 in range(-10, 11):
                    mu2 = Fraction(d2, n2)
                    b2 = (n2, d2)
                    for g in range(2, 7):
                        for k1 in range(1, 6):
                            for k2 in range(1, 6):
                                criterion = neg_slope_criterion(
                                    g, n1, k1, n2, k2, mu1, mu2
                                )
                                negative = (
                                    beta_universal(g, b1, b2, k1 * k2) < 0
                                )
                                if criterion != negative:
                                    failures += 1
    assert failures == 0
    _ok(4, "criterion/beta equivalence on the exhaustive grid")


def test_criterion_5_degree_bound_equivalence():
    for g in range(2, 13):
        for n1 in range(1, 9):
            bound = line_bn_degree_bound(g, n1)
            for d1 in range(0, 41):
                assert (d1 >= bound) == (
                    beta_classical(g, 1, d1, n1 + 1) >= 0
                )
    _ok(5, "degree-bound equivalence on the exhaustive grid")


def test_criterion_6_quadratic_coherence():
    for g in range(2, 9):
        for n1 in range(2, 5):
            for k1 in range(n1 + 1, n1 + 5):
                for d1 in range(0, 31):
                    coeff = leading_coeff_t4(g, n1, d1, k1)
                    a2, a1, a0 = t4_beta_poly(g, n1, d1, k1, 1, 0, 0)
                    assert a2 == coeff
                    # half the second difference of sampled values
                    p = [a2 * d * d + a1 * d + a0 for d in (5, 6, 7)]
                    assert p[2] - 2 * p[1] + p[0] == 2 * coeff
                    assert asympt_neg(g, n1, d1, k1) == (coeff < 0)
    _ok(6, "quadratic leading-coefficient coherence")


def test_criterion_7_minimal_genus_threshold():
    assert ex2_min_genus(2, 2, 5) == 17
    _ok(7, "rank-2 minimal genus threshold")


def test_criterion_8_small_genus_sanity():
    for g in (2, 3, 4):
        for n2 in range(2, 11):
            d2 = dmin_formula(g, n2)
            assert beta_universal(g, (2, 5), (n2, d2), 2 * (n2 + 1)) >= 0
    _ok(8, "no negative BN number at genus up to 4")


def test_criterion_9_property_suites():
    # swap and twist invariance
    for g in (2, 4, 6):
        for n1 in (1, 2, 3):
            for n2 in (1, 2, 3):
                for d1 in range(-6, 7, 3):
                    for d2 in range(-6, 7, 3):
                        for k in (1, 3, 6):
                            base = beta_universal(g, (n1, d1), (n2, d2), k)
                            assert base == beta_universal(
                                g, (n2, d2), (n1, d1), k
                            )
                            for ell in (-2, 1):
                                assert base == beta_universal(
                                    g,
                                    (n1, d1 - n1 * ell),
                                    (n2, d2 + n2 * ell),
                                    k,
                                )
    # certificate revalidation
    facts = FactDatabase()
    certificates = [
        certify_phi(CurveClass(7, "general"), (5, 12, 6), (2, 10, 4), facts),
        certify_t4(CurveClass(6, "general"), 2, 10, 5, 1, 25, 0, 10, facts),
        certify_t10(CurveClass(6, "smooth", "no"), 2, 10, 5, 4, 26, 33, facts),
        certify_rfold(CurveClass(6, "general"), (2, 10, 5), (1, 12, 5), 2, facts),
        bn_np1_nonempty(CurveClass(2, "general"), 2, 4),
        s_nonempty(CurveClass(6, "smooth", "no"), (1, 26, 17), facts),
    ]
    for cert in certificates:
        assert cert is not None and revalidate(cert, facts)
    # semistable strength propagation
    semi = certify_phi(CurveClass(2, "general"), (2, 4, 3), (1, 5, 2), facts)
    assert semi is not None and semi.conclusion.strength == "semistable"
    rfold = certificates[3]
    assert rfold.conclusion.strength == "semistable"
    assert all(
        s.conclusion.strength == "stable" for s in rfold.subcertificates
    )
    # exact argmin property of the degree formula
    for g in range(2, 31):
        for n2 in range(1, 13):
            d = dmin_formula(g, n2)
            assert beta_classical(g, 1, d, n2 + 1) >= 0
            assert beta_classical(g, 1, d - 1, n2 + 1) < 0
    _ok(9, "property suites (invariance, revalidation, strength, argmin)")
