"""Certificate rules: hypotheses, strengths, curve levels, facts and
revalidation.  Frozen numeric witnesses come from direct evaluation of the
BN-number formulas."""

import copy
import json
import math
from fractions import Fraction

import pytest

from bnloci.bncalc import (
    beta_classical, beta_universal, chi_tensor, line_bn_degree_bound,
)
from bnloci.certkit import (
    BUILTIN_FACTS,
    Certificate,
    Conclusion,
    CurveClass,
    Fact,
    FactDatabase,
    GenusConstraint,
    Hypothesis,
    Rule,
    bn_line_nonempty,
    bn_np1_nonempty,
    certify_c8,
    certify_elem,
    certify_phi,
    certify_rfold,
    certify_t4,
    certify_t9,
    certify_t10,
    _petri_f_bound,
    cor_t3_d1_range,
    revalidate,
    s_nonempty,
)
from bnloci.sweeps import RegionBoundary


@pytest.fixture
def facts():
    return FactDatabase()


# ---------------------------------------------------------------------------
# Curve classes


def test_curve_class_lattice():
    general = CurveClass(7, "general")
    petri = CurveClass(7, "petri")
    smooth = CurveClass(7, "smooth")
    assert general.satisfies("petri") and general.satisfies("smooth")
    assert petri.satisfies("smooth") and not petri.satisfies("general")
    assert not smooth.satisfies("petri")


def test_curve_class_parse():
    c = CurveClass.parse("smooth:6,nonhyp")
    assert (c.genus, c.level, c.hyperelliptic) == (6, "smooth", "no")
    assert CurveClass.parse("general:2").hyperelliptic == "unknown"
    with pytest.raises(ValueError):
        CurveClass.parse("general")
    with pytest.raises(ValueError):
        CurveClass.parse("weird:5")
    with pytest.raises(ValueError):
        CurveClass(1, "general")


# ---------------------------------------------------------------------------
# Line-bundle and n+1-section rules


def test_bn_line_examples():
    cert = bn_line_nonempty(CurveClass(10, "general"), 9, 3)
    assert cert is not None and cert.status == "proved"
    assert cert.beta == 1
    assert bn_line_nonempty(CurveClass(10, "general"), 8, 3) is None
    for g in range(2, 9):
        cert = bn_line_nonempty(CurveClass(g, "general"), g + 1, 2)
        assert cert is not None and cert.status == "proved"


def test_bn_line_needs_petri():
    diags = []
    assert bn_line_nonempty(CurveClass(10, "smooth"), 9, 3, diagnostics=diags) is None
    assert diags


def test_np1_general_iff_and_exception():
    semi = bn_np1_nonempty(CurveClass(2, "general"), 2, 4)
    assert semi is not None
    assert semi.status == "proved" and semi.conclusion.strength == "semistable"
    stable = bn_np1_nonempty(CurveClass(10, "general"), 6, 15)
    assert stable is not None and stable.conclusion.strength == "stable"
    assert stable.beta == beta_classical(10, 1, 15, 7) == 3
    g2 = bn_np1_nonempty(CurveClass(2, "general"), 2, 5)
    assert g2 is not None and g2.conclusion.strength == "stable"
    # genus-2 exact window: nonempty iff d1 >= n1+2, stable unless d1 = 2n1
    for n1 in (2, 3, 4):
        for d1 in range(0, 4 * n1):
            cert = bn_np1_nonempty(CurveClass(2, "general"), n1, d1)
            if d1 < n1 + 2:
                assert cert is None
            elif d1 == 2 * n1:
                assert cert.conclusion.strength == "semistable"
            else:
                assert cert.conclusion.strength == "stable"


def test_np1_smooth_has_no_rule():
    assert bn_np1_nonempty(CurveClass(10, "smooth"), 6, 15) is None


def _petri_case_labels(curve, n1, d1, facts):
    cert = bn_np1_nonempty(curve, n1, d1, facts)
    assert cert is not None and cert.status == "proved"
    return cert.witnesses["cases"]


def test_petri_cases_examples(facts):
    assert "a" in _petri_case_labels(CurveClass(20, "petri"), 3, 25, facts)
    labels = _petri_case_labels(CurveClass(6, "petri"), 5, 10, facts)
    assert "b" in labels and "e" in labels
    assert "g" in _petri_case_labels(CurveClass(5, "petri"), 6, 40, facts)


def test_petri_cases_c_and_d_need_user_facts(facts):
    curve = CurveClass(9, "petri")
    diags = []
    # no other case covers (7, 31), so without case "c" the rule is silent
    assert bn_np1_nonempty(curve, 7, 31, facts, diagnostics=diags) is None
    assert diags == ["no known Petri stability case covers this degree"]
    assert "d" not in _petri_case_labels(curve, 5, 26, facts)
    db = FactDatabase()
    db.add(
        Fact(
            kind="S", n=1, sections=8, degree=10, level="petri",
            genus=GenusConstraint(equals=9),
            citation="auxiliary generated system of type (10, 8) with stable dual span",
        )
    )
    with_facts = _petri_case_labels(curve, 7, 31, db)
    assert "c" in with_facts  # 31 = 10 + 3*7
    with_facts_d = _petri_case_labels(curve, 5, 26, _db_with_aux(9, 5))
    assert "d" in with_facts_d  # base degree 10 = 2*5, 26 = 1 mod 5
    # the same fact cited for genus 8 does not serve genus 9
    assert "d" not in _petri_case_labels(curve, 5, 26, _db_with_aux(8, 5))


def _db_with_aux(genus, n1):
    db = FactDatabase()
    db.add(
        Fact(
            kind="S", n=1, sections=n1 + 1, degree=2 * n1, level="petri",
            genus=GenusConstraint(equals=genus),
            citation="auxiliary generated system at a rank-multiple degree",
        )
    )
    return db


def test_np1_petri_branch():
    cert = bn_np1_nonempty(CurveClass(20, "petri"), 3, 25)
    assert cert is not None and cert.conclusion.strength == "stable"
    assert cert.witnesses["cases"]
    # no case covers a rank-9 middle degree on a low-genus Petri curve,
    # even though the degree bound holds
    assert beta_classical(4, 1, 28, 10) >= 0
    assert bn_np1_nonempty(CurveClass(4, "petri"), 9, 28) is None


# ---------------------------------------------------------------------------
# Coherent systems


def test_s_rank1_general(facts):
    cert = s_nonempty(CurveClass(6, "general"), (1, 10, 5), facts)
    assert cert is not None and cert.conclusion.strength == "stable"
    assert cert.beta == 6
    assert cert.witnesses["branch"] == "rank1-general"


def test_s_rank1_general_genus2_boundary(facts):
    cert = s_nonempty(CurveClass(2, "general"), (1, 8, 5), facts)
    assert cert is not None and cert.conclusion.strength == "semistable"


def test_s_mistretta(facts):
    cert = s_nonempty(CurveClass(6, "smooth", "no"), (1, 26, 17), facts)
    assert cert is not None and cert.conclusion.strength == "stable"
    assert cert.witnesses == {"branch": "rank1-mistretta", "c": 4}
    assert cert.level_required == "smooth"
    # boundary degree on a hyperelliptic curve is semistable only
    boundary = s_nonempty(CurveClass(6, "smooth", "yes"), (1, 20, 11), facts)
    assert boundary is not None and boundary.conclusion.strength == "semistable"


def test_s_fact_lookup(facts):
    cert = s_nonempty(CurveClass(7, "general"), (2, 10, 4), facts)
    assert cert is not None and cert.rule == "fact"
    assert cert.conclusion.strength == "stable"
    assert "odd genus" in cert.citation
    # even genus fails the parity constraint
    assert s_nonempty(CurveClass(8, "general"), (2, 11, 4), facts) is None


def test_s_rejects_v_not_above_n(facts):
    assert s_nonempty(CurveClass(6, "general"), (3, 10, 3), facts) is None


# ---------------------------------------------------------------------------
# Dual-span product rules


def test_phi_worked_examples(facts):
    cert = certify_phi(CurveClass(7, "general"), (5, 12, 6), (2, 10, 4), facts)
    assert cert is not None and cert.status == "proved"
    assert cert.witnesses["k"] == 24 and cert.beta == -64
    assert cert.beta == beta_universal(7, (5, 12), (2, 10), 24)

    cert = certify_phi(CurveClass(6, "general"), (2, 6, 3), (2, 10, 5), facts)
    assert cert is not None and cert.status == "proved"
    assert cert.witnesses["k"] == 15 and cert.beta == -38

    cert = certify_phi(CurveClass(11, "general"), (3, 12, 4), (1, 12, 4), facts)
    assert cert is not None and cert.status == "proved"
    assert cert.witnesses["k"] == 16 and cert.beta == -362


def test_phi_slope_condition_gate(facts):
    diags = []
    assert certify_phi(
        CurveClass(6, "general"), (2, 30, 3), (2, 10, 5), facts, diagnostics=diags
    ) is None
    assert any("slope" in d for d in diags)


def test_phi_beta_witness_matches_dual_span(facts):
    from bnloci.spanops import dual_span_type

    cases = [
        ((5, 12, 6), (2, 10, 4), 7),
        ((2, 6, 3), (2, 10, 5), 6),
        ((3, 12, 4), (1, 12, 4), 11),
    ]
    for locus1, cs, g in cases:
        cert = certify_phi(CurveClass(g, "general"), locus1, cs, FactDatabase())
        n2, d2, k2 = dual_span_type(cs)
        k = locus1[2] * k2
        assert cert.beta == beta_universal(g, (locus1[0], locus1[1]), (n2, d2), k)


def test_phi_semistable_propagation(facts):
    # genus-2 exceptional sub-certificate forces a semistable conclusion
    cert = certify_phi(CurveClass(2, "general"), (2, 4, 3), (1, 5, 2), facts)
    assert cert is not None
    assert cert.subcertificates[0].conclusion.strength == "semistable"
    assert cert.conclusion.strength == "semistable"


def test_rfold_and_elem(facts):
    rfold = certify_rfold(CurveClass(6, "general"), (2, 10, 5), (1, 12, 5), 2, facts)
    assert rfold is not None
    assert rfold.conclusion.strength == "semistable"
    assert (rfold.conclusion.n2, rfold.conclusion.d2) == (8, 24)
    assert rfold.witnesses["k2"] == 10 and rfold.witnesses["k"] == 50

    elem = certify_elem(CurveClass(6, "general"), (2, 10, 5), (1, 12, 5), 2, facts)
    assert elem is not None
    assert elem.conclusion.strength == "stable"
    assert (elem.conclusion.n2, elem.conclusion.d2) == (8, 25)
    # pairwise distinctness is recorded, not discharged
    assert elem.status == "conditional"
    assert any(h.status == "assumed" for h in elem.hypotheses)

    single = certify_elem(CurveClass(6, "general"), (2, 10, 5), (1, 12, 5), 1, facts)
    assert single is not None and single.status == "proved"


def test_rfold_r1_matches_phi_shape(facts):
    rfold = certify_rfold(CurveClass(6, "general"), (2, 6, 3), (2, 10, 5), 1, facts)
    phi = certify_phi(CurveClass(6, "general"), (2, 6, 3), (2, 10, 5), facts)
    assert (rfold.conclusion.n2, rfold.conclusion.d2, rfold.conclusion.k) == (
        phi.conclusion.n2, phi.conclusion.d2, phi.conclusion.k,
    )


def test_elem_divisibility_gate(facts):
    diags = []
    assert certify_elem(
        CurveClass(6, "general"), (2, 10, 5), (1, 11, 5), 1, facts, diagnostics=diags
    ) is None
    assert any("divisibility" in d or "(v-n)" in d for d in diags)


def test_elem_refuses_a_semistable_first_locus(facts):
    # On genus 2, B(2, 4, 3) is only semistable (d1 = 2*n1), so elem stops
    # before certifying S; every other certified d1 gives a stable E1.
    refused = []
    for d1 in range(2, 12):
        diags = []
        cert = certify_elem(CurveClass(2, "general"), (2, d1, 3), (1, 6, 3), 1,
                            facts, diagnostics=diags)
        if "the elementary transformation needs a stable E1" in diags:
            assert cert is None and len(diags) == 1
            refused.append(d1)
        elif d1 >= 5:
            assert cert is not None and cert.status == "proved"
    assert refused == [4]


def test_elem_refuses_a_semistable_dual_span(facts):
    # On genus 2 the dual span of a (1, 2(v-1), v) system is strictly
    # semistable, and those are exactly the refused systems.
    refused = []
    for d in range(2, 12):
        for v in range(2, 8):
            diags = []
            cert = certify_elem(CurveClass(2, "general"), (1, 3, 2), (1, d, v), 1,
                                facts, diagnostics=diags)
            if "the elementary transformation needs stable dual spans" in diags:
                assert cert is None and len(diags) == 1
                refused.append((d, v))
    assert refused == [(4, 3), (6, 4), (8, 5), (10, 6)]


# ---------------------------------------------------------------------------
# Twisted rule


def test_t9_example_and_gates():
    curve = CurveClass(4, "general")
    cert = certify_t9(curve, (2, 5, 2), 2, 12, 5)
    assert cert is not None and cert.status == "proved"
    concl = cert.conclusion
    assert (concl.kind, concl.n2, concl.d2, concl.k) == ("twisted", 3, 12, 5)
    assert certify_t9(curve, (2, 5, 2), 2, 12, 2) is None  # v = n
    assert certify_t9(curve, (2, 5, 2), 2, 8, 5) is None  # d = n*g
    assert certify_t9(CurveClass(4, "petri"), (2, 5, 2), 2, 12, 5) is None
    for n in (0, -1):
        with pytest.raises(ValueError, match="rank n must be positive, got %d" % n):
            certify_t9(curve, (2, 5, 2), n, 20, 3)


# ---------------------------------------------------------------------------
# Kernel rules


def _t4_section_bound(g, n1, d1, k1, n, f, d):
    """v*k1 - chi(E1 tensor E), the largest k the kernel pairing supports."""
    v = d - n * (g - 1) - f
    return v * k1 - chi_tensor(g, (n1, d1), (n, d))


def test_t4_fires_exactly_at_the_section_count_bound(facts):
    # The worked example's family: everything but the excess window holds,
    # so the rule fires exactly when k = d*(k1-n1) - e is within the bound.
    curve = CurveClass(3, "general")
    n1, d1, k1, n, f, d = 2, 4, 3, 1, 0, 12
    bound = _t4_section_bound(3, n1, d1, k1, n, f, d)
    assert bound == 6
    for e in range(d * (k1 - n1)):
        k = d * (k1 - n1) - e
        cert = certify_t4(curve, n1, d1, k1, n, e, f, d, facts)
        assert (cert is not None) == (k <= bound), e
        assert cert is None or cert.witnesses["k"] == k
    # The window's lower end is the same inequality on a grid.
    for g in (2, 3, 6):
        for n1, k1, d1 in ((2, 3, 4), (2, 5, 10), (3, 5, 7)):
            for n, f, d in ((1, 0, 10), (2, 1, 15), (1, 3, 20)):
                for e in range(-5, d * (k1 - n1)):
                    diagnostics = []
                    certify_t4(CurveClass(g, "general"), n1, d1, k1, n, e, f, d,
                               facts, diagnostics=diagnostics)
                    lower_fails = any(m.startswith("excess window lower bound fails")
                                      for m in diagnostics)
                    k = d * (k1 - n1) - e
                    assert lower_fails == (k > _t4_section_bound(g, n1, d1, k1, n, f, d))


def test_t4_worked_example(facts):
    cert = certify_t4(CurveClass(3, "general"), 2, 4, 3, 1, 6, 0, 12, facts)
    assert cert is not None and cert.status == "proved"
    assert cert.witnesses["k"] == 6
    assert cert.beta == -8
    assert cert.witnesses["beta_poly_in_d"] == [-1, 12, -8]
    assert cert.witnesses["asympt_neg"] is True
    assert cert.witnesses["negativity_threshold_d"] == 12


def test_t4_window_gates(facts):
    # e at the upper end of the window (k = 0) is rejected
    assert certify_t4(CurveClass(3, "general"), 2, 4, 3, 1, 12, 0, 12, facts) is None
    # e below the lower end is rejected
    assert certify_t4(CurveClass(3, "general"), 2, 4, 3, 1, 5, 0, 12, facts) is None


def test_t4_ex11(facts):
    cert = certify_t4(CurveClass(6, "general"), 2, 10, 5, 1, 25, 0, 10, facts)
    assert cert is not None and cert.status == "proved"
    assert cert.witnesses["k"] == 5 and cert.beta == -23
    # h^1 vanishing is auto-discharged: slope 5 + 10 exceeds 2g-2 = 10
    assert all(h.status == "checked" for h in cert.hypotheses)
    assert cert.witnesses["k"] >= 1


def test_t4_k_at_least_one_on_window_grid(facts):
    curve = CurveClass(3, "general")
    for e in range(6, 12):
        for f in (0, 1):
            for d in range(10, 16):
                lower = 1 * 2 * 1 + 4 + f * 3
                if not (lower <= e < d):
                    continue
                cert = certify_t4(curve, 2, 4, 3, 1, e, f, d, facts)
                if cert is not None:
                    assert cert.witnesses["k"] >= 1


def test_cor_t3_ranges():
    assert list(cor_t3_d1_range(CurveClass(9, "petri"), 2)) == [8, 9, 10]
    assert list(cor_t3_d1_range(CurveClass(2, "petri"), 2)) == []
    assert cor_t3_d1_range(CurveClass(10, "general"), 5) == range(14, 42)
    # rank 5 on a low-genus Petri curve keeps the shorter upper end
    petri = cor_t3_d1_range(CurveClass(5, "petri"), 5)
    assert petri == range(5 + 5, 5 + 7 + 1)
    with pytest.raises(ValueError):
        cor_t3_d1_range(CurveClass(9, "smooth"), 2)


def test_c8_petri_window_against_cor_t3_d1_range(facts):
    # c8's Petri window, line_bn_degree_bound <= d1 < _petri_f_bound, against
    # the corollary's list: equal lower ends, equal upper ends at rank 2, and
    # contained in it except at one pinned point.
    outside = []
    for level in ("petri", "general"):
        for g in range(2, 41):
            curve = CurveClass(g, level)
            for n1 in range(2, 9):
                window = range(math.ceil(line_bn_degree_bound(g, n1)),
                               math.ceil(_petri_f_bound(g, n1)))
                listed = cor_t3_d1_range(curve, n1)
                assert window.start == listed.start
                if n1 == 2:
                    assert window.stop == listed.stop
                if window and window[-1] > listed.stop - 1:
                    outside.append((level, g, n1, window[-1], listed.stop - 1))
                # Petri case "f" covers the whole window
                if level == "petri":
                    for d1 in window:
                        assert "f" in _petri_case_labels(curve, n1, d1, facts)
    assert outside == [("petri", 11, 8, 25, 24)]
    # and c8 does take its Petri-window branch at that point
    cert = certify_c8(CurveClass(11, "petri"), 8, 25, 9, 1, 60, 50, facts)
    assert cert is not None and cert.witnesses["branch"] == "petri-window"


def test_t10_worked_example(facts):
    curve = CurveClass(6, "smooth", "no")
    cert = certify_t10(curve, 2, 10, 5, 4, 26, 33, facts)
    assert cert is not None and cert.status == "proved"
    assert cert.witnesses["k"] == 33
    assert cert.witnesses["max_k"] == 33  # the bound is tight here
    assert cert.witnesses["h0_tensor"] == 52
    assert (cert.conclusion.n2, cert.conclusion.d2) == (16, -26)
    # the built-in first-locus fact needs a general curve and the
    # certificate records that requirement
    assert cert.level_required == "general"
    assert certify_t10(curve, 2, 10, 5, 4, 26, 34, facts) is None


def test_t10_boundary_hyperelliptic_is_semistable(facts):
    db = FactDatabase()
    db.add(
        Fact(
            kind="B", n=2, sections=5, degree=5, level="smooth",
            genus=GenusConstraint(equals=3),
            citation="test fixture: a first locus on any smooth curve",
        )
    )
    # d = 2g + 2c exactly, on a hyperelliptic curve
    curve = CurveClass(3, "smooth", "yes")
    cert = certify_t10(curve, 2, 5, 5, 1, 8, 1, db)
    assert cert is not None
    assert cert.conclusion.strength == "semistable"
    # the same data on a known non-hyperelliptic curve is stable
    stable = certify_t10(CurveClass(3, "smooth", "no"), 2, 5, 5, 1, 8, 1, db)
    assert stable is not None and stable.conclusion.strength == "stable"


def test_t10_rejects_bad_codimension(facts):
    with pytest.raises(ValueError):
        certify_t10(CurveClass(6, "smooth"), 2, 10, 5, 0, 26, 33, facts)
    with pytest.raises(ValueError):
        certify_t10(CurveClass(6, "smooth"), 2, 10, 5, 7, 26, 33, facts)


def test_c8_petri_window_branch(facts):
    cert = certify_c8(CurveClass(9, "petri"), 2, 8, 3, 1, 21, 19, facts)
    assert cert is not None and cert.status == "proved"
    assert cert.witnesses["branch"] == "petri-window"
    assert cert.witnesses["e_lower_bound"] == 19
    assert cert.witnesses["k"] == 21 - 19


def test_c8_non_divisible_branch(facts):
    # k1 = 4 > n1 + 1, so only the non-divisibility branch can apply
    curve = CurveClass(5, "general")
    cert = certify_c8(curve, 2, 9, 4, 1, 23, 30, facts)
    assert cert is not None
    assert cert.witnesses["branch"] == "non-divisible"
    # no rule certifies B(2, 9, 4), so the certificate is conditional
    assert cert.status == "conditional"
    assert any(h.status == "assumed" for h in cert.hypotheses)


def test_c8_divisible_degree_without_window_fails(facts):
    curve = CurveClass(5, "general")
    assert certify_c8(curve, 2, 8, 4, 1, 23, 30, facts) is None
    with pytest.raises(ValueError):
        certify_c8(curve, 2, 9, 4, 0, 23, 30, facts)


# ---------------------------------------------------------------------------
# Facts database


def test_builtin_facts_have_citations():
    assert len(BUILTIN_FACTS) == 4
    for fact in BUILTIN_FACTS:
        assert fact.citation
        assert fact.builtin


def test_fact_requires_citation():
    with pytest.raises(ValueError):
        Fact(kind="B", n=2, sections=5, degree=10, citation="")


def test_fact_record_round_trip():
    fact = Fact(
        kind="S", n=2, sections=4, degree_offset_from_genus=3, level="general",
        genus=GenusConstraint(minimum=5, parity="odd"),
        citation="round trip",
    )
    again = Fact.from_record(json.loads(json.dumps(fact.to_record())))
    assert again.key() == fact.key()
    assert again.genus == fact.genus
    assert again.citation == fact.citation


def test_fact_database_conflict_resolution(tmp_path):
    clash = BUILTIN_FACTS[2].to_record()
    clash["citation"] = "a user fact trying to shadow a built-in"
    path = tmp_path / "facts.json"
    path.write_text(json.dumps([clash]), encoding="utf-8")
    db = FactDatabase.load(path)
    matching = [f for f in db.facts() if f.key() == BUILTIN_FACTS[2].key()]
    assert len(matching) == 1 and matching[0].builtin
    with pytest.raises(ValueError):
        db.add(Fact.from_record(clash))


def test_fact_database_save_load(tmp_path):
    db = FactDatabase()
    db.add(
        Fact(
            kind="Btilde", n=3, sections=4, degree=12, level="petri",
            genus=GenusConstraint(minimum=4),
            citation="user fixture",
        )
    )
    path = tmp_path / "facts.json"
    db.save(path)
    again = FactDatabase.load(path)
    user = [f for f in again.facts() if not f.builtin]
    assert len(user) == 1 and user[0].kind == "Btilde"
    # a Btilde fact backs only a semistable conclusion
    cert = again.find_b(5, 3, 12, 4)
    assert cert is not None and cert.kind == "Btilde"
    # no rule covers B(2, 9, 4), so phi's B leaf is the Btilde fact
    btilde = Fact(kind="Btilde", n=2, sections=4, degree=9, citation="user Btilde")
    again.add(btilde)
    phi = certify_phi(CurveClass(7, "general"), (2, 9, 4), (2, 10, 4), again)
    leaf = phi.subcertificates[0]
    assert (leaf.rule, leaf.inputs["kind"]) == ("fact", "Btilde")
    assert (leaf.conclusion.kind, leaf.conclusion.strength) == ("bn", "semistable")
    assert phi.conclusion.strength == "semistable"
    # a user B fact wins over the Btilde fact of its type added before it
    b = Fact(kind="B", n=2, sections=4, degree=9, citation="user B")
    again.add(b)
    assert again.find_b(7, 2, 9, 4) == b
    # built-ins first, then user facts in insertion order, in a new list
    listed = again.facts()
    assert listed == [*BUILTIN_FACTS, user[0], btilde, b]
    listed.clear()
    assert again.facts() == [*BUILTIN_FACTS, user[0], btilde, b]


def test_genus_constraint_matching():
    odd5 = GenusConstraint(minimum=5, parity="odd")
    assert odd5.matches(5) and odd5.matches(9)
    assert not odd5.matches(4) and not odd5.matches(6)
    assert GenusConstraint(equals=6).matches(6)
    assert not GenusConstraint(equals=6).matches(7)
    assert GenusConstraint().matches(2)


# ---------------------------------------------------------------------------
# Value classes

BUILTIN_B_REPR = (
    "Fact(kind='B', n=2, sections=5, degree=10, degree_offset_from_genus=None, "
    "level='general', genus=GenusConstraint(equals=6, minimum=None, parity=None), "
    "citation='non-emptiness of B(2, 10, 5) on a general curve of genus 6', "
    "builtin=True)"
)
CERTIFICATE_FIELDS = dict(
    rule="phi", citation="c", conclusion=Conclusion("bn", "stable"), beta=1,
    hypotheses=[Hypothesis("h")], subcertificates=[], status="proved",
    witnesses={"w": 1}, level_required="general", curve=CurveClass(7, "general"),
    notes=["n"], inputs={"d": 2})
CERTIFICATE_REPR = (
    "Certificate(rule='phi', citation='c', conclusion=Conclusion(kind='bn', "
    "strength='stable', n1=None, d1=None, n2=None, d2=None, k=None), beta=1, "
    "hypotheses=[Hypothesis(description='h', status='checked')], "
    "subcertificates=[], status='proved', witnesses={'w': 1}, "
    "level_required='general', curve=CurveClass(genus=7, level='general', "
    "hyperelliptic='unknown'), notes=['n'], inputs={'d': 2})"
)

# class; every field in order; the defaults a keyword call may leave out; a
# change giving another valid value; refusals as (change, message), where a
# change with several faults pins which check runs first; a (value, repr).
VALUE_CLASSES = [
    pytest.param(
        CurveClass, dict(genus=7, level="general", hyperelliptic="no"),
        dict(level="smooth", hyperelliptic="unknown"), dict(genus=8),
        [(dict(genus=1), "genus must be at least 2, got 1"),
         (dict(level="x"), "unknown curve level 'x'"),
         (dict(hyperelliptic="x"), "unknown hyperelliptic flag 'x'"),
         (dict(genus=1, level="x", hyperelliptic="x"), "genus must be at least 2, got 1"),
         (dict(level="x", hyperelliptic="x"), "unknown curve level 'x'")],
        (CurveClass(7, "general"),
         "CurveClass(genus=7, level='general', hyperelliptic='unknown')"),
        id="CurveClass"),
    pytest.param(
        GenusConstraint, dict(equals=6, minimum=5, parity="even"),
        dict(equals=None, minimum=None, parity=None), dict(minimum=4),
        [(dict(parity="x"), "parity must be odd or even, got 'x'")],
        None, id="GenusConstraint"),
    pytest.param(
        Fact, dict(kind="B", n=2, sections=5, degree=10, degree_offset_from_genus=None,
                   level="general", genus=GenusConstraint(equals=6), citation="c",
                   builtin=True),
        dict(degree_offset_from_genus=None, level="smooth", genus=GenusConstraint(),
             builtin=False),
        dict(citation="d"),
        [(dict(kind="X"), "fact kind must be S, B or Btilde, got 'X'"),
         (dict(n=0), "fact rank and section count must be positive"),
         (dict(sections=0), "fact rank and section count must be positive"),
         (dict(degree_offset_from_genus=3), "exactly one of degree / genus offset must be set"),
         (dict(degree=None), "exactly one of degree / genus offset must be set"),
         (dict(level="x"), "unknown curve level 'x'"),
         (dict(citation=""), "every fact must carry a citation"),
         (dict(kind="X", n=0), "fact kind must be S, B or Btilde, got 'X'"),
         (dict(n=0, degree=None), "fact rank and section count must be positive"),
         (dict(degree=None, level="x"), "exactly one of degree / genus offset must be set"),
         (dict(level="x", citation=""), "unknown curve level 'x'")],
        (BUILTIN_FACTS[2], BUILTIN_B_REPR), id="Fact"),
    pytest.param(
        Hypothesis, dict(description="h", status="assumed"),
        dict(status="checked"), dict(description="i"),
        [(dict(status="x"), "hypothesis status must be checked or assumed")],
        None, id="Hypothesis"),
    pytest.param(
        Conclusion, dict(kind="bn", strength="stable", n1=2, d1=4, n2=3, d2=5, k=6),
        dict(n1=None, d1=None, n2=None, d2=None, k=None), dict(k=7),
        [(dict(kind="x"), "unknown conclusion kind 'x'"),
         (dict(strength="x"), "unknown strength 'x'"),
         (dict(kind="x", strength="x"), "unknown conclusion kind 'x'")],
        None, id="Conclusion"),
    pytest.param(
        Rule, dict(name="phi", function="certify_phi", params=("locus1", "cs"),
                   triples=("locus1",), facts=False),
        dict(triples=(), facts=True), dict(name="psi"), [], None, id="Rule"),
    pytest.param(
        RegionBoundary, dict(genus=10, samples=((Fraction(1), Fraction(2)),
                                                (Fraction(3, 2), Fraction(1, 2)))),
        {}, dict(genus=11),
        [(dict(samples=((1, 0), (1, 1))), "boundary samples must be strictly increasing in mu"),
         (dict(samples=((2, 0), (1, 1))), "boundary samples must be strictly increasing in mu")],
        None, id="RegionBoundary"),
    pytest.param(
        Certificate, CERTIFICATE_FIELDS, {}, dict(beta=2), [],
        (Certificate(**CERTIFICATE_FIELDS), CERTIFICATE_REPR), id="Certificate"),
]


@pytest.mark.parametrize("cls, fields, defaults, other, refusals, shown", VALUE_CLASSES)
def test_value_class_contract(cls, fields, defaults, other, refusals, shown):
    value = cls(*fields.values())
    assert [getattr(value, name) for name in fields] == list(fields.values())
    assert value == cls(**fields)
    assert value != cls(**{**fields, **other})
    given = {name: v for name, v in fields.items() if name not in defaults}
    assert cls(**given) == cls(**{**fields, **defaults})
    for change, message in refusals:
        with pytest.raises(ValueError) as info:
            cls(**{**fields, **change})
        assert str(info.value) == message
    if cls is Certificate:
        # the one mutable class: unhashable, and tests tamper with it
        assert Certificate.__hash__ is None
        value.beta = 2
        assert value == cls(**{**fields, **other})
    else:
        assert hash(value) == hash(cls(**fields))
        assert len({value, cls(**fields)}) == 1
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
    if shown is not None:
        assert repr(shown[0]) == shown[1]


# ---------------------------------------------------------------------------
# Cross-cutting invariants


def test_revalidation_of_worked_certificates(facts):
    certs = [
        certify_phi(CurveClass(7, "general"), (5, 12, 6), (2, 10, 4), facts),
        certify_phi(CurveClass(11, "general"), (3, 12, 4), (1, 12, 4), facts),
        certify_t4(CurveClass(6, "general"), 2, 10, 5, 1, 25, 0, 10, facts),
        certify_t10(CurveClass(6, "smooth", "no"), 2, 10, 5, 4, 26, 33, facts),
        certify_t9(CurveClass(4, "general"), (2, 5, 2), 2, 12, 5),
        bn_np1_nonempty(CurveClass(2, "general"), 2, 4),
        s_nonempty(CurveClass(6, "smooth", "no"), (1, 26, 17), facts),
        certify_rfold(CurveClass(6, "general"), (2, 10, 5), (1, 12, 5), 2, facts),
    ]
    for cert in certs:
        assert cert is not None
        assert revalidate(cert, facts)


# The README's phi certificate, with B and S sub-certificates, and a built-in
# fact certificate.
TAMPERED_CERTIFICATES = {
    "phi": lambda facts: certify_phi(
        CurveClass(7, "general"), (5, 12, 6), (2, 10, 4), facts),
    "fact": lambda facts: s_nonempty(CurveClass(7, "general"), (2, 10, 4), facts),
}


def _bump_d1(cert):
    if cert.rule == "fact":
        cert.inputs["d"] += 1
    else:
        cert.inputs["locus1"][1] += 1


def _zero_rank(cert):
    if cert.rule == "fact":
        cert.inputs["n"] = 0
    else:
        cert.inputs["locus1"] = [0, 12, 6]


def _bump_first_witness(cert):
    key = next(iter(cert.witnesses))
    cert.witnesses[key] += 1


# One change per case, made on a deep copy; None leaves the copy untouched.
TAMPERINGS = {
    "untouched": None,
    "citation": lambda c: setattr(c, "citation", c.citation + " (edited)"),
    "strength": lambda c: setattr(
        c, "conclusion", c.conclusion._replace(strength="semistable")),
    "beta": lambda c: setattr(c, "beta", c.beta + 1),
    "hypothesis-status": lambda c: c.hypotheses.__setitem__(
        0, c.hypotheses[0]._replace(status="assumed")),
    "subcertificate-dropped": lambda c: c.subcertificates.pop(),
    "subcertificate-beta": lambda c: setattr(
        c.subcertificates[0], "beta", c.subcertificates[0].beta + 1),
    "status": lambda c: setattr(c, "status", "conditional"),
    "witness": _bump_first_witness,
    "level-required": lambda c: setattr(c, "level_required", "smooth"),
    "curve": lambda c: setattr(c, "curve", CurveClass(9, "general")),
    "note": lambda c: c.notes.append("edited"),
    "input-d1": _bump_d1,
    # records the rule cannot run
    "input-missing": lambda c: c.inputs.popitem(),
    "input-added": lambda c: c.inputs.__setitem__("extra", 1),
    "input-rank-zero": _zero_rank,
    "input-null": lambda c: c.inputs.__setitem__(list(c.inputs)[-1], None),
}


@pytest.mark.parametrize("which, tampering", [
    pytest.param(which, name, id="%s-%s" % (which, name))
    for name in TAMPERINGS for which in TAMPERED_CERTIFICATES
    if not (which == "fact" and name.startswith("subcertificate"))
])
def test_revalidation_detects_tampering(facts, which, tampering):
    cert = copy.deepcopy(TAMPERED_CERTIFICATES[which](facts))
    if TAMPERINGS[tampering] is None:
        assert revalidate(cert, facts)
    else:
        TAMPERINGS[tampering](cert)
        assert not revalidate(cert, facts)


def test_revalidation_of_a_builtin_fact_certificate(facts):
    # S(2, 10, 4) on genus 7 has no rule; the built-in S(2, g+3, 4) answers it
    cert = s_nonempty(CurveClass(7, "general"), (2, 10, 4), facts)
    assert cert.rule == "fact"
    assert cert.inputs["d"] == 10
    assert revalidate(cert, facts)
    assert revalidate(cert)


def test_revalidation_rejects_a_fact_the_database_lacks():
    user = Fact(kind="S", n=3, sections=5, degree=20, citation="user note")
    with_fact = FactDatabase([user])
    cert = s_nonempty(CurveClass(7, "general"), (3, 20, 5), with_fact)
    assert cert.rule == "fact"
    assert revalidate(cert, with_fact)
    assert not revalidate(cert, FactDatabase())


def test_revalidation_rejects_an_unknown_rule(facts):
    cert = certify_phi(CurveClass(7, "general"), (5, 12, 6), (2, 10, 4), facts)
    cert.rule = "no-such-rule"
    assert not revalidate(cert, facts)


def test_level_monotonicity(facts):
    # whatever is proved on a Petri curve is proved on a general curve with
    # an identical conclusion
    petri_cases = [
        lambda c: bn_line_nonempty(c, 9, 3),
        lambda c: bn_np1_nonempty(c, 3, 25),
        lambda c: certify_c8(c, 2, 8, 3, 1, 21, 19, FactDatabase()),
    ]
    for run in petri_cases:
        on_petri = run(CurveClass(20, "petri"))
        on_general = run(CurveClass(20, "general"))
        if on_petri is None:
            continue
        assert on_general is not None
        assert on_general.conclusion.to_dict() == on_petri.conclusion.to_dict()


def test_no_stable_conclusion_from_semistable_sub(facts):
    # scan a family of phi runs; whenever some sub-certificate is only
    # semistable the conclusion must be semistable as well
    seen_semistable = 0
    for d1 in range(4, 9):
        cert = certify_phi(CurveClass(2, "general"), (2, d1, 3), (1, 9, 2), facts)
        if cert is None:
            continue
        strengths = [s.conclusion.strength for s in cert.subcertificates]
        if "semistable" in strengths:
            seen_semistable += 1
            assert cert.conclusion.strength == "semistable"
    assert seen_semistable >= 1


def test_conclusion_descriptions(facts):
    phi = certify_phi(CurveClass(7, "general"), (5, 12, 6), (2, 10, 4), facts)
    assert phi.conclusion.to_dict() == {
        "kind": "universal", "n1": 5, "d1": 12, "n2": 2, "d2": 10, "k": 24,
        "strength": "stable",
    }
    np1 = bn_np1_nonempty(CurveClass(2, "general"), 2, 4)
    assert np1.conclusion.to_dict() == {
        "kind": "bn", "n1": 2, "d1": 4, "n2": None, "d2": None, "k": 3,
        "strength": "semistable",
    }
    t9 = certify_t9(CurveClass(4, "general"), (2, 5, 2), 2, 12, 5)
    assert t9.conclusion.to_dict() == {
        "kind": "twisted", "n1": 2, "d1": 5, "n2": 3, "d2": 12, "k": 5,
        "strength": "stable",
    }
    s = s_nonempty(CurveClass(6, "general"), (1, 10, 5), facts)
    assert s.conclusion.to_dict() == {
        "kind": "s", "n1": 1, "d1": 10, "n2": None, "d2": None, "k": 5,
        "strength": "stable",
    }


def test_certificate_json_field_names(facts):
    cert = certify_phi(CurveClass(7, "general"), (5, 12, 6), (2, 10, 4), facts)
    data = json.loads(cert.to_json())
    for key in ("rule", "citation", "conclusion", "beta", "hypotheses",
                "subcertificates", "status"):
        assert key in data
    for key in ("n1", "d1", "n2", "d2", "k", "strength"):
        assert key in data["conclusion"]
    assert data["conclusion"] == {
        "kind": "universal", "n1": 5, "d1": 12, "n2": 2, "d2": 10,
        "k": 24, "strength": "stable",
    }
    assert data["beta"] == -64
    assert all(set(h) == {"description", "status"} for h in data["hypotheses"])
