"""Sweep formulas, table rows, slope-plane points and boundary
classification."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnloci.bncalc import beta_classical, beta_universal
from bnloci.sweeps import (
    BNMAP_HEADER,
    TABLE1_HEADER,
    TABLE1_PRINTED,
    TABLE2_PRINTED,
    RegionBoundary,
    bnmap_point,
    bnmap_rows,
    classify_point,
    dmax_formula_bpn,
    dmax_search,
    dmin_formula,
    ex2_min_genus,
    ex40_d1_range,
    rows_to_csv,
    table1_rows,
    table2_min_genus,
    table2_rows,
)


def test_dmin_formula_values():
    assert dmin_formula(10, 2) == 9
    assert dmin_formula(10, 3) == 11
    assert dmin_formula(6, 5) == 10


def test_dmin_formula_is_exact_argmin():
    for g in range(2, 31):
        for n2 in range(1, 13):
            d = dmin_formula(g, n2)
            assert beta_classical(g, 1, d, n2 + 1) >= 0
            assert beta_classical(g, 1, d - 1, n2 + 1) < 0


def test_dmax_formula_values():
    assert dmax_formula_bpn(2) == 10
    assert dmax_formula_bpn(4) == 24
    assert dmax_formula_bpn(8) == 50
    with pytest.raises(ValueError):
        dmax_formula_bpn(1)


def test_dmax_search_values():
    assert dmax_search(10, (6, 22, 7), 4) == 24
    assert dmax_search(10, (6, 22, 7), 3) == 18
    assert dmax_search(10, (6, 22, 7), 2) == 11


def test_dmax_search_bracketing():
    for n2 in range(2, 9):
        d = dmax_search(10, (6, 22, 7), n2)
        k = 7 * (n2 + 1)
        assert beta_universal(10, (6, 22), (n2, d), k) < 0
        assert beta_universal(10, (6, 22), (n2, d + 1), k) >= 0


def test_dmax_search_none_when_never_negative():
    assert dmax_search(3, (1, 0, 1), 2) is None


def _dmax_by_scan(g, locus1, n2):
    """Reference: walk d2 up from dmin one degree at a time."""
    n1, d1, k1 = locus1
    k = k1 * (n2 + 1)
    d2 = dmin_formula(g, n2)
    if beta_universal(g, (n1, d1), (n2, d2), k) >= 0:
        return None
    while beta_universal(g, (n1, d1), (n2, d2 + 1), k) < 0:
        d2 += 1
    return d2


@settings(max_examples=300, deadline=None)
@given(
    g=st.integers(2, 20),
    n1=st.integers(1, 8),
    d1=st.integers(-20, 120),
    k1=st.integers(1, 10),
    n2=st.integers(1, 500),
)
def test_dmax_search_closed_form_matches_scan(g, n1, d1, k1, n2):
    # about half of these draws are None cases
    assert dmax_search(g, (n1, d1, k1), n2) == _dmax_by_scan(g, (n1, d1, k1), n2)


def test_dmax_search_argument_errors():
    with pytest.raises(ValueError):
        dmax_search(10, (6, 22, 0), 3)
    with pytest.raises(ValueError):
        dmax_search(10, (6, 22, 7), 0)
    with pytest.raises(ValueError):
        dmax_search(1, (6, 22, 7), 3)


def test_table2_min_genus_reproduces_published_column():
    assert [table2_min_genus(n2) for n2 in range(2, 11)] == [
        9, 7, 6, 7, 8, 9, 10, 11, 12,
    ]
    assert [TABLE2_PRINTED[n2] for n2 in range(2, 11)] == [
        9, 7, 6, 7, 8, 9, 10, 11, 12,
    ]


def _table2_min_genus_by_scan(n2):
    """Reference: every genus from 2 up, skipping those below the rank floor."""
    k = 2 * (n2 + 1)
    for g in range(2, 10 * n2 + 51):
        if g >= n2 + 2:
            if beta_universal(g, (2, 5), (n2, dmin_formula(g, n2)), k) < 0:
                return g
    return None


def test_table2_min_genus_matches_scan_from_genus_two():
    for n2 in range(2, 601):
        assert table2_min_genus(n2) == _table2_min_genus_by_scan(n2)


def test_table2_rank_floor_binds_at_rank5():
    # the BN number is already negative at genus 6 but the rank floor
    # n2 + 2 = 7 postpones the answer
    assert beta_universal(6, (2, 5), (5, dmin_formula(6, 5)), 12) < 0
    assert table2_min_genus(5) == 7


def test_no_negative_beta_for_small_genus():
    for g in (2, 3, 4):
        for n2 in range(2, 11):
            d2 = dmin_formula(g, n2)
            assert beta_universal(g, (2, 5), (n2, d2), 2 * (n2 + 1)) >= 0


def test_ex40_d1_range_values():
    assert list(ex40_d1_range(11, 3)) == [12, 13, 14, 15]
    assert 12 in ex40_d1_range(11, 3)
    # brute-force cross-check of the exact negativity window at small size
    rng = ex40_d1_range(2, 2)
    k = 9
    for d1 in range(0, 20):
        in_window = d1 in rng
        lower_ok = beta_classical(2, 1, d1, 3) >= 0
        negative = beta_universal(2, (2, d1), (2, d1), k) < 0
        assert in_window == (lower_ok and negative)


def test_ex40_d1_range_matches_direct_evaluation():
    for g in range(2, 40):
        for n1 in range(2, 8):
            k = (n1 + 1) * (n1 + 1)
            expected = []
            d1 = -5
            # beta_universal is increasing in d1, so the window ends at the
            # first non-negative value
            while beta_universal(g, (n1, d1), (n1, d1), k) < 0:
                if beta_classical(g, 1, d1, n1 + 1) >= 0:
                    expected.append(d1)
                d1 += 1
            assert list(ex40_d1_range(g, n1)) == expected, (g, n1)


def test_ex2_min_genus_values():
    assert ex2_min_genus(2, 2, 5) == 17
    assert ex2_min_genus(2, 2, 6) == 20
    assert ex2_min_genus(2, 1, 3) is None


def test_ex2_coefficient_positive_for_ranks_at_least_two():
    for n1 in range(2, 8):
        for n2 in range(2, 8):
            numerator = (n2 * n2 - 2) * n1 * n1 - n2 * n2
            assert numerator > 0


def test_bnmap_point_values():
    point = bnmap_point((2, 5, 2), (5, 14, 6))
    assert point == (Fraction(53, 10), Fraction(6, 5))
    assert bnmap_point((3, 0, 3), (4, 0, 4)) == (Fraction(0), Fraction(1))
    assert bnmap_point((2, 5, 2), (6, 16, 7)) == (Fraction(31, 6), Fraction(7, 6))


def _boundary(*samples):
    return RegionBoundary(
        genus=10,
        samples=tuple((Fraction(m), Fraction(l)) for m, l in samples),
    )


def test_classify_point_cases():
    empty = RegionBoundary(genus=10, samples=())
    point = (Fraction(5), Fraction(2))
    assert classify_point(point, empty) == "unknown"

    flat = _boundary((3, 1), (8, Fraction(11, 10)))
    assert classify_point((Fraction(53, 10), Fraction(6, 5)), flat) == "new"
    high = _boundary((3, 1), (8, Fraction(3, 2)))
    assert classify_point((Fraction(53, 10), Fraction(6, 5)), high) == "inside"
    # a point exactly on a sample is inside (strict inequality)
    on_sample = classify_point((Fraction(3), Fraction(1)), flat)
    assert on_sample == "inside"
    # outside the sampled range
    assert classify_point((Fraction(9), Fraction(5)), flat) == "unknown"
    # a single sample is met only at its own mu
    single = _boundary((3, 1))
    assert classify_point((Fraction(3), Fraction(6, 5)), single) == "new"
    assert classify_point((Fraction(3), Fraction(1)), single) == "inside"
    assert classify_point((Fraction(4), Fraction(1)), single) == "unknown"


def test_classify_point_monotone_in_lambda():
    boundary = _boundary((2, 1), (6, Fraction(13, 10)), (9, Fraction(3, 2)))
    mu = Fraction(53, 10)
    previous = None
    for step in range(0, 20):
        lam = Fraction(1, 2) + Fraction(step, 10)
        got = classify_point((mu, lam), boundary)
        if previous == "new":
            assert got == "new"
        previous = got


def test_boundary_requires_increasing_mu():
    with pytest.raises(ValueError):
        _boundary((3, 1), (3, 2))


def test_boundary_csv_parsing(tmp_path):
    path = tmp_path / "boundary.csv"
    path.write_text("mu,lambda\n3,1\n11/2,6/5\n8,13/10\n", encoding="utf-8")
    boundary = RegionBoundary.from_csv(path, 10)
    assert boundary.samples[1] == (Fraction(11, 2), Fraction(6, 5))
    assert boundary.interpolate(Fraction(3)) == 1


def test_table1_rows_annotations():
    rows = table1_rows(10, (6, 22, 7), range(2, 9))
    by_n2 = {row["n2"]: row for row in rows}
    for n2 in range(2, 9):
        row = by_n2[n2]
        assert row["d_max_formula"] == dmax_formula_bpn(n2)
        assert row["paper_d_min"] == TABLE1_PRINTED[n2][0]
        assert row["paper_d_max"] == TABLE1_PRINTED[n2][1]
    # the direct threshold exceeds the printed ceiling by one at low rank
    assert by_n2[2]["d_max_direct"] == by_n2[2]["paper_d_max"] + 1
    assert by_n2[3]["d_max_direct"] == by_n2[3]["paper_d_max"] + 1
    for n2 in range(4, 9):
        assert by_n2[n2]["d_max_direct"] == by_n2[n2]["paper_d_max"]
    # non-canonical sweeps carry no printed annotations
    other = table1_rows(6, (2, 5, 2), [2])
    assert other[0]["paper_d_min"] == "" and other[0]["paper_d_max"] == ""


def test_rows_to_csv_shape():
    text = rows_to_csv(table2_rows(range(2, 5)), "n2,g_min,paper_g_min")
    assert text.splitlines()[0] == "n2,g_min,paper_g_min"
    assert text.splitlines()[1] == "2,9,9"
    assert text.endswith("\n")


def test_bnmap_rows_with_boundary():
    boundary = _boundary((3, 1), (9, Fraction(11, 10)))
    rows = bnmap_rows(10, (2, 5, 2), range(5, 9), boundary)
    assert len(rows) == 4
    assert rows[0]["mu0_num"] == 53 and rows[0]["mu0_den"] == 10
    assert all(r["classification"] == "new" for r in rows)
    unknown = bnmap_rows(10, (2, 5, 2), range(5, 6))
    assert unknown[0]["classification"] == "unknown"
    header_cols = BNMAP_HEADER.split(",")
    assert set(rows[0]) == set(header_cols)
    assert TABLE1_HEADER.count(",") == 5


def test_table1_d_max_formula_only_at_genus_10():
    # The closed form is the genus-10 one: off genus 10 the column is blank,
    # beside direct values that differ from it (14, 23, 32 at genus 12).
    rows = table1_rows(12, (6, 22, 7), range(2, 5))
    assert [r["d_max_formula"] for r in rows] == ["", "", ""]
    assert [r["d_max_direct"] for r in rows] == [14, 23, 32]
    assert [dmax_formula_bpn(n2) for n2 in range(2, 5)] == [10, 17, 24]
    # at genus 10 every first locus keeps it
    rows = table1_rows(10, (2, 5, 2), range(1, 5))
    assert [r["d_max_formula"] for r in rows] == ["", 10, 17, 24]
    text = rows_to_csv(table1_rows(12, (6, 22, 7), [2]), TABLE1_HEADER)
    assert text.splitlines()[1] == "2,10,,14,,"


def test_bnmap_rows_rejects_boundary_of_another_genus():
    boundary = RegionBoundary(genus=9, samples=((Fraction(3), Fraction(1)),))
    with pytest.raises(ValueError, match="genus 9"):
        bnmap_rows(10, (2, 5, 2), range(5, 6), boundary)
    assert bnmap_rows(9, (2, 5, 2), range(5, 6), boundary)
