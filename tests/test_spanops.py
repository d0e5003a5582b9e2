"""Type arithmetic for dual spans, their direct sums and elementary
transformations."""

import pytest

from bnloci.bncalc import LocusSpec
from bnloci.spanops import (
    CoherentSystemType,
    dual_span_type,
    elem_transform_type,
    r_fold_type,
)


def test_coherent_system_type_validation():
    with pytest.raises(ValueError):
        CoherentSystemType(0, 5, 3)
    with pytest.raises(ValueError):
        CoherentSystemType(2, 5, 0)
    cs = CoherentSystemType(2, 7, 3)
    assert (cs.n, cs.d, cs.v) == (2, 7, 3)


def test_dual_span_type_examples():
    assert dual_span_type((1, 26, 17)) == LocusSpec.of(16, 26, 17)
    assert dual_span_type((1, 10, 5)) == LocusSpec.of(4, 10, 5)
    assert dual_span_type((2, 7, 3)) == LocusSpec.of(1, 7, 3)


def test_dual_span_requires_more_sections_than_rank():
    with pytest.raises(ValueError):
        dual_span_type((3, 10, 3))
    with pytest.raises(ValueError):
        r_fold_type((3, 10, 2), 1)


def test_dual_span_involution_on_types():
    for n in range(1, 4):
        for d in range(-8, 9):
            for v in range(n + 1, n + 5):
                dual = dual_span_type((n, d, v))
                assert dual.bundle.n + n == v
                assert dual.bundle.d == d
                again = dual_span_type((dual.bundle.n, dual.bundle.d, dual.k))
                assert (again.bundle.n, again.bundle.d, again.k) == (n, d, v)


def test_r_fold_type_examples():
    assert r_fold_type((1, 10, 5), 2) == LocusSpec.of(8, 20, 10)
    assert r_fold_type((1, 10, 5), 1) == dual_span_type((1, 10, 5))
    assert r_fold_type((2, 12, 5), 3) == LocusSpec.of(9, 36, 15)
    with pytest.raises(ValueError):
        r_fold_type((1, 10, 5), 0)


def test_elem_transform_examples():
    assert elem_transform_type((1, 12, 5), 2) == LocusSpec.of(8, 25, 10)
    assert elem_transform_type((1, 12, 5), 1) == LocusSpec.of(4, 13, 5)
    with pytest.raises(ValueError):
        elem_transform_type((1, 11, 5), 1)
    with pytest.raises(ValueError):
        elem_transform_type((1, 10, 5), 2)  # 4 does not divide 10

