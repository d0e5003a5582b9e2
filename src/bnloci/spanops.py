"""Type arithmetic for dual spans, their direct sums and elementary
transformations.

These operations track only (rank, degree, sections) triples.  They never
assert existence or stability of any bundle; certkit is the layer that
attaches conclusions.  Conflating the two is the classical pitfall: a
generated coherent system of type (n, d, v) has a dual span of type
(v - n, d, v), but whether that dual span is stable is a theorem, not type
arithmetic.

A coherent-system type is a plain (n, d, v) triple of integers: rank,
degree and the dimension of the generating space of sections.  Each map
returns the (n, d, k) triple of the locus its result lies in.
"""

from __future__ import annotations

__all__ = [
    "dual_span_type",
    "r_fold_type",
    "elem_transform_type",
]


def _cs(cs: tuple[int, int, int]) -> tuple[int, int, int]:
    """Check an (n, d, v) coherent-system type, the rank first, then the
    section space."""
    n, d, v = cs
    if n < 1:
        raise ValueError("rank must be positive, got %r" % (n,))
    if v < 1:
        raise ValueError("section space must be positive, got %r" % (v,))
    return n, d, v


def _dual(cs: tuple[int, int, int]) -> tuple[int, int, int]:
    n, d, v = _cs(cs)
    if v <= n:
        raise ValueError(
            "dual span needs v > n (a generated system with v <= n has none), "
            "got (n, d, v) = (%r, %r, %r)" % (n, d, v)
        )
    return n, d, v


def dual_span_type(cs: tuple[int, int, int]) -> tuple[int, int, int]:
    """Dual span of a generated (n, d, v) system: type (v - n, d) with v
    sections."""
    n, d, v = _dual(cs)
    return v - n, d, v


def r_fold_type(cs: tuple[int, int, int], r: int) -> tuple[int, int, int]:
    """Type of the r-fold direct sum of the dual span: ((r(v-n), r*d), r*v).

    Downstream conclusions built on this type are semistable only.
    """
    n, d, v = _dual(cs)
    if r < 1:
        raise ValueError("fold count must be positive, got %r" % (r,))
    return r * (v - n), r * d, r * v


def elem_transform_type(cs: tuple[int, int, int], r: int) -> tuple[int, int, int]:
    """Type after an elementary transformation of the r-fold sum:
    ((r(v-n), r*d + 1), r*v).

    Requires (v - n) | d; the stability argument for the transformed bundle
    depends on that divisibility.
    """
    n, d, v = _dual(cs)
    if r < 1:
        raise ValueError("fold count must be positive, got %r" % (r,))
    if d % (v - n) != 0:
        raise ValueError(
            "elementary transformation requires (v - n) | d, got d=%r, v-n=%r"
            % (d, v - n)
        )
    return r * (v - n), r * d + 1, r * v
