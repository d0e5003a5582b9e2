"""Type arithmetic for dual spans, their direct sums and elementary
transformations.

These operations track only (rank, degree, sections) triples.  They never
assert existence or stability of any bundle; certkit is the layer that
attaches conclusions.  Conflating the two is the classical pitfall: a
generated coherent system of type (n, d, v) has a dual span of type
(v - n, d, v), but whether that dual span is stable is a theorem, not type
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bncalc import LocusSpec

__all__ = [
    "CoherentSystemType",
    "dual_span_type",
    "r_fold_type",
    "elem_transform_type",
]


@dataclass(frozen=True)
class CoherentSystemType:
    """Type (n, d, v) of a generated coherent system: rank, degree and the
    dimension of the generating space of sections."""

    n: int
    d: int
    v: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("rank must be positive, got %r" % (self.n,))
        if self.v < 1:
            raise ValueError("section space must be positive, got %r" % (self.v,))


def _cs(cs: CoherentSystemType | tuple[int, int, int]) -> CoherentSystemType:
    return cs if isinstance(cs, CoherentSystemType) else CoherentSystemType(*cs)


def _require_dual(cs: CoherentSystemType) -> None:
    if cs.v <= cs.n:
        raise ValueError(
            "dual span needs v > n (a generated system with v <= n has none), "
            "got (n, d, v) = (%r, %r, %r)" % (cs.n, cs.d, cs.v)
        )


def dual_span_type(cs: CoherentSystemType | tuple[int, int, int]) -> LocusSpec:
    """Dual span of a generated (n, d, v) system: type (v - n, d) with v
    sections."""
    cs = _cs(cs)
    _require_dual(cs)
    return LocusSpec.of(cs.v - cs.n, cs.d, cs.v)


def r_fold_type(cs: CoherentSystemType | tuple[int, int, int], r: int) -> LocusSpec:
    """Type of the r-fold direct sum of the dual span: ((r(v-n), r*d), r*v).

    Downstream conclusions built on this type are semistable only.
    """
    cs = _cs(cs)
    _require_dual(cs)
    if r < 1:
        raise ValueError("fold count must be positive, got %r" % (r,))
    return LocusSpec.of(r * (cs.v - cs.n), r * cs.d, r * cs.v)


def elem_transform_type(
    cs: CoherentSystemType | tuple[int, int, int], r: int
) -> LocusSpec:
    """Type after an elementary transformation of the r-fold sum:
    ((r(v-n), r*d + 1), r*v).

    Requires (v - n) | d; the stability argument for the transformed bundle
    depends on that divisibility.
    """
    cs = _cs(cs)
    _require_dual(cs)
    if r < 1:
        raise ValueError("fold count must be positive, got %r" % (r,))
    if cs.d % (cs.v - cs.n) != 0:
        raise ValueError(
            "elementary transformation requires (v - n) | d, got d=%r, v-n=%r"
            % (cs.d, cs.v - cs.n)
        )
    return LocusSpec.of(r * (cs.v - cs.n), r * cs.d + 1, r * cs.v)

