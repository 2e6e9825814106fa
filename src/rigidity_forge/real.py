"""The designated real embedding of the quadratic towers: every order
decision, taken on the integer form.

``scalars`` holds a tower element x as an integer vector ``x._n`` over a
positive denominator ``x._d`` on the basis of products of the generators,
and its tower's radicands as ``x.tower._rads``, each such a pair over the
generators below it.  The designated real embedding takes every generator
to its positive root.  This module decides signs under it, and holds the
comparisons against square roots that gadget construction makes; it imports
only the standard library and reads the integer form, as the kernels do.

Cost of ``sign``: a vector with no coordinate past the first is rational,
and its sign is read off; any other is nonzero, because the basis is
linearly independent over Q.  Then every basis element is enclosed at
``prec`` bits of each radical (``_basis_bounds``: one integer square root
per generator, kept for the last 32 pairs of radicands and precision), and
the vector by one pass over its coordinates (``_enclose``).  ``prec``
doubles from 8 until the enclosure excludes 0; the enclosure's width
shrinks to 0 as ``prec`` grows, so refinement ends on every nonzero value.

The one route from field arithmetic into the order: joining two towers
neither of which is a prefix of the other (``scalars.tower_join`` ->
``_merge`` -> ``adjoin_sqrt``) adjoins each generator of one to the other,
and ``adjoin_sqrt`` takes the sign of the radicand and of a root it finds
already present, to pick the positive root.  The checker's modules import
nothing from here and call no ``sign``; a model whose domain tower neither
extends nor is a prefix of a point's tower reaches the order through that
join on the first check, and the join is kept (``scalars._joins``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from typing import Callable, Sequence

IVec = tuple[int, ...]
Rads = tuple[tuple[IVec, int], ...]


def sign(rads: Rads, n: Sequence[int]) -> int:
    """The sign of the integer vector n of the tower with radicands ``rads``
    under the designated real embedding (its denominator is positive)."""
    if not any(n[1:]):
        return (n[0] > 0) - (n[0] < 0)
    prec = 8
    while True:
        lows, highs, _ = _basis_bounds(rads, prec)
        lo, hi = _enclose(n, lows, highs)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        prec *= 2


def _sqrt_interval(lo: Fraction, hi: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Dyadic bounds at ``prec`` bits of the square root of a value in
    [lo, hi], hi >= 0: a lower bound below 0 counts as 0."""
    scale = 1 << prec
    if lo < 0:
        lo = Fraction(0)
    r_lo = Fraction(isqrt(lo.numerator * lo.denominator * scale * scale), lo.denominator * scale)
    r_hi = Fraction(isqrt(hi.numerator * hi.denominator * scale * scale) + 1, hi.denominator * scale)
    return r_lo, r_hi


@lru_cache(maxsize=32)
def _basis_bounds(rads: Rads, prec: int) -> tuple[IVec, IVec, int]:
    """Lower and upper bounds of every basis element at ``prec`` bits of each
    radical, as integer vectors over one common positive denominator; kept
    for the last 32 (radicands, prec) pairs used, as the basis products are."""
    los, his = [Fraction(1)], [Fraction(1)]
    for rn, rd in rads:
        lo, hi = _enclose(rn, los, his)
        r_lo, r_hi = _sqrt_interval(Fraction(lo, rd), Fraction(hi, rd), prec)
        # the radicals are nonnegative, so products of bounds are bounds
        los += [q * r_lo for q in los]
        his += [q * r_hi for q in his]
    den = lcm(*(q.denominator for q in los + his))
    lows, highs = (tuple([q.numerator * (den // q.denominator) for q in qs]) for qs in (los, his))
    return lows, highs, den


def _enclose(n: Sequence[int], los: Sequence, his: Sequence) -> tuple:
    """Bounds of the integer vector n from bounds of the basis elements."""
    lo = hi = 0
    for c, l, u in zip(n, los, his):
        if c > 0:
            lo += c * l
            hi += c * u
        elif c < 0:
            lo += c * u
            hi += c * l
    return lo, hi


# ---------------------------------------------------------------------------
# Order-based helpers used by gadget constructors.  All comparisons against
# square roots go through squares, so no radical is adjoined just to compare.
# ---------------------------------------------------------------------------


def cmp_with_sqrt(m: Fraction, square) -> int:
    """Sign of m - sqrt(square) for m >= 0 and square >= 0: the sign of the
    integer vector of m^2 - square over a positive denominator."""
    if m < 0:
        raise ValueError("cmp_with_sqrt needs a nonnegative rational")
    p, q = m.numerator, m.denominator
    v = [-q * q * c for c in square._n]
    v[0] += p * p * square._d
    return sign(square.tower._rads, v)


def _last(pred: Callable[[int], bool]) -> int:
    """The largest k >= 0 with pred(k), for a pred that holds up to some k
    and fails beyond it; 0 when pred(0) is false.  An exponential then a
    binary search, so it makes O(log k) calls."""
    lo, hi = 0, 1
    while pred(hi):
        lo, hi = hi, 2 * hi
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo


def least_int_above_sqrt(square, strict: bool) -> int:
    """Smallest positive integer n > sqrt(square) (strict) or n >= sqrt(square)."""
    if sign(square.tower._rads, square._n) < 0:
        raise ValueError("negative square")

    def below(k: int) -> bool:
        c = cmp_with_sqrt(Fraction(k), square)
        return c < 0 or (strict and c == 0)

    return 1 + _last(below)


def simplest_rational_between_sqrts(lo_sq, hi_sq) -> Fraction:
    """Smallest-denominator rational in the open interval (sqrt(lo_sq), sqrt(hi_sq)),
    found by Stern-Brocot mediant search with exact tower ordering.  Each run of
    equal-direction steps is taken at once, its length found by ``_last``, so
    the search makes O(log) comparisons."""
    if (hi_sq - lo_sq).sign() <= 0:
        raise ValueError("empty interval")
    a, b = 0, 1  # lower bound a/b
    c, d = 1, 0  # upper bound c/d (infinity)
    while True:
        k = _last(lambda k: cmp_with_sqrt(Fraction(a + k * c, b + k * d), lo_sq) <= 0)
        a, b = a + k * c, b + k * d
        k = _last(lambda k: cmp_with_sqrt(Fraction(c + k * a, d + k * b), hi_sq) >= 0)
        if k == 0:  # the mediant is above sqrt(lo_sq) and below sqrt(hi_sq)
            return Fraction(a + c, b + d)
        c, d = c + k * a, d + k * b
