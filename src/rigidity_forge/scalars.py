"""Exact scalar arithmetic: rationals, real quadratic towers, and a rational
function field in one indeterminate.

Three carriers, all with decidable equality:

* ``Rational`` is ``fractions.Fraction`` (always reduced, positive denominator).
* ``TowerElem`` lives in a quadratic tower over the rationals: iterated
  adjunctions of square roots of positive elements; its order is in
  ``real``, which ``sign``, ``<`` and ``adjoin_sqrt`` (to pick the
  positive root) call.  An element is held as an integer coordinate
  vector over one positive denominator, in canonical form (the denominator
  and the coordinates share no factor), so arithmetic takes one integer gcd
  per result and equality is a tuple comparison.  ``coords`` gives the same
  values as ``Fraction``s.  The unreduced kernels on the integer vectors
  (``_iadd``, ``_isub``, ``_imul``, ``_isq``) are what ``cm``'s point
  tables decide the facts with; a product or square of sparse vectors at
  dimension 8 or more sums the tower's basis products (its structure
  constants, which equal towers share, filled one pair at a time) over the
  pairs of nonzero coordinates, and any other halves the basis down to
  dimension 2; the same rule takes a table's squared distance from the
  nonzero pairs of its differences.  A squared distance as a value is the
  carrier formula.  ``lift`` and ``prefix`` return the target tower object
  itself, so a gadget's points share one ``TowerDesc``.
* ``FunElem`` lives in the rational function field K(eps) over a tower K.
  It carries no order; it exists to exercise non-archimedean image fields.
  Its arithmetic is lazy: a value is any numerator over any nonzero
  denominator, operations take no polynomial gcd, and equality
  cross-multiplies.  Numerator and denominator are each held as an integer
  matrix over one positive denominator (row i holds the integer coordinates
  of the coefficient of eps^i), in canonical form, so products and sums run
  on integers and equal polynomials have equal pairs; a product is one
  convolution of the rows, and a product with the unit polynomial returns
  the other operand.  No fact test has a K(eps) kernel: ``models``'s
  packed table runs the tower kernels on numerators that ``fun_pack``
  evaluates at eps = 2^w (Kronecker substitution).  The frame forms that
  map tower elements through a frame's integer rows live in ``models``
  too, next to the frames.
  The reduced form (coprime polynomials, monic denominator) is
  computed by Euclid on the integer matrices, once per value, on first use,
  and cached; ``num``/``den`` read it as ``TowerElem`` coefficients, and
  hashing, printing and the codec read those.

Each carrier operation is defined once.  ``_FieldOps``, the base of
``TowerElem``, ``FunElem`` and ``poly.Polynomial``, builds ``-``, ``/``,
``**``, their reflected forms and the immutability guard from each class's
own ``_coerce``, ``+``, unary ``-``, ``*`` and ``inverse``.  ``tower_join``
is the one way an element crosses into another tower: ``common_tower``,
``adjoin_sqrt``, ``FunElem``'s arithmetic, the conjugation's domain check
and the gadget builder's field unification all call it.  A join of two
towers neither of which is a prefix of the other is merged once per pair of
tower objects, kept in a small memo keyed by their identities, and maps an
element by one integer matrix-vector product.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, total_ordering
from itertools import chain, compress
from math import gcd, isqrt, lcm
from operator import add, lshift, mul, neg, sub
from typing import Callable, Sequence, Union

from . import real
from .real import IVec, Rads

Rational = Fraction

_HASH_MODULUS, _HASH_INF = sys.hash_info.modulus, sys.hash_info.inf

RationalLike = Union[int, Fraction]
Pairs = list  # of (coordinate, value) pairs, each value nonzero, as the sparse kernels read a vector


class NonPositiveRadicand(ValueError):
    """Adjoined radicand is not strictly positive under the real embedding."""


class BadGeneratorIndex(ValueError):
    """Generator index out of range, or conjugation at it is not well defined."""


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class _FieldOps:
    """The operators every carrier (``TowerElem``, ``FunElem``,
    ``poly.Polynomial``) derives from its own ``_coerce``, ``+``, unary
    ``-``, ``*`` and ``inverse``, and the immutability guard.  Each carrier
    keeps ``__radd__ = __add__`` and ``__rmul__ = __mul__`` itself."""

    __slots__ = ()

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __truediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self * rhs.inverse()

    def __rtruediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self._coerce(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


# ---------------------------------------------------------------------------
# Integer coordinate-vector kernels.
#
# An element of Q(sqrt(d_1), ..., sqrt(d_k)) has 2^k rational coordinates
# over the multiplicative basis indexed by subset bitmask: basis(m) = prod of
# sqrt(d_i) over bits i of m.  They are held as an integer vector n over one
# denominator d, the representation of H. Cohen, "A Course in Computational
# Algebraic Number Theory" (GTM 138), sec. 4.2.  The pair is canonical when
# d > 0 and gcd(d, *n) == 1, so zero is (0, ..., 0) over 1 and equal values
# have equal pairs.  Each radicand d_i is itself a canonical pair of length
# 2^i over the generators below it.
#
# The ``_i*`` kernels return unreduced (vector, denominator) pairs whose
# denominators are products of the operands' and the radicands' positive
# denominators; ``_canon`` reduces a result once.
#
# A product or square takes one of two paths, by one rule on the operands'
# nonzero counts.  The halving recursion (``_imul_halves``, ``_isq_halves``)
# splits each operand into the halves without and with the top generator
# and recurses down to its dimension-2 base case, pruning zero halves; it
# moves all n coordinates of an operand at every level (slices, zero tests,
# joins).  The sparse path (``_imul_sparse``, ``_isq_sparse``) reads each
# operand as its nonzero (coordinate, value) pairs (``_pairs`` of a dense
# vector), and adds, for each pair (i, j) of nonzero coordinates, a_i b_j
# times the tower's basis product e_i*e_j: one short integer row over the
# common denominator of all of them (``_BasisProducts``).  Its traffic is
# the n coordinates it scans plus one row per pair it reads, so it is
# taken at n >= 8 when the pairs are at most n: nnz(a)*nnz(b) <= n for a
# product, and nnz(a)^2 <= 2n for a square, which reads each unordered pair
# once, about nnz(a)^2/2 of them.  Below dimension 8 the base case answers
# in a few multiplications that no table lookup beats; a dense operand
# takes the recursion at every dimension.  The rule governs a point
# table's differences too: ``cm`` keeps each point's nonzero pairs and
# subtracts them (``_isub_pairs``), and a squared distance whose two
# differences each pass the square's rule is one sparse kernel
# (``_isq_sum``, on the basis products the table resolves once) that
# builds no dense vector; any other squares the dense differences.
#
# At depth <= 2 a table's squared distance u^2 + v^2, u and v integer
# vectors in the basis (1, g1, g2, g1 g2), g1^2 = r/rd, g2^2 = (s0 + s1 g1)/sd,
# is one closed form (``_isq_closed``): u0^2 + v0^2 over 1 at depth 0;
# (A0, A1) over rd at depth 1, A0 = (u0^2 + v0^2) rd + (u1^2 + v1^2) r and
# A1 = 2 rd (u0 u1 + v0 v1); at depth 2, with (B0, B1) the same on (u2, u3,
# v2, v3), C0 = (u0 u2 + v0 v2) rd + (u1 u3 + v1 v3) r, C1 = rd (u0 u3 +
# u1 u2 + v0 v3 + v1 v2) and t = rd sd, the sum (A0 + A1 g1 + (B0 + B1 g1)
# g2^2 + 2 (C0 + C1 g1) g2)/rd is (A0 t + B0 s0 rd + B1 s1 r, A1 t +
# (B0 s1 + B1 s0) rd, 2 C0 t, 2 C1 t) over rd t.  The difference of two
# forms over ka and kb is (u, v)/k, k = ka if they agree, else ka kb: k^2
# more in each denominator.
# ---------------------------------------------------------------------------

def _canon(n: IVec, d: int) -> tuple[IVec, int]:
    """n/d in canonical form; d is nonzero."""
    if d == 1:
        return n, 1
    g = gcd(d, *n)
    if d < 0:
        g = -g
    if g == 1:
        return n, d
    return tuple([c // g for c in n]), d // g


def _ineg(u: IVec) -> IVec:
    return tuple(map(neg, u))


def _iadd(u: IVec, ku: int, v: IVec, kv: int) -> tuple[IVec, int]:
    """u/ku + v/kv."""
    if ku == kv:
        return tuple(map(add, u, v)), ku
    return tuple([x * kv + y * ku for x, y in zip(u, v)]), ku * kv


def _isub(u: IVec, ku: int, v: IVec, kv: int) -> tuple[IVec, int]:
    """u/ku - v/kv."""
    if ku == kv:
        return tuple(map(sub, u, v)), ku
    return tuple([x * kv - y * ku for x, y in zip(u, v)]), ku * kv


def _ijoin(u: IVec, ku: int, v: IVec, kv: int) -> tuple[IVec, int]:
    """The coordinates of u/ku followed by those of v/kv, over one denominator."""
    if ku == kv:
        return u + v, ku
    return tuple([x * kv for x in u]) + tuple([y * ku for y in v]), ku * kv


def _imul(rads: Rads, a: IVec, b: IVec) -> tuple[IVec, int]:
    """The product of the integer vectors a and b: over their nonzero
    coordinates when nnz(a)*nnz(b) <= n at dimension n >= 8 (see the
    comment above), else by the halving recursion."""
    n = len(a)
    if n >= 8 and (n - a.count(0)) * (n - b.count(0)) <= n:
        return _imul_sparse(_basis_products(rads, n), _pairs(a), _pairs(b))
    return _imul_halves(rads, a, b)


def _isq(rads: Rads, a: IVec) -> tuple[IVec, int]:
    """The square of the integer vector a: over its nonzero coordinates when
    nnz(a)^2 <= 2n at dimension n >= 8 (see the comment above), else by the
    halving recursion."""
    n = len(a)
    if n >= 8 and (n - a.count(0)) ** 2 <= 2 * n:
        return _isq_sparse(_basis_products(rads, n), _pairs(a))
    return _isq_halves(rads, a)


def _isq_sum(basis: _BasisProducts, u: Pairs, v: Pairs) -> tuple[IVec, int] | None:
    """u^2 + v^2 for vectors given by their nonzero pairs, in one sparse
    kernel on the tower's ``basis``, when each passes the square's rule (see
    the comment above); else None, and the caller squares dense vectors."""
    if max(len(u), len(v)) ** 2 > 2 * basis.dim:
        return None
    return _isq_sparse(basis, u, v)


def _isq_closed(rads: Rads, a: IVec, ka: int, b: IVec, kb: int) -> tuple[IVec, int]:
    """u^2 + v^2 and its positive denominator for (u, v) = a/ka - b/kb, a and
    b two points' integer forms x + y of dimension <= 4 over ka, kb > 0, in
    closed form (see the comment above) on (fa*a - fb*b)/k."""
    if ka == kb:
        fa = fb = 1
        k = ka * ka
    else:
        fa, fb, k = kb, ka, ka * ka * kb * kb
    if not rads:
        u0, v0 = a[0] * fa - b[0] * fb, a[1] * fa - b[1] * fb
        return (u0 * u0 + v0 * v0,), k
    (r,), rd = rads[0]
    if len(rads) == 1:
        (a0, a1, a2, a3), (b0, b1, b2, b3) = a, b
        u0, u1, v0, v1 = a0 * fa - b0 * fb, a1 * fa - b1 * fb, a2 * fa - b2 * fb, a3 * fa - b3 * fb
        return ((u0 * u0 + v0 * v0) * rd + (u1 * u1 + v1 * v1) * r, 2 * rd * (u0 * u1 + v0 * v1)), rd * k
    (a0, a1, a2, a3, a4, a5, a6, a7), (b0, b1, b2, b3, b4, b5, b6, b7) = a, b
    u0, u1, u2, u3 = a0 * fa - b0 * fb, a1 * fa - b1 * fb, a2 * fa - b2 * fb, a3 * fa - b3 * fb
    v0, v1, v2, v3 = a4 * fa - b4 * fb, a5 * fa - b5 * fb, a6 * fa - b6 * fb, a7 * fa - b7 * fb
    (s0, s1), sd = rads[1]
    t = rd * sd
    a0, a1 = (u0 * u0 + v0 * v0) * rd + (u1 * u1 + v1 * v1) * r, 2 * rd * (u0 * u1 + v0 * v1)
    b0, b1 = (u2 * u2 + v2 * v2) * rd + (u3 * u3 + v3 * v3) * r, 2 * rd * (u2 * u3 + v2 * v3)
    c0, c1 = (u0 * u2 + v0 * v2) * rd + (u1 * u3 + v1 * v3) * r, rd * (u0 * u3 + u1 * u2 + v0 * v3 + v1 * v2)
    return (a0 * t + b0 * s0 * rd + b1 * s1 * r, a1 * t + (b0 * s1 + b1 * s0) * rd, 2 * c0 * t, 2 * c1 * t), rd * t * k


def _pairs(a: IVec) -> Pairs:
    """The nonzero (coordinate, value) pairs of a, in coordinate order."""
    return list(zip(compress(range(len(a)), a), filter(None, a)))


def _isub_pairs(u: Pairs, fu: int, v: Pairs, fv: int) -> Pairs:
    """The nonzero pairs of fu*u - fv*v."""
    out = dict(u) if fu == 1 else {i: x * fu for i, x in u}
    for i, y in v:
        out[i] = out.get(i, 0) - y * fv
    return [(i, c) for i, c in out.items() if c]


def _imul_halves(rads: Rads, a: IVec, b: IVec) -> tuple[IVec, int]:
    """a * b by the halving recursion, down to dimension 2."""
    n = len(a)
    if n == 1:
        return (a[0] * b[0],), 1
    if n == 2:
        # (a0 + a1 g)(b0 + b1 g) with g^2 = r/rd, the halves' zero tests kept
        a0, a1 = a
        b0, b1 = b
        if not a1:
            return (a0 * b0, a0 * b1), 1
        if not b1:
            return (a0 * b0, a1 * b0), 1
        (r,), rd = rads[0]
        return (a0 * b0 * rd + a1 * b1 * r, (a0 * b1 + a1 * b0) * rd), rd
    h = n >> 1
    al, ah, bl, bh = a[:h], a[h:], b[:h], b[h:]
    # prune zero halves: elements rarely use the whole radical basis
    if not any(ah):
        lo, k = _imul_halves(rads, al, bl)
        if not any(bh):
            return lo + (0,) * h, k
        return _ijoin(lo, k, *_imul_halves(rads, al, bh))
    if not any(bh):
        return _ijoin(*_imul_halves(rads, al, bl), *_imul_halves(rads, ah, bl))
    rn, rd = rads[h.bit_length() - 1]
    p, kp = _imul_halves(rads, ah, bh)
    q, kq = _imul_halves(rads, p, rn)
    lo = _iadd(*_imul_halves(rads, al, bl), q, kp * kq * rd)
    hi = _iadd(*_imul_halves(rads, al, bh), *_imul_halves(rads, ah, bl))
    return _ijoin(*lo, *hi)


def _isq_halves(rads: Rads, a: IVec) -> tuple[IVec, int]:
    """a^2 by the halving recursion: (lo + hi*g)^2 = lo^2 + hi^2*r +
    2*lo*hi*g takes three half-size products where ``_imul_halves`` takes
    four."""
    n = len(a)
    if n == 1:
        return (a[0] * a[0],), 1
    if n == 2:
        a0, a1 = a
        if not a1:
            return (a0 * a0, 0), 1
        (r,), rd = rads[0]
        if not a0:
            return (a1 * a1 * r, 0), rd
        return (a0 * a0 * rd + a1 * a1 * r, 2 * a0 * a1 * rd), rd
    h = n >> 1
    lo, hi = a[:h], a[h:]
    if not any(hi):
        s, k = _isq_halves(rads, lo)
        return s + (0,) * h, k
    rn, rd = rads[h.bit_length() - 1]
    p, kp = _isq_halves(rads, hi)
    q, kq = _imul_halves(rads, p, rn)
    k = kp * kq * rd
    if not any(lo):
        return q + (0,) * h, k
    m, km = _imul_halves(rads, lo, hi)
    return _ijoin(*_iadd(*_isq_halves(rads, lo), q, k), tuple([2 * c for c in m]), km)


class _BasisProducts:
    """The structure constants of the tower with radicands ``rads``: each
    product e_i*e_j of two basis monomials, i <= j, as the integer row
    ``den``*e_i*e_j, kept as its nonzero (coordinate, value) pairs under the
    key i*dim + j in ``rows`` and filled on first use (``fill``, by the
    halving recursion on e_i and e_j).

    ``den`` is a common denominator of every product, fixed before any is
    filled: D_0 = 1 and D_k = D_(k-1) rd_k, times D_(k-1) again when the
    radicand r_k/rd_k has a coordinate past the first.  Induction on k: for
    integer vectors x = x0 + x1 g and y = y0 + y1 g of depth k,
    xy = x0 y0 + (x0 y1 + x1 y0) g + x1 y1 r_k/rd_k, where x1 y1 = w/D_(k-1)
    with w integral; w r_k is integral when r_k is rational and lies over
    D_(k-1) otherwise, so x1 y1 r_k/rd_k lies over D_(k-1) rd_k or
    D_(k-1)^2 rd_k.  The square can be needed: in Q(sqrt(1/2),
    sqrt(3 + r0), sqrt(r0*r1)) every product of depth 2 lies over 2, but
    e_7^2 = 3/2 r0*r1 + r1/4 lies over 4."""

    __slots__ = ("rads", "dim", "den", "rows")

    def __init__(self, rads: Rads) -> None:
        self.rads, self.dim, self.den, self.rows = rads, 1 << len(rads), 1, {}
        for rn, rd in rads:
            self.den *= rd * (self.den if any(rn[1:]) else 1)

    def fill(self, i: int, j: int) -> tuple[tuple[int, int], ...]:
        """The row of e_i*e_j, computed and kept."""
        if i > j:
            i, j = j, i
        n = self.dim
        e = lambda m: (0,) * m + (1,) + (0,) * (n - 1 - m)
        c, k = _canon(*_imul_halves(self.rads, e(i), e(j)))
        s = self.den // k
        row = self.rows[i * n + j] = tuple([(u, v * s) for u, v in enumerate(c) if v])
        return row


# The basis products of the last ``_BASES_KEPT`` towers used, oldest first,
# keyed by their radicands: equal towers, however many ``TowerDesc``
# objects a build makes of them, share one table.  A depth-8 tower has
# 32,896 unordered pairs; a sparse product fills only the ones it reads.
_BASES_KEPT = 32
_bases: dict[Rads, _BasisProducts] = {}


def _basis_products(rads: Rads, n: int) -> _BasisProducts:
    """The basis products of the subtower of dimension n."""
    depth = n.bit_length() - 1
    if len(rads) != depth:
        rads = rads[:depth]
    basis = _bases.get(rads)
    if basis is None:
        if len(_bases) >= _BASES_KEPT:
            del _bases[next(iter(_bases))]
        basis = _bases[rads] = _BasisProducts(rads)
    return basis


def _imul_sparse(basis: _BasisProducts, a: Pairs, b: Pairs) -> tuple[IVec, int]:
    """a * b as the sum of a_i b_j e_i*e_j over the nonzero pairs of a and b,
    over the common denominator of the tower's ``basis`` products."""
    n = basis.dim
    rows, fill, out = basis.rows, basis.fill, [0] * n
    for i, x in a:
        for j, y in b:
            c = x * y
            for u, v in rows.get(i * n + j if i <= j else j * n + i) or fill(i, j):
                out[u] += c * v
    return tuple(out), basis.den


def _isq_sparse(basis: _BasisProducts, *squares: Pairs) -> tuple[IVec, int]:
    """The sum of the squares of vectors given by their nonzero pairs:
    a_i^2 e_i^2 and 2 a_i a_j e_i*e_j over each vector's pairs, i before j,
    over the common denominator of the tower's ``basis`` products."""
    n = basis.dim
    rows, fill, out = basis.rows, basis.fill, [0] * n
    for a in squares:
        for p, (i, x) in enumerate(a):
            c = x * x
            for u, v in rows.get(i * n + i) or fill(i, i):
                out[u] += c * v
            x2 = 2 * x
            for j, y in a[p + 1 :]:
                c = x2 * y
                for u, v in rows.get(i * n + j if i < j else j * n + i) or fill(i, j):
                    out[u] += c * v
    return tuple(out), basis.den


def _mul(rads: Rads, a: IVec, da: int, b: IVec, db: int) -> tuple[IVec, int]:
    c, k = _imul(rads, a, b)
    return _canon(c, da * db * k)


def _inv(rads: Rads, n: IVec, d: int) -> tuple[IVec, int]:
    """1/(n/d) for a canonical nonzero n/d."""
    if len(n) == 1:
        return ((d,), n[0]) if n[0] > 0 else ((-d,), -n[0])
    h = len(n) >> 1
    lo, hi = n[:h], n[h:]
    if not any(hi):
        m, k = _inv(rads, *_canon(lo, d))
        return m + (0,) * h, k
    rn, rd = rads[h.bit_length() - 1]
    # d/(lo + hi*g) = d*(lo - hi*g) / (lo^2 - hi^2*r); the norm is nonzero
    # because no radicand is a square in the tower below it.
    q, kq = _imul(rads, hi, hi)
    s, ks = _imul(rads, q, rn)
    norm = _canon(*_iadd(*_imul(rads, lo, lo), _ineg(s), kq * ks * rd))
    if not any(norm[0]):
        raise ArithmeticError("tower invariant violated: radicand is a square below")
    m, km = _inv(rads, *norm)
    p_lo, k_lo = _imul(rads, lo, m)
    p_hi, k_hi = _imul(rads, hi, m)
    c, k = _ijoin(p_lo, k_lo, _ineg(p_hi), k_hi)
    return _canon(tuple([x * d for x in c]), k * km)


def _sqrt(rads: Rads, x: IVec, dx: int) -> tuple[IVec, int] | None:
    """A canonical y with y*y == x/dx, for a canonical x/dx, or None."""
    n = len(x)
    if n == 1:
        if x[0] < 0:
            return None
        rn, rd = isqrt(x[0]), isqrt(dx)
        return ((rn,), rd) if rn * rn == x[0] and rd * rd == dx else None
    h = n >> 1
    u, v = _canon(x[:h], dx), _canon(x[h:], dx)
    rad = rads[h.bit_length() - 1]
    zeros = (0,) * h
    if not any(v[0]):
        r = _sqrt(rads, *u)
        if r is not None:
            return r[0] + zeros, r[1]
        # maybe x = (b*g)^2 = b^2 * r
        if any(u[0]):
            b = _sqrt(rads, *_mul(rads, *u, *_inv(rads, *rad)))
            if b is not None:
                return zeros + b[0], b[1]
        return None
    # x = (a + b*g)^2 with a, b in the subtower: a^2 + b^2 r = u, 2ab = v.
    vvr = _mul(rads, *_mul(rads, *v, *v), *rad)
    nrt = _sqrt(rads, *_canon(*_iadd(*_mul(rads, *u, *u), _ineg(vvr[0]), vvr[1])))
    if nrt is None:
        return None
    for signed in (nrt[0], _ineg(nrt[0])):
        a = _sqrt(rads, *_canon(*_iadd(u[0], 2 * u[1], signed, 2 * nrt[1])))
        if a is None or not any(a[0]):
            continue
        b_n, b_d = _mul(rads, *v, *_inv(rads, *a))
        candidate = _canon(*_ijoin(*a, b_n, 2 * b_d))
        if _mul(rads, *candidate, *candidate) == (x, dx):
            return candidate
    return None


# ---------------------------------------------------------------------------
# Tower descriptors and elements.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TowerDesc:
    """An ordered tower Q(sqrt(d_1), ..., sqrt(d_k)).

    Invariants: every radicand is strictly positive and not a square in the
    tower below it, so each adjunction doubles the basis and the positive
    choice of every root fixes a real embedding.
    """

    gens: tuple["TowerElem", ...] = ()

    @property
    def depth(self) -> int:
        return len(self.gens)

    @property
    def dim(self) -> int:
        return 1 << len(self.gens)

    def prefix(self, depth: int) -> "TowerDesc":
        if depth == len(self.gens):
            return self
        return TowerDesc(self.gens[:depth])

    def is_prefix_of(self, other: "TowerDesc") -> bool:
        return self.gens == other.gens[: len(self.gens)]

    @cached_property
    def _rads(self) -> Rads:
        """The radicands as (integer vector, denominator) pairs."""
        return tuple((g._n, g._d) for g in self.gens)

    @cached_property
    def _product_bound(self) -> tuple[int, int]:
        """(delta, c): for x, y in Z[eps]^dim, delta*x*y is integral and
        |delta*x*y| <= c|x||y|, |x| the largest coefficient sum of a
        coordinate: with e_S*e_T = sum(s_STU e_U), the tower's basis products
        (``_BasisProducts``, read by the sparse product kernel), delta is the
        least common denominator of the s_STU and c = max over U of
        sum |delta*s_STU|."""
        table, units = _basis_products(self._rads, self.dim), [[(i, 1)] for i in range(self.dim)]
        products = [_canon(*_imul_sparse(table, a, b)) for a in units for b in units]
        delta = lcm(*[k for _, k in products])
        return delta, max(sum([abs(v[u]) * (delta // k) for v, k in products]) for u in range(self.dim))

    def zero(self) -> "TowerElem":
        return _elem(self, (0,) * self.dim, 1)

    def one(self) -> "TowerElem":
        return _elem(self, (1,) + (0,) * (self.dim - 1), 1)

    def rational(self, q: RationalLike) -> "TowerElem":
        if isinstance(q, int):
            n, d = int(q), 1
        else:
            q = _as_fraction(q)
            n, d = q.numerator, q.denominator
        return _elem(self, (n,) + (0,) * (self.dim - 1), d)

    def generator(self, index: int) -> "TowerElem":
        if not 0 <= index < self.depth:
            raise BadGeneratorIndex(f"generator index {index} out of range")
        n = [0] * self.dim
        n[1 << index] = 1
        return _elem(self, tuple(n), 1)

    def __repr__(self) -> str:
        if not self.gens:
            return "Q"
        return "Q(" + ", ".join(f"sqrt({g})" for g in self.gens) + ")"


QQ = TowerDesc()


@total_ordering
class TowerElem(_FieldOps):
    """Exact element of a quadratic tower; immutable.

    Held as a canonical integer vector ``_n`` over a denominator ``_d`` (see
    the kernels above); ``coords`` are the rational coordinates.  The hash is
    that of the rational coordinate, taken on the integers by Python's
    numeric-hash rule.  It equals Tr(x)/[K:Q] for any tower K holding x
    (every other basis element has trace zero), so equal values hash equal
    across towers, and a rational value hashes like its ``Fraction`` or
    ``int``.
    """

    __slots__ = ("tower", "_n", "_d")

    def __init__(self, tower: TowerDesc, coords: Sequence[RationalLike]) -> None:
        if len(coords) != tower.dim:
            raise ValueError("coordinate vector does not match tower dimension")
        qs = [_as_fraction(c) for c in coords]
        # over the lcm of reduced denominators the pair is already canonical
        d = lcm(*(q.denominator for q in qs))
        _set_tower(self, tower)
        _set_n(self, tuple([q.numerator * (d // q.denominator) for q in qs]))
        _set_d(self, d)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        d = self._d
        if d == 1:
            return tuple(map(Fraction, self._n))
        return tuple([Fraction(c, d) for c in self._n])

    # -- constructors / coercion --------------------------------------------

    def _coerce(self, other) -> "TowerElem | None":
        if isinstance(other, TowerElem):
            return other
        if isinstance(other, (int, Fraction)):
            return self.tower.rational(other)
        return None

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self._n)

    def is_rational(self) -> bool:
        return not any(self._n[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self._n[0], self._d)

    def lift(self, tower: TowerDesc) -> "TowerElem":
        """This element over ``tower``, which extends its own; tagged with
        ``tower`` itself even when the two are equal but distinct objects."""
        if self.tower is tower:
            return self
        if self.tower == tower:
            return _elem(tower, self._n, self._d)
        if not self.tower.is_prefix_of(tower):
            raise ValueError("can only lift along a tower prefix")
        return _elem(tower, self._n + (0,) * (tower.dim - len(self._n)), self._d)

    def minimized(self) -> "TowerElem":
        """Drop trailing generators the element does not use (itself if none)."""
        n = self._n
        depth = self.tower.depth
        while depth > 0 and not any(n[len(n) // 2 :]):
            n = n[: len(n) // 2]
            depth -= 1
        return self if n is self._n else _elem(self.tower.prefix(depth), n, self._d)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = common_tower(self, rhs)
        return _elem(a.tower, *_canon(*_iadd(a._n, a._d, b._n, b._d)))

    __radd__ = __add__

    def __neg__(self):
        return _elem(self.tower, _ineg(self._n), self._d)

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = common_tower(self, rhs)
        return _elem(a.tower, *_mul(a.tower._rads, a._n, a._d, b._n, b._d))

    __rmul__ = __mul__

    def inverse(self) -> "TowerElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero tower element")
        return _elem(self.tower, *_inv(self.tower._rads, self._n, self._d))

    # -- comparison ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = common_tower(self, rhs)
        return a._n == b._n and a._d == b._d

    def __hash__(self) -> int:
        n0, d = self._n[0], self._d
        if d == 1:
            return hash(n0)
        # Python's numeric hash of the rational n0/d (as ``Fraction`` takes it)
        g = gcd(n0, d)
        n0, d = n0 // g, d // g
        if d % _HASH_MODULUS:
            h = hash(hash(abs(n0)) * pow(d, -1, _HASH_MODULUS))
        else:
            h = _HASH_INF
        h = h if n0 >= 0 else -h
        return -2 if h == -1 else h

    def sign(self) -> int:
        """Exact sign under the designated real embedding (``real.sign``)."""
        return real.sign(self.tower._rads, self._n)

    def __lt__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return (self - rhs).sign() < 0

    # -- rendering ---------------------------------------------------------------

    def __repr__(self) -> str:
        return f"TowerElem({self})"

    def __str__(self) -> str:
        parts: list[str] = []
        for mask, q in enumerate(self.coords):
            if q == 0:
                continue
            gens = [i for i in range(self.tower.depth) if mask >> i & 1]
            if not gens:
                parts.append(str(q))
            else:
                basis = "*".join(f"r{i}" for i in gens)
                parts.append(basis if q == 1 else f"{q}*{basis}")
        return " + ".join(parts) if parts else "0"


_set_tower = TowerElem.tower.__set__
_set_n = TowerElem._n.__set__
_set_d = TowerElem._d.__set__


def _elem(tower: TowerDesc, n: IVec, d: int) -> TowerElem:
    """Wrap a canonical pair of the tower's dimension; no checks."""
    x = object.__new__(TowerElem)
    _set_tower(x, tower)
    _set_n(x, n)
    _set_d(x, d)
    return x


def common_tower(x: TowerElem, y: TowerElem) -> tuple[TowerElem, TowerElem]:
    """Lift two elements into a common extension (auto-lift of tower_arith)."""
    if x.tower is y.tower or x.tower == y.tower:
        return x, y
    tower, into = tower_join(x.tower, y.tower)
    return x.lift(tower), into(y)


def tower_join(base: TowerDesc, other: TowerDesc) -> tuple[TowerDesc, Callable[[TowerElem], TowerElem]]:
    """A tower that extends ``base`` and holds ``other``, and the map ``into``
    of elements of ``other`` into it; elements of ``base`` go in by ``lift``.

    When one tower is a prefix of the other, the join is the longer one and
    ``into`` lifts.  Otherwise the merge (``_merge``) is made once per pair
    of tower objects and kept in a small memo keyed by their identities, so
    a repeated pair returns the same join object and the same ``into``.
    """
    if other.is_prefix_of(base):
        return base, lambda x: x.lift(base)
    if base.is_prefix_of(other):
        return other, lambda x: x.lift(other)
    key = (id(base), id(other))
    entry = _joins.get(key)
    if entry is None:
        if len(_joins) >= _JOINS_KEPT:
            del _joins[next(iter(_joins))]
        entry = _joins[key] = (base, other, *_merge(base, other))
    return entry[2], entry[3]


# The last ``_JOINS_KEPT`` merges, oldest first, as (base, other, join,
# into) under (id(base), id(other)): an entry holds both towers, so its key
# names those objects for as long as it is kept.  One build merges a few
# distinct pairs, each many times.
_JOINS_KEPT = 32
_joins: dict[tuple[int, int], tuple] = {}


def _merge(base: TowerDesc, other: TowerDesc) -> tuple[TowerDesc, Callable[[TowerElem], TowerElem]]:
    """Extend ``base`` by the image of each generator of ``other`` in turn
    (``adjoin_sqrt``, which absorbs a root already present).

    The images of ``other``'s basis monomials are the columns of one integer
    matrix over one denominator k, extended generator by generator: the
    columns with generator i are those without it times its root, a shift
    into the new upper half when the root is the new generator.  ``into``
    maps an element by one integer matrix-vector product and one ``_canon``;
    it reads the matrix as it stands, so it also maps each radicand of
    ``other`` while the matrix grows.
    """
    tower, columns, k = base, [(1,) + (0,) * (base.dim - 1)], 1
    rows = list(zip(*columns))

    def into(x: TowerElem) -> TowerElem:
        return _elem(tower, *_canon(tuple([sum(map(mul, row, x._n)) for row in rows]), k * x._d))

    for gen in other.gens:
        result = adjoin_sqrt(tower, into(gen))
        if result.absorbed:
            rads, (r, rd) = tower._rads, (result.root._n, result.root._d)
            products = [_imul(rads, c, r) for c in columns]
            s = lcm(*[rd * kp for _, kp in products])
            columns = [tuple([x * s for x in c]) for c in columns] + [
                tuple([x * (s // (rd * kp)) for x in p]) for p, kp in products
            ]
            k *= s
        else:
            zeros = (0,) * tower.dim
            columns = [c + zeros for c in columns] + [zeros + c for c in columns]
        tower, rows = result.tower, list(zip(*columns))
    return tower, into


@dataclass(frozen=True)
class AdjoinResult:
    tower: TowerDesc
    root: TowerElem
    absorbed: bool


def adjoin_sqrt(tower: TowerDesc, radicand: TowerElem | RationalLike) -> AdjoinResult:
    """Adjoin the positive square root of ``radicand``.

    Idempotent: if the radicand is already a square in the tower, the tower is
    returned unchanged together with its existing positive root.
    """
    if isinstance(radicand, (int, Fraction)):
        radicand = tower.rational(radicand)
    elif radicand.tower != tower:
        tower, into = tower_join(tower, radicand.tower)
        radicand = into(radicand)
    if radicand.sign() <= 0:
        raise NonPositiveRadicand(f"radicand {radicand} is not strictly positive")
    existing = sqrt_in_tower(radicand)
    if existing is not None:
        if existing.sign() < 0:
            existing = -existing
        return AdjoinResult(tower, existing, absorbed=True)
    new_tower = TowerDesc(tower.gens + (radicand,))
    return AdjoinResult(new_tower, new_tower.generator(tower.depth), absorbed=False)


def sqrt_in_tower(x: TowerElem) -> TowerElem | None:
    """Return y with y*y == x inside x's own tower, or None."""
    root = _sqrt(x.tower._rads, x._n, x._d)
    if root is None:
        return None
    return _elem(x.tower, *root)


def _frac_sqrt(q: Fraction) -> Fraction | None:
    root = _sqrt((), (q.numerator,), q.denominator)
    return None if root is None else Fraction(root[0][0], root[1])


def tower_conjugate(x: TowerElem, index: int) -> TowerElem:
    """Field automorphism sending sqrt(d_index) to -sqrt(d_index).

    Only defined when no later radicand involves the flipped generator;
    otherwise the sign flip does not extend to an automorphism.
    """
    if not 0 <= index < x.tower.depth:
        raise BadGeneratorIndex(f"generator index {index} out of range")
    for j in range(index + 1, x.tower.depth):
        rad = x.tower.gens[j]
        if any(mask >> index & 1 and c != 0 for mask, c in enumerate(rad._n)):
            raise BadGeneratorIndex(
                f"generator {j} has a radicand involving generator {index}; "
                "conjugation is not an automorphism of this tower"
            )
    n = tuple([-c if mask >> index & 1 else c for mask, c in enumerate(x._n)])
    return _elem(x.tower, n, x._d)


# ---------------------------------------------------------------------------
# Rational function field K(eps) over a tower K.  No order is defined here.
#
# A polynomial over K is held as an integer matrix over one positive
# denominator k: row i is the integer coordinate vector of the coefficient of
# eps^i, as in the tower kernels above, and the matrix is kept in content form
# (J. von zur Gathen and J. Gerhard, "Modern Computer Algebra", ch. 6).  The
# pair is canonical when gcd(k, every entry) == 1 and the last row is nonzero,
# so zero is () over 1 and equal polynomials have equal pairs.  The ``_f*``
# kernels take and return canonical pairs of one tower, the Euclidean
# reduction (``_freduce``) among them; ``Poly`` (a tuple of ``TowerElem``
# coefficients) is only built by ``num``/``den``.
# ---------------------------------------------------------------------------

Poly = tuple[TowerElem, ...]
IPoly = tuple[tuple[IVec, ...], int]


def _fcanon(rows: list[IVec], k: int) -> IPoly:
    """rows over k > 0, trimmed and reduced to canonical form."""
    while rows and not any(rows[-1]):
        rows.pop()
    if not rows:
        return (), 1
    if k != 1:
        g = gcd(k, *chain.from_iterable(rows))
        if g != 1:
            rows = [tuple([c // g for c in r]) for r in rows]
            k //= g
    return tuple(rows), k


def _fscale(rows: Sequence[IVec], f: int) -> list[IVec]:
    return [tuple([c * f for c in r]) for r in rows]


def _fadd(a: IPoly, b: IPoly) -> IPoly:
    """a + b: row-wise integer addition over one denominator."""
    (ra, ka), (rb, kb) = a, b
    if ka != kb:
        k = lcm(ka, kb)
        ra, rb, ka = _fscale(ra, k // ka), _fscale(rb, k // kb), k
    rows = [tuple(map(add, x, y)) for x, y in zip(ra, rb)]
    n = len(rows)
    return _fcanon(rows + list(ra[n:]) + list(rb[n:]), ka)


def _fneg(a: IPoly) -> IPoly:
    return tuple([_ineg(r) for r in a[0]]), a[1]


def _funit(a: IPoly) -> bool:
    """a is the unit polynomial: one row (1, 0, ...) over 1."""
    rows, k = a
    return k == 1 and len(rows) == 1 and rows[0][0] == 1 and not any(rows[0][1:])


def _fmul(rads: Rads, a: IPoly, b: IPoly) -> IPoly:
    """a * b: a convolution of the rows (each pair's ``_imul`` product added
    into slot i + j), the slots over one ``lcm`` and one ``gcd`` per result.
    A unit operand returns the other, which is already canonical."""
    (ra, ka), (rb, kb) = a, b
    if not ra or not rb:
        return (), 1
    if _funit(b):
        return a
    if _funit(a):
        return b
    out = [((0,) * len(ra[0]), 1)] * (len(ra) + len(rb) - 1)
    for i, x in enumerate(ra):
        for j, y in enumerate(rb):
            out[i + j] = _iadd(*out[i + j], *_imul(rads, x, y))
    den = lcm(*[k for _, k in out])
    return _fcanon([r if k == den else tuple([c * (den // k) for c in r]) for r, k in out], ka * kb * den)


def _fpoly(coeffs: Sequence[TowerElem]) -> IPoly:
    """Coefficients of one tower as a canonical pair."""
    k = lcm(*[c._d for c in coeffs])
    return _fcanon([c._n if c._d == k else tuple([x * (k // c._d) for x in c._n]) for c in coeffs], k)


def _ftower(a: IPoly, tower: TowerDesc) -> Poly:
    rows, k = a
    return tuple([_elem(tower, *_canon(r, k)) for r in rows])


def _fone(tower: TowerDesc) -> IPoly:
    return ((1,) + (0,) * (tower.dim - 1),), 1


def _flead_inv(rads: Rads, a: IPoly) -> IPoly:
    """The inverse of a's leading row, as a constant polynomial."""
    m, km = _inv(rads, *_canon(a[0][-1], a[1]))
    return (m,), km


def _fdivmod(rads: Rads, a: IPoly, b: IPoly) -> tuple[IPoly, IPoly]:
    """Quotient and remainder of a by a monic b, one leading row of a at a time."""
    q: IPoly = ((), 1)
    zero = (0,) * len(b[0][0])
    while len(a[0]) >= len(b[0]):
        t = ((zero,) * (len(a[0]) - len(b[0])) + (a[0][-1],), a[1])
        q, a = _fadd(q, t), _fadd(a, _fneg(_fmul(rads, t, b)))
    return q, a


def _freduce(tower: TowerDesc, num: IPoly, den: IPoly) -> tuple[IPoly, IPoly]:
    """num/den in lowest terms with a monic denominator (the unique form):
    Euclid on monic remainders, then both divided by the monic gcd g."""
    if not num[0]:
        return num, _fone(tower)
    rads = tower._rads
    if len(den[0]) > 1:
        a, g = num, _fmul(rads, den, _flead_inv(rads, den))
        while (r := _fdivmod(rads, a, g)[1])[0]:
            a, g = g, _fmul(rads, r, _flead_inv(rads, r))
        if len(g[0]) > 1:
            num, den = _fdivmod(rads, num, g)[0], _fdivmod(rads, den, g)[0]
    inv = _flead_inv(rads, den)
    return _fmul(rads, num, inv), _fmul(rads, den, inv)


class FunElem(_FieldOps):
    """Element of K(eps) over a tower K; immutable.

    Held lazily as a quotient of two polynomials over K that need not be
    coprime, each a canonical integer matrix over one denominator (see the
    kernels above).  ``+``, ``-``, ``*``, ``/`` and ``inverse`` multiply out
    without a polynomial gcd, and ``+`` over one shared denominator adds the
    numerators only.  ``==`` cross-multiplies (a.n * b.d == b.n * a.d, or the
    numerators alone over one shared denominator); that is exact because
    K[eps] is an integral domain, so a product of nonzero denominators is
    never zero.  A product with the unit polynomial (a constant's
    denominator) returns the other operand, so multiplying by a constant, and
    each side of ``==`` against one, takes no rescaling and no gcd.

    The public face is the reduced form: ``num`` and ``den`` are coprime
    polynomials of ``TowerElem`` coefficients and ``den`` is monic.  It is
    computed by Euclid on the integer matrices (``_freduce``), on first use,
    and cached as a pair of matrices; ``num`` and ``den`` build the
    coefficients from it.  ``is_constant``, the hash, the printed value and
    the codec all read it, so none of them depends on how the value was
    computed.
    """

    __slots__ = ("tower", "_n", "_d", "_reduced")

    def __init__(
        self, tower: TowerDesc, num: Sequence[TowerElem | RationalLike], den: Sequence[TowerElem | RationalLike]
    ) -> None:
        num, den = (_fpoly([c.lift(tower) if isinstance(c, TowerElem) else tower.rational(c) for c in p]) for p in (num, den))
        if not den[0]:
            raise ZeroDivisionError("zero denominator in function field element")
        _init(self, tower, num, den)

    @classmethod
    def _make(cls, tower: TowerDesc, num: IPoly, den: IPoly) -> "FunElem":
        """Wrap canonical pairs over ``tower``, den nonzero; no checks."""
        out = object.__new__(cls)
        _init(out, tower, num, den)
        return out

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def constant(value: TowerElem | RationalLike, tower: TowerDesc | None = None) -> "FunElem":
        if isinstance(value, (int, Fraction)):
            tower = tower or QQ
            n, d = value.numerator, value.denominator
            num = (((n,) + (0,) * (tower.dim - 1),), d) if n else ((), 1)
        else:
            tower = tower or value.tower
            value = value.lift(tower)
            num = ((value._n,), value._d) if any(value._n) else ((), 1)
        return FunElem._make(tower, num, _fone(tower))

    @staticmethod
    def eps(tower: TowerDesc = QQ) -> "FunElem":
        one = _fone(tower)
        return FunElem._make(tower, (((0,) * tower.dim, one[0][0]), 1), one)

    def _coerce(self, other) -> "FunElem | None":
        if isinstance(other, FunElem):
            return other
        if isinstance(other, (int, Fraction)):
            return FunElem.constant(other, self.tower)
        if isinstance(other, TowerElem):
            return FunElem.constant(other)
        return None

    def _common(self, other: "FunElem") -> tuple["FunElem", "FunElem", TowerDesc]:
        t, u = self.tower, other.tower
        if t is u or t == u:
            return self, other, t
        tower, into = tower_join(t, u)
        return self._lift(tower, into), other._lift(tower, into), tower

    def _lift(self, tower: TowerDesc, into: Callable[[TowerElem], TowerElem]) -> "FunElem":
        """This value over ``tower``.  Over an extension of its own tower each
        row is padded with zeros; otherwise each coefficient is mapped by
        ``into`` (of ``tower_join``)."""
        if self.tower is tower:
            return self
        if self.tower.is_prefix_of(tower):
            pad = (0,) * (tower.dim - self.tower.dim)
            (nr, nk), (dr, dk) = self._n, self._d
            return FunElem._make(tower, (tuple([r + pad for r in nr]), nk), (tuple([r + pad for r in dr]), dk))
        num, den = (_fpoly([into(c) for c in _ftower(p, self.tower)]) for p in (self._n, self._d))
        return FunElem._make(tower, num, den)

    # -- reduced form --------------------------------------------------------------

    def _canonical(self) -> tuple[IPoly, IPoly]:
        if self._reduced is None:
            _fset_reduced(self, _freduce(self.tower, self._n, self._d))
        return self._reduced

    @property
    def num(self) -> Poly:
        return _ftower(self._canonical()[0], self.tower)

    @property
    def den(self) -> Poly:
        return _ftower(self._canonical()[1], self.tower)

    # -- structure -----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._n[0]

    def is_constant(self) -> bool:
        num, den = self._canonical()
        return len(num[0]) <= 1 and len(den[0]) == 1

    def is_rational(self) -> bool:
        rows = self._canonical()[0][0]
        return self.is_constant() and not (rows and any(rows[0][1:]))

    # -- arithmetic ------------------------------------------------------------------

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b, tower = self._common(rhs)
        if a._d == b._d:
            return FunElem._make(tower, _fadd(a._n, b._n), a._d)
        rads = tower._rads
        num = _fadd(_fmul(rads, a._n, b._d), _fmul(rads, b._n, a._d))
        return FunElem._make(tower, num, _fmul(rads, a._d, b._d))

    __radd__ = __add__

    def __neg__(self):
        return FunElem._make(self.tower, _fneg(self._n), self._d)

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b, tower = self._common(rhs)
        rads = tower._rads
        return FunElem._make(tower, _fmul(rads, a._n, b._n), _fmul(rads, a._d, b._d))

    __rmul__ = __mul__

    def inverse(self) -> "FunElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero function field element")
        return FunElem._make(self.tower, self._d, self._n)

    def __eq__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b, tower = self._common(rhs)
        if a._d == b._d:
            return a._n == b._n
        rads = tower._rads
        return _fmul(rads, a._n, b._d) == _fmul(rads, b._n, a._d)

    def __hash__(self) -> int:
        num, den = self.num, self.den
        if self.is_constant():
            # a constant hashes like the tower element (and rational) it equals
            return hash(num[0] if num else 0)
        return hash((num, den))

    def __repr__(self) -> str:
        return f"FunElem({self})"

    def __str__(self) -> str:
        def fmt(p: Poly) -> str:
            if not p:
                return "0"
            parts = []
            for i, c in enumerate(p):
                if c.is_zero():
                    continue
                if i == 0:
                    parts.append(f"{c}")
                elif i == 1:
                    parts.append(f"({c})*eps")
                else:
                    parts.append(f"({c})*eps^{i}")
            return " + ".join(parts)

        num, den = self.num, self.den
        if len(den) == 1:
            return fmt(num)
        return f"({fmt(num)}) / ({fmt(den)})"


_fset_tower = FunElem.tower.__set__
_fset_n = FunElem._n.__set__
_fset_d = FunElem._d.__set__
_fset_reduced = FunElem._reduced.__set__


def _init(x: FunElem, tower: TowerDesc, num: IPoly, den: IPoly) -> None:
    _fset_tower(x, tower)
    _fset_n(x, num)
    _fset_d(x, den)
    _fset_reduced(x, None)


def fun_pack(rows: Sequence[IVec], dim: int, shifts: range) -> IVec:
    """Kronecker substitution (von zur Gathen & Gerhard, "Modern Computer
    Algebra", sec. 8.4): integer rows r_i at eps = 2^w, coordinate j being
    sum(r_i[j] << w*i), for ``shifts`` = range(0, w*L', w) with L' >= L."""
    if not rows:
        return (0,) * dim
    return tuple([sum(map(lshift, column, shifts)) for column in zip(*rows)])
